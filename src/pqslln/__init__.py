"""Numerical laboratory for (p,q)-type strong laws of large numbers.

Subpackages:

- ``tail_models``: exact survival-function models, quantiles,
  inverse-transform sampling, and the cumulative tail integrals of S(t^(1/p)).
- ``criteria``: clause-by-clause convergence classification of the
  membership conditions.
- ``mc_engine``: deterministic parallel Monte Carlo over normed partial sums,
  and the disjoint-coordinate l_p counterexample path.
- ``banach_lp``: the order-statistics maximal-inequality check.
- ``oracles``: exact enumeration checks for the finite-n inequalities.
- ``cli``: experiment runner.

``import pqslln`` imports none of them, so a process loads only the
submodules it names (``from pqslln import criteria``) and what they import.
"""

__version__ = "0.1.0"
