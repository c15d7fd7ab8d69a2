"""Numerical laboratory for (p,q)-type strong laws of large numbers.

Subpackages:

- ``tail_models``: exact survival-function models, quantiles, sampling,
  truncated moments.
- ``criteria``: clause-by-clause convergence classification of the
  membership conditions.
- ``mc_engine``: deterministic parallel Monte Carlo over normed partial sums,
  and the disjoint-coordinate l_p counterexample path.
- ``banach_lp``: the order-statistics maximal-inequality check.
- ``oracles``: exact enumeration checks for the finite-n inequalities.
- ``cli``: experiment runner.
"""

__version__ = "0.1.0"

from . import tail_models  # noqa: E402,F401  (dependency order matters)
from . import criteria     # noqa: E402,F401
from . import oracles      # noqa: E402,F401
from . import mc_engine    # noqa: E402,F401
from . import banach_lp    # noqa: E402,F401
