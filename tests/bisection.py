"""Reference bisections.

`bisect_decreasing` validates the exact inverse survival.  It is independent
of the piece catalog: it only evaluates the survival function, so it checks
`tail_models.inverse_survival` from outside.  `bisect_all_halvings` is the
fixed 100-halving loop that `tail_models.bisect` must reproduce.
"""

import numpy as np

from pqslln.errors import NonMonotoneTail


def bisect_decreasing(fn, targets, *, hi_seed: float, rel_tol: float = 1e-12,
                      max_iter: int = 160):
    """Vectorized inf{t : fn(t) < target} for nonincreasing fn and targets in (0, 1].

    Brackets each target by per-element doubling, then bisects.  Returns the
    upper ends of the final brackets (where fn < target) and their widths.
    Raises NonMonotoneTail if fn is detected increasing on the bracketing grid.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))

    seed = max(hi_seed, 1.0)
    hi = np.full(targets.shape, seed)
    lo = np.zeros_like(targets)
    for _ in range(1100):
        need = fn(hi) >= targets
        if not np.any(need):
            break
        lo = np.where(need, hi, lo)
        hi = np.where(need, 2.0 * hi, hi)
        if np.any(hi[need] > 8.9e307):
            raise NonMonotoneTail("could not bracket: survival does not fall below target")
    else:
        raise NonMonotoneTail("could not bracket: survival does not fall below target")

    probe = np.geomspace(seed * 1e-3, float(np.max(hi)), 200)
    vals = fn(probe)
    if np.any(np.diff(vals) > 1e-12):
        raise NonMonotoneTail("survival increased on the bracketing grid")

    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        above = fn(mid) >= targets
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
        gap = hi - lo
        if np.all(gap <= rel_tol * np.maximum(hi, 1.0)):
            break
    return hi, hi - lo


def bisect_all_halvings(f, left, right):
    """`tail_models.bisect` without its early return: all 100 halvings, the
    reference its result must equal bit for bit."""
    for _ in range(100):
        mid = 0.5 * (left + right)
        low = f(mid) <= 0.0
        left, right = np.where(low, mid, left), np.where(low, right, mid)
    return right
