"""The verdict type shared by the classifiers and the MC engine, the
least-squares line fit behind the growth and divergence diagnostics, and the
simulation modes, which the config schema checks without loading the engine."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CONVERGES = "Converges"
DIVERGES = "Diverges"
INCONCLUSIVE = "Inconclusive"
MODES = ("plain", "symmetrized")  # symmetrized replaces X by X - X'


@dataclass(frozen=True)
class Verdict:
    kind: str
    estimate_on_window: float
    remainder_bound: float | None = None
    method: str = "tail-exponents"
    diagnostics: dict = field(default_factory=dict)


def fit_line(x, y):
    """Ordinary least squares y ~ a + b x.  Returns (slope, slope_se)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    top = float(np.max(np.abs(y), initial=0.0))
    if 2.0**500 < top < np.inf:  # fit y / 2^k, exact, so no product below overflows
        k = int(np.frexp(top)[1])
        return tuple(float(np.ldexp(v, k)) for v in fit_line(x, np.ldexp(y, -k)))
    if x.size < 2:
        return 0.0, np.inf
    xm = x - x.mean()
    sxx = float(np.dot(xm, xm))
    if sxx == 0.0:
        return 0.0, np.inf
    slope = float(np.dot(xm, y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = max(x.size - 2, 1)
    se = float(np.sqrt(np.dot(resid, resid) / dof / sxx))
    return slope, se
