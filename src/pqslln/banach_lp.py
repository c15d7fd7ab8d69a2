"""The order-statistics maximal inequality of Marcus and Pisier.

For iid magnitudes X_1..X_n with nonincreasing rearrangement X*_k and
r >= 1, P(sup_k k^(1/r) X*_k > u) <= (2e/u^r) sup_t t^r sum_k P(||X_k|| > t).
`sup_power_weighted_tail` computes the supremum on the right from the tail
model's pieces, and `marcus_pisier_check` sets the empirical left side beside
the bound on a grid of u.  The disjoint-coordinate l_p witness is simulated
by `mc_engine` as the `lp-counterexample` sequence rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mc_engine as mc
from . import tail_models as tm

__all__ = ["sup_power_weighted_tail", "MarcusPisierTable", "marcus_pisier_check"]


def sup_power_weighted_tail(model: tm.TailModel, r: float) -> float:
    """sup_{t>0} t^r P(||X|| > t), exact on power/constant pieces, grid-refined
    on the log-corrected ones."""
    best = 0.0
    for i, pc in enumerate(model.pieces):
        lo = max(pc.t_lo, 1e-12) if i > 0 else 1e-12
        hi = pc.t_hi
        if pc.formula == "indicator-below":
            thr = pc.param("threshold")
            if thr > 0.0:
                best = max(best, thr**r)  # sup of t^r * 1(t < thr) as t -> thr
            continue
        if pc.formula == "constant":
            val = pc.param("value")
            if val <= 0.0:
                continue
            if math.isinf(hi):
                return math.inf
            best = max(best, hi**r * val)
            continue
        a = pc.param("power")
        scale = pc.param("scale")
        if pc.formula == "power":
            if r > a:
                if math.isinf(hi):
                    return math.inf
                best = max(best, hi ** (r - a) * scale)
            elif r < a:
                best = max(best, lo ** (r - a) * scale)
            else:
                best = max(best, scale)
            continue
        # log-corrected pieces: t^r S(t) with S decaying like t^-a (ln t)^-b...
        if r > a and math.isinf(hi):
            return math.inf
        top = hi if math.isfinite(hi) else max(lo * 1e30, 1e30)
        grid = np.geomspace(lo, top, 4096)
        vals = grid**r * np.asarray(tm.survival(model, grid))
        best = max(best, float(np.max(vals)))
    return best


@dataclass(frozen=True)
class MarcusPisierTable:
    n: int
    r: float
    u_grid: tuple[float, ...]
    empirical_lhs: tuple[float, ...]
    analytic_rhs: tuple[float, ...]
    standard_errors: tuple[float, ...]
    sup_value: float

    def holds(self, sigmas: float = 4.0) -> bool:
        return all(l <= rhs + sigmas * se for l, rhs, se in
                   zip(self.empirical_lhs, self.analytic_rhs, self.standard_errors))

    def to_dict(self) -> dict:
        return {
            "n": self.n, "r": self.r, "u_grid": list(self.u_grid),
            "empirical_lhs": list(self.empirical_lhs),
            "analytic_rhs": list(self.analytic_rhs),
            "standard_errors": list(self.standard_errors),
            "sup_value": self.sup_value,
        }


def marcus_pisier_check(model: tm.TailModel, n: int, r: float, u_grid,
                        replications: int, master_seed: int = 0) -> MarcusPisierTable:
    """Empirical P(sup_k k^(1/r) X*_k > u) against the bound
    (2e/u^r) sup_t t^r sum_k P(||X_k|| > t) for iid draws.

    X*_k is the nonincreasing rearrangement of the n magnitudes, computed by a
    full sort per replication.
    """
    if r < 1.0:
        raise ValueError("the inequality requires r >= 1")
    u_grid = np.asarray(sorted(float(u) for u in u_grid))
    weights = np.arange(1, n + 1, dtype=float) ** (1.0 / r)
    counts = np.zeros(u_grid.size)
    per_block = max(1, (1 << 22) // max(n, 1))
    for mags in mc.probe_blocks(model, replications, per_block, n, master_seed, 0.0):
        mags[:, ::-1].sort(axis=1)  # descending
        stat = np.max(weights[None, :] * mags, axis=1)
        counts += (stat[None, :] > u_grid[:, None]).sum(axis=1)
    lhs = counts / replications
    se = np.sqrt(lhs * (1.0 - lhs) / replications)
    sup_val = sup_power_weighted_tail(model, r)
    rhs = 2.0 * math.e * n * sup_val / u_grid**r
    return MarcusPisierTable(
        n=n, r=r, u_grid=tuple(u_grid.tolist()),
        empirical_lhs=tuple(lhs.tolist()),
        analytic_rhs=tuple(rhs.tolist()),
        standard_errors=tuple(se.tolist()),
        sup_value=sup_val,
    )
