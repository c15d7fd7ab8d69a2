"""The order-statistics maximal inequality of Marcus and Pisier.

For iid magnitudes X_1..X_n with nonincreasing rearrangement X*_k and
r >= 1, P(sup_k k^(1/r) X*_k > u) <= (2e/u^r) sup_t t^r sum_k P(||X_k|| > t).
`sup_power_weighted_tail` computes the supremum on the right from the tail
model's pieces, and `marcus_pisier_check` sets the empirical left side beside
the bound on a grid of u.  Its draws stream in unsigned `draw_batch` pieces
of at most 2^16 magnitudes (one path when n is larger), so its memory is
bounded by the piece size, not by the replication count.  The
disjoint-coordinate l_p witness is the `lp-counterexample` rule of `mc_engine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mc_engine as mc
from . import rng
from . import tail_models as tm

__all__ = ["sup_power_weighted_tail", "MarcusPisierTable", "marcus_pisier_check"]


def sup_power_weighted_tail(model: tm.TailModel, r: float) -> float:
    """sup_{t>0} t^r P(||X|| > t), exact on pieces without log factors,
    grid-refined on the log-corrected ones."""
    best = 0.0
    for pc in model.pieces:
        lo = max(pc.t_lo, 1e-12)
        hi = pc.t_hi
        const, a = pc.tail.const, pc.tail.a
        if const <= 0.0:
            continue
        if pc.tail.b == pc.tail.c == 0.0:  # const * t^(r - a) is monotone
            if r > a:
                if math.isinf(hi):
                    return math.inf
                best = max(best, hi ** (r - a) * const)
            elif r < a:
                best = max(best, lo ** (r - a) * const)
            else:
                best = max(best, const)
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


def marcus_pisier_check(model: tm.TailModel, n: int, r: float, u_grid,
                        replications: int, master_seed: int = 0) -> MarcusPisierTable:
    """Empirical P(sup_k k^(1/r) X*_k > u) against the bound
    (2e/u^r) sup_t t^r sum_k P(||X_k|| > t) for iid draws.

    X*_k is the nonincreasing rearrangement of the n magnitudes, computed by a
    full sort per replication.  Probe stream b draws block b of 2^22 // n
    paths, in pieces of max(1, 2^16 // n) paths, each counted before the next
    is drawn; unsigned draws continue one stream, so the pieces join to one
    draw of the block.
    """
    if not (tm.is_number(r) and r >= 1.0):
        raise ValueError(f"the inequality requires a finite r >= 1, got {r!r}")
    if n < 1:
        raise ValueError("the inequality needs paths of length n >= 1")
    if replications < 1:
        raise ValueError("the empirical side needs at least one replication")
    u_grid = np.asarray(sorted(float(u) for u in u_grid))
    if not (u_grid.size and np.all((0.0 < u_grid) & (u_grid < math.inf))):  # false for nan
        raise ValueError("u_grid must be a nonempty list of finite positive numbers")
    weights = np.arange(1, n + 1, dtype=float) ** (1.0 / r)
    counts = np.zeros(u_grid.size)
    sampler = mc.MagnitudeSampler(model)
    per_block, rows = max(1, (1 << 22) // n), max(1, (1 << 16) // n)
    for block_id, done in enumerate(range(0, replications, per_block)):
        gen = rng.generator(master_seed, block_id, rng.ROLE_PROBE)
        size = min(per_block, replications - done)
        for start in range(0, size, rows):
            buffers = mc.ChunkBuffers(min(rows, size - start) * n, 1)
            mags = mc.draw_batch(gen, sampler, 0.0, buffers.draws[0], buffers).reshape(-1, n)
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
