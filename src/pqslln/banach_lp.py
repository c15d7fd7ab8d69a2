"""The order-statistics maximal inequality of Marcus and Pisier.

For iid magnitudes X_1..X_n with nonincreasing rearrangement X*_k and
r >= 1, P(sup_k k^(1/r) X*_k > u) <= (2e/u^r) sup_t t^r sum_k P(||X_k|| > t).
`sup_power_weighted_tail` computes the supremum on the right from the tail
model's pieces, and `marcus_pisier_check` sets the empirical left side beside
the bound on a grid of u.  Its draws stream in unsigned `draw_batch` pieces
of at most 2^16 magnitudes (one path when n is larger), and one thread per
usable CPU counts a contiguous run of pieces with one piece's buffers, so
its memory is threads x one piece, whatever the replication count.  A run
that starts inside a block skips that block's stream to its first draw, so
the table does not depend on the thread count.  The disjoint-coordinate l_p
witness is the `lp-counterexample` rule of `mc_engine`.
"""

from __future__ import annotations

import math
import numbers
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


def _count_pieces(sampler: mc.MagnitudeSampler, n: int, weights: np.ndarray,
                  u_grid: np.ndarray, master_seed: int,
                  pieces: list[tuple[int, int, int]]) -> np.ndarray:
    """How many of the paths of `pieces` (block, first path, paths) put their
    statistic above each u, drawn with one set of buffers.  The first piece
    opens its block's probe stream past the draws of the paths before it:
    an unsigned `draw_batch` takes one uniform per magnitude."""
    size = max(paths for _, _, paths in pieces) * n
    full = mc.ChunkBuffers(size, 1)
    counts = np.zeros(u_grid.size, dtype=np.int64)
    block = None
    for b, first, paths in pieces:
        if b != block:
            gen, block = rng.generator(master_seed, b, rng.ROLE_PROBE, skip=first * n), b
        # a short piece, only ever a block's last, gets buffers of its own
        buffers = full if paths * n == size else mc.ChunkBuffers(paths * n, 1)
        mags = mc.draw_batch(gen, sampler, 0.0, buffers.draws[0], buffers).reshape(-1, n)
        mags.sort(axis=1)
        stat = np.max(np.multiply(mags, weights, out=mags), axis=1)
        counts += (stat[None, :] > u_grid[:, None]).sum(axis=1)
    return counts


def marcus_pisier_check(model: tm.TailModel, n: int, r: float, u_grid,
                        replications: int, master_seed: int = 0) -> MarcusPisierTable:
    """Empirical P(sup_k k^(1/r) X*_k > u) against the bound
    (2e/u^r) sup_t t^r sum_k P(||X_k|| > t) for iid draws.

    X*_k is the nonincreasing rearrangement of the n magnitudes, computed by a
    full sort per replication.  Probe stream b draws block b of 2^22 // n
    paths, in pieces of max(1, 2^16 // n) paths; unsigned draws continue one
    stream, so the pieces join to one draw of the block.  The list of pieces
    is cut into at most `mc_engine.usable_cpus()` contiguous runs, each
    counted on its own thread with its own buffers of one piece, and the
    runs' integer counts are added: the table does not depend on the thread
    count.
    """
    if not (tm.is_number(r) and r >= 1.0):
        raise ValueError(f"the inequality requires a finite r >= 1, got {r!r}")
    for name, value in (("n", n), ("replications", replications)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if n < 1:
        raise ValueError("the inequality needs paths of length n >= 1")
    if replications < 1:
        raise ValueError("the empirical side needs at least one replication")
    u_grid = np.asarray(sorted(float(u) for u in u_grid))
    if not (u_grid.size and np.all((0.0 < u_grid) & (u_grid < math.inf))):  # false for nan
        raise ValueError("u_grid must be a nonempty list of finite positive numbers")
    # k^(1/r) weights the k-th largest magnitude, so the sorted (ascending)
    # row takes the weights reversed
    weights = np.ascontiguousarray((np.arange(1, n + 1, dtype=float) ** (1.0 / r))[::-1])
    per_block, rows = max(1, (1 << 22) // n), max(1, (1 << 16) // n)
    pieces = []  # (block, first path, paths), in the order one thread would draw them
    for b, done in enumerate(range(0, replications, per_block)):
        size = min(per_block, replications - done)
        pieces += [(b, first, min(rows, size - first)) for first in range(0, size, rows)]
    workers = mc.usable_cpus()
    step = -(-len(pieces) // workers)
    runs = [pieces[i:i + step] for i in range(0, len(pieces), step)]
    sampler = mc.MagnitudeSampler(model)
    counts = sum(mc.parallel_map(
        lambda run: _count_pieces(sampler, n, weights, u_grid, master_seed, run), runs, workers))
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
