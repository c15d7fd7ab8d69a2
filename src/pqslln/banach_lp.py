"""The order-statistics maximal inequality of Marcus and Pisier.

For iid magnitudes X_1..X_n with nonincreasing rearrangement X*_k and
r >= 1, P(sup_k k^(1/r) X*_k > u) <= (2e/u^r) sup_t t^r sum_k P(||X_k|| > t).
`sup_power_weighted_tail` computes the supremum on the right from the tail
model's pieces, in closed form on a power piece and by a refined grid in
ln t on a log-corrected one, and `marcus_pisier_check` sets the empirical
left side beside the bound on a grid of u.  Its paths come in pieces of
max(1, 2^16 // n), and probe stream k draws piece k whole, one unsigned
`draw_batch`.  The pieces are counted on every usable CPU, each with
buffers of its own, so memory is threads x one piece, whatever the
replication count, and the integer counts add to the same table at any
thread count.  The
disjoint-coordinate l_p witness is the `lp-counterexample` rule of
`mc_engine`.
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
    """sup_{t>0} t^r P(||X|| > t) for r > 0, exact on pieces without log
    factors; on a log-corrected piece, `_log_piece_sup`."""
    best = 0.0
    for pc in model.pieces:
        lo, hi = pc.t_lo, pc.t_hi
        const, a = pc.tail.const, pc.tail.a
        if const <= 0.0:
            continue
        if pc.tail.b == pc.tail.c == 0.0:
            # t^r min(1, const t^-a) = min(t^r, const t^(r - a)) is concave in
            # ln t, so its sup is at an end (a limit at inf) or where the
            # clamp at 1 ends, t = const^(1/a)
            with np.errstate(over="ignore", divide="ignore"):
                clamp = np.float64(const) ** (1.0 / a) if a else hi
                t = np.clip([lo, hi, clamp], lo, hi)
                best = max(best, float(np.max(np.minimum(t**r, const * t ** (r - a)))))
            continue
        best = max(best, _log_piece_sup(pc, r))
    return best


def _log_piece_sup(pc: tm.TailPiece, r: float) -> float:
    """sup of t^r min(1, const t^-a (ln t)^-b (lnln t)^-c) on the piece.

    In x = ln t its log is h(x) = min(r x, phi(x)), phi(x) = (r - a) x +
    ln const - b ln x - c lnln x.  On an unbounded piece h grows without
    bound when (r - a, -b, -c) > 0 lexicographically: the sup is inf.  Else
    phi falls for x > x_phi (x_phi = (|b| + |c|) / (a - r) for r < a, and
    exp(-c / b) for r = a, b > 0) and phi - r x for x > (|b| + |c|) / a, so
    the piece is cut where both fall and phi < r x; past that cut h falls.
    A 4096-point grid in x takes h's largest value, and each of its local
    maxima is refined by bisecting the sign of h' between its neighbours,
    which finds an interior maximizer and the end of the clamp alike, so the
    sup is not read low between grid points."""
    a, b, c = pc.tail.a, pc.tail.b, pc.tail.c
    log_const = math.log(pc.tail.const)

    def phi(x):
        out = (r - a) * x + log_const - b * np.log(x)
        return out - c * np.log(np.log(x)) if c else out

    def slope(x):  # h'(x)
        d_phi = (r - a) - (b + (c / np.log(x) if c else 0.0)) / x
        return np.where(r * x < phi(x), r, d_phi)

    x_lo = math.log(pc.t_lo)
    if math.isfinite(pc.t_hi):
        x_hi = math.log(pc.t_hi)
    elif (r - a, -b, -c) > (0.0, 0.0, 0.0):
        return math.inf
    else:
        spread = abs(b) + abs(c)
        if r < a:
            x_phi = spread / (a - r)
        elif b > 0.0:
            x_phi = math.exp(-c / b) if -c / b < 700.0 else math.inf
        else:  # b = 0 < c
            x_phi = 1.0
        x_hi = 2.0 * max(x_lo, math.e, x_phi, spread / a)
        while math.isfinite(x_hi) and not phi(x_hi) < r * x_hi:
            x_hi *= 2.0
        if not math.isfinite(x_hi):  # past every double ln t: no bound proved
            return math.inf
    xs = np.linspace(x_lo, x_hi, 4096)
    hs = np.minimum(r * xs, phi(xs))
    padded = np.concatenate([[-np.inf], hs, [-np.inf]])
    peaks = np.flatnonzero((hs >= padded[:-2]) & (hs >= padded[2:]))
    left, right = xs[np.maximum(peaks - 1, 0)], xs[np.minimum(peaks + 1, xs.size - 1)]
    top = tm.bisect(lambda x: -slope(x), left, right)
    with np.errstate(over="ignore"):
        return float(np.exp(max(hs.max(), np.minimum(r * top, phi(top)).max())))


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


def _count_piece(sampler: mc.MagnitudeSampler, n: int, weights: np.ndarray,
                 u_grid: np.ndarray, master_seed: int, k: int, paths: int) -> np.ndarray:
    """How many of piece k's `paths` paths put their statistic above each u,
    drawn whole from probe stream k into buffers of its own."""
    buffers = mc.ChunkBuffers(paths * n, 1)
    gen = rng.generator(master_seed, k, rng.ROLE_PROBE)
    mags = mc.draw_batch(gen, sampler, 0.0, buffers.draws[0], buffers).reshape(paths, n)
    mags.sort(axis=1)
    stat = np.max(np.multiply(mags, weights, out=mags), axis=1)
    return (stat[None, :] > u_grid[:, None]).sum(axis=1)


def marcus_pisier_check(model: tm.TailModel, n: int, r: float, u_grid,
                        replications: int, master_seed: int = 0) -> MarcusPisierTable:
    """Empirical P(sup_k k^(1/r) X*_k > u) against the bound
    (2e/u^r) sup_t t^r sum_k P(||X_k|| > t) for iid draws.

    X*_k is the nonincreasing rearrangement of the n magnitudes, computed by a
    full sort per replication.  The paths come in pieces of max(1, 2^16 // n)
    (the last may be short), and probe stream k draws piece k whole.  The
    pieces are counted on `mc_engine.usable_cpus()` threads and their integer
    counts added, so the table does not depend on the thread count.
    A bad count or seed (`tm.check_count`) or r < 1 raises ValueError first.
    """
    if not (tm.is_number(r) and r >= 1.0):
        raise ValueError(f"the inequality requires a finite r >= 1, got {r!r}")
    n = tm.check_count("n", n, 1)
    replications = tm.check_count("replications", replications, 1)
    master_seed = tm.check_count("master_seed", master_seed, 0, rng.MAX_SEED)
    u_grid = np.asarray(sorted(float(u) for u in u_grid))
    if not (u_grid.size and np.all((0.0 < u_grid) & (u_grid < math.inf))):  # false for nan
        raise ValueError("u_grid must be a nonempty list of finite positive numbers")
    # k^(1/r) weights the k-th largest magnitude, so the sorted (ascending)
    # row takes the weights reversed
    weights = np.ascontiguousarray((np.arange(1, n + 1, dtype=float) ** (1.0 / r))[::-1])
    rows = max(1, (1 << 16) // n)
    sampler = mc.MagnitudeSampler(model)
    counts = sum(mc.parallel_map(
        lambda k: _count_piece(sampler, n, weights, u_grid, master_seed, k,
                               min(rows, replications - k * rows)),
        range(-(-replications // rows)), mc.usable_cpus()))
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
