"""Adaptive Simpson quadrature for heavy-tailed survival integrands.

The integrands in this package are nonnegative, piecewise smooth, and decay
like t^(-a) (ln t)^(-b) (lnln t)^(-c).  Two features matter more than raw
order: segments must be split at the knees of piecewise tails (Simpson is
then exact on constant pieces), and far-tail segments must be integrated in
the variable s = ln t, where a log-polynomial decay becomes slowly varying:

    /b              / ln b
    | f(t) dt  =    |      f(e^s) e^s ds.
    /a              / ln a

`integrate` cuts every cell of a grid into segments at the breakpoints and
at LOG_FROM and puts every segment into one queue of intervals, refined in
vectorized batches.  A segment that ends on a breakpoint takes f's left
limit there (f at the double below it): the integral over the segment does
not depend on f at its end, and f may jump there.  An interval is accepted
when the Richardson estimate |S2 - S1|/15 is below REL_TOL (1e-9) of |S2|
plus its length's share of ABS_FLOOR in its segment; one call may process
BUDGET (1e6) intervals.  One math.fsum per segment and one per cell make a
cell's value independent of the refinement order and of the other cells in
the queue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure

REL_TOL = 1e-9
ABS_FLOOR = 1e-12
BUDGET = 1_000_000

# Log substitution is only useful once the integrand has left its knees;
# segments entirely above this point are integrated in s = ln t.
LOG_FROM = 8.0


@dataclass(frozen=True)
class QuadResult:
    values: np.ndarray  # integral over each cell [nodes[i], nodes[i+1]]
    error: np.ndarray   # accumulated Richardson estimate of each cell
    intervals: int      # intervals processed before acceptance, all cells


def _simpson_batch(lo, hi, flo, fmid, fhi):
    return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)


def _fsum_groups(values, groups, n: int) -> np.ndarray:
    """math.fsum of `values` within each label 0..n-1 of `groups`."""
    order = np.argsort(groups, kind="stable")
    cut = np.searchsorted(groups[order], np.arange(n + 1)).tolist()
    vals = values[order].tolist()
    return np.array([math.fsum(vals[i:j]) for i, j in zip(cut[:-1], cut[1:])])


def _segments(nodes: np.ndarray, breaks: set[float]):
    """(cell, t_lo, t_hi, on_log, lo, hi) of every segment, as arrays in
    order: each cell of `nodes` cut at the breaks and at LOG_FROM inside it,
    with lo and hi in the integration variable (math.log on a log segment)
    and the segments empty there left out.  The cut points are the nodes
    and the cuts in one sorted array, where a repeated point makes an empty
    segment, so a segment's cell is the last node at or below its left end."""
    inner = [t for t in (*breaks, LOG_FROM) if nodes[0] < t < nodes[-1]]
    points = np.sort(np.concatenate([nodes, inner]))
    t_lo, t_hi = points[:-1], points[1:]
    on_log = t_lo >= LOG_FROM
    lo, hi = t_lo.copy(), t_hi.copy()
    for ends, x in ((t_lo, lo), (t_hi, hi)):
        x[on_log] = [math.log(t) for t in ends[on_log].tolist()]
    keep = hi > lo
    t_lo, t_hi, on_log, lo, hi = t_lo[keep], t_hi[keep], on_log[keep], lo[keep], hi[keep]
    return np.searchsorted(nodes, t_lo, side="right") - 1, t_lo, t_hi, on_log, lo, hi


def integrate(f, nodes, *, breakpoints=()) -> QuadResult:
    """Integrate a vectorized nonnegative integrand over each cell of `nodes`.

    `nodes` is a nondecreasing sequence of points >= 0, and `values[i]` is
    the integral over [nodes[i], nodes[i+1]].  ``breakpoints`` are points
    where f may have kinks or jumps (piece knees of a tail model); a cell is
    split at those inside it, and a segment ending on one reads f's left
    limit there.  Segments lying at or above LOG_FROM are
    integrated in s = ln t.

    Raises ValueError on negative or decreasing nodes, and QuadratureFailure
    if the queue processes more than BUDGET intervals.
    """
    nodes = np.asarray(nodes, dtype=float)
    if not (nodes.ndim == 1 and nodes.size and nodes[0] >= 0.0 and np.all(np.diff(nodes) >= 0.0)):
        raise ValueError(f"invalid integration nodes {nodes}")
    breaks = {float(t) for t in breakpoints}
    cell, t_lo, t_hi, on_log, lo, hi = _segments(nodes, breaks)
    if not lo.size:
        zero = np.zeros(nodes.size - 1)
        return QuadResult(zero, zero, 0)
    # a right end on a breakpoint is f's left limit there: the double below
    left_limit = np.array([t in breaks for t in t_hi.tolist()])
    seg_len, seg = hi - lo, np.arange(lo.size)

    def g(*points):
        # f in t on linear segments, f(e^s) e^s on log segments
        x = np.concatenate(points)
        log = np.tile(on_log[seg], len(points))
        t = x.copy()
        t[log] = np.exp(x[log])
        y = np.asarray(f(t), dtype=float)
        return np.split(np.where(log, y * t, y), len(points))

    flo, fmid, fhi = g(lo, 0.5 * (lo + hi), hi)
    if np.any(left_limit):
        t_end = np.nextafter(t_hi[left_limit], 0.0)
        f_end = np.asarray(f(t_end), dtype=float)
        fhi[left_limit] = np.where(on_log[left_limit], f_end * t_end, f_end)
    whole = _simpson_batch(lo, hi, flo, fmid, fhi)
    contributions, errors, owners = [], [], []
    used = 0
    while lo.size:
        used += lo.size
        if used > BUDGET:
            raise QuadratureFailure(
                f"subdivision budget exhausted on [{t_lo[seg[0]]:g}, {t_hi[seg[0]]:g}] "
                f"({used} intervals, {lo.size} still active)"
            )
        mid = 0.5 * (lo + hi)
        f1, f2 = g(0.5 * (lo + mid), 0.5 * (mid + hi))
        left = _simpson_batch(lo, mid, flo, f1, fmid)
        right = _simpson_batch(mid, hi, fmid, f2, fhi)
        better = left + right
        err = np.abs(better - whole) / 15.0
        # Local acceptance: relative against the local value plus an absolute
        # floor apportioned by length within the interval's segment.
        tol = REL_TOL * np.abs(better) + ABS_FLOOR * (hi - lo) / seg_len[seg]
        done = err <= tol
        # Intervals narrower than a few ulps cannot be refined further.
        done |= (hi - lo) <= 8.0 * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi))
        contributions.append(better[done] + (better[done] - whole[done]) / 15.0)
        errors.append(err[done])
        owners.append(seg[done])

        keep = ~done  # the open left halves, then the open right halves
        lo, hi, flo, fmid, fhi, whole = np.concatenate(
            [np.stack([lo, mid, flo, f1, fmid, left])[:, keep],
             np.stack([mid, hi, fmid, f2, fhi, right])[:, keep]], axis=1)
        seg = np.tile(seg[keep], 2)

    owner = np.concatenate(owners)
    values, error = (_fsum_groups(_fsum_groups(np.concatenate(x), owner, cell.size),
                                  cell, nodes.size - 1) for x in (contributions, errors))
    return QuadResult(values, error, used)
