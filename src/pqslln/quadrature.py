"""Adaptive Simpson quadrature for heavy-tailed survival integrands.

The integrands in this package are nonnegative, piecewise smooth, and decay
like t^(-a) (ln t)^(-b) (lnln t)^(-c).  Two features matter more than raw
order: segments must be split at the knees of piecewise tails (Simpson is
then exact on constant pieces), and far-tail segments must be integrated in
the variable s = ln t, where a log-polynomial decay becomes slowly varying:

    /b              / ln b
    | f(t) dt  =    |      f(e^s) e^s ds.
    /a              / ln a

The implementation processes a queue of intervals in vectorized batches so
integrand evaluations are numpy array calls, and accepts an interval when the
Richardson error estimate |S2 - S1|/15 is below the local share of the
tolerance.  Converged contributions are accumulated with math.fsum, so the
result does not depend on the refinement order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure

DEFAULT_REL_TOL = 1e-9
ABS_FLOOR = 1e-12
DEFAULT_BUDGET = 1_000_000

# Log substitution is only useful once the integrand has left its knees;
# segments entirely above this point are integrated in s = ln t.
_LOG_SUB_MIN = 8.0


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float        # accumulated Richardson estimate
    intervals: int      # intervals processed before acceptance

    def __float__(self) -> float:
        return self.value


def _simpson_batch(lo, hi, flo, fmid, fhi):
    return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)


def _adaptive_segment(f, a, b, rel_tol, budget_left):
    """Adaptive Simpson on one smooth segment. Returns (value, err, used)."""
    if b <= a:
        return 0.0, 0.0, 0
    lo = np.array([a], dtype=float)
    hi = np.array([b], dtype=float)
    mid = 0.5 * (lo + hi)
    flo = f(lo)
    fmid = f(mid)
    fhi = f(hi)
    whole = _simpson_batch(lo, hi, flo, fmid, fhi)

    contributions: list[float] = []
    errors: list[float] = []
    used = 0
    seg_len = b - a

    while lo.size:
        used += lo.size
        if used > budget_left:
            raise QuadratureFailure(
                f"subdivision budget exhausted on [{a:g}, {b:g}] "
                f"({used} intervals, {lo.size} still active)"
            )
        mid = 0.5 * (lo + hi)
        m1 = 0.5 * (lo + mid)
        m2 = 0.5 * (mid + hi)
        f1 = f(m1)
        f2 = f(m2)
        left = _simpson_batch(lo, mid, flo, f1, fmid)
        right = _simpson_batch(mid, hi, fmid, f2, fhi)
        better = left + right
        err = np.abs(better - whole) / 15.0
        # Local acceptance: relative against the local value plus an absolute
        # floor apportioned by interval length.
        tol = rel_tol * np.abs(better) + ABS_FLOOR * (hi - lo) / seg_len
        done = err <= tol
        # Intervals narrower than a few ulps cannot be refined further.
        tiny = (hi - lo) <= 8.0 * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi))
        done |= tiny

        if np.any(done):
            refined = better[done] + (better[done] - whole[done]) / 15.0
            contributions.extend(refined.tolist())
            errors.extend(err[done].tolist())

        keep = ~done
        if not np.any(keep):
            break
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        flo = np.concatenate([flo[keep], fmid[keep]])
        fhi = np.concatenate([fmid[keep], fhi[keep]])
        fmid = np.concatenate([f1[keep], f2[keep]])
        whole = np.concatenate([left[keep], right[keep]])

    return math.fsum(contributions), math.fsum(errors), used


def integrate(
    f,
    a: float,
    b: float,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    budget: int = DEFAULT_BUDGET,
    breakpoints=(),
    log_from: float | None = _LOG_SUB_MIN,
) -> QuadResult:
    """Integrate a vectorized nonnegative integrand over [a, b].

    ``breakpoints`` are interior points where f may have kinks or jumps
    (piece knees of a tail model); the interval is split there exactly.
    Segments lying at or above ``log_from`` are integrated in s = ln t.

    Raises QuadratureFailure if the subdivision budget is exhausted.
    """
    if not (b >= a >= 0.0):
        raise ValueError(f"invalid integration range [{a}, {b}]")
    if b == a:
        return QuadResult(0.0, 0.0, 0)

    edges = sorted({float(a), float(b), *(float(t) for t in breakpoints if a < t < b)})
    if log_from is not None and b > log_from:
        cut = max(log_from, a)
        if all(abs(cut - e) > 1e-300 for e in edges) and a < cut < b:
            edges = sorted({*edges, cut})

    values: list[float] = []
    errs: list[float] = []
    used_total = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if log_from is not None and lo >= log_from:
            g = lambda s: f(np.exp(s)) * np.exp(s)
            v, e, used = _adaptive_segment(
                g, math.log(lo), math.log(hi), rel_tol, budget - used_total
            )
        else:
            v, e, used = _adaptive_segment(f, lo, hi, rel_tol, budget - used_total)
        values.append(v)
        errs.append(e)
        used_total += used

    return QuadResult(math.fsum(values), math.fsum(errs), used_total)
