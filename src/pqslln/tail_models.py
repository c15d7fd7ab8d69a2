"""Exact representations of nonnegative-tail distributions.

A model is a survival function t -> P(||X|| > t) given as ordered pieces,
each an interval and the log-polynomial const * t^-a (ln t)^-b (lnln t)^-c
that holds on it, plus the probability of a negative sign.  Every model,
builtin or loaded, is checked when it is built: its first piece starts at
t = 0, its pieces tile [0, inf), and its survival never rises and vanishes
at infinity.  Everything downstream -- quantiles u_n = inf{t : P(||X|| > t)
< 1/n}, inverse-transform sampling, the cumulative tail table of the
truncated series, and the asymptotic exponents used by the convergence
classifiers -- is derived from the exponents.  The formula catalog
(constant, power, power-log, power-log-loglog, indicator-below) is only the
input language of `load_model`.

The inverse cuts (0, 1] into segments (`TailModel.inverse_route`): a jump
down at a piece's left end inverts to that end, and the formula below it in
closed form for a power, or by one Newton step in x = ln t for a log factor,
from a cubic Hermite interpolant of roots bisected at 1024 nodes in
ln(1 - ln u) when the model is built.  `mc_engine.draw_batch` hands
`inverse_survival` its output array and `InverseScratch`, so a draw that one
segment takes whole, as the builtins' draws are, allocates nothing.

All probabilities are clamped to [0, 1] after evaluation: the log-corrected
pieces can exceed 1 by a few ulps near their knees.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .asymptotics import LogPolyTail
from .errors import NonMonotoneTail, QuadratureFailure
from .quadrature import integrate

E = math.e

# the named sign laws, by their probability of a negative sign
SIGN_LAWS = {"symmetric": 0.5, "nonnegative": 0.0}


# the largest count `check_count` takes by default: 2^53, the largest integer
# a double holds exactly; a table of that many doubles would take 64 PiB
MAX_COUNT = 1 << 53
# the defaults of the criteria settings: the largest t of a tail integral,
# and the terms of the truncated series.  They live here, with the other
# bounds of a config, so that `cli` fills in a config without importing
# `criteria`.
T_CAP_DEFAULT = 1e12
SERIES_N_MAX_DEFAULT = 100_000


def is_number(val) -> bool:
    """Whether `val` is a finite real number that a double can hold: a bool
    is none, and neither is an int past the largest double."""
    return not isinstance(val, bool) and isinstance(val, numbers.Real) \
        and abs(val) <= sys.float_info.max


def check_positive(**params) -> None:
    """ValueError unless each param is a finite number > 0 (`is_number`)."""
    for name, val in params.items():
        if not (is_number(val) and val > 0.0):
            raise ValueError(f"{name} must be a finite number > 0, got {val!r}")


def check_count(name: str, value, lo: int, hi: int = MAX_COUNT) -> int:
    """`value` as an int if it is an integer (a numbers.Integral, not a bool) in [lo, hi], else
    a ValueError naming `name`; a bound from 1000 on reads 10^k, 2^k or 2^k - 1."""
    if not isinstance(value, bool) and isinstance(value, numbers.Integral) and lo <= value <= hi:
        return int(value)
    lo, hi = (f"10^{len(str(b)) - 1}" if b >= 1000 and str(b).rstrip("0") == "1" else
              f"2^{(b + 1).bit_length() - 1}" + " - 1" * (b & 1)
              if b >= 1024 and not (b & (b - 1) and b & (b + 1)) else str(b) for b in (lo, hi))
    raise ValueError(f"{name} must be an integer at least {lo} and at most {hi}, got {value!r}")


def negative_prob(sign_law) -> float:
    """P(X < 0 | X != 0) of a sign law: "symmetric", "nonnegative" or
    {"kind": "custom", "negative_prob": x} with x in [0, 1]."""
    if isinstance(sign_law, str) and sign_law in SIGN_LAWS:
        return SIGN_LAWS[sign_law]
    if isinstance(sign_law, dict) and sorted(sign_law) == ["kind", "negative_prob"] \
            and sign_law["kind"] == "custom" and is_number(sign_law["negative_prob"]) \
            and 0.0 <= sign_law["negative_prob"] <= 1.0:
        return float(sign_law["negative_prob"])
    raise ValueError(f"sign_law must be 'symmetric', 'nonnegative' or "
                     f"{{'kind': 'custom', 'negative_prob': x}} with x in [0, 1], "
                     f"got {sign_law!r}")


@dataclass(frozen=True)
class TailPiece:
    """Survival `tail.value(t)` on [t_lo, t_hi); a model's first piece has t_lo = 0."""

    t_lo: float
    t_hi: float
    tail: LogPolyTail

    def to_json(self):
        """The catalog entry with the fewest params that loads as this piece."""
        exps = (self.tail.const, self.tail.a, self.tail.b, self.tail.c)
        used = max([1] + [i + 1 for i, x in enumerate(exps) if x])
        formula, names = next((formula, names) for formula, (names, build) in CATALOG.items()
                              if build is _log_poly and len(names) == used)
        return {
            "t_lo": self.t_lo,
            "t_hi": None if math.isinf(self.t_hi) else self.t_hi,
            "formula_id": formula,
            "params": dict(zip(names, exps)),
        }


def _log_poly(t_lo: float, t_hi: float, const: float, a: float = 0.0,
              b: float = 0.0, c: float = 0.0) -> tuple[TailPiece, ...]:
    return (TailPiece(t_lo, t_hi, LogPolyTail(const, a, b, c)),)


def _indicator_below(t_lo: float, t_hi: float, threshold: float) -> tuple[TailPiece, ...]:
    """1 below the threshold, 0 from it: a constant-1 piece, then a constant-0
    piece, each left out where it would be empty (an empty entry stays one
    empty piece, which `validate_model` rejects)."""
    cut = min(max(threshold, t_lo), t_hi)
    ones = TailPiece(t_lo, cut, LogPolyTail(1.0, 0.0))
    zeros = TailPiece(cut, t_hi, LogPolyTail(0.0, 0.0))
    return tuple(pc for pc in (ones, zeros) if pc.t_lo < pc.t_hi) or (ones,)


# The formula catalog, the input language of custom models: formula_id -> (its
# param names, the pieces it loads as).  The names of a log-polynomial formula
# give const, a, b, c in this order.
CATALOG = {
    "constant": (("value",), _log_poly),
    "power": (("scale", "power"), _log_poly),
    "power-log": (("scale", "power", "log_power"), _log_poly),
    "power-log-loglog": (("scale", "power", "log_power", "loglog_power"), _log_poly),
    "indicator-below": (("threshold",), _indicator_below),
}


def _catalog_pieces(t_lo: float, t_hi: float, formula: str,
                    params: Mapping) -> tuple[TailPiece, ...]:
    """The pieces a catalog entry loads as.  Its edges (t_hi may be inf) and
    params must be finite numbers, the params exactly its formula's, a scale positive."""
    for name, edge in (("t_lo", t_lo), ("t_hi", t_hi)):
        if not (is_number(edge) or (name == "t_hi" and edge == math.inf)):
            raise ValueError(f"piece edge {name!r} must be a finite number "
                             f"(t_hi: null for inf), got {edge!r}")
    if formula not in CATALOG:
        raise ValueError(f"unknown formula_id {formula!r}")
    names, build = CATALOG[formula]
    if sorted(params) != sorted(names):
        raise ValueError(f"a {formula} piece takes exactly the params "
                         f"{', '.join(names)}, got {sorted(params)}")
    for name, val in params.items():
        if not is_number(val) or (name == "scale" and val <= 0.0):
            raise ValueError(f"piece param {name!r} must be a finite number "
                             f"(a scale: positive), got {val!r}")
    return build(float(t_lo), float(t_hi), *(float(params[name]) for name in names))


def piece(t_lo: float, t_hi: float, formula: str, **params: float) -> TailPiece:
    """The one piece of a constant or power catalog entry."""
    (pc,) = _catalog_pieces(t_lo, t_hi, formula, params)
    return pc


@dataclass(frozen=True)
class TailModel:
    """A survival function as ordered pieces; `validate_model` checks it when built."""

    name: str
    pieces: tuple[TailPiece, ...]
    negative_prob: float = 0.5  # P(X < 0 | X != 0); see negative_prob()
    origin: tuple = ()  # (builtin_name, magnitude params in call order); () if custom
    # per piece, the survival at its left end and its limit at t_hi from the
    # left, as `validate_model` finds them when the model is built
    edge_values: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "edge_values", validate_model(self))

    @functools.cached_property
    def inverse_route(self) -> tuple[np.ndarray, tuple[Segment, ...]]:
        """The floors of (0, 1]'s segments, falling to 0, and the segments:
        under a running floor m (1 at first), a piece adds its jump down at
        t_lo, S(t_lo) < u <= m, and below it its formula, down to S(t_hi-),
        each where not empty, so a constant piece is only its jump."""
        segments, floor = [], 1.0
        for pc, (at_lo, at_hi) in zip(self.pieces, self.edge_values):
            if at_lo < floor:
                floor = at_lo
                segments.append(Segment(floor, pc, jump=True))
            if at_hi < floor:
                floor = at_hi
                table = RootTable.build(pc, at_lo, at_hi) if pc.tail.b or pc.tail.c else None
                segments.append(Segment(floor, pc, table))
        return np.array([seg.floor for seg in segments]), tuple(segments)

    @property
    def knee(self) -> float:
        """Last piece boundary; the tail is a single smooth formula beyond it."""
        return self.pieces[-1].t_lo

    def piece_edges(self) -> tuple[float, ...]:
        return tuple(pc.t_lo for pc in self.pieces[1:])

    def to_json(self):
        sign_law = next((name for name, prob in SIGN_LAWS.items() if prob == self.negative_prob),
                        {"kind": "custom", "negative_prob": self.negative_prob})
        return {
            "name": self.name,
            "pieces": [p.to_json() for p in self.pieces],
            "sign_law": sign_law,
        }


def survival(model: TailModel, t) -> np.ndarray | float:
    """P(||X|| > t); exact up to floating-point evaluation of the pieces.

    Right-continuous: piece i owns [t_lo, t_hi), so a jump at a piece edge
    takes the value of the piece on its right.  A batch that lies inside one
    piece (no NaN, no inf) is that piece's formula on the whole array, with
    elementwise the same numbers as the evaluation under masks.
    """
    scalar = np.isscalar(t)
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0.0):
        raise ValueError("survival is defined for t >= 0")
    lo, hi = (tt.min(), tt.max()) if tt.size else (math.nan, math.nan)
    whole = next((pc for pc in model.pieces if pc.t_lo <= lo and hi < pc.t_hi), None)
    with np.errstate(divide="ignore", over="ignore"):  # t^-a near 0 is inf, clipped to 1
        if whole is not None:
            out = whole.tail.value(tt)
        else:
            out = np.full_like(tt, np.nan)
            for pc in model.pieces:
                mask = (tt >= pc.t_lo) & (tt < pc.t_hi)
                if np.any(mask):
                    out[mask] = pc.tail.value(tt[mask])
            out[tt == math.inf] = 0.0  # ||X|| is finite
    out = np.clip(out, 0.0, 1.0)
    return float(out) if scalar else out


def bisect(f, left, right):
    """A point where f changes sign on each bracket [left, right], f(left) <= 0
    < f(right), elementwise for arrays and each apart from the others: the right
    ends after 100 halvings, adjacent floats for a root of size width / 2^48 or more.

    A halving that leaves both ends bit for bit as they were ends the loop:
    the next midpoint, its f and so every later halving would repeat it, so
    the right ends are those of all 100.  Brackets that reach adjacent
    floats, as `RootTable.build`'s and llogl's h^-1 do, stop after about 60."""
    for _ in range(100):
        mid = 0.5 * (left + right)
        low = f(mid) <= 0.0
        ends = np.where(low, mid, left), np.where(low, right, mid)
        if all(new.tobytes() == np.asarray(old).tobytes() for new, old in zip(ends, (left, right))):
            break
        left, right = ends
    return ends[1]


ROOT_NODES = 1024  # nodes of a log-corrected piece's start table
S_MAX = math.log(1.0 - math.log(5e-324))  # s = ln(1 - ln u) at the least subnormal u
X_CAP = 710.0  # e^710 overflows: a root past it is t = inf


def _log_gap(pc: TailPiece, x, rhs, gap, slope, log_x=None):
    """g(x) - rhs and g'(x) in place, for g(x) = a x + b ln x + c lnln x =
    ln(const / S(e^x)); `log_x`, if given, receives ln x.  Returns gap."""
    a, b, c = pc.tail.a, pc.tail.b, pc.tail.c
    log_x = np.log(x, out=log_x)
    np.multiply(x, a, out=gap)
    gap -= rhs  # first: near the root the two nearly cancel, so little rounds
    np.multiply(log_x, b, out=slope)
    gap += slope
    if c:  # g' = a + (b + c / ln x) / x
        np.log(log_x, out=slope)
        slope *= c
        gap += slope
        np.divide(c, log_x, out=slope)
        slope += b
        slope /= x
    else:
        np.divide(b, x, out=slope)
    slope += a
    return gap


def _x_range(pc: TailPiece) -> tuple[float, float]:
    """The piece in x = ln t, capped where e^x overflows."""
    return math.log(pc.t_lo), min(math.log(pc.t_hi), X_CAP)


def _bisect_roots(pc: TailPiece, rhs: np.ndarray) -> np.ndarray:
    """The roots x of g(x) = rhs on the piece (ln t_lo if rhs <= g(ln t_lo)), by
    bisection on the sign of g - rhs: S is nonincreasing, so the sign changes once."""
    gap, slope, log_x = np.empty((3, *np.shape(rhs)))
    return bisect(lambda mid: _log_gap(pc, mid, rhs, gap, slope, log_x), *_x_range(pc))


@dataclass(frozen=True)
class RootTable:
    """Start table of a log-corrected formula segment's inverse: the root
    x = ln t at ROOT_NODES nodes uniform in s = ln(1 - ln u), from s_lo, the
    node of u = S(t_lo), to s_hi, the node of u = S(t_hi-) or, for the last
    piece, of the least subnormal u.  So every u of the segment lies between
    two nodes, and no cell straddles a jump, which is a segment of its own.

    Between two nodes the root is the cubic Hermite interpolant of the node
    roots and their slopes dx/ds = e^s / g'(x) (g(x) = ln(const/u) = ln const
    + e^s - 1); a node where g' <= 0 has slope 0.  `cubic` holds the
    interpolant's coefficients per cell in the cell's local coordinate in
    [0, 1], highest degree first."""

    s_lo: float
    s_hi: float
    cubic: np.ndarray = field(repr=False)  # (4, ROOT_NODES - 1)

    @classmethod
    def build(cls, pc: TailPiece, at_lo: float, at_hi: float) -> "RootTable":
        """Bisect the root at each node s_k, where ln(const/u) = ln const + e^s_k - 1."""
        tiny = np.finfo(float).tiny
        s_lo = math.log(1.0 - math.log(at_lo)) if at_lo >= tiny else 0.0
        s_hi = math.log(1.0 - math.log(at_hi)) if at_hi >= tiny else S_MAX
        if not s_lo < s_hi:  # an underflowed piece, or one flat under the clamp at 1
            s_lo, s_hi = 0.0, S_MAX
        s = np.linspace(s_lo, s_hi, ROOT_NODES)
        x = _bisect_roots(pc, math.log(pc.tail.const) + np.expm1(s))
        gap, slope = np.empty((2, ROOT_NODES))
        _log_gap(pc, x, 0.0, gap, slope)
        # dx per cell width at each node
        step = np.exp(s) * ((s_hi - s_lo) / (ROOT_NODES - 1))
        m = np.divide(step, slope, out=np.zeros(ROOT_NODES), where=slope > 0.0)
        dx, m0, m1 = np.diff(x), m[:-1], m[1:]
        cubic = np.array([m0 + m1 - 2.0 * dx, 3.0 * dx - 2.0 * m0 - m1, m0, x[:-1]])
        return cls(s_lo, s_hi, cubic)

    def start(self, s: np.ndarray, out: np.ndarray, cells: np.ndarray,
              tmp: np.ndarray) -> np.ndarray:
        """The cubic's root at each s into `out`, with `cells` (intp) and
        `tmp` of s's size; s is overwritten.  The cell index is clipped to
        the table, so an s outside [s_lo, s_hi] gets an end cell's cubic at
        a local coordinate in (-1, 1): a start for the caller to clip to
        the piece and to certify."""
        s -= self.s_lo
        s *= (ROOT_NODES - 1) / (self.s_hi - self.s_lo)
        np.copyto(cells, s, casting="unsafe")  # a cell index; `take` clips it to the table
        s -= cells  # the local coordinate
        x = self.cubic[0].take(cells, mode="clip", out=out)
        for coef in self.cubic[1:]:  # Horner
            x *= s
            x += coef.take(cells, mode="clip", out=tmp)
        return x


@dataclass(frozen=True)
class Segment:
    """The u in (floor, the floor before it or 1] invert to `piece`'s t_lo if
    `jump`, else by its formula: with `table` for log factors, None for a power."""

    floor: float
    piece: TailPiece
    table: RootTable | None = None
    jump: bool = False


class InverseScratch:
    """Work arrays of `inverse_survival` for `size` uniforms at a time: four
    rows of doubles and one of cell indices, which mean nothing between calls.
    Every draw reuses the one in its caller's `mc_engine.ChunkBuffers`; two
    threads must never share one."""

    def __init__(self, size: int):
        self.floats = np.empty((4, size))
        self.cells = np.empty(size, dtype=np.intp)


def _log_piece_root(pc: TailPiece, u: np.ndarray, table: RootTable, out: np.ndarray,
                    scratch: InverseScratch) -> np.ndarray:
    """Solve const * t^-a (ln t)^-b (lnln t)^-c = u on the piece, for S(t_lo) >= u > S(t_hi-),
    into `out`, with `scratch` (of u's size) for every temporary.

    In x = ln t: g(x) = a x + b ln x + c lnln x = ln(const/u).  The start is
    `table`'s cubic at s = ln(1 - ln u), and one Newton step in x follows.
    An element whose correction exceeds 1e-9 max(|x|, 1), or that rests where
    g decreases (a growing log factor under the clamp at 1), is bisected on
    the sign of g - ln(const/u) instead; a correction of at most 1e-9 for
    every element, with g' > 0 everywhere, passes without the elementwise test.

    Why one step is enough.  The correction d is the start's error to first
    order, and the step leaves an error of about g''/(2 g') d^2.  With
    g'' = -(b + c (1 + 1/ln x) / ln x) / x^2 and g' >= a, where ln x >= 1
    that is at most (|b| + 2|c|) / (2a) * 1e-18 when the certificate holds:
    about 1e-18 for the builtins, far below an ulp of x.  The cubic start
    errs by at most about 3e-11 on the builtins and the tests' pieces (the
    tests hold it to 1e-9 max(|x|, 1)), so the certificate holds with room
    to spare and nothing is bisected.
    """
    x_lo, x_hi = _x_range(pc)
    rhs, pos, slope, log_x = scratch.floats
    np.log(u, out=pos)
    np.subtract(math.log(pc.tail.const), pos, out=rhs)
    np.subtract(1.0, pos, out=pos)
    x = table.start(np.log(pos, out=pos), out, scratch.cells, slope)
    np.clip(x, x_lo, x_hi, out=x)
    gap = _log_gap(pc, x, rhs, pos, slope, log_x)
    gap /= slope
    x -= gap
    if not (gap.max() <= 1e-9 and gap.min() >= -1e-9 and slope.min() > 0.0):
        excess = np.abs(gap, out=gap)  # the correction less its bound
        bound = np.abs(x, out=log_x)
        np.maximum(bound, 1.0, out=bound)
        bound *= 1e-9
        excess -= bound
        slow = ~(excess <= 0.0) | (slope <= 0.0)
        if np.any(slow):
            x[slow] = _bisect_roots(pc, rhs[slow])
    return np.clip(np.exp(x, out=x), pc.t_lo, pc.t_hi, out=x)


def _segment_inverse(seg: Segment, w: np.ndarray, out: np.ndarray,
                     scratch: InverseScratch | None) -> np.ndarray:
    """inf{t : survival(t) < u} into `out` for the u of `w`, all in `seg`:
    t_lo for a jump, a closed form for a power, else `_log_piece_root` (with
    `scratch`, of w's size, made here where it is None)."""
    pc, tail = seg.piece, seg.piece.tail
    if seg.jump:
        out.fill(pc.t_lo)
        return out
    if seg.table is None:
        with np.errstate(divide="ignore", over="ignore"):
            t_star = np.divide(tail.const, w, out=out)
            t_star **= 1.0 / tail.a
        return np.maximum(t_star, pc.t_lo, out=t_star)  # below t_lo only by rounding
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _log_piece_root(pc, w, seg.table, out, scratch or InverseScratch(w.size))


def inverse_survival(model: TailModel, u, out: np.ndarray | None = None,
                     scratch: InverseScratch | None = None) -> np.ndarray | float:
    """Generalized inverse inf{t : survival(t) < u} for u in (0, 1].

    The segment of `TailModel.inverse_route` that takes u inverts it
    (`_segment_inverse`).  When one segment takes every u, it inverts the
    input whole, into `out` (an array of u's size other than u) with
    `scratch` (an `InverseScratch` of u's size); `mc_engine.draw_batch`
    passes both, and either is made here where it is None and needed.
    Otherwise each segment gathers its u and scatters its roots into `out`,
    with arrays of its own.
    """
    scalar = np.isscalar(u)
    uu = np.atleast_1d(np.asarray(u, dtype=float))
    if not uu.size:
        return np.zeros_like(uu)
    u_min, u_max = uu.min(), uu.max()
    if not (u_min > 0.0 and u_max <= 1.0):
        raise ValueError("uniforms must lie in (0, 1]")
    if out is None:
        out = np.empty_like(uu)
    # the floors fall to 0, so every u > 0 finds a segment
    floors, segments = model.inverse_route
    first, last = int(np.argmax(floors < u_max)), int(np.argmax(floors < u_min))
    if first == last:
        out = _segment_inverse(segments[first], uu, out, scratch)
    else:
        for k in range(first, last + 1):
            here = (uu > floors[k]) & (uu <= (floors[k - 1] if k else 1.0))
            if np.any(here):
                w = uu[here]
                out[here] = _segment_inverse(segments[k], w, np.empty_like(w), None)
    return float(out[0]) if scalar else out


def quantiles_un(model: TailModel, ns: np.ndarray, out: np.ndarray | None = None,
                 scratch: InverseScratch | None = None) -> np.ndarray:
    """u_n = inf{t : P(||X|| > t) < 1/n} for each n of an integer array, with
    `out` and `scratch` as `inverse_survival` takes them."""
    return inverse_survival(model, 1.0 / np.asarray(ns, dtype=float), out, scratch)


def powered_survival(model: TailModel, x, log_x, r: float = 1.0) -> np.ndarray:
    """S(x)^r, vectorized, for x >= 0 given with log_x = ln x (which stays
    finite where x itself overflowed to inf): the one place a survival is
    raised to a power.  Where S(x) is no normal double, on finite ln x with x
    in the last piece, that piece is exp(r ln S(x)) from ln x: S^r keeps its
    value where S alone underflows.  A batch whose every S is a normal double
    is S^r alone, without that test."""
    last, tiny = model.pieces[-1], np.finfo(float).tiny
    s = np.asarray(survival(model, x))
    out = np.asarray(s ** r)
    if last.tail.const > 0.0 and not s.min(initial=math.inf) >= tiny:  # some S underflowed
        deep = (s < tiny) & (x >= last.t_lo) & np.isfinite(log_x)
        if np.any(deep):
            out[deep] = np.minimum(np.exp(r * last.tail.log_value(log_x[deep])), 1.0)
    return out


def power_survival(model: TailModel, p: float, r: float = 1.0):
    """Callable t -> P(||X||^p > t)^r, vectorized: every power-map integrand,
    `powered_survival` at x = t^(1/p) with ln x = ln(t)/p."""
    inv = 1.0 / p

    def s_y(t):
        tt = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):  # t^(1/p) = inf, ln 0 = -inf
            x, log_x = tt ** inv, np.log(tt) * inv
        return powered_survival(model, x, log_x, r)

    return s_y


TABLE_POINTS = 512  # geometric grid nodes of the cumulative tail table


def check_exponents(p: float, q: float | None = None) -> None:
    """ValueError unless p is a finite number in (0, 2) and q, when given, a
    finite number > 0: the domain of every (p,q) condition."""
    if not (is_number(p) and 0.0 < p < 2.0):
        raise ValueError(f"p must be a finite number in (0, 2), got {p!r}")
    if q is not None and not (is_number(q) and q > 0.0):
        raise ValueError(f"q must be a finite number > 0, got {q!r}")


def check_moment_exponents(p: float, q: float) -> None:
    """ValueError unless p > 0 and q >= 0 are finite: E(||S_n|| / n^(1/p))^q's domain."""
    if not (is_number(p) and p > 0.0 and is_number(q) and q >= 0.0):
        raise ValueError(f"need a finite p > 0 and a finite q >= 0, got {p!r}, {q!r}")


class CumulativeTailTable:
    """Precomputed G(t) = int_0^t P(||X||^p > s) ds on a geometric grid.

    Node values come from one adaptive quadrature queue over every cell (the
    transformed piece edges are inserted as nodes, so G is exact there);
    queries interpolate with a cubic Hermite in ln t.  After that one call
    each query costs O(1), which is what makes the N-term truncated series
    cheap.  A query at or below the first node t_0 is in the head, where
    G(t) = S_Y(t_0 / 2) t; a batch with no query there, as the series'
    batches are, is the cubic on the whole batch, without the head's masks
    and with the same numbers.
    """

    def __init__(self, model: TailModel, p: float, t_max: float):
        check_exponents(p)
        check_positive(t_max=t_max)
        self.model = model
        self.p = float(p)
        self.t_max = float(t_max)
        s_y = power_survival(model, p)
        edges = [e for e in (x**p for x in model.piece_edges()) if 0.0 < e < t_max]
        # S_Y is flat below t_lo: below every edge, and below x0^p, where a
        # first piece that is a power from 0 leaves 1 (x0 > 1 is past 1e-3)
        x0 = inverse_survival(model, 1.0)
        t_lo = min([t_max * 1e-6, 1e-3, *edges, *([x0**self.p] if 0.0 < x0 <= 1.0 else [])])
        grid = np.geomspace(t_lo, t_max, TABLE_POINTS)
        grid = np.sort(np.concatenate([grid, np.asarray(edges), [t_max]]))
        grid = grid[np.append(True, grid[1:] != grid[:-1])]  # np.unique, without numpy.ma
        self._head_value = float(s_y(np.array([t_lo * 0.5]))[0])
        self.grid = grid
        self.values = np.cumsum([self._head_value * grid[0], *integrate(s_y, grid).values])
        if np.any(np.diff(self.values) < -1e-12):
            raise QuadratureFailure("cumulative tail table is not monotone")
        # Hermite interpolation in s = ln t with the exact slope
        # dG/ds = t * S_Y(t); an order more accurate than fitting values alone.
        # Cell i holds G = c0 + c1 d + c2 d^2 + c3 d^3 in d = s - s_i.
        slopes = grid * np.asarray(s_y(grid), dtype=float)
        self._nodes = np.log(grid)
        width = np.diff(self._nodes)
        secant = np.diff(self.values) / width
        bend = (slopes[:-1] + slopes[1:] - 2.0 * secant) / width
        self._coef = (self.values[:-1], slopes[:-1],
                      (secant - slopes[:-1]) / width - bend, bend / width)

    def __call__(self, t) -> np.ndarray | float:
        scalar = np.isscalar(t)
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(tt < 0.0) or np.any(tt > self.t_max * (1 + 1e-12)):
            raise ValueError("query outside table range")
        tt = np.minimum(tt, self.t_max)
        if tt.min(initial=math.inf) > self.grid[0]:  # every query past the head
            out = self._cubic(tt)
        else:
            out = np.where(tt <= self.grid[0], self._head_value * tt, 0.0)
            above = tt > self.grid[0]
            if np.any(above):
                out[above] = self._cubic(tt[above])
        return float(out[0]) if scalar else out

    def _cubic(self, t: np.ndarray) -> np.ndarray:
        """The Hermite cubic of t's cell at each t past the head: c0 + c1 d +
        c2 (d d) + c3 (d d d), the same operations in the same order, each
        into a temporary of this call."""
        d = np.log(t)
        i = np.searchsorted(self._nodes, d, side="right")
        i -= 1
        np.minimum(i, self._nodes.size - 2, out=i)
        d -= self._nodes.take(i)
        c0, out, c2, c3 = (c.take(i) for c in self._coef)
        out *= d
        out += c0
        power = d * d
        c2 *= power
        out += c2
        power *= d
        c3 *= power
        out += c3
        return out


def support_upper(model: TailModel) -> float:
    """Essential upper bound of ||X|| (inf when the tail is unbounded): a last
    piece whose constant is at most 0 ends the support where it starts."""
    last = model.pieces[-1]
    return last.t_lo if last.tail.const <= 0.0 else math.inf


def tail_asymptote(model: TailModel) -> LogPolyTail | None:
    """Exact log-polynomial asymptote: the final piece, or None for bounded
    support, which `support_upper` reports instead."""
    return model.pieces[-1].tail if math.isinf(support_upper(model)) else None


def mean_zero(model: TailModel) -> bool | None:
    """Whether E(X) = 0 can be read off the sign law; None when unknown.

    A nonzero X of one sign has a nonzero mean.  Other asymmetric splits are
    left undetermined: the toolkit carries tails, not signed densities, so it
    does not assert a nonzero mean there.
    """
    if support_upper(model) == 0.0 or model.negative_prob == 0.5:
        return True
    if model.negative_prob in (0.0, 1.0):
        return False
    return None


V_MAX = math.log(math.log(np.finfo(float).max))  # no double t has a larger ln ln t


def _log_piece_rises(pc: TailPiece) -> bool:
    """Whether the clamped survival of a log-corrected piece rises on the piece.

    In v = ln ln t it is const * e^(-g(v)), g = a e^v + b v + c ln v, so it
    rises exactly where g' = a e^v + b + c/v < 0.  g'' = a e^v - c/v^2
    changes sign at most once, where e^v v^2 = c/a, so g' is monotone on at
    most two stretches; on each, g' < 0 on one interval, where the survival is
    least at the left end.  The clamp at 1 hides a rise that starts at or above 1.
    """
    a, b, c = pc.tail.a, pc.tail.b, pc.tail.c
    g = lambda v: a * math.exp(v) + b * v + (c * math.log(v) if c else 0.0)
    slope = lambda v: a * math.exp(v) + b + (c / v if c else 0.0)
    turn = lambda v: math.exp(v) * v * v - c / a  # increases on v > 0, where c != 0
    cuts = [math.log(math.log(pc.t_lo)), min(math.log(math.log(pc.t_hi)), V_MAX)]
    if a * c > 0.0 and turn(cuts[0]) < 0.0 < turn(cuts[1]):
        cuts.insert(1, bisect(turn, *cuts))
    starts = [lo if slope(lo) < 0.0 else bisect(lambda v: -slope(v), lo, hi)
              for lo, hi in zip(cuts, cuts[1:]) if min(slope(lo), slope(hi)) < 0.0]
    return any(g(v) > math.log(pc.tail.const) + 1e-12 for v in starts)


def validate_model(model: TailModel) -> tuple[tuple[float, float], ...]:
    """Check that the pieces tile [0, inf) edge to edge from t = 0, that
    survival never rises, across an edge or inside a piece (a piece without
    log factors rises iff its power is negative and it starts below 1), and
    that it vanishes at infinity; raise on violation.  Returns each piece's
    survival at its left end and its limit at its right end from the left."""
    pieces = model.pieces
    if not pieces or pieces[-1].t_hi != math.inf:
        raise ValueError(f"{model.name}: the last piece must be unbounded")
    if pieces[0].t_lo != 0.0:
        raise ValueError(f"{model.name}: the first piece must start at t = 0, "
                         f"not {pieces[0].t_lo:g}")
    edges = []
    for i, pc in enumerate(pieces):
        if not pc.t_lo < pc.t_hi:
            raise ValueError(f"{model.name}: piece [{pc.t_lo:g}, {pc.t_hi:g}) is empty")
        if i and pc.t_lo != pieces[i - 1].t_hi:
            raise ValueError(f"{model.name}: pieces must meet, but one ends at "
                             f"{pieces[i - 1].t_hi:g} and the next starts at {pc.t_lo:g}")
        lo, tail = pc.t_lo, pc.tail
        floor = E if tail.c else 1.0 if tail.b else -math.inf
        if lo <= floor:  # the log factors must be positive
            raise ValueError(f"{model.name}: a piece with a {'lnln' if tail.c else 'ln'} t "
                             f"factor must start above t = {floor:g}")
        with np.errstate(divide="ignore", invalid="ignore"):
            at_lo, at_hi = np.clip(tail.value(np.array([lo, pc.t_hi])), 0.0, 1.0)
        if tail.b or tail.c:
            rises = _log_piece_rises(pc)
        else:
            rises = tail.a < 0.0 and at_lo < 1.0 - 1e-12
        if at_lo > (edges[-1][1] if edges else 1.0) + 1e-12 or rises:
            raise NonMonotoneTail(f"{model.name}: survival increases on [{lo:g}, {pc.t_hi:g})")
        # at t_hi = inf a growing log factor reads t^-a * (ln t)^-b = 0 * inf; t^-a wins
        edges.append((float(at_lo), 0.0 if math.isnan(at_hi) else float(at_hi)))
    asym = tail_asymptote(model)
    if asym is not None and (asym.a < 0 or (asym.a == 0 and asym.b <= 0)):
        raise ValueError(f"{model.name}: tail does not vanish at infinity")
    return tuple(edges)


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def _builtin(kind: str, name: str, pieces: tuple[TailPiece, ...], sign_law,
             **params) -> TailModel:
    """A builtin model; its origin records the params of its magnitude law, as
    the sign law is its `negative_prob`."""
    return TailModel(name=name, pieces=pieces, negative_prob=negative_prob(sign_law),
                     origin=(kind, tuple(params.items())))


def pareto(alpha: float, sign_law="symmetric") -> TailModel:
    """Survival t^(-alpha) beyond t = 1 (the critical instance alpha = p has
    u_n^p = n exactly, which empties every truncation window)."""
    check_positive(alpha=alpha)
    return _builtin(
        "pareto", f"pareto(alpha={alpha:g})",
        _log_poly(0.0, 1.0, 1.0) + _log_poly(1.0, math.inf, 1.0, float(alpha)),
        sign_law, alpha=alpha,
    )


def log_power_tail(power: float, log_power: float, sign_law="symmetric") -> TailModel:
    """Survival e^power * t^(-power) * (ln t)^(-log_power) beyond t = e.

    With log_power = 2p/q this is the tail that separates membership at
    (p, p) from membership at (p, q) for q < p.
    """
    check_positive(power=power, log_power=log_power)
    return _builtin(
        "log-power", f"log-power(power={power:g}, log_power={log_power:g})",
        _log_poly(0.0, E, 1.0)
        + _log_poly(E, math.inf, math.exp(power), float(power), float(log_power)),
        sign_law, power=power, log_power=log_power,
    )


def log_loglog_power_tail(power: float, sign_law="symmetric") -> TailModel:
    """Survival e^(e*power+1) * t^(-power) * (ln t)^(-1) * (lnln t)^(-2) beyond e^e.

    The marginal tail whose p-moment is finite while the critically truncated
    series still diverges.
    """
    check_positive(power=power)
    knee = math.exp(E)
    return _builtin(
        "log-loglog-power", f"log-loglog-power(power={power:g})",
        _log_poly(0.0, knee, 1.0)
        + _log_poly(knee, math.inf, math.exp(E * power + 1.0), float(power), 1.0, 2.0),
        sign_law, power=power,
    )


def degenerate(value: float, sign_law="nonnegative", name: str | None = None) -> TailModel:
    """||X|| identically equal to `value`: survival 1 below it and 0 from it."""
    if not (is_number(value) and value >= 0.0):
        raise ValueError(f"value must be a finite number >= 0, got {value!r}")
    return _builtin(
        "degenerate", name or f"degenerate(value={value:g})",
        _indicator_below(0.0, math.inf, float(value)),
        sign_law, value=value,
    )


def rademacher() -> TailModel:
    """Symmetric +/-1 law (unit magnitude with a fair sign)."""
    return TailModel(name="rademacher", pieces=_indicator_below(0.0, math.inf, 1.0),
                     negative_prob=SIGN_LAWS["symmetric"], origin=("rademacher", ()))


def zero() -> TailModel:
    return degenerate(0.0, "nonnegative", name="zero")


BUILTINS: Mapping[str, Callable[..., TailModel]] = {
    "pareto": pareto,
    "log-power": log_power_tail,
    "log-loglog-power": log_loglog_power_tail,
    "degenerate": degenerate,
    "rademacher": rademacher,
    "zero": zero,
}


def make_builtin(name: str, **params) -> TailModel:
    if name not in BUILTINS:
        raise ValueError(f"unknown builtin model {name!r}; have {sorted(BUILTINS)}")
    return BUILTINS[name](**params)


def _known_keys(doc: dict, keys: tuple[str, ...], where: str, required: tuple[str, ...]) -> None:
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}; have {sorted(keys)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"{where} is missing key {missing[0]!r}")


def load_model(obj: dict) -> TailModel:
    """Build a custom model from a parsed JSON document.

    Schema: {"name": str, "sign_law": ..., "pieces": [{"t_lo", "t_hi",
    "formula_id", "params"}, ...]} with formula_id from `CATALOG`, and no other key.
    """
    if not isinstance(obj, dict):
        raise ValueError("custom model document must be an object")
    _known_keys(obj, ("name", "sign_law", "pieces"), "the custom model document",
                ("sign_law", "pieces"))
    pieces = []
    for raw in obj["pieces"]:
        _known_keys(raw, ("t_lo", "t_hi", "formula_id", "params"), "a custom model piece",
                    ("t_lo", "formula_id"))
        t_hi = raw.get("t_hi")
        pieces.extend(_catalog_pieces(raw["t_lo"], math.inf if t_hi is None else t_hi,
                                     raw["formula_id"], raw.get("params", {})))
    pieces.sort(key=lambda p: p.t_lo)
    return TailModel(
        name=obj.get("name", "custom"),
        pieces=tuple(pieces),
        negative_prob=negative_prob(obj["sign_law"]),
    )
