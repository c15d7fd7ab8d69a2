"""Exact representations of nonnegative-tail distributions.

A model is a survival function t -> P(||X|| > t) given as ordered pieces from
a small formula catalog (constant, power, power-log, power-log-loglog,
indicator-below), plus a sign law and optional analytic metadata.  Everything
downstream -- quantiles u_n = inf{t : P(||X|| > t) < 1/n}, inverse-transform
sampling, the cumulative tail table of the truncated series, and the
asymptotic exponents used by the convergence classifiers -- is derived from
the pieces.

All probabilities are clamped to [0, 1] after formula evaluation: the
log-corrected formulas can exceed 1 by a few ulps near their knees.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .asymptotics import LogPolyTail
from .errors import NonMonotoneTail, QuadratureFailure
from .quadrature import integrate

E = math.e

FORMULA_IDS = ("constant", "power", "power-log", "power-log-loglog", "indicator-below")

SIGN_SYMMETRIC = "symmetric"
SIGN_NONNEGATIVE = "nonnegative"


@dataclass(frozen=True)
class SignLaw:
    """How a sign is attached to the magnitude ||X||.

    kind 'symmetric' puts probability 1/2 on each sign, 'nonnegative' none on
    the negative side, and 'custom' splits with the given negative-side mass.
    """

    kind: str = SIGN_SYMMETRIC
    negative_prob: float = 0.0

    def __post_init__(self):
        if self.kind not in (SIGN_SYMMETRIC, SIGN_NONNEGATIVE, "custom"):
            raise ValueError(f"unknown sign law {self.kind!r}")
        if self.kind == "custom" and not (0.0 <= self.negative_prob <= 1.0):
            raise ValueError("negative_prob must lie in [0, 1]")

    @property
    def threshold(self) -> float:
        if self.kind == SIGN_SYMMETRIC:
            return 0.5
        if self.kind == SIGN_NONNEGATIVE:
            return 0.0
        return self.negative_prob

    def to_json(self):
        if self.kind == "custom":
            return {"kind": "custom", "negative_prob": self.negative_prob}
        return self.kind

    @staticmethod
    def from_json(obj) -> "SignLaw":
        if isinstance(obj, str):
            return SignLaw(obj)
        return SignLaw("custom", float(obj["negative_prob"]))


@dataclass(frozen=True)
class TailPiece:
    """One survival-formula piece active on [t_lo, t_hi) (first piece: from 0)."""

    t_lo: float
    t_hi: float
    formula: str
    params: tuple  # sorted (name, value) pairs; see piece()

    def param(self, name: str) -> float:
        for key, val in self.params:
            if key == name:
                return val
        raise KeyError(name)

    def to_json(self):
        return {
            "t_lo": self.t_lo,
            "t_hi": None if math.isinf(self.t_hi) else self.t_hi,
            "formula_id": self.formula,
            "params": dict(self.params),
        }


def piece(t_lo: float, t_hi: float, formula: str, **params: float) -> TailPiece:
    """A catalog piece; every param must be a finite number, and a scale positive."""
    if formula not in FORMULA_IDS:
        raise ValueError(f"unknown formula_id {formula!r}")
    for name, val in params.items():
        if isinstance(val, bool) or not isinstance(val, numbers.Real) \
                or not math.isfinite(val) or (name == "scale" and val <= 0.0):
            raise ValueError(f"piece param {name!r} must be a finite number "
                             f"(a scale: positive), got {val!r}")
    params = {name: float(val) for name, val in params.items()}
    return TailPiece(float(t_lo), float(t_hi), formula, tuple(sorted(params.items())))


@dataclass(frozen=True)
class ClauseFact:
    """Known truth values for one (p, q) pair, from closed-form tail calculus."""

    integral_finite: bool | None = None
    p_moment_finite: bool | None = None
    series_finite: bool | None = None
    member: bool | None = None
    note: str = ""


@dataclass(frozen=True)
class AnalyticFacts:
    provenance: str
    clause_facts: Callable[[float, float], ClauseFact | None] | None = None


@dataclass(frozen=True)
class TailModel:
    name: str
    pieces: tuple[TailPiece, ...]
    sign_law: SignLaw = SignLaw(SIGN_SYMMETRIC)
    analytic: AnalyticFacts | None = None
    origin: tuple = ()  # (builtin_name, sorted params); () for a custom model

    @property
    def knee(self) -> float:
        """Last piece boundary; the tail is a single smooth formula beyond it."""
        return max(p.t_lo for p in self.pieces)

    def piece_edges(self) -> tuple[float, ...]:
        edges = sorted({p.t_lo for p in self.pieces} | {pp.param("threshold") for pp in self.pieces if pp.formula == "indicator-below"})
        return tuple(t for t in edges if t > 0.0)

    def to_json(self):
        return {
            "name": self.name,
            "pieces": [p.to_json() for p in self.pieces],
            "sign_law": self.sign_law.to_json(),
        }


def _eval_formula(pc: TailPiece, t: np.ndarray) -> np.ndarray:
    if pc.formula == "constant":
        return np.full_like(t, pc.param("value"))
    if pc.formula == "indicator-below":
        return np.where(t < pc.param("threshold"), 1.0, 0.0)
    out = pc.param("scale") * t ** (-pc.param("power"))
    if pc.formula in ("power-log", "power-log-loglog"):
        out = out * np.log(t) ** (-pc.param("log_power"))
    if pc.formula == "power-log-loglog":
        out = out * np.log(np.log(t)) ** (-pc.param("loglog_power"))
    return out


def survival(model: TailModel, t) -> np.ndarray | float:
    """P(||X|| > t); exact up to floating-point evaluation of the formula.

    Right-continuous: piece i owns [t_lo, t_hi), so a jump at a piece edge
    takes the value of the piece on its right.
    """
    scalar = np.isscalar(t)
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0.0):
        raise ValueError("survival is defined for t >= 0")
    out = np.full_like(tt, np.nan)
    for i, pc in enumerate(model.pieces):
        mask = tt < pc.t_hi if i == 0 else (tt >= pc.t_lo) & (tt < pc.t_hi)
        if np.any(mask):
            out[mask] = _eval_formula(pc, tt[mask])
    out[tt == math.inf] = 0.0  # ||X|| is finite
    out = np.clip(out, 0.0, 1.0)
    return float(out) if scalar else out


# Newton steps for the log-corrected pieces: from the start below, six reach
# rounding level for the catalog's exponent sets; the rest are bisected.
NEWTON_STEPS = 6


def _edge_values(pc: TailPiece, lo: float) -> tuple[float, float]:
    """The piece's survival at lo and its limit at t_hi from the left."""
    with np.errstate(divide="ignore", invalid="ignore"):
        at_lo, at_hi = np.clip(_eval_formula(pc, np.array([lo, pc.t_hi])), 0.0, 1.0)
    if pc.formula == "indicator-below":
        at_hi = float(pc.t_hi <= pc.param("threshold"))
    # at t_hi = inf a growing log factor reads t^-a * (ln t)^-b = 0 * inf; t^-a wins
    return float(at_lo), 0.0 if math.isnan(at_hi) else float(at_hi)


def _log_piece_root(pc: TailPiece, u: np.ndarray, lo: float) -> np.ndarray:
    """Solve scale * t^-a (ln t)^-b (lnln t)^-c = u on the piece, for S(lo) >= u > S(t_hi-).

    In v = ln ln t: g(v) = a e^v + b v + c ln v = ln(scale/u).  Newton starts
    at the pure-power root ln(ln(scale/u) / a), moved into the piece.  An
    element whose last correction exceeds 1e-9 (quadratic convergence leaves
    rounding error below that), or that rests where g decreases (a growing
    log factor under the clamp at 1), is bisected on the sign of
    g - ln(scale/u) instead: S is nonincreasing, so the sign changes once.
    """
    a, b = pc.param("power"), pc.param("log_power")
    c = pc.param("loglog_power") if pc.formula == "power-log-loglog" else 0.0
    v_lo, v_hi = math.log(math.log(lo)), math.log(math.log(pc.t_hi))
    rhs = math.log(pc.param("scale")) - np.log(u)

    def gap_and_slope(v, rhs, gap, slope):  # g(v) - rhs and g'(v), in place
        np.exp(v, out=slope)
        slope *= a
        np.multiply(v, b, out=gap)
        gap += slope
        gap -= rhs
        slope += b
        if c:
            gap += c * np.log(v)
            slope += c / v

    v = np.log(np.maximum(rhs, a * math.exp(v_lo)) / a) if a > 0.0 else np.full_like(rhs, v_lo)
    gap, slope = np.empty_like(v), np.empty_like(v)
    for _ in range(NEWTON_STEPS):
        np.clip(v, v_lo, v_hi, out=v)
        gap_and_slope(v, rhs, gap, slope)
        gap /= slope
        v -= gap
    slow = ~(np.abs(gap) <= 1e-9 * np.maximum(np.abs(v), 1.0)) | (slope <= 0.0)
    if np.any(slow):  # bisect on the sign of g - ln(scale/u); e^(e^6.6) overflows
        r = rhs[slow]
        gap, slope = np.empty_like(r), np.empty_like(r)
        left, right = np.full_like(r, v_lo), np.full_like(r, min(v_hi, 6.6))
        for _ in range(100):  # halves a width below 50 down to adjacent floats
            mid = 0.5 * (left + right)
            gap_and_slope(mid, r, gap, slope)
            np.copyto(left, mid, where=gap <= 0.0)
            np.copyto(right, mid, where=gap > 0.0)
        v[slow] = right
    return np.clip(np.exp(np.exp(v)), lo, pc.t_hi)


def inverse_survival(model: TailModel, u) -> np.ndarray | float:
    """Generalized inverse inf{t : survival(t) < u} for u in (0, 1].

    Scans the pieces left to right; the infimum sits in the first piece whose
    values drop strictly below u, where that piece's own inverse gives it:
    the piece's left edge for constants and indicators, a closed form for
    powers, and Newton for the log-corrected formulas.  Raises NonMonotoneTail
    if the pieces increase across an edge or never fall below u.
    """
    scalar = np.isscalar(u)
    uu = np.atleast_1d(np.asarray(u, dtype=float))
    if uu.size and not (uu.min() > 0.0 and uu.max() <= 1.0):
        raise ValueError("uniforms must lie in (0, 1]")
    out = np.zeros_like(uu)
    unset = np.ones(uu.shape, dtype=bool)
    prev = 1.0
    for i, pc in enumerate(model.pieces):
        lo = 0.0 if i == 0 else pc.t_lo
        at_lo, at_hi = _edge_values(pc, lo)
        if at_lo > prev + 1e-12 or at_hi > at_lo + 1e-12:
            raise NonMonotoneTail(f"{model.name}: survival increases on [{lo:g}, {pc.t_hi:g})")
        here = unset & (uu > at_hi)
        jump, prev = at_lo < prev, at_hi
        if not np.any(here):
            continue
        w = uu[here]
        if pc.formula == "constant":
            root = lo
        elif pc.formula == "indicator-below":
            root = max(pc.param("threshold"), lo)
        elif pc.formula == "power":
            with np.errstate(divide="ignore", over="ignore"):
                t_star = (pc.param("scale") / w) ** (1.0 / pc.param("power"))
            root = np.maximum(t_star, lo)
        else:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                root = _log_piece_root(pc, w, lo)
            if jump:  # a jump down at lo
                root[w > at_lo] = lo
        out[here] = root
        unset &= ~here
    if np.any(unset):
        raise NonMonotoneTail(f"{model.name}: survival does not fall below u")
    return float(out[0]) if scalar else out


def quantiles_un(model: TailModel, ns: np.ndarray) -> np.ndarray:
    """u_n = inf{t : P(||X|| > t) < 1/n} for each n of an integer array."""
    return inverse_survival(model, 1.0 / np.asarray(ns, dtype=float))


def transformed_edges(model: TailModel, p: float) -> tuple[float, ...]:
    """Piece edges of the tail of Y = ||X||^p, for quadrature splitting."""
    return tuple(e**p for e in model.piece_edges())


def power_survival(model: TailModel, p: float):
    """Callable t -> P(||X||^p > t), vectorized."""
    inv = 1.0 / p

    def s_y(t):
        t = np.asarray(t, dtype=float)
        return survival(model, t**inv)

    return s_y


TABLE_POINTS = 512  # geometric grid nodes of the cumulative tail table


class CumulativeTailTable:
    """Precomputed G(t) = int_0^t P(||X||^p > s) ds on a geometric grid.

    Node values come from per-cell adaptive quadrature (the transformed piece
    edges are inserted as nodes, so G is exact there); queries interpolate
    with a cubic Hermite in ln t.  After the O(TABLE_POINTS) quadratures each
    query costs O(1), which is what makes the N-term truncated series cheap.
    """

    def __init__(self, model: TailModel, p: float, t_max: float):
        if t_max <= 0.0:
            raise ValueError("t_max must be positive")
        self.model = model
        self.p = float(p)
        self.t_max = float(t_max)
        s_y = power_survival(model, p)
        edges = [e for e in transformed_edges(model, p) if 0.0 < e < t_max]
        t_lo = min([t_max * 1e-6, 1e-3, *edges]) if edges else min(t_max * 1e-6, 1e-3)
        grid = np.geomspace(t_lo, t_max, TABLE_POINTS)
        grid = np.unique(np.concatenate([grid, np.asarray(edges), [t_max]]))
        self._head_value = float(s_y(np.array([t_lo * 0.5]))[0])  # S is flat below the first edge

        g_vals = [self._head_value * grid[0]]
        for lo, hi in zip(grid[:-1], grid[1:]):
            g_vals.append(g_vals[-1] + integrate(s_y, lo, hi, breakpoints=edges).value)
        self.grid = grid
        self.values = np.asarray(g_vals)
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
        out = np.where(tt <= self.grid[0], self._head_value * tt, 0.0)
        above = tt > self.grid[0]
        if np.any(above):
            s = np.log(tt[above])
            i = np.minimum(np.searchsorted(self._nodes, s, side="right") - 1,
                           self._nodes.size - 2)
            d = s - self._nodes[i]
            c0, c1, c2, c3 = (c[i] for c in self._coef)
            out[above] = c0 + c1 * d + c2 * (d * d) + c3 * (d * d * d)
        return float(out[0]) if scalar else out


def tail_asymptote(model: TailModel) -> LogPolyTail | None:
    """Exact log-polynomial asymptote of the final piece.

    Bounded-support models (final piece constant 0 or indicator-below) give
    None and are reported via `support_upper` instead; a final constant c > 0
    is the non-vanishing tail c * t^0.
    """
    last = model.pieces[-1]
    params = dict(last.params)
    if last.formula == "constant" and params["value"] > 0.0:
        return LogPolyTail(params["value"], 0.0)
    if last.formula in ("power", "power-log", "power-log-loglog"):
        return LogPolyTail(params["scale"], params["power"], params.get("log_power", 0.0),
                           params.get("loglog_power", 0.0))
    return None


def support_upper(model: TailModel) -> float:
    """Essential upper bound of ||X|| (inf when the tail is unbounded)."""
    last = model.pieces[-1]
    if last.formula == "indicator-below":
        return last.param("threshold")
    if last.formula == "constant" and last.param("value") == 0.0:
        return last.t_lo
    return math.inf


def mean_zero(model: TailModel) -> bool | None:
    """Whether E(X) = 0 can be read off the sign law; None when unknown.

    Asymmetric custom splits are left undetermined: the toolkit carries
    tails, not signed densities, so it does not assert a nonzero mean there.
    """
    if support_upper(model) == 0.0:
        return True
    if model.sign_law.kind == SIGN_SYMMETRIC:
        return True
    if model.sign_law.kind == SIGN_NONNEGATIVE:
        return False
    if model.sign_law.negative_prob == 0.5:
        return True
    return None


V_MAX = math.log(math.log(np.finfo(float).max))  # no double t has a larger ln ln t


def _bisect(f, left: float, right: float) -> float:
    """A point where f changes sign on [left, right], f(left) <= 0 < f(right)."""
    for _ in range(100):  # halves a width below 40 down to adjacent floats
        mid = 0.5 * (left + right)
        left, right = (mid, right) if f(mid) <= 0.0 else (left, mid)
    return right


def _log_piece_rises(pc: TailPiece) -> bool:
    """Whether the clamped formula of a log-corrected piece rises on the piece.

    In v = ln ln t the formula is scale * e^(-g(v)), g = a e^v + b v + c ln v,
    so it rises exactly where g' = a e^v + b + c/v < 0.  g'' = a e^v - c/v^2
    changes sign at most once, where e^v v^2 = c/a, so g' is monotone on at
    most two stretches; on each, g' < 0 on one interval, where the formula is
    least at the left end.  The clamp at 1 hides a rise that starts at or above 1.
    """
    a, b = pc.param("power"), pc.param("log_power")
    c = pc.param("loglog_power") if pc.formula == "power-log-loglog" else 0.0
    g = lambda v: a * math.exp(v) + b * v + (c * math.log(v) if c else 0.0)
    slope = lambda v: a * math.exp(v) + b + (c / v if c else 0.0)
    turn = lambda v: math.exp(v) * v * v - c / a  # increases on v > 0, where c != 0
    cuts = [math.log(math.log(pc.t_lo)), min(math.log(math.log(pc.t_hi)), V_MAX)]
    if a * c > 0.0 and turn(cuts[0]) < 0.0 < turn(cuts[1]):
        cuts.insert(1, _bisect(turn, *cuts))
    starts = [lo if slope(lo) < 0.0 else _bisect(lambda v: -slope(v), lo, hi)
              for lo, hi in zip(cuts, cuts[1:]) if min(slope(lo), slope(hi)) < 0.0]
    return any(g(v) > math.log(pc.param("scale")) + 1e-12 for v in starts)


def validate_model(model: TailModel) -> None:
    """Check that the pieces tile [0, inf) edge to edge and that survival never
    rises, across an edge or inside a piece (a power piece rises iff its
    power is negative and it starts below 1); raise on violation."""
    pieces = model.pieces
    if not pieces or pieces[-1].t_hi != math.inf:
        raise ValueError(f"{model.name}: the last piece must be unbounded")
    prev = 1.0
    for i, pc in enumerate(pieces):
        if not pc.t_lo < pc.t_hi:
            raise ValueError(f"{model.name}: piece [{pc.t_lo:g}, {pc.t_hi:g}) is empty")
        if i and pc.t_lo != pieces[i - 1].t_hi:
            raise ValueError(f"{model.name}: pieces must meet, but one ends at "
                             f"{pieces[i - 1].t_hi:g} and the next starts at {pc.t_lo:g}")
        lo = pc.t_lo if i else 0.0
        floor = {"power-log": 1.0, "power-log-loglog": E}.get(pc.formula, -math.inf)
        if lo <= floor:  # the log factors must be positive
            raise ValueError(f"{model.name}: a {pc.formula} piece must start above t = {floor:g}")
        at_lo, at_hi = _edge_values(pc, lo)
        if pc.formula == "power":
            rises = pc.param("power") < 0.0 and at_lo < 1.0 - 1e-12
        else:  # constants and indicators never rise
            rises = pc.formula.startswith("power-log") and _log_piece_rises(pc)
        if at_lo > prev + 1e-12 or rises:
            raise NonMonotoneTail(f"{model.name}: survival increases on [{lo:g}, {pc.t_hi:g})")
        prev = at_hi
    asym = tail_asymptote(model)
    if asym is not None and (asym.a < 0 or (asym.a == 0 and asym.b <= 0)):
        raise ValueError(f"{model.name}: tail does not vanish at infinity")


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def _pareto_facts(alpha: float):
    def facts(p: float, q: float) -> ClauseFact:
        # S(t) = t^(-alpha) beyond 1: every criterion reduces to comparing
        # p against alpha; the truncated series is finite for every p
        # (exactly zero when p >= alpha, summable power decay when p < alpha).
        finite = bool(p < alpha - 1e-12)
        member = finite
        return ClauseFact(
            integral_finite=finite,
            p_moment_finite=finite,
            series_finite=True,
            member=member,
            note=f"pure power tail, exponent {alpha:g}",
        )

    return facts


def pareto(alpha: float, sign_law: str | SignLaw = SIGN_SYMMETRIC) -> TailModel:
    """Survival t^(-alpha) beyond t = 1 (the critical instance alpha = p has
    u_n^p = n exactly, which empties every truncation window)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    sl = sign_law if isinstance(sign_law, SignLaw) else SignLaw(sign_law)
    return TailModel(
        name=f"pareto(alpha={alpha:g})",
        pieces=(piece(0.0, 1.0, "constant", value=1.0),
                piece(1.0, math.inf, "power", scale=1.0, power=alpha)),
        sign_law=sl,
        analytic=AnalyticFacts(
            provenance="closed form: u_n = n^(1/alpha) inverts t^(-alpha) = 1/n",
            clause_facts=_pareto_facts(alpha),
        ),
        origin=("pareto", (("alpha", alpha), ("sign_law", sl.kind))),
    )


def _log_power_facts(a: float, b: float):
    def facts(p: float, q: float) -> ClauseFact | None:
        tol = 1e-12
        # Tail calculus for S(t) = e^a t^(-a) (ln t)^(-b):
        #   integral condition exponent triple: (a/p, b*q/p, 0)
        #   p-moment triple:                    (a/p, b, 0)
        #   series at q = p: finite iff a > p, or a = p with b > 1.
        if a > p + tol:
            integral = pm = series = True
        elif a < p - tol:
            integral = pm = False
            series = None  # window eventually empties only if the scale wins; not asserted
        else:
            integral = b * q / p > 1.0 + tol
            pm = b > 1.0 + tol
            series = b > 1.0 + tol if b > tol else None
        member = None
        if q < p - tol and p < 1.0:
            member = integral
        elif abs(q - p) <= tol and p < 1.0:
            member = pm and bool(series)
        return ClauseFact(integral, pm, series, member,
                          note=f"power-log tail, exponents ({a:g}, {b:g})")

    return facts


def log_power_tail(power: float, log_power: float,
                   sign_law: str | SignLaw = SIGN_SYMMETRIC) -> TailModel:
    """Survival e^power * t^(-power) * (ln t)^(-log_power) beyond t = e.

    With log_power = 2p/q this is the tail that separates membership at
    (p, p) from membership at (p, q) for q < p.
    """
    if power <= 0 or log_power <= 0:
        raise ValueError("power and log_power must be positive")
    sl = sign_law if isinstance(sign_law, SignLaw) else SignLaw(sign_law)
    return TailModel(
        name=f"log-power(power={power:g}, log_power={log_power:g})",
        pieces=(piece(0.0, E, "constant", value=1.0),
                piece(E, math.inf, "power-log",
                      scale=math.exp(power), power=power, log_power=log_power)),
        sign_law=sl,
        analytic=AnalyticFacts(
            provenance="closed-form tail calculus on t^(-a) (ln t)^(-b)",
            clause_facts=_log_power_facts(power, log_power),
        ),
        origin=("log-power", (("power", power), ("log_power", log_power), ("sign_law", sl.kind))),
    )


def _log_loglog_facts(a: float):
    def facts(p: float, q: float) -> ClauseFact | None:
        tol = 1e-12
        # S(t) = e^(e*a+1) t^(-a) (ln t)^(-1) (lnln t)^(-2):
        #   p-moment triple (a/p, 1, 2) is finite at a = p thanks to the
        #   squared lnln factor, while the series integrand (1, 1, 1) sits
        #   exactly on the divergent boundary.
        if a > p + tol:
            integral = pm = series = True
        elif a < p - tol:
            integral = pm = False
            series = None
        else:
            integral = q > p - tol  # (1, q/p, 2q/p): needs q/p > 1, or = 1 with 2q/p > 1
            pm = True
            series = False
        member = None
        if q < p - tol and p < 1.0:
            member = integral
        elif abs(q - p) <= tol and p < 1.0:
            member = pm and bool(series)
        return ClauseFact(integral, pm, series, member,
                          note=f"power-log-loglog tail, exponent {a:g}")

    return facts


def log_loglog_power_tail(power: float, sign_law: str | SignLaw = SIGN_SYMMETRIC) -> TailModel:
    """Survival e^(e*power+1) * t^(-power) * (ln t)^(-1) * (lnln t)^(-2) beyond e^e.

    The marginal tail whose p-moment is finite while the critically truncated
    series still diverges.
    """
    if power <= 0:
        raise ValueError("power must be positive")
    sl = sign_law if isinstance(sign_law, SignLaw) else SignLaw(sign_law)
    knee = math.exp(E)
    return TailModel(
        name=f"log-loglog-power(power={power:g})",
        pieces=(piece(0.0, knee, "constant", value=1.0),
                piece(knee, math.inf, "power-log-loglog",
                      scale=math.exp(E * power + 1.0), power=power,
                      log_power=1.0, loglog_power=2.0)),
        sign_law=sl,
        analytic=AnalyticFacts(
            provenance="closed-form tail calculus on t^(-a) (ln t)^(-1) (lnln t)^(-2)",
            clause_facts=_log_loglog_facts(power),
        ),
        origin=("log-loglog-power", (("power", power), ("sign_law", sl.kind))),
    )


def _degenerate_facts(value: float, sl: SignLaw):
    def facts(p: float, q: float) -> ClauseFact:
        tol = 1e-12
        member = True
        if q < 1.0 - tol <= p - tol and value > 0.0 and sl.kind == SIGN_NONNEGATIVE:
            member = False  # bounded but mean nonzero
        return ClauseFact(True, True, True, member, note="bounded support")

    return facts


def degenerate(value: float, sign_law: str | SignLaw = SIGN_NONNEGATIVE,
               name: str | None = None) -> TailModel:
    """||X|| identically equal to `value`."""
    if value < 0:
        raise ValueError("value must be nonnegative")
    sl = sign_law if isinstance(sign_law, SignLaw) else SignLaw(sign_law)
    return TailModel(
        name=name or f"degenerate(value={value:g})",
        pieces=(piece(0.0, math.inf, "indicator-below", threshold=value),),
        sign_law=sl,
        analytic=AnalyticFacts(
            provenance="degenerate law: survival is the indicator of t < value",
            clause_facts=_degenerate_facts(value, sl),
        ),
        origin=("degenerate", (("value", value), ("sign_law", sl.kind))),
    )


def rademacher() -> TailModel:
    """Symmetric +/-1 law (unit magnitude with a fair sign)."""
    m = degenerate(1.0, SIGN_SYMMETRIC, name="rademacher")
    return TailModel(name="rademacher", pieces=m.pieces, sign_law=m.sign_law,
                     analytic=m.analytic, origin=("rademacher", ()))


def zero() -> TailModel:
    return degenerate(0.0, SIGN_NONNEGATIVE, name="zero")


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


def load_model(obj: dict) -> TailModel:
    """Build a custom model from a parsed JSON document.

    Schema: {"name": str, "sign_law": ..., "pieces": [{"t_lo", "t_hi",
    "formula_id", "params"}, ...]} with formula_id from the fixed catalog.
    """
    if not isinstance(obj, dict):
        raise ValueError("custom model document must be an object")
    if "sign_law" not in obj:
        raise ValueError("custom model document must declare a sign_law")
    pieces = []
    for raw in obj["pieces"]:
        t_hi = raw.get("t_hi")
        pieces.append(piece(raw["t_lo"], math.inf if t_hi is None else t_hi,
                            raw["formula_id"], **raw.get("params", {})))
    pieces.sort(key=lambda p: p.t_lo)
    model = TailModel(
        name=obj.get("name", "custom"),
        pieces=tuple(pieces),
        sign_law=SignLaw.from_json(obj["sign_law"]),
    )
    validate_model(model)
    return model
