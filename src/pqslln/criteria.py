"""Clause-by-clause membership in the (p,q)-type SLLN, and its evidence.

`decide` gives the membership.  It depends on X only through its tail: the
clause of (p, q) names the conditions, and each condition's kind is decided
from the model alone.  Bounded support converges.  Otherwise the exact
log-polynomial exponents of the last piece are pushed through the transform
algebra and compared lexicographically.  This is what resolves the marginal
examples: a (lnln t)^(-1) factor separates convergence from divergence but
shifts a log slope by only ~1/lnln(t_cap) ~ 0.3 at t_cap = 1e12, far inside
any honest fit band.  Nothing is fitted.

The classifiers add the evidence, each condition's value on a window, as a
Verdict of the decided kind.  Every integral is one increasing map h of
||X||, the tail integral int_0^inf P(h(||X||) > t)^r dt that
`_classify_tail_integral` evaluates; a power map's integrand is
`tail_models.power_survival`, and the log-moment's is
`tail_models.powered_survival` along its bisected h^-1:

    integral condition   h(x) = x^q, r = q/p
    p-th moment          h(x) = x^p, r = 1 (the integral condition at q = p)
    log-moment           h(x) = x^p ln^delta(1 + x), r = 1: E[h(||X||)]
    truncated series     sum_n E[ ||X||^p 1(min{u_n^p, n} < ||X||^p <= n) ] / n

An integral's window is [0, end], end = min(t_cap, h(support end), h(X_MAX))
with X_MAX the largest double: the window ends where h^-1(t) is still a
double.  A Verdict records the value on the window and, when convergent,
`remainder_bound`: a proved upper bound of the part past the window
(`tail_remainder` from end, `_series_remainder` past n_max), or None where
no bound is proved.  An unbounded tail's verdict carries the exponent
triple it was decided from (`exponents`, or `tail_exponents` for the series).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tail_models as tm
from .asymptotics import EQ_TOL, LogPolyTail, integral_converges, tail_remainder
from .quadrature import integrate
from .trend import CONVERGES, DIVERGES, INCONCLUSIVE, Verdict, fit_line

MEMBER = "Member"
NON_MEMBER = "NonMember"
UNDECIDED = "Inconclusive"
# the (membership, Monte Carlo verdict) pairs that contradict each other
CONTRADICTIONS = {(MEMBER, DIVERGES), (NON_MEMBER, CONVERGES)}

T_CAP_DEFAULT = tm.T_CAP_DEFAULT
X_MAX = float(np.finfo(float).max)
SERIES_N_MAX_DEFAULT = tm.SERIES_N_MAX_DEFAULT
SERIES_BLOCK = 1 << 13  # terms of `truncated_series` evaluated at a time: cache-sized
SERIES_N_MIN = 1000  # the fewest terms of `truncated_series`: its first checkpoint
SERIES_N_LIMIT = 10**9  # the most terms of `truncated_series`: about a minute of its pass
_EQ = 1e-12

CLAUSE_Q_LT_P = "q<p<1"
CLAUSE_Q_EQ_P = "q=p<1"
CLAUSE_P_GE_1 = "q<1<=p<2"
CLAUSE_OUT = "out-of-scope"


def _classify_tail_integral(model: tm.TailModel, h, h_inv, f, *, t_cap: float,
                            asym: LogPolyTail | None, bound_tail) -> Verdict:
    """Classify int_0^inf f(t) dt for f(t) = P(h(||X||) > t)^r, h increasing:
    f's knee, support end and breakpoints are h of the model's.  The window is
    [0, end], end = min(t_cap, h(support end), h(X_MAX)): past h(X_MAX) h^-1
    is no double.  `asym` carries the exponents of f's tail, needed when the
    support is unbounded; the remainder past end is `tail_remainder(
    bound_tail(ln X), end, max(f(end), tiny), ln X)`, X = h^-1(end) clamped
    to X_MAX and tiny the least normal double, so `bound_tail(ln X)` must meet
    that function's assumptions for f on [end, inf): an unbounded tail needs
    end past h(knee), where f's last piece starts.  Its margin budgets a
    rounding of (1 + |a ln T| + |b| lnln X) eps in f(end), and a log-domain
    f(end) of `powered_survival` meets it: there ln f(end) = r ln C - a ln T -
    b lnln X - c lnlnln X in f's exponents, each term within a few eps of
    itself, r ln C at most the rest where f(end) < 1 <= C, lnlnln X < 2; exp
    turns that absolute error into a relative one.  (For `llogl_moment` the
    terms are those of S at X, and its majorant's a ln T is at least
    sigma_X ln X past X = e^e.)  Where that exp falls below tiny it has lost
    its relative accuracy, but then the true f(end) is below tiny within the
    same budget, so tiny stands in for it.  A divergent verdict integrates the
    last decade of the window as ten more cells of the same call, and reports
    their running values and slope."""
    upper = tm.support_upper(model)
    bounded = math.isfinite(upper)  # h(upper) may still overflow: M^p past X_MAX
    with np.errstate(over="ignore"):  # X_MAX^q is inf for q > 1
        cutoff, h_max, knee, *edges = (float(h(np.float64(x))) for x in
                                       (upper, X_MAX, model.knee, *model.piece_edges()))
    end = min(t_cap, cutoff, h_max)
    if not bounded and end <= knee:
        raise ValueError("t_cap must exceed the knee of the transformed tail")
    converges = _kind(asym) == CONVERGES
    decade = None if converges else np.geomspace(end / 10.0, end, 11)
    quad = integrate(f, [0.0, end] if converges else [0.0, *decade], breakpoints=edges)
    value = math.fsum(quad.values)
    f_end = float(f(np.array([end]))[0])

    if bounded:
        rem = f_end * (cutoff - end) if cutoff > end else 0.0
        return Verdict(CONVERGES, value, remainder_bound=rem if math.isfinite(rem) else None,
                       method="bounded-support")

    diagnostics = {"exponents": (asym.a, asym.b, asym.c)}
    if converges:
        with np.errstate(over="ignore"):  # rounding can send h^-1(h(X_MAX)) to inf
            log_x = math.log(max(min(float(h_inv(np.float64(end))), X_MAX), 1.0))
        f_cap = max(f_end, np.finfo(float).tiny)  # an upper bound of f(end)
        rem = tail_remainder(bound_tail(log_x), end, f_cap, log_x)  # None for ln X <= 1
        return Verdict(CONVERGES, value, remainder_bound=rem,
                       method="tail-exponents", diagnostics=diagnostics)
    partials = np.cumsum(quad.values[1:])
    slope, _ = fit_line(np.log(decade[1:]), partials)
    return Verdict(DIVERGES, value, method="tail-exponents",
                   diagnostics={**diagnostics, "last_decade_partials": partials.tolist(),
                                "last_decade_slope": float(slope)})


def _kind(asym: LogPolyTail | None) -> str:
    """The kind of a tail integral whose integrand's tail is `asym`, None for
    bounded support: there the integral terminates."""
    return CONVERGES if asym is None or integral_converges(asym) else DIVERGES


def _integral_tail(model: tm.TailModel, p: float, q: float) -> LogPolyTail | None:
    """The tail of P^{q/p}(||X||^q > t), or None for bounded support."""
    asym = tm.tail_asymptote(model)
    return None if asym is None else asym.power_arg(q).powered(q / p)


def integral_pq(model: tm.TailModel, p: float, q: float,
                t_cap: float = T_CAP_DEFAULT) -> Verdict:
    """Classify int_0^inf P^{q/p}(||X||^q > t) dt: the map x^q, the integrand
    `power_survival(model, q, q / p)`."""
    tm.check_exponents(p, q)
    asym = _integral_tail(model, p, q)
    return _classify_tail_integral(model, lambda x: x**q, lambda t: t ** (1.0 / q),
                                   tm.power_survival(model, q, q / p), t_cap=t_cap,
                                   asym=asym, bound_tail=lambda log_x: asym)


def p_moment(model: tm.TailModel, p: float, t_cap: float = T_CAP_DEFAULT) -> Verdict:
    """Classify E(||X||^p) via its tail integral int_0^inf P(||X||^p > t) dt,
    the integral condition at q = p."""
    return integral_pq(model, p, p, t_cap)


def _moment_map(p: float, delta: float):
    """h(x) = x^p ln^delta(1 + x) and its inverse, bisected in s = ln x: the
    root of p s + delta ln ln(1 + e^s) = ln t on [-745, ln X_MAX], where e^-745
    is the least positive double and X_MAX the largest (e^(ln X_MAX) rounds
    below it, so h^-1 is never inf)."""
    def h(x):
        x = np.asarray(x, dtype=float)
        return x**p * np.log1p(x) ** delta

    def h_inv(t):
        with np.errstate(divide="ignore"):  # ln 0 = -inf maps to e^-745
            ln_t = np.log(t)
        return np.exp(tm.bisect(lambda s: p * s + delta * np.log(np.log1p(np.exp(s))) - ln_t,
                                -745.0, math.log(X_MAX)))

    return h, h_inv


def llogl_moment(model: tm.TailModel, p: float, delta: float,
                 t_cap: float = T_CAP_DEFAULT) -> Verdict:
    """Classify E[ ||X||^p ln^delta(1 + ||X||) ] via the tail of the transform:
    the map h(x) = x^p ln^delta(1 + x), the integrand S(h^-1(t))."""
    tm.check_exponents(p)
    tm.check_positive(delta=delta)
    h, h_inv = _moment_map(p, delta)
    base = tm.tail_asymptote(model)
    asym = None if base is None else base.moment_transform(p, delta)

    def majorant(lx):
        # asym is only asymptotic, so the bound takes the exact slope on [X, inf),
        # lx = ln X > 1: -d ln f/d ln t = sigma(x)/(d ln h/d ln x), where
        # sigma(x) = a + b/ln x + c/(ln x lnln x) >= sigma_X as in tail_remainder
        # and d ln h/d ln x <= p + delta/ln X: the slope is >= sigma_X/(p + delta/ln X).
        sigma = base.a + min(base.b, 0.0) / lx + min(base.c, 0.0) / (lx * math.log(lx))
        return LogPolyTail(1.0, sigma / (p + delta / lx))

    def f(t):
        x = h_inv(t)
        return tm.powered_survival(model, x, np.log(x))

    return _classify_tail_integral(model, h, h_inv, f, t_cap=t_cap, asym=asym,
                                   bound_tail=majorant)


# ---------------------------------------------------------------------------
# Truncated series (the q = p < 1 clause)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesTable:
    """Partial sums of the criterion series at decade checkpoints.

    `integral_form_partials` carries the variant with the boundary terms
    dropped (the pure integral between the truncation levels), exposed as a
    diagnostic: the two differ by summable boundary terms whenever the
    p-th moment is finite.
    """

    n_max: int
    checkpoints: tuple[int, ...]
    partial_sums: tuple[float, ...]
    integral_form_partials: tuple[float, ...]
    terms_at_checkpoints: tuple[float, ...]
    clamped_terms: int


def _series_kind(model: tm.TailModel, p: float) -> str:
    """The verdict kind of `truncated_series` at p, from the model alone: the
    kind of sum_n E[Y 1(min{u_n', n} < Y <= n)]/n, Y = ||X||^p.  No term is
    summed, since zero terms decide nothing either: a divergent tail can keep
    its windows empty past any N.

    Bounded support converges (term_n <= M^p / n^2).  Otherwise, writing
    S_Y ~ C t^(-ay) (ln t)^(-by) (lnln t)^(-cy):

    - ay > 1: the quantile level u_n' ~ n^(1/ay) << n and the window mass
      decays like a power; the series converges.
    - ay < 1: u_n' grows faster than n, the window is eventually empty.
    - ay = 1 with log corrections: the window contributes ~ S_Y(n) * n * lnln-
      factors; the series behaves like int t^(-1) (ln t)^(-by) (lnln t)^(-(cy-1)).
    - ay = 1 pure power: u_n' = C n exactly; empty window iff C >= 1, else the
      terms approach the constant C ln(1/C) and the series is harmonic.
    """
    sy = _integral_tail(model, p, p)  # the tail of Y, the p-th moment's integrand
    if sy is None:
        return CONVERGES
    ay, by, cy, c0 = sy.a, sy.b, sy.c, sy.const
    if ay > 1.0 + EQ_TOL or ay < 1.0 - EQ_TOL:
        return CONVERGES
    if by > EQ_TOL:
        return _kind(LogPolyTail(c0, 1.0, by, cy - 1.0))
    if cy > EQ_TOL:
        return DIVERGES
    return CONVERGES if c0 >= 1.0 - EQ_TOL else DIVERGES


def _series_remainder(model: tm.TailModel, p: float, n_max: int) -> float | None:
    """Proved upper bound of sum_{n>N} term_n, N = n_max, or None, from the
    exact last piece S(x) = C x^-a (ln x)^-b (lnln x)^-c on [x0, inf).

    With Y = ||X||^p and k = a/p, y_n = (Cn)^(1/k) is the quantile of Y at 1/n
    for a pure power; require (C(N+1))^(1/a) >= x0, and >= e^e if b or c != 0.
    - Pure power, k < 1 and C (N+1)^(1-k) >= 1, or k = 1 and C >= 1: y_n >= n
      for all n > N, so every window is empty and the remainder is 0.
    - Pure power, k > 1: y_n S_Y(y_n) - n S_Y(n) + int_{y_n}^n S_Y gives
      term_n = k/(k-1) (y_n/n^2 - C n^-k) on a nonempty window, and y_N <= N
      keeps every later window nonempty, as y_n/n falls.  The integral test on
      both sums gives k/(k-1) [C^(1/k) N^(1/k-1) k/(k-1) - C (N+1)^(1-k)/(k-1)].
    - k > 1 and b, c >= 0, a pure power with y_N > N included: S_Y(t) <= C t^-k
      past e^e, so the quantile of Y at v <= 1/(N+1) is at most (C/v)^(1/k),
      term_n <= E[Y 1(Y > y_n)]/n <= (1/n) int_0^(1/n) (C/v)^(1/k) dv
      = k/(k-1) C^(1/k) n^(1/k-2), and summed: the first bound without its
      second sum.  Anything else (a growing factor, k <= 1 with windows still
      open) gives None.
    """
    last = tm.tail_asymptote(model)
    if last is None or last.a <= 0.0:
        return None
    C, k, N = last.const, last.a / p, float(n_max)
    pure = last.b == 0.0 and last.c == 0.0
    x0 = model.pieces[-1].t_lo if pure else max(model.pieces[-1].t_lo, math.e ** math.e)
    if x0 > 0.0 and math.log(C * (N + 1.0)) / last.a < math.log(x0):
        return None
    if pure and (k < 1.0 - EQ_TOL and C * (N + 1.0) ** (1.0 - k) >= 1.0
                 or abs(k - 1.0) <= EQ_TOL and C >= 1.0):
        return 0.0
    if k <= 1.0 + EQ_TOL or last.b < 0.0 or last.c < 0.0:
        return None
    ratio, y_over_n = k / (k - 1.0), C ** (1.0 / k) * N ** (1.0 / k - 1.0)
    second = C * (N + 1.0) ** (1.0 - k) / (k - 1.0) if pure and y_over_n <= 1.0 else 0.0
    return float(ratio * (y_over_n * ratio - second))


def truncated_series(model: tm.TailModel, p: float,
                     n_max: int = SERIES_N_MAX_DEFAULT) -> tuple[SeriesTable, Verdict]:
    """Partial sums and growth verdict of the q = p truncation series.

    term_n = E[ Y 1(min{u_n^p, n} < Y <= n) ] / n  with Y = ||X||^p, evaluated
    through the cumulative tail table so each term costs O(1).  P(Y > a) at
    a = u_n^p is read at the quantile u_n itself, so that rounding in the
    powers cannot move it across a jump of the survival function.

    The terms are evaluated SERIES_BLOCK at a time, into buffers that every
    block reuses, the quantiles' output and inverse scratch included: each
    term depends on its n alone.  A block whose windows are all nonempty,
    as every block but the first is for the builtin tails, is evaluated
    whole, without masks.  Its terms and integral-form terms are two rows,
    whose first terms take the block before's last sums: each row's cumsum
    is then, bit for bit, np.cumsum over all its terms.  Sums and terms are
    kept only where read, at the checkpoints and a divergent verdict's 11 fit points.
    """
    tm.check_exponents(p)
    n_max = tm.check_count("n_max", n_max, SERIES_N_MIN, SERIES_N_LIMIT)
    checkpoints = sorted({10**k for k in range(3, int(math.log10(n_max)) + 1)} | {n_max})
    decade = np.rint(np.geomspace(n_max / 10, n_max, 11))
    reads = np.array([*checkpoints, *decade], dtype=np.int64) - 1  # the indices read
    at = np.empty((3, reads.size))  # the partial sums, integral-form sums and terms there
    steps = np.arange(min(SERIES_BLOCK, n_max), dtype=float)
    ns, quantiles = np.empty((2, steps.size))
    sums = np.empty((2, steps.size))  # the block's terms, then the running sums of each row
    scratch = tm.InverseScratch(steps.size)
    clamped, top = 0, 0.0
    table = s_y = None  # built for the first nonempty window
    for lo in range(0, n_max, steps.size):
        size = min(steps.size, n_max - lo)
        n, block = ns[:size], sums[:, :size]
        term, int_term = block
        np.add(steps[:size], float(lo + 1), out=n)
        # a shorter last block leaves the inverse to make a scratch of its size
        u = tm.quantiles_un(model, n, quantiles[:size], scratch if size == steps.size else None)
        a = np.minimum(u**p, n)
        nonempty = a < n * (1.0 - 1e-15)
        block.fill(0.0)
        if np.any(nonempty):
            if table is None:
                table = tm.CumulativeTailTable(model, p, float(n_max))
                s_y = tm.power_survival(model, p)
            windows = slice(None) if nonempty.all() else nonempty
            aa, bb = a[windows], n[windows]
            s_a = tm.survival(model, u[windows])   # a = u^p on nonempty windows
            g_a, g_b = table(aa), table(bb)
            raw = (aa * s_a - bb * s_y(bb) + g_b - g_a) / bb
            clamped += int(np.count_nonzero(raw < 0.0))
            term[windows] = np.maximum(raw, 0.0)
            int_term[windows] = np.maximum(g_b - g_a, 0.0) / bb
        here = (reads >= lo) & (reads < lo + size)
        at[2, here] = term[reads[here] - lo]
        top = np.maximum(top, term.max())
        if lo:
            block[:, 0] += carry
        np.cumsum(block, axis=1, out=block)
        at[:2, here] = block[:, reads[here] - lo]
        carry = block[:, -1].copy()

    partials, int_at, terms_at = at[:, :len(checkpoints)]
    table_out = SeriesTable(
        n_max=n_max,
        checkpoints=tuple(checkpoints),
        partial_sums=tuple(partials.tolist()),
        integral_form_partials=tuple(int_at.tolist()),
        terms_at_checkpoints=tuple(terms_at.tolist()),
        clamped_terms=clamped,
    )

    estimate = float(partials[-1])
    zero = float(top) <= 1e-12
    kind, upper = _series_kind(model, p), tm.support_upper(model)
    if math.isfinite(upper):
        # Y <= M^p and P(Y > u_n^p) <= 1/n, so term_n <= M^p / n^2
        return table_out, Verdict(kind, estimate, remainder_bound=upper**p / n_max,
                                  method="zero-terms" if zero else "bounded-support")

    sy = tm.tail_asymptote(model).power_arg(p)
    rem = _series_remainder(model, p, n_max) if kind == CONVERGES else None
    if kind == CONVERGES and zero:
        return table_out, Verdict(CONVERGES, estimate, remainder_bound=rem, method="zero-terms")
    diag = {"tail_exponents": (sy.a, sy.b, sy.c)}
    if kind == DIVERGES:
        last = partials[-2] if len(partials) > 1 else 0.0
        slope, _ = fit_line(np.log(decade), at[0, len(checkpoints):])
        diag["last_decade_increase"] = float(partials[-1] - last)
        diag["last_decade_slope"] = float(slope)
    return table_out, Verdict(kind, estimate, remainder_bound=rem,
                              method="tail-exponents", diagnostics=diag)


# ---------------------------------------------------------------------------
# Clause classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriterionReport:
    model: str
    p: float
    q: float
    clause: str
    criterion: str  # "almost-sure" (clause table ii) or "expectation" (clause table iv)
    integral_verdict: Verdict
    p_moment_verdict: Verdict
    llogl_verdict: Verdict | None
    truncated_series_verdict: Verdict | None
    series_table: SeriesTable | None
    mean_zero_required: bool
    mean_zero: bool | None
    membership: str
    contrast_membership: str | None = None


def clause_of(p: float, q: float) -> str:
    """The clause of the table that (p, q) falls in, or CLAUSE_OUT for a valid
    (p, q) outside all three; an invalid (p, q) raises ValueError."""
    tm.check_exponents(p, q)
    if q < p - _EQ and p < 1.0 - _EQ:
        return CLAUSE_Q_LT_P
    if abs(q - p) <= _EQ and p < 1.0 - _EQ:
        return CLAUSE_Q_EQ_P
    if q < 1.0 - _EQ and p >= 1.0 - _EQ:
        return CLAUSE_P_GE_1
    return CLAUSE_OUT


def _membership(kinds: list[str], mean_flag: bool | None, mean_required: bool) -> str:
    """The membership from the verdict kinds of the decisive conditions."""
    if mean_required and mean_flag is None:
        return UNDECIDED
    if DIVERGES in kinds:
        return NON_MEMBER
    if mean_required and mean_flag is False:
        return NON_MEMBER
    return MEMBER


@dataclass(frozen=True)
class Decision:
    """A law's membership at (p, q) and the kind of each condition: None where
    the clause has no such condition, and Inconclusive outside the clauses."""

    clause: str
    integral: str | None
    p_moment: str | None
    series: str | None
    llogl: str | None
    mean_zero_required: bool
    mean_zero: bool | None
    membership: str
    contrast_membership: str | None = None


def decide(model: tm.TailModel, p: float, q: float,
           criterion: str = "almost-sure") -> Decision:
    """The membership from the clause table, with no quadrature and no series:

        q < p < 1       integral condition alone
        q = p < 1       p-th moment AND truncated series (almost sure), or
                        E[||X||^p ln(1 + ||X||)] < inf (expectation)
        q < 1 <= p < 2  mean zero AND integral condition

    Each kind is `_kind` of the integrand's tail, or `_series_kind`.  At q = p
    the expectation criterion's contrast is the almost-sure membership.  A
    valid (p, q) outside these three is Inconclusive; an invalid one (p not in
    (0, 2), q <= 0, either not finite) or criterion raises ValueError."""
    if criterion not in ("almost-sure", "expectation"):
        raise ValueError(f"criterion must be 'almost-sure' or 'expectation', got {criterion!r}")
    clause = clause_of(p, q)
    mean_flag = tm.mean_zero(model)
    mean_required = clause == CLAUSE_P_GE_1
    if clause == CLAUSE_OUT:
        return Decision(clause, INCONCLUSIVE, INCONCLUSIVE, None, None, False, mean_flag, UNDECIDED)
    # the p-th moment, which at q = p is the integral condition itself
    integral = pmom = _kind(_integral_tail(model, p, p))
    series = llogl = contrast = None
    if clause != CLAUSE_Q_EQ_P:
        integral = _kind(_integral_tail(model, p, q))
        kinds = [integral]
    elif criterion == "expectation":
        last = tm.tail_asymptote(model)
        llogl = _kind(None if last is None else last.moment_transform(p, 1.0))
        kinds, contrast = [llogl], decide(model, p, q).membership
    else:
        series = _series_kind(model, p)
        kinds = [pmom, series]
    return Decision(clause, integral, pmom, series, llogl, mean_required, mean_flag,
                    _membership(kinds, mean_flag, mean_required), contrast)


def check_settings(t_cap: float, series_n_max: int) -> None:
    """ValueError unless t_cap > 0 is finite and series_n_max an integer in [10^3, 2^53]."""
    if not (tm.is_number(t_cap) and t_cap > 0.0):
        raise ValueError(f"t_cap must be positive and finite, got {t_cap!r}")
    tm.check_count("series_n_max", series_n_max, SERIES_N_MIN)


def _classify(model: tm.TailModel, p: float, q: float, criterion: str, *,
              t_cap: float, series_n_max: int) -> CriterionReport:
    """`decide`'s membership, with the window evidence of the conditions its
    clause names: at q = p, the series table or the log-moment of `criterion`."""
    check_settings(t_cap, series_n_max)
    decision = decide(model, p, q, criterion)
    llogl = series_verdict = series_table = None
    if decision.clause == CLAUSE_OUT:
        integral = pmom = Verdict(INCONCLUSIVE, 0.0, method="out-of-scope")
    elif decision.clause == CLAUSE_Q_EQ_P:
        integral = pmom = p_moment(model, p, t_cap)
        if criterion == "expectation":
            llogl = llogl_moment(model, p, 1.0, t_cap)
        else:  # the series' term limit fails only this evidence, not the decision
            tm.check_count("series_n_max", series_n_max, SERIES_N_MIN, SERIES_N_LIMIT)
            series_table, series_verdict = truncated_series(model, p, series_n_max)
    else:
        integral, pmom = integral_pq(model, p, q, t_cap), p_moment(model, p, t_cap)

    return CriterionReport(
        model=model.name, p=p, q=q, clause=decision.clause, criterion=criterion,
        integral_verdict=integral, p_moment_verdict=pmom, llogl_verdict=llogl,
        truncated_series_verdict=series_verdict, series_table=series_table,
        mean_zero_required=decision.mean_zero_required, mean_zero=decision.mean_zero,
        membership=decision.membership, contrast_membership=decision.contrast_membership,
    )


def classify_slln(model: tm.TailModel, p: float, q: float, *,
                  t_cap: float = T_CAP_DEFAULT,
                  series_n_max: int = SERIES_N_MAX_DEFAULT) -> CriterionReport:
    """Almost-sure criterion: `decide`'s membership, with the evidence."""
    return _classify(model, p, q, "almost-sure", t_cap=t_cap, series_n_max=series_n_max)


def series_expectation_criterion(model: tm.TailModel, p: float, q: float, *,
                                 t_cap: float = T_CAP_DEFAULT,
                                 series_n_max: int = SERIES_N_MAX_DEFAULT) -> CriterionReport:
    """Expectation-series criterion: `decide`'s membership, with the evidence.

    For the q = p clause the report also carries the almost-sure membership
    for contrast, since that is exactly where the two criteria can differ.
    """
    return _classify(model, p, q, "expectation", t_cap=t_cap, series_n_max=series_n_max)
