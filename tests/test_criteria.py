import dataclasses
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from clause_facts import clause_facts
from pqslln import criteria as cr
from pqslln import mc_engine as mc
from pqslln import tail_models as tm
from pqslln.errors import ConfigError

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "slln_bench")


def member_model_family(p, q):
    """The critical-line tail e^q t^-q (ln t)^(-2p/q): a member exactly at q = p."""
    return tm.log_power_tail(power=q, log_power=2.0 * p / q)


# ---------------------------------------------------------------------------
# integral condition
# ---------------------------------------------------------------------------


def test_integral_degenerate_value_exact():
    c = 1.3
    v = cr.integral_pq(tm.degenerate(c), 0.7, 0.5)
    assert v.kind == cr.CONVERGES
    assert v.estimate_on_window == pytest.approx(c**0.5, rel=1e-12)
    assert v.method == "bounded-support"
    assert v.remainder_bound == 0.0


def test_integral_pareto_closed_form():
    # symbolic antiderivative: 1 + int_1^inf t^-2 dt = 2
    v = cr.integral_pq(tm.pareto(2.0), 1.0, 0.5)
    assert v.kind == cr.CONVERGES
    assert v.estimate_on_window == pytest.approx(2.0, abs=1e-6)
    assert v.remainder_bound is not None and v.remainder_bound < 1e-6


@pytest.mark.parametrize("q_frac", [0.4, 0.8])
def test_integral_diverges_below_critical_q(q_frac):
    p = 0.5
    q = q_frac * p
    v = cr.integral_pq(member_model_family(p, q), p, q)
    assert v.kind == cr.DIVERGES
    # Diverges verdicts carry strictly increasing partials with positive slope
    partials = v.diagnostics["last_decade_partials"]
    assert all(b > a for a, b in zip(partials, partials[1:]))
    assert v.diagnostics["last_decade_slope"] > 0.0


def test_one_quadrature_call_per_verdict(monkeypatch):
    # the divergent verdict's last-decade cells ride in the window's own call
    calls = []
    real = cr.integrate
    monkeypatch.setattr(cr, "integrate", lambda *a, **k: calls.append(a[1]) or real(*a, **k))
    diverges = cr.integral_pq(member_model_family(0.5, 0.2), 0.5, 0.2)
    converges = cr.llogl_moment(member_model_family(0.5, 0.5), 0.5, 0.5)
    assert (diverges.kind, converges.kind) == (cr.DIVERGES, cr.CONVERGES)
    assert [len(nodes) for nodes in calls] == [12, 2]


@pytest.mark.parametrize("model,kind", [(tm.pareto(2.0), cr.CONVERGES),
                                        (tm.log_power_tail(1.0, 2.0), cr.DIVERGES)],
                         ids=lambda x: getattr(x, "name", x))
def test_integral_small_q_sees_zero_tail_at_overflow(model, kind):
    # t^(1/q) would overflow inside the cap, so the window ends at X_MAX^q,
    # where the tail is 0 or tiny, not NaN.
    # The integrands are t^-2 and t^-1 (ln t)^-0.04 beyond the knee.
    with np.errstate(over="ignore"):
        v = cr.integral_pq(model, 1.0, 0.02)
    assert v.kind == kind
    assert math.isfinite(v.estimate_on_window)


@pytest.mark.parametrize("model,p,q,total", [
    pytest.param(tm.pareto(0.6), 0.5, q, 6.0, id=str(q)) for q in (0.03, 0.02, 0.01)] + [
    pytest.param(tm.pareto(2.0), 1.0, q, 2.0, id=f"pareto2-{q}") for q in (0.02, 0.01)])
def test_window_ends_where_the_power_is_a_double(model, p, q, total):
    # The integrand is min(1, t^-k), k = alpha/p, whose total is 1 + 1/(k - 1):
    # 6 for pareto(0.6) at p = 0.5, 2 for pareto(2) at p = 1, although there
    # S(t^(1/q)) = t^(-2/q) underflows past t = 41 at q = 0.01.  The window
    # ends at X_MAX^q, below the cap, and the pure-power bound of the part
    # past it is the exact remainder rounded outward.
    v = cr.integral_pq(model, p, q)
    k = tm.tail_asymptote(model).a / p
    tail = (cr.X_MAX**q) ** (1.0 - k) / (k - 1.0)  # past the window end X_MAX^q
    assert v.kind == cr.CONVERGES
    assert v.estimate_on_window == pytest.approx(total - tail, rel=0.0, abs=1e-9)
    assert v.remainder_bound >= tail
    assert total - 1e-9 <= v.estimate_on_window + v.remainder_bound <= total + 1e-9


def test_underflowed_survival_proves_its_remainder():
    # pareto(2) at p = 1, q = 0.02: the window ends at X_MAX^0.02, about 1.5e6,
    # where S(X_MAX) = X_MAX^-2 underflows to 0, but the integrand there,
    # t^-2 from the log domain, is a normal double; it leaves 1/end past the window
    v = cr.integral_pq(tm.pareto(2.0), 1.0, 0.02)
    assert v.kind == cr.CONVERGES
    assert v.remainder_bound >= 1.0 / cr.X_MAX**0.02
    assert v.estimate_on_window + v.remainder_bound == pytest.approx(2.0, rel=0.0, abs=1e-9)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7, 1.0, 1.5])
def test_log_domain_keeps_the_integrand_and_proves_the_remainder(p):
    # pareto(3) at q = 0.1: the integrand is min(1, t^-k), k = 3/p, on the
    # window [0, 1e12], though S(t^10) = t^-30 underflows past t = 1.8e10;
    # the bound of the part past the cap covers its tail end^(1-k)/(k-1)
    v = cr.integral_pq(tm.pareto(3.0), p, 0.1)
    k, end = 3.0 / p, 1e12
    tail = end ** (1.0 - k) / (k - 1.0)
    assert v.kind == cr.CONVERGES
    assert v.estimate_on_window == pytest.approx(1.0 + 1.0 / (k - 1.0) - tail, rel=0.0, abs=1e-12)
    assert v.remainder_bound >= tail


def test_integral_requires_cap_beyond_knee():
    with pytest.raises(ValueError):
        cr.integral_pq(tm.log_loglog_power_tail(0.5), 0.5, 0.5, t_cap=1.0)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_p_moment_marginal_tails():
    # double-log damping keeps the critical moment finite
    assert cr.p_moment(tm.log_loglog_power_tail(0.5), 0.5).kind == cr.CONVERGES
    # the bare critical power tail does not
    assert cr.p_moment(tm.pareto(0.5), 0.5).kind == cr.DIVERGES
    v = cr.p_moment(tm.degenerate(1.0), 0.5)
    assert v.kind == cr.CONVERGES and v.estimate_on_window == pytest.approx(1.0)


def test_llogl_moment_examples():
    m = member_model_family(0.5, 0.5)
    assert cr.llogl_moment(m, 0.5, 0.5).kind == cr.CONVERGES
    assert cr.llogl_moment(m, 0.5, 1.0).kind == cr.DIVERGES
    v = cr.llogl_moment(tm.degenerate(1.0), 0.5, 0.7)
    assert v.kind == cr.CONVERGES
    assert v.estimate_on_window == pytest.approx(math.log(2.0) ** 0.7, rel=1e-9)
    # comparison oracle: E|X|^p' finite for p < p' < alpha dominates the log factor
    assert cr.p_moment(tm.pareto(2.0), 1.5).kind == cr.CONVERGES
    assert cr.llogl_moment(tm.pareto(2.0), 1.0, 1.0).kind == cr.CONVERGES


def test_moment_remainders_bound_closed_forms():
    T = cr.T_CAP_DEFAULT
    L = math.log(T)
    # log-loglog-power(0.5) at p = 0.5: P(|X|^p > t) = C t^-1 (2 ln t)^-1 (ln(2 ln t))^-2,
    # whose tail past T is (C/2)/ln(2L)
    model = tm.log_loglog_power_tail(0.5)
    exact = 0.5 * tm.tail_asymptote(model).const / math.log(2.0 * L)
    assert cr.p_moment(model, 0.5).remainder_bound >= exact
    # pareto(2) with h(x) = x ln(1+x): the tail past T is
    # int_X^inf x^-2 h'(x) dx = ln(1+X)/X + 2 ln(1 + 1/X), X = h^-1(T)
    _, h_inv = cr._moment_map(1.0, 1.0)
    x_cap = float(h_inv(np.array([T]))[0])
    exact = math.log1p(x_cap) / x_cap + 2.0 * math.log1p(1.0 / x_cap)
    assert cr.llogl_moment(tm.pareto(2.0), 1.0, 1.0).remainder_bound >= exact


@pytest.mark.parametrize("p", [0.01, 0.02, 0.05])
def test_llogl_remainder_where_the_survival_underflows(p):
    # E ||X||^p ln(1 + ||X||) for pareto(2): at the window end X the survival
    # X^-2 is below the least subnormal (X = X_MAX at p = 0.01 and 0.02, where
    # h(X_MAX) is below the cap), yet a finite remainder is proved, and it
    # covers what a window 10x longer adds, up to the quadrature's rounding
    # (at p = 0.01 and 0.02 the longer window is the same: no double X is
    # past X_MAX)
    model = tm.pareto(2.0)
    h, _ = cr._moment_map(p, 1.0)
    end = min(cr.T_CAP_DEFAULT, float(h(cr.X_MAX)))
    v = cr.llogl_moment(model, p, 1.0)
    assert v.kind == cr.CONVERGES
    assert v.remainder_bound is not None and 0.0 < v.remainder_bound < math.inf
    longer = cr.llogl_moment(model, p, 1.0, t_cap=10.0 * end)
    assert longer.estimate_on_window <= v.estimate_on_window + v.remainder_bound + 1e-12


def test_llogl_remainder_from_the_log_domain():
    # C t^-1.05 (ln t)^8 past e^8 (continuous there, decreasing past it): at
    # X_MAX, t^-1.05 underflows and the double survival reads 0, while the
    # survival is e^-701.  Past the window end T = h(X_MAX) at p = 0.01 the
    # integrand's slope -d ln f/d ln t is at most a/p (b < 0, d ln h/d ln x >= p),
    # so the tail is at least f(T) T / (a/p - 1), and the proved bound covers it
    knee, a, p = math.exp(8.0), 1.05, 0.01
    model = tm.load_model({"name": "late-growing-log", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": knee, "formula_id": "constant", "params": {"value": 1.0}},
        {"t_lo": knee, "t_hi": None, "formula_id": "power-log",
         "params": {"scale": knee**a / 8.0**8, "power": a, "log_power": -8.0}},
    ]})
    assert tm.survival(model, cr.X_MAX) == 0.0
    h, _ = cr._moment_map(p, 1.0)
    end = float(h(cr.X_MAX))
    assert end < cr.T_CAP_DEFAULT
    f_end = math.exp(model.pieces[-1].tail.log_value(math.log(cr.X_MAX)))
    v = cr.llogl_moment(model, p, 1.0)
    assert v.kind == cr.CONVERGES
    assert v.remainder_bound >= f_end * end / (a / p - 1.0)


@pytest.mark.parametrize("p, q", [(0.4, 0.4), (0.3, 0.2)])
def test_pure_power_remainder_is_rounded_outward(p, q):
    # 20^0.9 x^-0.9 past 20: the integrand is C^(q/p) t^-a with a = 0.9/p, whose
    # tail past T is exactly C^(q/p) T^(1-a)/(a-1); unrounded floats fell a few ulps short
    C, T = 20.0**0.9, cr.T_CAP_DEFAULT
    model = tm.load_model({"name": "pure-power", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": 20.0, "formula_id": "constant", "params": {"value": 1.0}},
        {"t_lo": 20.0, "t_hi": None, "formula_id": "power", "params": {"scale": C, "power": 0.9}},
    ]})
    a = 0.9 / p
    closed = C ** (q / p) * T ** (1.0 - a) / (a - 1.0)
    # the margin stated by tail_remainder, with b = 0 and s = a
    margin = 16.0 * np.finfo(float).eps * (1.0 + a * math.log(T) + a / (a - 1.0))
    assert cr.integral_pq(model, p, q).remainder_bound >= closed * (1.0 + 0.5 * margin)


@pytest.mark.parametrize("p, q", [(0.01, 0.01), (0.5, 0.001)])
def test_overflowing_power_of_the_cap_is_no_warning(p, q):
    # t^(1/p) past the largest double is inf, whose survival is 0; under the
    # suite's error filter a numpy overflow warning would raise here
    report = cr.classify_slln(tm.pareto(2.0), p, q)
    assert report.membership == cr.MEMBER


def test_inversion_is_independent_of_the_batch():
    _, h_inv = cr._moment_map(0.5, 1.0)
    targets = np.geomspace(1e-3, 1e12, 300)
    batched = h_inv(targets)
    alone = [h_inv(np.array([t]))[0] for t in targets]
    assert batched.tolist() == alone


def test_moment_cap_past_the_largest_double_clips_the_window():
    # h^-1 is bracketed up to X_MAX, so a cap past h(X_MAX), about 1e157 at
    # p = 0.5, delta = 1, gives the verdict of the window clipped there
    h, _ = cr._moment_map(0.5, 1.0)
    clipped = cr.llogl_moment(tm.pareto(2.0), 0.5, 1.0, t_cap=float(h(cr.X_MAX)))
    assert cr.llogl_moment(tm.pareto(2.0), 0.5, 1.0, t_cap=1e200) == clipped
    assert clipped.kind == cr.CONVERGES


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------


def test_series_critical_tail_exact_zero():
    table, verdict = cr.truncated_series(tm.pareto(0.5), 0.5, 10_000)
    assert verdict.kind == cr.CONVERGES
    assert verdict.method == "zero-terms"
    assert max(table.terms_at_checkpoints) <= 1e-12
    assert table.partial_sums[-1] <= 1e-12


def test_series_degenerate_zero():
    table, verdict = cr.truncated_series(tm.degenerate(1.0), 0.5, 1000)
    assert verdict.kind == cr.CONVERGES
    assert table.partial_sums[-1] == 0.0


def test_series_marginal_divergent():
    table, verdict = cr.truncated_series(tm.log_loglog_power_tail(0.5), 0.5, 100_000)
    assert verdict.kind == cr.DIVERGES
    sums = table.partial_sums
    assert all(b > a for a, b in zip(sums, sums[1:]))
    assert verdict.diagnostics["last_decade_slope"] > 0.0
    # the boundary-term-free integral form tracks the expectation form
    assert all(i <= s for i, s in zip(table.integral_form_partials, sums))


def test_series_member_tail_converges():
    _, verdict = cr.truncated_series(member_model_family(0.5, 0.5), 0.5, 100_000)
    assert verdict.kind == cr.CONVERGES
    # k = 1 with log factors: no bound of the remainder is proved yet
    assert verdict.remainder_bound is None


def _hurwitz_tail(s, n):
    """sum_{m > n} m^(-s) for s > 1 by Euler-Maclaurin from m = n + 1 on."""
    m = n + 1.0
    return (m ** (1.0 - s) / (s - 1.0) + 0.5 * m**-s + s * m ** (-s - 1.0) / 12.0
            - s * (s + 1.0) * (s + 2.0) * m ** (-s - 3.0) / 720.0)


@pytest.mark.parametrize("alpha", [0.52, 0.55, 0.6, 0.8, 2.0])
def test_series_remainder_bounds_pareto_closed_form(alpha):
    # pareto(alpha) at p = 0.5: Y = |X|^p has S_Y(t) = t^-k, k = 2 alpha, and past
    # n = 1 every window is (n^(1/k), n], so term_n = k/(k-1) (n^(1/k-2) - n^-k)
    # exactly and the remainder past N is a difference of two Hurwitz tails.
    n_max, k = 100_000, 2.0 * alpha
    exact = k / (k - 1.0) * (_hurwitz_tail(2.0 - 1.0 / k, n_max) - _hurwitz_tail(k, n_max))
    _, verdict = cr.truncated_series(tm.pareto(alpha), 0.5, n_max)
    assert verdict.kind == cr.CONVERGES
    assert verdict.remainder_bound >= exact
    assert verdict.remainder_bound <= exact * (1.0 + 1e-4)


def test_series_of_a_power_from_zero_matches_closed_form():
    # S = C t^-2 from t = 0 at p = 0.5: S_Y(t) = C t^-k, k = 4, and every window
    # is (y_n, n] with y_n = (Cn)^(1/k), so term_n = k/(k-1) (y_n/n^2 - C n^-k)
    C, k, n_max = 1e-30, 4.0, 1000
    model = tm.load_model({"name": "power-from-zero", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": None, "formula_id": "power", "params": {"scale": C, "power": 2.0}}]})
    n = np.arange(1, n_max + 1, dtype=float)
    closed = math.fsum(k / (k - 1.0) * ((C * n) ** (1.0 / k) / n**2 - C * n**-k))
    table, _ = cr.truncated_series(model, 0.5, n_max)
    assert table.partial_sums[-1] == pytest.approx(closed, rel=1e-6)


def test_series_where_the_power_of_t_overflows_matches_closed_form():
    # pareto(0.02) at p = 0.01: S_Y(t) = t^-2 past 1 and u_n^p = n^(1/2), so
    # term_n = 2 (n^(-1/2) - n^-1) / n; t^(1/p) = t^100 overflows past t = 1210,
    # where S_Y is read from ln t^(1/p) = 100 ln t instead
    n = np.arange(1, 100_001, dtype=float)
    closed = math.fsum(2.0 * (n**-0.5 - 1.0 / n) / n)
    assert closed == pytest.approx(1.922253, abs=1e-6)
    _, verdict = cr.truncated_series(tm.pareto(0.02), 0.01)
    assert verdict.estimate_on_window == pytest.approx(closed, abs=1e-6)


def test_growing_log_factor_remainder_is_a_bound_or_none():
    # 2.117 t^-1.05 (ln t)^2 past t = 10: the factor (ln t)^2 grows, and past
    # T = 1e12 the tail is 2.117 e^(-eps L) (L^2/eps + 2L/eps^2 + 2/eps^3),
    # eps = 0.05, L = ln T
    model = tm.load_model({"name": "growing-log", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": 10.0, "formula_id": "constant", "params": {"value": 1.0}},
        {"t_lo": 10.0, "t_hi": None, "formula_id": "power-log",
         "params": {"scale": 2.117, "power": 1.05, "log_power": -2.0}},
    ]})
    v = cr.p_moment(model, 1.0)
    eps, L = 0.05, math.log(cr.T_CAP_DEFAULT)
    exact = 2.117 * math.exp(-eps * L) * (L * L / eps + 2.0 * L / eps**2 + 2.0 / eps**3)
    assert exact == pytest.approx(28_383, rel=1e-4)
    assert v.kind == cr.CONVERGES
    assert v.remainder_bound is None or v.remainder_bound >= exact


def test_series_with_empty_windows_is_decided_by_exponents():
    # 1000 x^-1/2 (ln x)^-1 (lnln x)^-1.5 past x = 3000: at p = 0.5 the
    # windows stay empty past n = 1e5, yet the series diverges (reduced tail
    # exponents (1, 1, 0.5)) while the p-th moment converges (1, 1, 1.5)
    model = tm.load_model({"name": "late-windows", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": 3000.0, "formula_id": "constant", "params": {"value": 1.0}},
        {"t_lo": 3000.0, "t_hi": None, "formula_id": "power-log-loglog",
         "params": {"scale": 1000.0, "power": 0.5, "log_power": 1.0, "loglog_power": 1.5}},
    ]})
    table, verdict = cr.truncated_series(model, 0.5, 100_000)
    assert table.partial_sums[-1] == 0.0
    assert verdict.kind == cr.DIVERGES
    report = cr.classify_slln(model, 0.5, 0.5)
    assert report.p_moment_verdict.kind == cr.CONVERGES
    assert report.membership == cr.NON_MEMBER


def test_series_partial_sums_nondecreasing():
    for model in (tm.log_loglog_power_tail(0.3), member_model_family(0.7, 0.7),
                  tm.pareto(2.0)):
        table, _ = cr.truncated_series(model, min(0.7, 0.9), 5000)
        sums = np.asarray(table.partial_sums)
        assert np.all(np.diff(sums) >= 0.0)


# survival 1, then 0.2 from t = 3, then t^-1.2 from t = 50: its terms clamp
JUMPY_MODEL = tm.load_model({"name": "jumpy", "sign_law": "symmetric", "pieces": [
    {"t_lo": 0.0, "t_hi": 3.0, "formula_id": "constant", "params": {"value": 1.0}},
    {"t_lo": 3.0, "t_hi": 50.0, "formula_id": "constant", "params": {"value": 0.2}},
    {"t_lo": 50.0, "t_hi": None, "formula_id": "power", "params": {"scale": 1.0, "power": 1.2}}]})


@pytest.mark.parametrize("model, p, n_max", [
    (tm.log_loglog_power_tail(0.5), 0.5, 1000), (tm.log_power_tail(0.5, 2.0), 0.5, 1234),
    (tm.pareto(1.0), 1.0, 1001), (JUMPY_MODEL, 0.5, 1000), (tm.rademacher(), 1.5, 1000),
    # divergent: the fit's end points are the checkpoints 10^3 and 10^4, and
    # the last of the blocks of seven is short
    (tm.log_loglog_power_tail(0.5), 0.5, 10_000),
], ids=lambda v: getattr(v, "name", str(v)))
def test_series_in_blocks_of_seven_is_the_same_bit_for_bit(monkeypatch, model, p, n_max):
    # a block's prefix sums go on from the block before, so any block size
    # gives np.cumsum's sums; the clamped count and the fit see every term
    default = cr.truncated_series(model, p, n_max)
    monkeypatch.setattr(cr, "SERIES_BLOCK", 7)
    assert repr(cr.truncated_series(model, p, n_max)) == repr(default)
    if model is JUMPY_MODEL:
        assert default[0].clamped_terms > 0


@pytest.mark.parametrize("model", [tm.log_power_tail(0.5, 2.0), tm.log_loglog_power_tail(0.5)],
                         ids=lambda m: m.name)
def test_series_reuses_its_block_buffers(model):
    # q = p series at 10^5 terms.  Evaluated whole, a call took over 6,000
    # minor page faults, about 30 fresh arrays of 10^5 doubles (196 pages
    # each); in blocks, no array is that long, as the sums are kept only at
    # the checkpoints and the fit's points (test_series_memory_is_one_block)
    resource = pytest.importorskip("resource")

    def faults():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        cr.truncated_series(model, 0.5, 100_000)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults()  # the tail table, the quadrature and the allocator's first arenas
    assert faults() <= 1500


@pytest.mark.parametrize("model", [tm.log_power_tail(0.5, 2.0), tm.log_loglog_power_tail(0.5)],
                         ids=lambda m: m.name)
def test_series_memory_is_one_block(model):
    # the partial sums were kept n_max long: a traced peak of 2.35 MiB at 10^5
    # terms and 9.2 MiB at 10^6; carried from block to block, it is the same
    def peak(n_max):
        tracemalloc.start()
        try:
            cr.truncated_series(model, 0.5, n_max)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100_000)  # the allocator's first arenas and any lazy import
    small, large = peak(100_000), peak(1_000_000)
    assert abs(large - small) <= 0.05 * small, (small, large)


def test_divergent_series_fits_the_eleven_points_of_its_last_decade(monkeypatch):
    # the fit read all 90,001 partial sums of the last decade at 10^5 terms,
    # four fresh arrays of them: on every repeated call the divergent series
    # took 250-670 more minor page faults than a convergent one (how many
    # the allocator hands back between calls decides the base)
    resource = pytest.importorskip("resource")
    models = (tm.log_loglog_power_tail(0.5), tm.log_power_tail(0.5, 2.0))  # diverges, converges

    def faults(model):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        cr.truncated_series(model, 0.5, 100_000)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    for model in models:  # the tail tables, the quadrature and the allocator's first arenas
        faults(model)
    divergent, convergent = (min(c) for c in zip(*[[faults(m) for m in models]
                                                   for _ in range(4)]))
    assert divergent <= convergent + 100
    fits = []
    monkeypatch.setattr(cr, "fit_line", lambda x, y: fits.append((x, y)) or mc.fit_line(x, y))
    table, verdict = cr.truncated_series(models[0], 0.5, 100_000)
    (x, y), = fits
    assert verdict.kind == cr.DIVERGES
    assert np.array_equal(np.exp(x).round(), np.rint(np.geomspace(10_000, 100_000, 11)))
    assert y[-1] == table.partial_sums[-1] and np.all(np.diff(y) > 0.0)
    assert verdict.diagnostics["last_decade_slope"] == mc.fit_line(x, y)[0] > 0.0


@pytest.mark.parametrize("call,message", [
    (lambda: tm.CumulativeTailTable(tm.pareto(2.0), 0.5, math.inf), "t_max must be a finite"),
    (lambda: tm.CumulativeTailTable(tm.pareto(2.0), 0.5, True), "t_max must be a finite"),
    (lambda: cr.classify_slln(tm.pareto(2.0), 0.5, 0.25, t_cap=True), "t_cap must be positive"),
    (lambda: cr.classify_slln(tm.pareto(2.0), 0.5, 0.25, t_cap=math.inf),
     "t_cap must be positive"),
], ids=["table-inf", "table-true", "t_cap-true", "t_cap-inf"])
def test_real_settings_take_only_finite_numbers(call, message):
    # an infinite t_max built a NaN table, and t_cap=True read as a knee error
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


def test_series_requires_enough_terms():
    with pytest.raises(ValueError):
        cr.truncated_series(tm.pareto(2.0), 0.5, 100)


@pytest.mark.parametrize("n_max", [1000.5, 5000.0, True])
def test_series_count_must_be_an_integer(n_max):
    with pytest.raises(ValueError, match="n_max must be an integer"):
        cr.truncated_series(tm.pareto(2.0), 0.5, n_max)


# every entry that checks its exponents with `tm.check_exponents`: name ->
# (a call at (p, q), whether the call takes q[, its error when not ValueError])
EXPONENT_ENTRIES = {
    "series-pareto": (lambda p, q: cr.truncated_series(tm.pareto(2.0), p), False),
    "series-degenerate": (lambda p, q: cr.truncated_series(tm.degenerate(1.0), p), False),
    "llogl": (lambda p, q: cr.llogl_moment(tm.degenerate(1.0), p, 1.0), False),
    "table": (lambda p, q: tm.CumulativeTailTable(tm.pareto(2.0), p, 10.0), False),
    "p-moment": (lambda p, q: cr.p_moment(tm.pareto(2.0), p), False),
    "integral": (lambda p, q: cr.integral_pq(tm.pareto(2.0), p, q), True),
    "clause": (lambda p, q: cr.clause_of(p, q), True),
    "almost-sure": (lambda p, q: cr.classify_slln(tm.pareto(2.0), p, q), True),
    "expectation": (lambda p, q: cr.series_expectation_criterion(tm.pareto(2.0), p, q), True),
    "experiment": (lambda p, q: mc.ExperimentConfig(tm.rademacher(), p, q, 1024, 2, 0), True,
                   ConfigError),
}


@pytest.mark.parametrize("entry,error,p,q,needle", [
    *[pytest.param(entry, *error or [ValueError], p, 0.25, "p must be a finite number in (0, 2)",
                   id=f"{p}-{name}")
      for p in (math.nan, 0.0, -1.0, 2.0, math.inf)
      for name, (entry, _, *error) in EXPONENT_ENTRIES.items()],
    *[pytest.param(entry, *error or [ValueError], 0.5, q, "q must be a finite number > 0",
                   id=f"q={q}-{name}")
      for q in (math.nan, math.inf, 0.0, -1.0)
      for name, (entry, takes_q, *error) in EXPONENT_ENTRIES.items() if takes_q],
])
def test_analytic_entries_take_only_p_in_0_2(entry, error, p, q, needle):
    """Each entry takes only 0 < p < 2 and q > 0, both finite: anything else
    raises before a verdict, a table or a config exists."""
    with pytest.raises(error, match=re.escape(needle)):
        entry(p, q)


@pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -1.0, True])
def test_llogl_moment_takes_only_a_finite_positive_delta(delta):
    # True used to run as delta = 1
    with pytest.raises(ValueError, match=f"^delta must be a finite number > 0, got {delta!r}$"):
        cr.llogl_moment(tm.degenerate(1.0), 0.5, delta)


# ---------------------------------------------------------------------------
# clause classification
# ---------------------------------------------------------------------------


def test_clause_table():
    assert cr.clause_of(0.5, 0.25) == cr.CLAUSE_Q_LT_P
    assert cr.clause_of(0.5, 0.5) == cr.CLAUSE_Q_EQ_P
    assert cr.clause_of(1.5, 0.5) == cr.CLAUSE_P_GE_1
    assert cr.clause_of(1.0, 0.5) == cr.CLAUSE_P_GE_1
    assert cr.clause_of(1.5, 1.0) == cr.CLAUSE_OUT
    assert cr.clause_of(0.5, 0.7) == cr.CLAUSE_OUT  # q > p < 1 handled elsewhere
    with pytest.raises(ValueError, match="p must be a finite number"):
        cr.clause_of(2.0, 0.5)  # outside the domain: an error, not a clause


def test_classify_membership_split():
    p = 0.5
    assert cr.classify_slln(member_model_family(p, p), p, p,
                            series_n_max=20_000).membership == cr.MEMBER
    for q in (0.25, 0.4):
        report = cr.classify_slln(member_model_family(p, q), p, q)
        assert report.membership == cr.NON_MEMBER


def test_classify_marginal_nonmembers():
    r = cr.classify_slln(tm.log_loglog_power_tail(0.5), 0.5, 0.5, series_n_max=20_000)
    assert r.membership == cr.NON_MEMBER
    assert r.p_moment_verdict.kind == cr.CONVERGES
    assert r.truncated_series_verdict.kind == cr.DIVERGES
    r = cr.classify_slln(tm.pareto(0.5), 0.5, 0.5, series_n_max=20_000)
    assert r.membership == cr.NON_MEMBER
    assert r.p_moment_verdict.kind == cr.DIVERGES
    assert r.truncated_series_verdict.kind == cr.CONVERGES


def test_classify_bounded_and_mean_zero():
    assert cr.classify_slln(tm.rademacher(), 1.5, 0.5).membership == cr.MEMBER
    r = cr.classify_slln(tm.pareto(2.0, "nonnegative"), 1.5, 0.5)
    assert r.membership == cr.NON_MEMBER and r.mean_zero is False
    r = cr.classify_slln(tm.pareto(2.0, {"kind": "custom", "negative_prob": 0.3}), 1.5, 0.5)
    assert r.membership == cr.UNDECIDED and r.mean_zero is None


def test_bounded_custom_model_with_edge_jump_is_member():
    # constant 1 on [0, 1], t^-0.7 on (1, 1e3], 0 beyond: a bounded symmetric law
    model = tm.load_model({"name": "jump", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": 1.0, "formula_id": "constant", "params": {"value": 1.0}},
        {"t_lo": 1.0, "t_hi": 1e3, "formula_id": "power",
         "params": {"scale": 1.0, "power": 0.7}},
        {"t_lo": 1e3, "t_hi": None, "formula_id": "constant", "params": {"value": 0.0}},
    ]})
    assert tm.survival(model, 1e3) == 0.0
    report = cr.classify_slln(model, 0.5, 0.5)
    assert report.membership == cr.MEMBER
    assert report.truncated_series_verdict.method == "bounded-support"


@pytest.mark.parametrize("sign, membership", [("nonnegative", cr.NON_MEMBER),
                                                ("symmetric", cr.MEMBER)])
def test_bounded_support_past_the_double_range_of_its_power(sign, membership):
    # M^1.5 = 1e315 is no double: the support is still bounded, and a
    # remainder that is no double is reported as none
    report = cr.classify_slln(tm.degenerate(1e210, sign), 1.5, 0.5)
    assert report.membership == membership
    integral, pmom = report.integral_verdict, report.p_moment_verdict
    assert integral.kind == pmom.kind == cr.CONVERGES
    assert integral.method == pmom.method == "bounded-support"
    assert integral.remainder_bound == pytest.approx(1e105)
    assert pmom.remainder_bound is None


def test_divergent_fit_of_partials_near_the_double_range_is_no_warning():
    # last-decade partials of about 1e306 at t_cap = 1e308: under the suite's
    # error filter an overflow in the line fit would raise here
    report = cr.classify_slln(tm.pareto(0.01), 1.5, 0.5, t_cap=1e308)
    pmom = report.p_moment_verdict
    assert pmom.kind == cr.DIVERGES and max(pmom.diagnostics["last_decade_partials"]) > 1e305
    assert 0.0 < pmom.diagnostics["last_decade_slope"] < math.inf


def test_bounded_support_beyond_the_cap():
    # support bound 100 past t_cap 10: Converges, remainder f(t_cap) (M - t_cap)
    v = cr.p_moment(tm.degenerate(100.0), 1.0, t_cap=10.0)
    assert v.kind == cr.CONVERGES and v.method == "bounded-support"
    assert v.estimate_on_window == pytest.approx(10.0)
    assert v.remainder_bound == pytest.approx(90.0)


# t^-0.5 on [1, 1e15), then a t^-3 tail: at p = 0.9 the cap 1e12 lies before
# the last piece's start 1e15^0.9, where a remainder from the last piece's
# exponents undercounts the t^-0.5 stretch (92,333 against 2,193,824)
LATE_KNEE_MODEL = {"name": "late-knee", "sign_law": "symmetric", "pieces": [
    {"t_lo": 0.0, "t_hi": 1.0, "formula_id": "constant", "params": {"value": 1.0}},
    {"t_lo": 1.0, "t_hi": 1e15, "formula_id": "power", "params": {"scale": 1.0, "power": 0.5}},
    {"t_lo": 1e15, "t_hi": None, "formula_id": "power",
     "params": {"scale": 10.0**37.5, "power": 3.0}},
]}


def test_p_moment_requires_cap_beyond_knee():
    model = tm.load_model(LATE_KNEE_MODEL)
    with pytest.raises(ValueError, match="knee"):
        cr.p_moment(model, 0.9, t_cap=1e12)
    with pytest.raises(ValueError, match="knee"):
        cr.classify_slln(model, 0.9, 0.45, t_cap=1e12)
    assert cr.p_moment(model, 0.9, t_cap=1e14).kind == cr.CONVERGES


def test_negative_constant_last_piece_is_bounded_support():
    # survival clamps -1 to 0, so the support ends where that piece starts
    model = tm.load_model({"name": "minus-one", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": 1.0, "formula_id": "constant", "params": {"value": 1.0}},
        {"t_lo": 1.0, "t_hi": 10.0, "formula_id": "power", "params": {"scale": 1.0, "power": 1.0}},
        {"t_lo": 10.0, "t_hi": None, "formula_id": "constant", "params": {"value": -1.0}},
    ]})
    assert tm.support_upper(model) == 10.0 and tm.tail_asymptote(model) is None
    report = cr.classify_slln(model, 0.5, 0.25)
    assert report.membership == cr.MEMBER
    assert report.integral_verdict.method == "bounded-support"


def test_classify_out_of_scope():
    r = cr.classify_slln(tm.rademacher(), 1.5, 1.5)
    assert r.clause == cr.CLAUSE_OUT and r.membership == cr.UNDECIDED


def test_expectation_criterion_contrast():
    p = 0.5
    r = cr.series_expectation_criterion(member_model_family(p, p), p, p,
                                        series_n_max=20_000)
    assert r.membership == cr.NON_MEMBER          # marginal log moment diverges
    assert r.contrast_membership == cr.MEMBER     # while the a.s. criterion holds
    assert r.llogl_verdict.kind == cr.DIVERGES
    r = cr.series_expectation_criterion(tm.pareto(2.0), 1.0, 0.5)
    assert r.membership == cr.MEMBER
    r = cr.series_expectation_criterion(tm.zero(), 0.5, 0.3)
    assert r.membership == cr.MEMBER


# every builtin and the tests' custom tails, bounded laws included: a
# critical power of scale 1/2 (its series diverges), one whose power runs from
# t = 0, a bounded power with a jump to 0, and the README's custom tail
CONTRAST_MODELS = [
    tm.pareto(2.0), tm.pareto(0.5), tm.pareto(0.75), member_model_family(0.5, 0.5),
    tm.log_power_tail(0.25, 4.0), *(tm.log_loglog_power_tail(power) for power in (0.5, 0.75, 0.9)),
    tm.degenerate(1.5), tm.rademacher(), tm.zero(),
    *(tm.load_model({"name": name, "sign_law": "symmetric", "pieces": pieces}) for name, pieces in [
        ("half-scale-power", [
            {"t_lo": 0.0, "t_hi": 0.25, "formula_id": "constant", "params": {"value": 1.0}},
            {"t_lo": 0.25, "t_hi": None, "formula_id": "power",
             "params": {"scale": 0.5, "power": 0.5}}]),
        ("power-from-zero", [
            {"t_lo": 0.0, "t_hi": None, "formula_id": "power",
             "params": {"scale": 1.0, "power": 2.0}}]),
        ("bounded-jump", [
            {"t_lo": 0.0, "t_hi": 1.0, "formula_id": "constant", "params": {"value": 1.0}},
            {"t_lo": 1.0, "t_hi": 1e3, "formula_id": "power",
             "params": {"scale": 1.0, "power": 0.7}},
            {"t_lo": 1e3, "t_hi": None, "formula_id": "constant", "params": {"value": 0.0}}]),
        ("my-tail", [
            {"t_lo": 0.0, "t_hi": 2.718281828459045, "formula_id": "constant",
             "params": {"value": 1.0}},
            {"t_lo": 2.718281828459045, "t_hi": None, "formula_id": "power-log",
             "params": {"scale": 1.6487212707, "power": 0.5, "log_power": 2.0}}])]),
]


@pytest.mark.parametrize("model", CONTRAST_MODELS, ids=lambda m: m.name)
def test_expectation_contrast_is_the_almost_sure_membership(model):
    # the contrast takes the series' kind from the model alone; it must be the
    # membership that classify_slln finds by running the series; at p equal to
    # a log-loglog tail's power, the p-th moment converges and the series diverges
    for p in (0.25, 0.5, 0.75, 0.9, 0.95):
        want = cr.classify_slln(model, p, p, series_n_max=cr.SERIES_N_MIN)
        got = cr.series_expectation_criterion(model, p, p, series_n_max=cr.SERIES_N_MIN)
        assert got.contrast_membership == want.membership
        assert cr._series_kind(model, p) == want.truncated_series_verdict.kind


def test_expectation_criterion_at_q_eq_p_runs_no_series_pass(monkeypatch):
    models = [member_model_family(0.5, 0.5), tm.log_loglog_power_tail(0.5), tm.degenerate(1.5)]
    want = [cr.classify_slln(model, 0.5, 0.5).membership for model in models]

    def refuse(*args, **kwargs):
        raise AssertionError("the expectation criterion ran a part of the series pass")

    monkeypatch.setattr(cr, "truncated_series", refuse)
    monkeypatch.setattr(tm, "quantiles_un", refuse)
    monkeypatch.setattr(tm, "CumulativeTailTable", refuse)
    for model, membership in zip(models, want):
        report = cr.series_expectation_criterion(model, 0.5, 0.5)
        assert report.contrast_membership == membership
        assert report.series_table is None and report.truncated_series_verdict is None


def test_clause_qlt_membership_equals_integral_verdict():
    # for q < p < 1 the membership is exactly the mapped integral verdict
    mapping = {cr.CONVERGES: cr.MEMBER, cr.DIVERGES: cr.NON_MEMBER,
               cr.INCONCLUSIVE: cr.UNDECIDED}
    cases = [(tm.pareto(2.0), 0.5, 0.3), (tm.pareto(0.5), 0.5, 0.25),
             (member_model_family(0.5, 0.25), 0.5, 0.25),
             (tm.rademacher(), 0.9, 0.4)]
    for model, p, q in cases:
        report = cr.classify_slln(model, p, q)
        assert report.clause == cr.CLAUSE_Q_LT_P
        assert report.membership == mapping[report.integral_verdict.kind]


def test_monotone_in_q_within_clause():
    # membership cannot be lost by raising q: Member at q implies not NonMember
    # at any tested q' in (q, p]
    cases = [
        (tm.pareto(2.0), 0.5, 0.1),
        # the q = p family instance is a member from q > p/2 upward
        (member_model_family(0.5, 0.5), 0.5, 0.3),
        (tm.rademacher(), 0.7, 0.2),
    ]
    for model, p, q0 in cases:
        assert cr.classify_slln(model, p, q0, series_n_max=10_000).membership == cr.MEMBER
        for qp in np.linspace(q0 * 1.2, p, 4):
            later = cr.classify_slln(model, p, float(qp), series_n_max=10_000)
            assert later.membership != cr.NON_MEMBER


# the laws and the (p, q) grid of the order test, on which the decision is
# also checked against the classifiers
ORDER_LAWS = [tm.pareto(0.5), tm.pareto(2.0), tm.pareto(2.0, "nonnegative"),
              tm.log_power_tail(0.5, 2.0), tm.log_loglog_power_tail(0.5), tm.rademacher(),
              tm.degenerate(1.0), tm.zero()]
ORDER_PS = (0.2, 0.35, 0.5, 0.7, 0.9, 1.2, 1.5, 1.8)
ORDER_QS = (0.1, 0.25, 0.35, 0.5, 0.7, 0.9)


def test_membership_is_ordered_in_p_and_in_q():
    # W = sum_n (1/n) (||S_n|| / n^(1/p))^q falls term by term as p falls, so
    # Member(p, q) gives Member(p', q) for p' < p.  In a decided clause the
    # condition gives E||X||^p < inf (and E X = 0 for p >= 1), so
    # ||S_n|| / n^(1/p) -> 0 a.s. by Marcinkiewicz-Zygmund, and from some n on
    # each term at q is at most the one at q' < q: Member(p, q') gives
    # Member(p, q).
    for model in ORDER_LAWS:
        cell = {(p, q): cr.classify_slln(model, p, q, series_n_max=1000).membership
                for p in ORDER_PS for q in ORDER_QS}
        members = [pq for pq, m in cell.items() if m == cr.MEMBER]
        non_members = [pq for pq, m in cell.items() if m == cr.NON_MEMBER]
        for p, q in members:
            for p2, q2 in non_members:
                assert not (q2 == q and p2 < p), (model.name, model.negative_prob, p2, q2, p)
                assert not (p2 == p and q2 > q), (model.name, model.negative_prob, p, q2, q)


def test_an_unknown_criterion_is_rejected_before_any_evidence(monkeypatch):
    # "expectations" read as the almost-sure criterion: Member here, where the
    # expectation criterion gives NonMember; a report's criterion was "bogus"
    model = tm.log_power_tail(0.5, 2.0)
    assert cr.decide(model, 0.5, 0.5, "expectation").membership == cr.NON_MEMBER
    monkeypatch.setattr(cr, "p_moment", None)  # the evidence of both clauses calls it
    message = "^criterion must be 'almost-sure' or 'expectation', got "
    for name in ("expectations", "bogus", None):
        for q in (0.5, 0.25):
            with pytest.raises(ValueError, match=message + re.escape(repr(name))):
                cr.decide(model, 0.5, q, name)
            with pytest.raises(ValueError, match=message):
                cr._classify(model, 0.5, q, name, t_cap=1e12, series_n_max=1000)


def test_decision_is_the_classifiers_membership_and_evidence_kinds():
    # the classifiers take the membership from `decide` and evaluate the
    # evidence apart from it; each Verdict's kind must be the decided one
    for model in ORDER_LAWS:
        for p in ORDER_PS:
            for q in ORDER_QS:
                for classify in (cr.classify_slln, cr.series_expectation_criterion):
                    report = classify(model, p, q, series_n_max=1000)
                    decision = cr.decide(model, p, q, report.criterion)
                    where = (model.name, model.negative_prob, p, q, report.criterion)
                    assert (decision.clause, decision.membership,
                            decision.contrast_membership) == (
                        report.clause, report.membership, report.contrast_membership), where
                    for kind, verdict in ((decision.integral, report.integral_verdict),
                                          (decision.p_moment, report.p_moment_verdict),
                                          (decision.series, report.truncated_series_verdict),
                                          (decision.llogl, report.llogl_verdict)):
                        assert kind == (verdict.kind if verdict else None), where


# every builtin that slln_bench/reference.py re-derives, with both sign laws
REFERENCE_SPECS = [
    # 0.50000000025 lies within 1e-9 of the boundary at p = 0.5, not on it
    *[{"builtin": "pareto", "params": {"alpha": alpha, "sign_law": sign}}
      for alpha in (0.25, 0.5, 0.50000000025, 1.0, 1.5, 2.0)
      for sign in ("symmetric", "nonnegative")],
    *[{"builtin": "log-power", "params": {"power": a, "log_power": b, "sign_law": sign}}
      for a, b in ((0.5, 2.0), (0.25, 4.0), (0.5, 0.5), (1.0, 1.0))
      for sign in ("symmetric", "nonnegative")],
    *[{"builtin": "log-loglog-power", "params": {"power": a, "sign_law": sign}}
      for a in (0.25, 0.5, 1.5) for sign in ("symmetric", "nonnegative")],
    {"builtin": "rademacher"},
    *[{"builtin": "degenerate", "params": {"value": v, "sign_law": sign}}
      for v, sign in ((1.0, "nonnegative"), (1.0, "symmetric"), (2.5, "nonnegative"))],
]


def _near_a_boundary(tail, p: float, q: float) -> bool:
    """Whether an exponent that decides a cell lies within 1e-9 of its boundary
    but not on it (to 1e-12): the lab calls it equal to the boundary, the
    reference does not."""
    if tail.bound is not None:
        return False
    big_a = tail.a / p
    gaps = (big_a - 1.0, tail.b * q / p - 1.0, tail.c * q / p - 1.0, tail.b - big_a - 1.0,
            tail.b - 1.0, tail.c - 1.0, tail.c - 2.0, tail.b, tail.c, tail.const - 1.0)
    return any(1e-12 < abs(gap) <= 1e-9 for gap in gaps)


def test_decision_agrees_with_the_independent_reference(monkeypatch):
    # slln_bench/reference.py derives each membership from the paper's clause
    # conditions and imports nothing from pqslln
    pytest.importorskip("mpmath")
    monkeypatch.syspath_prepend(BENCH)
    import reference as ref

    grid = [k / 20 for k in range(1, 40)]  # p in (0, 2); q = p falls on the grid
    checked = 0
    for spec in REFERENCE_SPECS:
        model, tail = tm.make_builtin(spec["builtin"], **spec.get("params", {})), \
            ref.tail_from_spec(spec)
        for p in grid:
            for q in grid[:19]:
                if cr.clause_of(p, q) == cr.CLAUSE_OUT or _near_a_boundary(tail, p, q):
                    continue
                almost_sure = ref.expected_membership(tail, p, q, "almost-sure")
                for criterion in ("almost-sure", "expectation"):
                    decision = cr.decide(model, p, q, criterion)
                    contrast = almost_sure if criterion == "expectation" and q == p else None
                    assert (decision.membership, decision.contrast_membership) == (
                        ref.expected_membership(tail, p, q, criterion), contrast), \
                        (tail.name, tail.symmetric, p, q, criterion)
                    checked += 1
    assert checked > 30_000


def test_soundness_against_stored_facts():
    # no verdict may contradict a stored analytic fact (Inconclusive is fine)
    models = [
        tm.pareto(0.5), tm.pareto(2.0), tm.pareto(0.2),
        member_model_family(0.5, 0.5), member_model_family(0.5, 0.25),
        tm.log_loglog_power_tail(0.5), tm.log_loglog_power_tail(0.9),
        tm.degenerate(1.0), tm.rademacher(), tm.zero(),
    ]
    pq_grid = [(0.3, 0.15), (0.5, 0.25), (0.5, 0.5), (0.9, 0.9), (1.5, 0.5)]
    for model in models:
        facts_fn = clause_facts(model)
        for p, q in pq_grid:
            fact = facts_fn(p, q)
            report = cr.classify_slln(model, p, q, series_n_max=5000)
            checks = [
                (fact.integral_finite, report.integral_verdict),
                (fact.p_moment_finite, report.p_moment_verdict),
                (fact.series_finite, report.truncated_series_verdict),
            ]
            for truth, verdict in checks:
                if truth is None or verdict is None:
                    continue
                if verdict.kind == cr.CONVERGES:
                    assert truth, (model.name, p, q, verdict)
                elif verdict.kind == cr.DIVERGES:
                    assert not truth, (model.name, p, q, verdict)
            if fact.member is not None and report.membership != cr.UNDECIDED:
                expected = cr.MEMBER if fact.member else cr.NON_MEMBER
                assert report.membership == expected, (model.name, p, q)


REPORT_KEYS = {"model", "p", "q", "clause", "criterion", "integral_verdict",
               "p_moment_verdict", "llogl_verdict", "truncated_series_verdict",
               "series_table", "mean_zero_required", "mean_zero", "membership",
               "contrast_membership"}
SERIES_TABLE_KEYS = {"n_max", "checkpoints", "partial_sums", "integral_form_partials",
                     "terms_at_checkpoints", "clamped_terms"}


def test_report_serializes():
    r = cr.classify_slln(tm.pareto(2.0), 0.5, 0.25)
    d = dataclasses.asdict(r)
    assert d["membership"] == cr.MEMBER
    assert d["integral_verdict"]["kind"] == cr.CONVERGES
    assert set(d["integral_verdict"]) == {"kind", "estimate_on_window", "remainder_bound",
                                          "method", "diagnostics"}
    assert d["integral_verdict"]["diagnostics"]["exponents"] == (4.0, 0.0, 0.0)
    json.dumps(d)  # must be JSON-clean
    # the key sets of a q = p report and an out-of-scope one
    q_eq_p = dataclasses.asdict(cr.classify_slln(tm.pareto(2.0), 0.5, 0.5))
    out = dataclasses.asdict(cr.classify_slln(tm.rademacher(), 1.5, 1.5))
    assert set(q_eq_p) == set(out) == REPORT_KEYS
    assert set(q_eq_p["series_table"]) == SERIES_TABLE_KEYS
    assert out["integral_verdict"]["method"] == "out-of-scope" and out["series_table"] is None


def test_q_eq_p_evaluates_one_integral(monkeypatch):
    calls = []
    inner = cr.integral_pq

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(cr, "integral_pq", counted)
    r = cr.classify_slln(tm.log_power_tail(0.5, 2), 0.5, 0.5)
    assert len(calls) == 1
    assert r.integral_verdict is r.p_moment_verdict
