import decimal
import json
import math
from decimal import Decimal

import numpy as np
import pytest

from bisection import bisect_decreasing
from pqslln import mc_engine as mc
from pqslln import tail_models as tm
from pqslln.errors import NonMonotoneTail
from pqslln.quadrature import integrate

E = math.e


def builtin_zoo():
    return [
        tm.pareto(0.5),
        tm.pareto(2.0),
        tm.log_power_tail(power=0.5, log_power=2.0),
        tm.log_power_tail(power=0.25, log_power=4.0),
        tm.log_loglog_power_tail(0.5),
        tm.degenerate(1.0),
        tm.degenerate(3.5),
        tm.rademacher(),
        tm.zero(),
    ]


# ---------------------------------------------------------------------------
# survival
# ---------------------------------------------------------------------------


def test_survival_values():
    # critical power tail: 1/t^p above the knee
    assert tm.survival(tm.pareto(0.5), 2.0) == pytest.approx(2.0**-0.5, abs=1e-15)
    # indicator branch at and below the knee
    for model in builtin_zoo():
        assert tm.survival(model, 0.0) <= 1.0
    assert tm.survival(tm.pareto(0.5), 0.0) == 1.0
    # continuous knee of the log-corrected tail
    m41 = tm.log_power_tail(power=1.0, log_power=1.0)
    assert tm.survival(m41, E) == 1.0
    assert tm.survival(m41, E + 1e-9) < 1.0


def test_survival_right_continuous_at_piece_edges():
    # a jump down at an edge takes the value of the piece on the right
    model = tm.TailModel(name="jump", pieces=(
        tm.piece(0.0, 1.0, "constant", value=1.0),
        tm.piece(1.0, 1e3, "power", scale=1.0, power=0.7),
        tm.piece(1e3, math.inf, "constant", value=0.0)))
    assert tm.survival(model, 1e3) == 0.0
    assert tm.survival(model, np.nextafter(1e3, 0.0)) == pytest.approx(1e3**-0.7)
    assert tm.inverse_survival(model, 1e-3) == 1e3


@pytest.mark.parametrize("model", builtin_zoo(), ids=lambda m: m.name)
def test_survival_monotone_on_grid(model):
    grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e15, 1000)])
    vals = np.asarray(tm.survival(model, grid))
    assert np.all(vals <= 1.0) and np.all(vals >= 0.0)
    assert np.all(np.diff(vals) <= 1e-12)


def test_survival_of_a_power_from_zero_is_one_at_zero():
    # 0.5 t^-2 reads inf at t = 0, and the survival clips it to 1 without a warning
    model = tm.load_model({"name": "power-from-zero", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": None, "formula_id": "power",
         "params": {"scale": 0.5, "power": 2.0}}]})
    assert tm.survival(model, 0.0) == 1.0


def test_survival_vanishes_at_infinity():
    # ||X|| is finite, so P(||X|| > inf) = 0, also where t^-a (ln t)^-b reads 0 * inf
    grow = tm.TailModel(name="grow", pieces=(
        tm.piece(0.0, 2.0, "constant", value=1.0),
        tm.piece(2.0, math.inf, "power-log", scale=3.0, power=0.5, log_power=-1.5)))
    for model in builtin_zoo() + [grow]:
        assert tm.survival(model, math.inf) == 0.0


def test_validate_model_accepts_builtins():
    for model in builtin_zoo():
        tm.validate_model(model)
    # 3 t^-0.5 (ln t)^1.5 rises up to t = e^3, but under the clamp at 1: it loads
    tm.validate_model(tm.TailModel(name="grow", pieces=(
        tm.piece(0.0, 2.0, "constant", value=1.0),
        tm.piece(2.0, math.inf, "power-log", scale=3.0, power=0.5, log_power=-1.5))))


@pytest.mark.parametrize("formula,t_lo", [("power-log", 1.0), ("power-log", 0.5),
                                          ("power-log-loglog", E)])
def test_validate_model_rejects_log_pieces_outside_their_domain(formula, t_lo):
    # ln t (and ln ln t) must be positive on the whole piece
    params = {"scale": 1.0, "power": 1.0, "log_power": 1.0}
    if formula == "power-log-loglog":
        params["loglog_power"] = 1.0
    with pytest.raises(ValueError, match="must start above"):
        tm.load_model({"name": "early", "sign_law": "symmetric", "pieces": [
            {"t_lo": 0.0, "t_hi": t_lo, "formula_id": "constant", "params": {"value": 1.0}},
            {"t_lo": t_lo, "t_hi": None, "formula_id": formula, "params": params}]})


@pytest.mark.parametrize("t_lo", [5.0, -3.0])
def test_first_piece_must_start_at_zero(t_lo):
    # a first piece declared on [5, inf) would otherwise cover [0, 5) as well
    doc = {"name": "late", "sign_law": "symmetric", "pieces": [
        {"t_lo": t_lo, "t_hi": None, "formula_id": "power",
         "params": {"scale": 1.0, "power": 2.0}}]}
    message = f"late: the first piece must start at t = 0, not {t_lo:g}"
    with pytest.raises(ValueError) as loaded:
        tm.load_model(doc)
    with pytest.raises(ValueError) as built:
        tm.TailModel(name="late",
                     pieces=(tm.piece(t_lo, math.inf, "power", scale=1.0, power=2.0),))
    assert str(loaded.value) == str(built.value) == message


@pytest.mark.parametrize("builtin,params,name", [
    ("pareto", {"alpha": True}, "alpha"), ("pareto", {"alpha": math.nan}, "alpha"),
    ("log-power", {"power": 1.0, "log_power": math.inf}, "log_power"),
    ("log-loglog-power", {"power": math.nan}, "power"),
    ("degenerate", {"value": math.inf}, "value"), ("degenerate", {"value": -1.0}, "value"),
])
def test_builtin_params_are_finite_numbers(builtin, params, name):
    # as a custom piece's params are: a bool, NaN or inf is no param
    with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
        tm.make_builtin(builtin, **params)


def test_a_lone_log_piece_gets_the_first_piece_message():
    with pytest.raises(ValueError, match="first piece must start at t = 0, not 3$"):
        tm.load_model({"name": "lone", "sign_law": "symmetric", "pieces": [
            {"t_lo": 3.0, "t_hi": None, "formula_id": "power-log",
             "params": {"scale": 1.0, "power": 1.0, "log_power": 1.0}}]})


THREE_PIECES = {"name": "three", "sign_law": "symmetric", "pieces": [
    {"t_lo": 0.0, "t_hi": 1.0, "formula_id": "constant", "params": {"value": 1.0}},
    {"t_lo": 1.0, "t_hi": 1e3, "formula_id": "power", "params": {"scale": 1.0, "power": 0.5}},
    {"t_lo": 1e3, "t_hi": None, "formula_id": "power-log",
     "params": {"scale": 1e3**0.5 * math.log(1e3) ** 2, "power": 1.0, "log_power": 2.0}}]}


@pytest.mark.parametrize("model,knee,edges", [
    (tm.pareto(2.0), 1.0, (1.0,)),
    (tm.log_power_tail(0.5, 2.0), E, (E,)),
    (tm.log_loglog_power_tail(0.5), math.exp(E), (math.exp(E),)),
    (tm.degenerate(2.5), 2.5, (2.5,)),
    (tm.rademacher(), 1.0, (1.0,)),
    (tm.zero(), 0.0, ()),
    (tm.load_model(THREE_PIECES), 1e3, (1.0, 1e3)),
], ids=lambda v: v.name if isinstance(v, tm.TailModel) else "")
def test_knee_and_piece_edges(model, knee, edges):
    assert model.knee == knee and model.piece_edges() == edges


POWER_FROM_ZERO = {"t_lo": 0.0, "formula_id": "power", "params": {"scale": 0.5, "power": 2.0}}


# a stray key was ignored, and a piece's "t_high" read as no t_hi: unbounded
@pytest.mark.parametrize("doc,key,where", [
    ({"name": "stray", "sign_law": "symmetric", "pieces": [{**POWER_FROM_ZERO, "t_hi": None}],
      "scale": 2.0}, "scale", "the custom model document"),
    ({"name": "typo", "sign_law": "symmetric", "pieces": [{**POWER_FROM_ZERO, "t_high": 1e3}]},
     "t_high", "a custom model piece"),
], ids=["document", "piece"])
def test_load_model_rejects_unknown_keys(doc, key, where):
    with pytest.raises(ValueError, match=f"^unknown key '{key}' in {where}; have "):
        tm.load_model(doc)


@pytest.mark.parametrize("doc", [
    # survival 0.79 at 1.01, back to 1.0 at 1.04: a dip right after the edge
    {"name": "log-dip", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": 1.01, "formula_id": "constant", "params": {"value": 1.0}},
        {"t_lo": 1.01, "t_hi": None, "formula_id": "power-log",
         "params": {"scale": 2.0, "power": 0.25, "log_power": -0.2}}]},
    # a negative power below 1 on a short piece: 0.4 t rises to 0.408 on [1, 1.02)
    {"name": "negative-power", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": 1.0, "formula_id": "constant", "params": {"value": 0.5}},
        {"t_lo": 1.0, "t_hi": 1.02, "formula_id": "power",
         "params": {"scale": 0.4, "power": -1.0}},
        {"t_lo": 1.02, "t_hi": None, "formula_id": "power",
         "params": {"scale": 0.4 * 1.02**2, "power": 2.0}}]},
], ids=["log-dip", "negative-power"])
def test_validate_model_rejects_rises_inside_a_piece(doc):
    with pytest.raises(NonMonotoneTail):
        tm.load_model(doc)


# ---------------------------------------------------------------------------
# quantiles
# ---------------------------------------------------------------------------


def test_quantile_critical_power():
    model = tm.pareto(0.5)
    assert tm.inverse_survival(model, 1 / 100) ** 0.5 == pytest.approx(100.0, rel=1e-12)


def test_quantile_degenerate():
    for n in (1, 7, 10_000):
        assert tm.inverse_survival(tm.degenerate(3.5), 1 / n) == 3.5


def test_quantile_pareto_closed_form():
    # solve t^-2 = 1/16 analytically: t = 4
    assert tm.inverse_survival(tm.pareto(2.0), 1 / 16) == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("model", builtin_zoo(), ids=lambda m: m.name)
def test_quantile_bracketing_invariants(model):
    ns = np.unique(np.geomspace(1, 10_000, 60).astype(int))
    u = tm.quantiles_un(model, ns)
    widths = np.maximum(1e-9 * np.maximum(u, 1.0), 1e-12)
    above = np.asarray(tm.survival(model, u + widths))
    assert np.all(above <= 1.0 / ns + 1e-15)
    pos = u > 0
    below = np.asarray(tm.survival(model, np.maximum(u[pos] - widths[pos], 0.0)))
    assert np.all(below >= 1.0 / ns[pos] - 1e-12)


def test_quantile_bisection_matches_closed_form():
    # the test-side bisection validates the exact inverse
    base = tm.pareto(2.0)
    ns = np.array([2.0, 16.0, 1000.0, 9999.0])
    roots, widths = bisect_decreasing(lambda t: tm.survival(base, t), 1.0 / ns, hi_seed=2.0)
    assert np.all(widths <= 1e-11 * np.maximum(roots, 1.0))
    for n, root in zip(ns, roots):
        got = tm.inverse_survival(base, 1 / n)
        assert got == pytest.approx(n**0.5, rel=1e-12)
        assert root == pytest.approx(got, rel=1e-11)


def test_quantile_rejects_nonmonotone_tail():
    # loaded or built directly, a model is checked when it is built
    doc = {"name": "bad", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": 1.0, "formula_id": "constant", "params": {"value": 0.2}},
        {"t_lo": 1.0, "t_hi": None, "formula_id": "power",
         "params": {"scale": 0.9, "power": 1.0}},
    ]}
    with pytest.raises(NonMonotoneTail):
        tm.load_model(doc)
    with pytest.raises(NonMonotoneTail):
        tm.TailModel(name="bad", pieces=(tm.piece(0.0, 1.0, "constant", value=0.2),
                                         tm.piece(1.0, math.inf, "power", scale=0.9, power=1.0)))


POWER = ("power", {"scale": 1.0, "power": 1.0})


@pytest.mark.parametrize("pieces", [
    [(0.0, 1.0, "constant", {"value": 1.0}), (2.0, None, *POWER)],
    [(0.0, 1.0, "constant", {"value": 1.0}), (1.0, 1.0, "constant", {"value": 1.0}),
     (1.0, None, *POWER)],
    [(0.0, 1.0, "constant", {"value": 1.0}), (1.0, 5.0, *POWER)],
    [(0.0, None, "constant", {"value": 0.5})],
], ids=["gap", "empty-piece", "bounded-last-piece", "non-vanishing"])
def test_direct_model_is_checked_like_a_loaded_one(pieces):
    doc = {"name": "bad", "sign_law": "symmetric", "pieces": [
        {"t_lo": lo, "t_hi": hi, "formula_id": formula, "params": params}
        for lo, hi, formula, params in pieces]}
    with pytest.raises(ValueError) as loaded:
        tm.load_model(doc)
    with pytest.raises(ValueError) as direct:
        tm.TailModel(name="bad", pieces=tuple(
            tm.piece(lo, math.inf if hi is None else hi, formula, **params)
            for lo, hi, formula, params in pieces))
    assert (type(direct.value), str(direct.value)) == (type(loaded.value), str(loaded.value))


# the README's inline custom model, and a log-loglog piece with exponents
# (0.7, 1.5, 0.5) instead of the builtin's (power, 1, 2), continuous at e^e
README_MODEL = {"name": "my-tail", "sign_law": "symmetric", "pieces": [
    {"t_lo": 0.0, "t_hi": E, "formula_id": "constant", "params": {"value": 1.0}},
    {"t_lo": E, "t_hi": None, "formula_id": "power-log",
     "params": {"scale": 1.6487212707, "power": 0.5, "log_power": 2.0}},
]}
LOGLOG_MODEL = {"name": "loglog-half", "sign_law": "symmetric", "pieces": [
    {"t_lo": 0.0, "t_hi": math.exp(E), "formula_id": "constant", "params": {"value": 1.0}},
    {"t_lo": math.exp(E), "t_hi": None, "formula_id": "power-log-loglog",
     "params": {"scale": math.exp(0.7 * E), "power": 0.7, "log_power": 1.5,
                "loglog_power": 0.5}},
]}


# pieces starting where ln t < 1 (power-log from 2) or ln ln t < 1 (loglog
# from 5), where the log terms of g(x) = a x + b ln x + c lnln x are
# negative, which a start table indexed on ln ln(const/u) would not cover;
# and a growing log factor (ln t)^1.5 whose rise up to t = e^3 is clamped at 1
EARLY_LOG_MODEL = {"name": "log-from-2", "sign_law": "symmetric", "pieces": [
    {"t_lo": 0.0, "t_hi": 2.0, "formula_id": "constant", "params": {"value": 1.0}},
    {"t_lo": 2.0, "t_hi": None, "formula_id": "power-log",
     "params": {"scale": math.sqrt(2.0) * math.log(2.0) ** 2, "power": 0.5, "log_power": 2.0}},
]}
EARLY_LOGLOG_MODEL = {"name": "loglog-from-5", "sign_law": "symmetric", "pieces": [
    {"t_lo": 0.0, "t_hi": 5.0, "formula_id": "constant", "params": {"value": 1.0}},
    {"t_lo": 5.0, "t_hi": None, "formula_id": "power-log-loglog",
     "params": {"scale": 5.0**0.7 * math.log(5.0) * math.log(math.log(5.0)) ** 2,
                "power": 0.7, "log_power": 1.0, "loglog_power": 2.0}},
]}
GROWING_LOG_MODEL = {"name": "growing-log", "sign_law": "symmetric", "pieces": [
    {"t_lo": 0.0, "t_hi": 2.0, "formula_id": "constant", "params": {"value": 1.0}},
    {"t_lo": 2.0, "t_hi": None, "formula_id": "power-log",
     "params": {"scale": 3.0, "power": 0.5, "log_power": -1.5}},
]}


# one piece of every formula_id, nonincreasing across the edges; the
# indicator's threshold lies past its piece, so it loads as a constant 1
ALL_FORMULAS_MODEL = {"name": "all-formulas", "sign_law": {"kind": "custom", "negative_prob": 0.25},
                      "pieces": [
    {"t_lo": 0.0, "t_hi": 1.0, "formula_id": "indicator-below", "params": {"threshold": 2.0}},
    {"t_lo": 1.0, "t_hi": 2.0, "formula_id": "constant", "params": {"value": 0.9}},
    {"t_lo": 2.0, "t_hi": 4.0, "formula_id": "power", "params": {"scale": 1.6, "power": 1.0}},
    {"t_lo": 4.0, "t_hi": 10.0, "formula_id": "power-log",
     "params": {"scale": 1.0, "power": 0.5, "log_power": 1.0}},
    {"t_lo": 10.0, "t_hi": None, "formula_id": "power-log-loglog",
     "params": {"scale": 0.6, "power": 0.5, "log_power": 1.0, "loglog_power": 2.0}},
]}


@pytest.mark.parametrize("model", builtin_zoo() + [
    tm.load_model(doc) for doc in (README_MODEL, LOGLOG_MODEL, EARLY_LOG_MODEL,
                                   EARLY_LOGLOG_MODEL, GROWING_LOG_MODEL, ALL_FORMULAS_MODEL)],
                         ids=lambda m: m.name)
def test_inverse_is_generalized_inverse(model):
    # S(t (1 + 1e-12)) < u <= S(t (1 - 1e-12)): t is inf{t : S(t) < u} to 1e-12
    us = np.concatenate([np.exp2(-np.arange(0.0, 53.5, 0.5)),
                         1.0 - np.random.default_rng(7).random(10_000)])
    t = tm.inverse_survival(model, us)
    np.testing.assert_array_equal(mc.MagnitudeSampler(model)(us), t)
    assert np.all(np.asarray(tm.survival(model, t * (1.0 + 1e-12))) < us)
    left = np.asarray(tm.survival(model, t * (1.0 - 1e-12)))
    assert np.all((t == 0.0) | (us <= left))
    ref, _ = bisect_decreasing(lambda x: tm.survival(model, x), us,
                               hi_seed=2.0 * model.knee, rel_tol=1e-14)
    assert np.max(np.abs(t - ref) / np.maximum(ref, 1.0)) <= 1e-12


def decimal_inverse(pc: tm.TailPiece, u: float, digits: int = 60) -> float:
    """inf{t : S(t) < u} on the log-corrected piece pc, S = const t^-a (ln t)^-b
    (lnln t)^-c with b, c >= 0, to `digits` decimal digits: Newton on
    g(x) = a x + b ln x + c lnln x = ln(const/u) in x = ln t.  g rises and is
    concave, so from x = ln(const/u)/a, right of the root, the iterates close
    in on it; a u above S(t_lo) gives t_lo."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        const, a, b, c = (Decimal(v) for v in (pc.tail.const, pc.tail.a, pc.tail.b, pc.tail.c))
        g = lambda x: a * x + b * x.ln() + (c * x.ln().ln() if c else 0)
        slope = lambda x: a + b / x + (c / (x * x.ln()) if c else 0)
        x_lo = Decimal(pc.t_lo).ln()
        rhs = const.ln() - Decimal(u).ln()
        if rhs <= g(x_lo):
            return pc.t_lo
        x = max(rhs / a, x_lo)
        for _ in range(200):
            step = (g(x) - rhs) / slope(x)
            x = max(x - step, x_lo)
            if abs(step) < Decimal(10) ** (10 - digits):
                return float(x.exp())
    raise AssertionError(f"Newton did not settle at u = {u}")


# the log-corrected laws whose draws one Newton step settles, and the probe
# uniforms 2^-(k/2), k = 0..106
NEWTON_LAWS = [tm.log_power_tail(0.5, 2.0), tm.log_loglog_power_tail(0.5),
               tm.load_model(README_MODEL), tm.load_model(LOGLOG_MODEL)]
PROBE_U = np.exp2(-np.arange(107) / 2.0)


@pytest.mark.parametrize("model", NEWTON_LAWS, ids=lambda m: m.name)
def test_sampler_matches_a_decimal_reference(model):
    got = mc.MagnitudeSampler(model)(PROBE_U)
    want = np.array([decimal_inverse(model.pieces[-1], float(u)) for u in PROBE_U])
    assert np.max(np.abs(got - want) / want) <= 2.4e-14


@pytest.mark.parametrize("model", NEWTON_LAWS + [tm.load_model(ALL_FORMULAS_MODEL)],
                         ids=lambda m: m.name)
def test_sampler_draws_bisect_nothing(model, monkeypatch):
    # the start tables are bisected when the sampler is built; the draws,
    # probes and random uniforms alike, are settled by the Newton step, also
    # next to the jumps at either end of a piece that is not the last
    sampler = mc.MagnitudeSampler(model)
    bisected = []
    bisect = tm.bisect
    monkeypatch.setattr(tm, "bisect", lambda *args: bisected.append(args) or bisect(*args))
    sampler(np.concatenate([PROBE_U, 1.0 - np.random.default_rng(5).random(10_000)]))
    assert bisected == []


@pytest.mark.parametrize("model", NEWTON_LAWS, ids=lambda m: m.name)
def test_cubic_start_is_within_the_certificate(model):
    # the premise of the one Newton step: the start table's cubic alone,
    # clipped to the piece as the step takes it, lies within the
    # certificate's 1e-9 max(|x|, 1) of the final root x = ln t
    us = np.concatenate([PROBE_U, 1.0 - np.random.default_rng(6).random(10_000)])
    table = model.inverse_route[1][-1].table  # the last piece's formula
    start = table.start(np.log(1.0 - np.log(us)), np.empty_like(us),
                        np.empty(us.size, dtype=np.intp), np.empty_like(us))
    start = np.clip(start, *tm._x_range(model.pieces[-1]))
    root = np.log(mc.MagnitudeSampler(model)(us))
    assert np.all(np.abs(start - root) <= 1e-9 * np.maximum(np.abs(root), 1.0))


def test_log_piece_root_sees_only_its_segment(monkeypatch):
    # the jump down at the log-loglog piece's left end is a segment of its
    # own: the root is sought only for u <= S(t_lo), and every u above it
    # inverts to t_lo exactly
    model = tm.load_model(LOGLOG_MODEL)
    pc, (at_lo, _) = model.pieces[-1], model.edge_values[-1]
    seen = []
    root = tm._log_piece_root
    monkeypatch.setattr(tm, "_log_piece_root",
                        lambda pc, u, *rest: seen.append(u.copy()) or root(pc, u, *rest))
    us = np.concatenate([PROBE_U, 1.0 - np.random.default_rng(8).random(100_000)])
    t = mc.MagnitudeSampler(model)(us)
    seen = np.concatenate(seen)
    above = us > at_lo
    assert 0 < np.count_nonzero(above) < us.size
    assert seen.size == np.count_nonzero(~above) and seen.max() <= at_lo
    assert np.all(t[above] == pc.t_lo)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_closed_form_values():
    # the sampler's magnitudes, and the sign thresholds that draw_batch applies
    sample = lambda model, u: float(mc.MagnitudeSampler(model)(np.array([u]))[0])
    assert sample(tm.pareto(0.5, "nonnegative"), 0.25) == pytest.approx(16.0)
    assert sample(tm.rademacher(), 0.7) == 1.0
    assert sample(tm.zero(), 0.3) == 0.0
    assert tm.rademacher().negative_prob == 0.5
    assert tm.pareto(0.5, "nonnegative").negative_prob == 0.0


@pytest.mark.parametrize("model,t_lo,t_hi", [
    (tm.pareto(1.5), 1.05, 400.0),
    (tm.log_loglog_power_tail(0.5), 30.0, 1e7),
])
def test_sampler_consistency_binomial_band(model, t_lo, t_hi):
    n_samples = 1_000_000
    sampler = mc.MagnitudeSampler(model)
    gen = np.random.default_rng(1234)
    draws = sampler(1.0 - gen.random(n_samples))
    grid = np.geomspace(t_lo, t_hi, 20)
    s_true = np.asarray(tm.survival(model, grid))
    emp = (draws[None, :] > grid[:, None]).mean(axis=1)
    band = 4.0 * np.sqrt(s_true * (1.0 - s_true) / n_samples)
    assert np.all(np.abs(emp - s_true) <= band + 1e-12)


# ---------------------------------------------------------------------------
# the cumulative table
# ---------------------------------------------------------------------------


POWER_FROM_ZERO_MODEL = {"name": "power-from-zero", "sign_law": "symmetric", "pieces": [
    {"t_lo": 0.0, "t_hi": None, "formula_id": "power", "params": {"scale": 1e-30, "power": 2.0}}]}


@pytest.mark.parametrize("model", builtin_zoo() + [
    tm.load_model(doc) for doc in (README_MODEL, LOGLOG_MODEL, EARLY_LOG_MODEL,
                                   EARLY_LOGLOG_MODEL, GROWING_LOG_MODEL, ALL_FORMULAS_MODEL,
                                   POWER_FROM_ZERO_MODEL)], ids=lambda m: m.name)
def test_power_survival_is_the_powered_survival(model):
    # S(t^(1/p))^r bit for bit wherever S is a normal double at a finite
    # t^(1/p); past that, the log domain, and never NaN
    t = np.geomspace(1e-300, 1e300, 4001)
    for p in (0.01, 0.5, 1.5):
        with np.errstate(over="ignore"):
            x = t ** (1.0 / p)
        s = tm.survival(model, x)
        normal = np.isfinite(x) & (s >= np.finfo(float).tiny)
        for r in (1.0, 0.5, 0.01):
            got = tm.power_survival(model, p, r)(t)
            assert np.array_equal(got[normal], s[normal] ** r)
            assert np.all((got >= 0.0) & (got <= 1.0))  # so no NaN either


def test_cumulative_table_closed_forms():
    # G(t) = min(t, 1) for a unit magnitude at p = 1
    table = tm.CumulativeTailTable(tm.degenerate(1.0), 1.0, 8.0)
    for t in (0.25, 0.5, 1.0, 2.0, 8.0):
        assert table(t) == pytest.approx(min(t, 1.0), rel=1e-6, abs=1e-9)
    # pareto(2): G(4) = 1 + int_1^4 t^-2 = 1.75
    table = tm.CumulativeTailTable(tm.pareto(2.0), 1.0, 10.0)
    assert table(4.0) == pytest.approx(1.75, rel=1e-6)
    # zero magnitude: G identically 0
    table = tm.CumulativeTailTable(tm.zero(), 1.0, 4.0)
    assert table(3.0) == 0.0


def test_cumulative_table_monotone_and_matches_quadrature():
    model = tm.log_loglog_power_tail(0.5)
    table = tm.CumulativeTailTable(model, 0.5, 1e5)
    ts = np.geomspace(1e-4, 1e5, 300)
    vals = table(ts)
    assert np.all(np.diff(vals) >= -1e-12)
    s_y = tm.power_survival(model, 0.5)
    edges = [e**0.5 for e in model.piece_edges()]
    for t in (7.3, 555.0, 99_000.0):
        direct = integrate(s_y, [0.0, t], breakpoints=edges).values[0]
        assert table(t) == pytest.approx(direct, rel=1e-7)


@pytest.mark.parametrize("model", [tm.pareto(0.8), tm.log_power_tail(0.5, 2.0),
                                   tm.log_loglog_power_tail(0.5)], ids=lambda m: m.name)
def test_cumulative_table_nodes_equal_per_cell_sums(model):
    # the one queue over all cells gives the node values of a per-cell loop
    table = tm.CumulativeTailTable(model, 0.5, 1e5)
    s_y = tm.power_survival(model, 0.5)
    g = [float(s_y(np.array([table.grid[0] * 0.5]))[0]) * table.grid[0]]
    for lo, hi in zip(table.grid[:-1], table.grid[1:]):
        g.append(g[-1] + integrate(s_y, [lo, hi]).values[0])
    assert table.values.tolist() == g


def test_cumulative_table_below_a_power_from_zero():
    # S = 1e-30 t^-2 from t = 0 leaves 1 at t = 1e-15, far below the table's
    # default start; at p = 0.5, S_Y(t) = C t^-4, so G(t) = (4/3) C^(1/4) - C t^-3 / 3
    model = tm.load_model({"name": "power-from-zero", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": None, "formula_id": "power",
         "params": {"scale": 1e-30, "power": 2.0}}]})
    table = tm.CumulativeTailTable(model, 0.5, 1e5)
    for t in (1e-3, 1.0, 1e5):
        assert table(t) == pytest.approx(4.0 / 3.0 * 1e-30**0.25 - 1e-30 * t**-3 / 3.0,
                                         rel=1e-9)


def test_bisect_returns_the_right_end_at_the_root():
    root = math.sqrt(2.0)
    got = float(tm.bisect(lambda x: x * x - 2.0, 0.0, 2.0))
    assert math.nextafter(root, 0.0) <= got <= math.nextafter(root, 3.0)
    # a bracket per element, each a linear f with an exact root
    roots = np.array([0.3, -2.5, 7.0, 123.456])
    got = tm.bisect(lambda x: x - roots, roots - [1.0, 40.0, 0.5, 1e3],
                    roots + [2.0, 1.0, 9.0, 1.0])
    assert np.all(got > roots)
    assert np.all(got <= np.nextafter(roots, np.inf))


def test_builtin_origin_is_hashable_with_a_custom_sign_law():
    custom = {"kind": "custom", "negative_prob": 0.3}
    model = tm.pareto(2.0, custom)
    assert hash(model) == hash(tm.pareto(2.0, custom))
    assert model.origin == ("pareto", (("alpha", 2.0),)) and model.negative_prob == 0.3


# ---------------------------------------------------------------------------
# JSON catalog
# ---------------------------------------------------------------------------


def test_load_custom_model_round_trip():
    # every builtin, and a custom model of all five formulas, reloads exactly
    ts = np.concatenate([[0.0], np.geomspace(1e-3, 1e15, 500)])
    us = np.concatenate([np.exp2(-np.arange(0.0, 53.0, 0.25)), np.linspace(0.01, 1.0, 100)])
    for model in builtin_zoo() + [tm.load_model(ALL_FORMULAS_MODEL)]:
        loaded = tm.load_model(json.loads(json.dumps(model.to_json())))
        assert (loaded.name, loaded.pieces, loaded.negative_prob) == \
            (model.name, model.pieces, model.negative_prob)
        grid = np.concatenate([ts, model.piece_edges()])
        assert np.array_equal(tm.survival(loaded, grid), tm.survival(model, grid))
        assert np.array_equal(tm.inverse_survival(loaded, us), tm.inverse_survival(model, us))


def test_indicator_below_loads_as_two_constants():
    doc = {"name": "degenerate(value=3.5)", "sign_law": "nonnegative", "pieces": [
        {"t_lo": 0.0, "t_hi": None, "formula_id": "indicator-below",
         "params": {"threshold": 3.5}}]}
    loaded = tm.load_model(doc)
    assert loaded.pieces == tm.degenerate(3.5).pieces
    assert [(pc.t_lo, pc.t_hi, pc.tail.const) for pc in loaded.pieces] == \
        [(0.0, 3.5, 1.0), (3.5, math.inf, 0.0)]
    assert tm.support_upper(loaded) == loaded.knee == 3.5


@pytest.mark.parametrize("sign_law", ["custom", {"kind": "custom"}, {"kind": "custom",
                                      "negative_prob": 1.5}, {"kind": "symmetric"}])
def test_bad_sign_laws_are_rejected(sign_law):
    doc = {**tm.pareto(2.0).to_json(), "sign_law": sign_law}
    with pytest.raises(ValueError, match="sign_law must be"):
        tm.load_model(doc)
    with pytest.raises(ValueError, match="sign_law must be"):
        tm.pareto(2.0, sign_law)


def test_load_model_requires_sign_law():
    doc = tm.pareto(2.0).to_json()
    del doc["sign_law"]
    with pytest.raises(ValueError):
        tm.load_model(doc)


def test_load_model_rejects_increasing_tail():
    doc = {
        "name": "bad",
        "sign_law": "symmetric",
        "pieces": [
            {"t_lo": 0.0, "t_hi": 1.0, "formula_id": "constant", "params": {"value": 0.2}},
            {"t_lo": 1.0, "t_hi": None, "formula_id": "constant", "params": {"value": 0.9}},
        ],
    }
    with pytest.raises((NonMonotoneTail, ValueError)):
        tm.load_model(doc)


def test_mean_zero_flags():
    assert tm.mean_zero(tm.rademacher()) is True
    assert tm.mean_zero(tm.pareto(2.0)) is True
    assert tm.mean_zero(tm.pareto(2.0, "nonnegative")) is False
    assert tm.mean_zero(tm.zero()) is True
    assert tm.mean_zero(tm.pareto(2.0, {"kind": "custom", "negative_prob": 0.3})) is None
    assert tm.mean_zero(tm.pareto(2.0, {"kind": "custom", "negative_prob": 0.5})) is True


@pytest.mark.parametrize("prob", [0.0, 1.0])
def test_one_signed_custom_law_has_nonzero_mean(prob):
    # as "nonnegative" already does, however the sign law is written
    doc = {**tm.pareto(2.0).to_json(), "sign_law": {"kind": "custom", "negative_prob": prob}}
    assert tm.mean_zero(tm.load_model(doc)) is False
