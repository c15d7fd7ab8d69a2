import math

import numpy as np
import pytest

from pqslln import criteria as cr
from pqslln import quadrature
from pqslln import tail_models as tm
from pqslln.errors import QuadratureFailure
from pqslln.quadrature import LOG_FROM, integrate


def test_exponential_decay():
    res = integrate(lambda t: np.exp(-t), [0.0, 40.0])
    exact = 1.0 - math.exp(-40.0)
    assert abs(res.values[0] - exact) <= 1e-9 * exact


def test_power_tail_with_log_substitution():
    # int_1^1e10 t^-2 dt = 1 - 1e-10
    f = lambda t: np.maximum(t, 1.0) ** -2.0
    res = integrate(f, [1.0, 1e10], breakpoints=[1.0])
    exact = 1.0 - 1e-10
    assert abs(res.values[0] - exact) <= 1e-9


def test_step_function_exact_at_breakpoint():
    c = 1.37
    f = lambda t: np.where(t < c, 1.0, 0.0)
    res = integrate(f, [0.0, 10.0], breakpoints=[c])
    assert res.values[0] == pytest.approx(c, rel=1e-14)


@pytest.mark.parametrize("model, c, q", [
    (tm.rademacher(), 1.0, 0.5), (tm.rademacher(), 1.0, 1.5),
    (tm.degenerate(2.0), 2.0, 0.5), (tm.degenerate(1.3), 1.3, 1.0),
], ids=lambda v: getattr(v, "name", str(v)))
def test_a_point_mass_reads_its_exact_window_integral_in_a_few_intervals(model, c, q):
    # P(||X||^q > t) is 1 on [0, c^q) and 0 from c^q on: the window [0, c^q]
    # ends on the jump, so Simpson takes the left limit 1 there and a constant
    # piece is exact at once, where it refined toward the jump for 99 intervals
    end = c**q
    res = integrate(tm.power_survival(model, q), [0.0, end], breakpoints=[end])
    assert res.values[0] == end and res.intervals <= 2


@pytest.mark.parametrize("model, p, q", [
    (tm.rademacher(), 1.5, 0.5), (tm.degenerate(1.0), 0.7, 0.5),
], ids=lambda v: getattr(v, "name", str(v)))
def test_unit_point_mass_window_integrals_read_one(model, p, q):
    # both windows are [0, 1], where P(||X||^q > t) = 1: the estimates are
    # 1.0, where they read 0.9999999999999999
    report = cr.classify_slln(model, p, q)
    assert report.integral_verdict.estimate_on_window == 1.0
    assert report.p_moment_verdict.estimate_on_window == 1.0


def test_zero_length_interval():
    assert integrate(lambda t: t, [2.0, 2.0]).values[0] == 0.0


def test_negative_or_decreasing_nodes_raise():
    for nodes in ([-1.0, 2.0], [0.0, 3.0, 2.0], [1.0, math.nan]):
        with pytest.raises(ValueError):
            integrate(lambda t: t, nodes)


def test_budget_exhaustion_raises(monkeypatch):
    # highly oscillatory integrand with an absurdly small budget
    monkeypatch.setattr(quadrature, "BUDGET", 16)
    f = lambda t: np.sin(1000.0 * t) ** 2
    with pytest.raises(QuadratureFailure, match=r"budget exhausted on \[\d"):
        integrate(f, [0.0, 1000.0])


def test_piecewise_tail_accuracy():
    # int_0^B of pareto(2) survival in Y = |X| space: 1 + (1 - 1/B)
    f = lambda t: np.where(t <= 1.0, 1.0, np.maximum(t, 1.0) ** -2.0)
    res = integrate(f, [0.0, 1e6], breakpoints=[1.0])
    exact = 2.0 - 1e-6
    assert abs(res.values[0] - exact) <= 1e-9 * exact


@pytest.mark.parametrize("model", [tm.pareto(0.8), tm.log_power_tail(0.5, 2.0),
                                   tm.log_loglog_power_tail(0.5)], ids=lambda m: m.name)
def test_cells_equal_one_cell_calls_bitwise(model):
    # the knees at p = 0.5 sit at 1, 1.65 and 3.89; cell (5, 12) straddles LOG_FROM
    s_y = tm.power_survival(model, 0.5)
    edges = [e**0.5 for e in model.piece_edges()]
    nodes = [0.0, 0.5, 1.3, 2.0, 5.0, 12.0, 1e3, 1e8]
    assert any(a < LOG_FROM < b for a, b in zip(nodes, nodes[1:]))
    res = integrate(s_y, nodes, breakpoints=edges)
    single = [integrate(s_y, [a, b], breakpoints=edges) for a, b in zip(nodes, nodes[1:])]
    assert res.values.tolist() == [r.values[0] for r in single]
    assert res.error.tolist() == [r.error[0] for r in single]
    assert res.intervals == sum(r.intervals for r in single)
