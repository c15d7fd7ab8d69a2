import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqslln import banach_lp as lp
from pqslln import criteria as cr
from pqslln import mc_engine as mc
from pqslln import tail_models as tm


# ---------------------------------------------------------------------------
# vectors and the quasi-norm
# ---------------------------------------------------------------------------


def test_norm_examples():
    assert lp.lp_norm(lp.LpVector.from_dict(1.0, {})) == 0.0
    assert lp.lp_norm(lp.LpVector.from_dict(2.0, {0: 3.0, 1: 4.0})) == pytest.approx(5.0)
    for p in (0.4, 0.9, 1.3):
        n = 17
        v = lp.LpVector.from_dict(p, {i: 1.0 for i in range(n)})
        assert lp.lp_norm(v) == pytest.approx(n ** (1.0 / p), rel=1e-14)


def test_norm_matches_dense_reference():
    gen = np.random.default_rng(5)
    for p in (0.7, 1.0, 1.6):
        dense = gen.standard_normal(1000)
        v = lp.LpVector.from_dict(p, {i: x for i, x in enumerate(dense)})
        ref = float(np.sum(np.abs(dense) ** p) ** (1.0 / p))
        assert lp.lp_norm(v) == pytest.approx(ref, rel=1e-12)


@given(st.floats(-50.0, 50.0), st.floats(0.3, 2.0))
@example(c=5e-324, p=1.0)  # subnormal scale: every entry would underflow to 0.0
@settings(max_examples=40, deadline=None)
def test_rescaling(c, p):
    v = lp.LpVector.from_dict(p, {0: 1.5, 3: -2.0, 9: 0.25})
    assert lp.lp_norm(v.scale(c)) == pytest.approx(abs(c) * lp.lp_norm(v), rel=1e-12)


def test_disjoint_support_additivity_exact():
    p = 0.6
    u = lp.LpVector.from_dict(p, {0: 2.0, 1: -1.0})
    v = lp.LpVector.from_dict(p, {5: 3.0, 9: 0.5})
    s = u + v
    assert s.norm_p_power() == u.norm_p_power() + v.norm_p_power()


def test_no_stored_zeros():
    v = lp.LpVector.from_dict(1.0, {0: 1.0, 1: 0.0})
    assert len(v.entries) == 1
    with pytest.raises(ValueError):
        lp.LpVector(1.0, ((0, 0.0),))


# ---------------------------------------------------------------------------
# the disjoint-coordinate counterexample
# ---------------------------------------------------------------------------


def test_counterexample_bitwise_one():
    for p in (0.5, 1.0, 1.5):
        ratios = lp.counterexample_path(1 << 12, p, seed=7)
        assert np.all(ratios == 1.0)


def test_counterexample_single_step():
    assert lp.counterexample_path(1, 0.7)[0] == 1.0


def test_counterexample_w_series_harmonic():
    cfg = mc.ExperimentConfig(model=None, p=0.7, q=0.4, n_max=1 << 12,
                              replications=2, master_seed=0,
                              sequence=mc.SEQ_LP_COUNTEREXAMPLE)
    table = mc.run_paths(cfg)
    h = math.fsum(1.0 / m for m in range(1, (1 << 12) + 1))
    assert table.w_partial[0, -1] == pytest.approx(h, rel=1e-13)
    assert mc.growth_verdict(table.checkpoints, table.w_partial[0]).kind == cr.DIVERGES


# ---------------------------------------------------------------------------
# sign-sequence probe
# ---------------------------------------------------------------------------


def test_probe_zero_coefficients():
    def zeros(k):
        return lp.LpVector.from_dict(1.0, {})

    rep = lp.rademacher_probe(zeros, 1.0, 1.0, n_max=1 << 10, replications=4,
                              master_seed=0, sup_norm_bound=0.0)
    assert all(x == 0.0 for x in rep.ratio_median)


def test_probe_disjoint_units_witnesses_failure():
    rep = lp.rademacher_probe(lp.disjoint_units, 0.8, 0.8, n_max=1 << 12,
                              replications=4, master_seed=0)
    assert all(x == 1.0 for x in rep.ratio_median)
    assert rep.w_verdict.kind == cr.DIVERGES


def test_probe_repeated_unit_is_real_case():
    rep = lp.rademacher_probe(lp.repeated_unit, 1.5, 0.5, n_max=1 << 14,
                              replications=64, master_seed=0)
    assert rep.ratio_median[-1] <= 0.25
    assert rep.w_verdict.kind in (cr.CONVERGES, cr.INCONCLUSIVE)


def test_probe_general_rule_requires_bound():
    def rule(k):
        return lp.LpVector.from_dict(1.5, {k % 4: 0.5})

    with pytest.raises(ValueError):
        lp.rademacher_probe(rule, 1.5, 0.5, n_max=1 << 10, replications=2,
                            master_seed=0)
    rep = lp.rademacher_probe(rule, 1.5, 0.5, n_max=1 << 10, replications=4,
                              master_seed=0, sup_norm_bound=0.5)
    assert rep.ns[-1] == 1 << 10
    assert all(r >= 0.0 for r in rep.ratio_median)


# ---------------------------------------------------------------------------
# order-statistics maximal inequality
# ---------------------------------------------------------------------------


def test_sup_weighted_tail_closed_forms():
    # pareto(alpha): t^r * t^-alpha with r < alpha peaks at the knee t = 1
    assert lp.sup_power_weighted_tail(tm.pareto(1.5), 1.2) == pytest.approx(1.0)
    assert lp.sup_power_weighted_tail(tm.pareto(2.0), 1.0) == pytest.approx(1.0)
    # degenerate c: sup t^r 1(t < c) = c^r
    assert lp.sup_power_weighted_tail(tm.degenerate(2.0), 1.5) == pytest.approx(2.0**1.5)
    # r above the tail exponent: unbounded
    assert lp.sup_power_weighted_tail(tm.pareto(1.1), 1.5) == math.inf


def test_marcus_pisier_degenerate_trivial():
    table = lp.marcus_pisier_check(tm.degenerate(1.0), 8, 1.0, [2.0, 100.0], 2000, 5)
    # u = 2 < n: the statistic sup_k k X*_k = n always exceeds it, and the
    # bound 2 e n / u >= 1 holds trivially
    assert table.empirical_lhs[0] == 1.0
    assert table.analytic_rhs[0] >= 1.0
    # u far above the max observed: empirical side exactly 0
    assert table.empirical_lhs[1] == 0.0
    assert table.holds(4.0)


def test_marcus_pisier_pareto_bound():
    grid = np.geomspace(1.0, 1e4, 16)
    table = lp.marcus_pisier_check(tm.pareto(1.5, "nonnegative"), 64, 1.2,
                                   grid, 20_000, master_seed=2)
    assert table.sup_value == pytest.approx(1.0)
    for u, rhs in zip(table.u_grid, table.analytic_rhs):
        assert rhs == pytest.approx(2.0 * math.e * 64 / u**1.2, rel=1e-12)
    assert table.holds(4.0)
    # both sides vanish at large u
    assert table.empirical_lhs[-1] <= table.analytic_rhs[-1] + 1e-12


def test_marcus_pisier_requires_r_at_least_one():
    with pytest.raises(ValueError):
        lp.marcus_pisier_check(tm.pareto(2.0), 8, 0.8, [1.0], 10)
