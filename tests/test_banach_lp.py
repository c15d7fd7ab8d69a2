import math
import tracemalloc

import numpy as np
import pytest

from pqslln import banach_lp as lp
from pqslln import criteria as cr
from pqslln import mc_engine as mc
from pqslln import rng
from pqslln import tail_models as tm


# ---------------------------------------------------------------------------
# the disjoint-coordinate counterexample
# ---------------------------------------------------------------------------


def test_counterexample_w_series_harmonic():
    cfg = mc.ExperimentConfig(model=None, p=0.7, q=0.4, n_max=1 << 12,
                              replications=2, master_seed=0,
                              sequence=mc.SEQ_LP_COUNTEREXAMPLE)
    table = mc.run_paths(cfg)
    assert np.all(table.ratio == 1.0)
    h = math.fsum(1.0 / m for m in range(1, (1 << 12) + 1))
    assert table.w_partial[0, -1] == pytest.approx(h, rel=1e-13)
    assert mc.growth_verdict(table.checkpoints, table.w_partial[0]).kind == cr.DIVERGES


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


def test_sup_weighted_tail_log_corrected_pieces():
    # t^r S(t) falls on each piece, so both maxima sit at the log piece's left
    # edge: e^2 t^-2 (ln t)^-2 at t = e gives e^1.5 for r = 1.5, and
    # e^(e+1) t^-1 (ln t)^-1 (lnln t)^-2 at t = e^e gives e^(e/2) for r = 0.5
    assert lp.sup_power_weighted_tail(tm.log_power_tail(2.0, 2.0), 1.5) == \
        pytest.approx(math.exp(1.5), rel=1e-12)
    assert lp.sup_power_weighted_tail(tm.log_loglog_power_tail(1.0), 0.5) == \
        pytest.approx(math.exp(math.e / 2.0), rel=1e-12)
    # r above the tail exponent: unbounded
    assert lp.sup_power_weighted_tail(tm.log_power_tail(0.5, 2.0), 1.0) == math.inf
    assert lp.sup_power_weighted_tail(tm.log_loglog_power_tail(0.5), 0.75) == math.inf


# survival min(1, t^-2) from t = 0, and a constant 3 that survival clamps to 1
POWER_FROM_ZERO = tm.load_model({"name": "power-from-zero", "sign_law": "nonnegative",
                                 "pieces": [
    {"t_lo": 0.0, "t_hi": None, "formula_id": "power", "params": {"scale": 1.0, "power": 2.0}}]})
CONSTANT_ABOVE_ONE = tm.load_model({"name": "constant-above-one", "sign_law": "nonnegative",
                                    "pieces": [
    {"t_lo": 0.0, "t_hi": 1.0, "formula_id": "constant", "params": {"value": 3.0}},
    {"t_lo": 1.0, "t_hi": None, "formula_id": "power", "params": {"scale": 1.0, "power": 2.0}}]})


@pytest.mark.parametrize("model, r", [
    (POWER_FROM_ZERO, 1.5), (CONSTANT_ABOVE_ONE, 1.5), (tm.pareto(1.5), 1.2),
    (tm.pareto(1.5), 1.5), (tm.pareto(2.0, "nonnegative"), 1.0),
    (tm.log_power_tail(2.0, 2.0), 1.5), (tm.log_loglog_power_tail(1.0), 0.5),
    (tm.degenerate(2.0), 1.5), (tm.rademacher(), 1.0), (tm.zero(), 1.0),
], ids=lambda v: getattr(v, "name", str(v)))
def test_sup_weighted_tail_matches_a_dense_grid(model, r):
    # the grid's steps are 2.3e-5 relative, so it comes within about r times
    # that of a sup that is a limit at a piece's right end
    t = np.geomspace(1e-6, 1e6, 1_200_001)
    dense = float(np.max(t**r * tm.survival(model, t)))
    assert lp.sup_power_weighted_tail(model, r) == pytest.approx(dense, rel=1e-4)


def log_piece_model(name, head, scale, t_knee=2.0):
    """survival `head` below t_knee, then scale t^-0.5 (ln t)^1.5: a log factor that grows."""
    return tm.load_model({"name": name, "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": t_knee, "formula_id": "constant", "params": {"value": head}},
        {"t_lo": t_knee, "t_hi": None, "formula_id": "power-log",
         "params": {"scale": scale, "power": 0.5, "log_power": -1.5}}]})


GROWING_LOG_MODEL = log_piece_model("growing-log", 1.0, 3.0)


def test_sup_weighted_tail_is_inf_where_a_growing_log_factor_meets_r_equal_to_the_power():
    # t^0.5 S(t) = 3 (ln t)^1.5 past the clamp: no bound (the grid read 1748.36)
    assert lp.sup_power_weighted_tail(GROWING_LOG_MODEL, 0.5) == math.inf


def test_sup_weighted_tail_finds_where_the_clamp_ends():
    # 3 t^-0.2 (ln t)^1.5 peaks at ln t = 7.5, under the clamp at 1, so
    # t^0.3 min(1, 3 t^-0.5 (ln t)^1.5) peaks where the clamp ends: at the
    # root x > 7.5 of ln 3 - x/2 + 1.5 ln x = 0, with value e^(0.3 x).  The
    # 4096-point grid read 13.5164, below a dense grid's 13.5195
    x = float(tm.bisect(lambda x: -(math.log(3.0) - x / 2.0 + 1.5 * np.log(x)),
                        np.array(7.5), np.array(40.0)))
    assert lp.sup_power_weighted_tail(GROWING_LOG_MODEL, 0.3) == pytest.approx(
        math.exp(0.3 * x), rel=1e-13)


def test_sup_weighted_tail_finds_an_interior_maximizer():
    # 0.15 t^-0.2 (ln t)^1.5 stays under the clamp and peaks inside its piece
    # at ln t = 7.5; the constant 0.2 below t = 25 gives only 25^0.3 * 0.2
    model = log_piece_model("interior-peak", 0.2, 0.15, t_knee=25.0)
    assert lp.sup_power_weighted_tail(model, 0.3) == pytest.approx(
        0.15 * math.exp(-1.5) * 7.5**1.5, rel=1e-13)


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
    for r in (0.8, math.nan, math.inf):  # NaN and inf would otherwise give a table that holds
        with pytest.raises(ValueError, match="requires a finite r >= 1"):
            lp.marcus_pisier_check(tm.pareto(2.0), 8, r, [1.0], 10)


def test_marcus_pisier_rejects_empty_input():
    with pytest.raises(ValueError,
                       match=r"^n must be an integer at least 1 and at most 2\^53, got 0$"):
        lp.marcus_pisier_check(tm.pareto(2.0), 0, 1.2, [1.0], 10)
    with pytest.raises(ValueError,
                       match=r"^replications must be an integer at least 1 and at most 2\^53, "
                             r"got 0$"):
        lp.marcus_pisier_check(tm.pareto(2.0), 8, 1.2, [1.0], 0)


@pytest.mark.parametrize("n, reps", [(64.5, 10), ("8", 10), (True, 10), (8, True), (8, 10.0)],
                         ids=["float-n", "str-n", "bool-n", "bool-reps", "float-reps"])
def test_marcus_pisier_rejects_counts_that_are_not_ints(n, reps):
    # 64.5 used to raise a TypeError from range(), and True ran as 1
    name = "replications" if n == 8 else "n"
    with pytest.raises(ValueError,
                       match=rf"^{name} must be an integer at least 1 and at most 2\^53, got "):
        lp.marcus_pisier_check(tm.pareto(2.0), n, 1.2, [1.0], reps)


@pytest.mark.parametrize("grid", [[0.0, 1.0], [-1.0], [math.nan, 2.0], [math.inf], []],
                         ids=["zero", "negative", "nan", "inf", "empty"])
def test_marcus_pisier_rejects_a_bad_u_grid(grid):
    with pytest.raises(ValueError, match="u_grid must be a nonempty list of finite positive"):
        lp.marcus_pisier_check(tm.pareto(2.0), 8, 1.2, grid, 10)


def one_shot_lhs(model, n, r, grid, reps, seed):
    """The empirical side with piece k of max(1, 2^16 // n) paths drawn whole
    from probe stream k, then sorted and counted."""
    sampler = mc.MagnitudeSampler(model)
    weights = np.arange(1, n + 1, dtype=float) ** (1.0 / r)
    rows = max(1, (1 << 16) // n)
    counts = np.zeros(grid.size)
    for k, first in enumerate(range(0, reps, rows)):
        size = min(rows, reps - first)
        gen = rng.generator(seed, k, rng.ROLE_PROBE)
        mags = sampler(1.0 - gen.random(size * n)).reshape(size, n)
        stat = np.max(weights * -np.sort(-mags, axis=1), axis=1)
        counts += (stat[None, :] > grid[:, None]).sum(axis=1)
    return tuple((counts / reps).tolist())


def use_cpus(monkeypatch, count):
    """Make `mc_engine.usable_cpus()` read `count` CPUs."""
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)
    assert mc.usable_cpus() == count


def test_marcus_pisier_streams_in_bounded_memory(monkeypatch):
    # n = 2^15: 65 pieces of 2 paths; each thread holds the buffers of the
    # one piece it counts
    model = tm.pareto(1.5, "nonnegative")
    n, r, reps, grid = 1 << 15, 1.2, 130, np.geomspace(1.0, 1e4, 8)
    want = one_shot_lhs(model, n, r, grid, reps, 3)
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        tracemalloc.start()
        try:
            table = lp.marcus_pisier_check(model, n, r, grid, reps, master_seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 << 20
        assert table.empirical_lhs == want


def test_marcus_pisier_draws_piece_k_whole_from_probe_stream_k():
    # n = 100: pieces of 655 paths, the fourth and last of 35; the grid sits
    # between the 10 % and 90 % quantiles of the statistic, so drawing any
    # piece from another stream would move the counts
    model = tm.pareto(1.5, "nonnegative")
    n, r, reps, grid = 100, 1.2, 2000, np.array([46.6, 47.0, 48.0, 60.0, 90.0])
    table = lp.marcus_pisier_check(model, n, r, grid, reps, master_seed=4)
    assert all(0.1 < lhs < 0.9 for lhs in table.empirical_lhs)
    assert table.empirical_lhs == one_shot_lhs(model, n, r, grid, reps, 4)


@pytest.mark.parametrize("model, n, reps", [
    (tm.pareto(1.5, "nonnegative"), 3, 100_000),  # 5 pieces, the last of 12620 paths
    (tm.pareto(2.0, "nonnegative"), 7, 40_000),  # 5 pieces, the last of 2552 paths
    (tm.pareto(1.5, "nonnegative"), 64, 70_000),  # 69 pieces, the last of 368 paths
    (tm.degenerate(1.0), 32, 5_000),  # a point mass draws nothing
], ids=["n3", "n7", "n64-short-last-piece", "point-mass"])
def test_marcus_pisier_is_the_same_on_any_number_of_cpus(monkeypatch, model, n, reps):
    r, grid = 1.2, np.geomspace(0.5, 1e3, 9)
    want = one_shot_lhs(model, n, r, grid, reps, 6)
    for cpus in (1, 2, 3, 8):
        use_cpus(monkeypatch, cpus)
        table = lp.marcus_pisier_check(model, n, r, grid, reps, master_seed=6)
        assert table.empirical_lhs == want, cpus


def philox_words(gen):
    """The 64-bit words drawn so far from the Philox stream of `gen`."""
    state = gen.bit_generator.state
    counter = state["state"]["counter"]
    return 4 * (int(counter[0]) + (int(counter[1]) << 64) - 1) + state["buffer_pos"]


@pytest.mark.parametrize("model, words", [
    (tm.pareto(1.5, "nonnegative"), 64 * 70_000),  # one uniform per magnitude
    (tm.degenerate(1.0), 0),
], ids=["sampled", "point-mass"])
def test_marcus_pisier_draws_each_word_once(monkeypatch, model, words):
    opened, generator = [], rng.generator

    def spy(*args, **kwargs):
        opened.append(generator(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(rng, "generator", spy)
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        opened.clear()
        lp.marcus_pisier_check(model, 64, 1.2, [1.0], 70_000, master_seed=6)
        assert sum(map(philox_words, opened)) == words, cpus
