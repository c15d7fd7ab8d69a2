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
    with pytest.raises(ValueError, match="n >= 1"):
        lp.marcus_pisier_check(tm.pareto(2.0), 0, 1.2, [1.0], 10)
    with pytest.raises(ValueError, match="replication"):
        lp.marcus_pisier_check(tm.pareto(2.0), 8, 1.2, [1.0], 0)


@pytest.mark.parametrize("n, reps", [(64.5, 10), ("8", 10), (True, 10), (8, True), (8, 10.0)],
                         ids=["float-n", "str-n", "bool-n", "bool-reps", "float-reps"])
def test_marcus_pisier_rejects_counts_that_are_not_ints(n, reps):
    # 64.5 used to raise a TypeError from range(), and True ran as 1
    name = "replications" if n == 8 else "n"
    with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
        lp.marcus_pisier_check(tm.pareto(2.0), n, 1.2, [1.0], reps)


@pytest.mark.parametrize("grid", [[0.0, 1.0], [-1.0], [math.nan, 2.0], [math.inf], []],
                         ids=["zero", "negative", "nan", "inf", "empty"])
def test_marcus_pisier_rejects_a_bad_u_grid(grid):
    with pytest.raises(ValueError, match="u_grid must be a nonempty list of finite positive"):
        lp.marcus_pisier_check(tm.pareto(2.0), 8, 1.2, grid, 10)


def one_shot_lhs(model, n, r, grid, blocks, seed):
    """The empirical side with block b of `blocks` drawn whole from probe
    stream b, then sorted and counted."""
    sampler = mc.MagnitudeSampler(model)
    weights = np.arange(1, n + 1, dtype=float) ** (1.0 / r)
    counts = np.zeros(grid.size)
    for b, size in enumerate(blocks):
        gen = rng.generator(seed, b, rng.ROLE_PROBE)
        mags = sampler(1.0 - gen.random(size * n)).reshape(size, n)
        stat = np.max(weights * -np.sort(-mags, axis=1), axis=1)
        counts += (stat[None, :] > grid[:, None]).sum(axis=1)
    return tuple((counts / sum(blocks)).tolist())


def use_cpus(monkeypatch, count):
    """Make `mc_engine.usable_cpus()` read `count` CPUs."""
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)
    assert mc.usable_cpus() == count


def test_marcus_pisier_streams_in_bounded_memory(monkeypatch):
    # n = 2^15: blocks of 128 and 2 paths, drawn in pieces of 2 paths; on 2
    # CPUs each thread holds the buffers of one piece, and the second starts
    # in the middle of block 0 and ends in block 1
    model = tm.pareto(1.5, "nonnegative")
    n, r, reps, grid = 1 << 15, 1.2, 130, np.geomspace(1.0, 1e4, 8)
    want = one_shot_lhs(model, n, r, grid, (128, 2), 3)
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


def test_marcus_pisier_pieces_join_to_one_draw_per_block():
    # n = 3000: blocks of 1398 and 2 paths in pieces of 21 paths, so block 0
    # ends in a piece of 12 paths; the pieces of a block are one draw of it
    model = tm.pareto(3.0, "nonnegative")
    n, r, grid = 3000, 1.5, np.geomspace(1.0, 1e3, 6)
    table = lp.marcus_pisier_check(model, n, r, grid, 1400, master_seed=4)
    assert table.empirical_lhs == one_shot_lhs(model, n, r, grid, (1398, 2), 4)


@pytest.mark.parametrize("model, n, reps, blocks", [
    # a piece of 21845 paths is 65535 draws, 3 short of whole Philox counter
    # steps, so the pieces after the first start at word 3, 2, 1 and 0 of one
    (tm.pareto(1.5, "nonnegative"), 3, 100_000, (100_000,)),
    (tm.pareto(2.0, "nonnegative"), 7, 40_000, (40_000,)),  # pieces of 65534 draws
    (tm.pareto(1.5, "nonnegative"), 64, 70_000, (65_536, 4_464)),  # two blocks
    (tm.degenerate(1.0), 32, 5_000, (5_000,)),  # a point mass draws nothing
], ids=["n3", "n7", "n64-two-blocks", "point-mass"])
def test_marcus_pisier_is_the_same_on_any_number_of_cpus(monkeypatch, model, n, reps, blocks):
    r, grid = 1.2, np.geomspace(0.5, 1e3, 9)
    want = one_shot_lhs(model, n, r, grid, blocks, 6)
    for cpus in (1, 2, 3, 8):
        use_cpus(monkeypatch, cpus)
        table = lp.marcus_pisier_check(model, n, r, grid, reps, master_seed=6)
        assert table.empirical_lhs == want, cpus


@pytest.mark.parametrize("skip", range(10))
def test_a_stream_opened_past_k_uniforms_continues_the_whole_stream(skip):
    whole = rng.generator(8, 2, rng.ROLE_PROBE).random(skip + 9)
    assert np.array_equal(rng.generator(8, 2, rng.ROLE_PROBE, skip=skip).random(9), whole[skip:])
