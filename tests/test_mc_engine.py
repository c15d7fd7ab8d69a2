import math
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqslln import criteria as cr
from pqslln import mc_engine as mc
from pqslln import oracles, rng
from pqslln import tail_models as tm
from pqslln.errors import ConfigError


def small_config(model, p=1.0, q=1.0, n_max=1 << 10, reps=8, seed=11, **kw):
    return mc.ExperimentConfig(model=model, p=p, q=q, n_max=n_max,
                               replications=reps, master_seed=seed, **kw)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_invariants():
    with pytest.raises(ConfigError):
        small_config(tm.rademacher(), n_max=1000)  # not a power of two
    with pytest.raises(ConfigError, match="^n_max must be a power of two, got 3000$"):
        small_config(tm.rademacher(), n_max=3000)
    with pytest.raises(ConfigError):
        small_config(tm.rademacher(), n_max=512)   # below 2^10
    with pytest.raises(ConfigError):
        small_config(tm.rademacher(), reps=1)
    with pytest.raises(ConfigError,
                       match=r"replications must be an integer at least 2 and at most 2\^53"):
        small_config(tm.rademacher(), reps=10**30)  # past any array index
    with pytest.raises(ConfigError,
                       match=r"n_max must be an integer at least 2\^10 and at most 2\^53"):
        small_config(tm.rademacher(), n_max=1 << 70)
    with pytest.raises(ConfigError):
        small_config(None)
    for seed in (-1, 1 << 64):  # stream keys see 64 bits; these would alias
        with pytest.raises(ConfigError):
            small_config(tm.rademacher(), seed=seed)
    cfg = small_config(tm.rademacher())
    assert cfg.checkpoints[0] == 1 and cfg.checkpoints[-1] == cfg.n_max
    assert np.all(np.diff(cfg.checkpoints) > 0)


# ---------------------------------------------------------------------------
# run_paths
# ---------------------------------------------------------------------------


def test_zero_model_all_zero():
    table = mc.run_paths(small_config(tm.zero()))
    assert np.all(table.s_norm == 0.0)
    assert np.all(table.ratio == 0.0)
    assert np.all(table.w_partial == 0.0)


def test_counterexample_ratio_exactly_one():
    cfg = mc.ExperimentConfig(model=None, p=0.5, q=0.5, n_max=1 << 12,
                              replications=2, master_seed=1,
                              sequence=mc.SEQ_LP_COUNTEREXAMPLE)
    table = mc.run_paths(cfg)
    assert np.all(table.ratio == 1.0)
    # W is the harmonic number, equal to an independent fsum in every replication
    h = math.fsum(1.0 / m for m in range(1, (1 << 12) + 1))
    assert np.all(table.w_partial[:, -1] == h)


@pytest.mark.parametrize("n_max", [1 << 12, 1 << 53])
def test_counterexample_w_is_harmonic_at_every_checkpoint(n_max):
    # W is `harmonic` at each checkpoint bit for bit, and nothing n_max long
    # is built: 2^53 steps could never be allocated
    cfg = mc.ExperimentConfig(model=None, p=0.5, q=0.5, n_max=n_max, replications=2,
                              master_seed=1, sequence=mc.SEQ_LP_COUNTEREXAMPLE)
    table = mc.run_paths(cfg)
    want = np.tile(mc.harmonic(table.checkpoints), (2, 1))
    np.testing.assert_array_equal(table.w_partial.view(np.int64), want.view(np.int64))
    assert np.all(table.ratio == 1.0)


def test_determinism_across_worker_counts():
    cfg = small_config(tm.pareto(2.0), p=1.0, q=0.5, n_max=1 << 12, reps=8, seed=42)
    csv1 = mc.run_paths(cfg, workers=1).to_csv()
    csv2 = mc.run_paths(cfg, workers=2).to_csv()
    csv8 = mc.run_paths(cfg, workers=8).to_csv()
    assert csv1 == csv2 == csv8


@pytest.mark.parametrize("mode", ["plain", "symmetrized"])
def test_blocks_match_one_worker(mode):
    # 5 replications of 2 chunks: one block of 5 on 1 worker, blocks of 3
    # and 2 on 2, of 2, 2 and 1 on 3, and five blocks of 1 on 8
    cfg = small_config(tm.log_loglog_power_tail(0.5), p=0.5, q=0.25, n_max=1 << 17,
                       reps=5, seed=21, mode=mode)
    want = mc.run_paths(cfg, workers=1).to_csv()
    for workers in (2, 3, 8):
        assert mc.run_paths(cfg, workers=workers).to_csv() == want, workers


def test_censoring_inside_a_block_ends_that_row_alone():
    # pareto(0.02) at seed 4: replication 4 overflows in the first of two
    # chunks, between checkpoints 2^15 and 2^16, and the other four of its
    # block stream on to n_max.  Its row is what streaming it alone gives (a
    # block of one on 8 workers): the first chunk's checkpoints, non-finite
    # from the overflow on, then NaN at 2^17, which no chunk reached
    cfg = small_config(tm.pareto(0.02), p=0.5, q=0.5, n_max=1 << 17, reps=5, seed=4)
    block, alone = mc.run_paths(cfg, workers=1), mc.run_paths(cfg, workers=8)
    assert block.censoring_report()["censored_ids"] == [4]
    for row in (block.s_norm[4], block.w_partial[4]):
        assert np.isfinite(row).tolist() == [True] * 16 + [False] * 2 and np.isnan(row[-1])
    assert np.all(np.isfinite(block.s_norm[:4])) and np.all(np.isfinite(block.w_partial[:4]))
    assert block.to_csv() == alone.to_csv()


def test_a_block_plans_each_chunk_position_once(monkeypatch):
    # 8 replications on 2 workers are two blocks of 4, and 2^17 steps are two
    # chunks: the n^e1 row and the cut points are built 4 times, not 16
    plans = []
    plan = mc.kernels.Workspace.plan
    monkeypatch.setattr(mc.kernels.Workspace, "plan",
                        lambda work, n0, *args: plans.append(n0) or plan(work, n0, *args))
    cfg = small_config(tm.rademacher(), p=1.5, q=0.5, n_max=1 << 17, reps=8, seed=3)
    mc.run_paths(cfg, workers=2)
    assert sorted(plans) == [0, 0, mc._CHUNK, mc._CHUNK]


def test_run_paths_takes_1_to_64_workers():
    cfg = small_config(tm.rademacher(), reps=2)  # a missed check starts at most 2 threads
    for workers in (0, 65):
        with pytest.raises(ConfigError,
                           match=r"--workers must be an integer at least 1 and at most 64"):
            mc.run_paths(cfg, workers=workers)


def test_nonnegative_stream_draws_no_sign_uniforms():
    # two chunks of a nonnegative model: the increments are one unbroken
    # magnitude stream, with no sign uniforms interleaved between chunks
    model = tm.pareto(2.0, "nonnegative")
    cfg = small_config(model, p=1.0, q=0.5, n_max=1 << 17, reps=2, seed=13)
    table = mc.run_paths(cfg)
    sampler = mc.MagnitudeSampler(model)
    for r in range(cfg.replications):
        gen = rng.generator(cfg.master_seed, r, rng.ROLE_PATH)
        s_ref = np.cumsum(sampler(rng.open_uniforms(gen, np.empty(cfg.n_max))))
        np.testing.assert_allclose(table.s_norm[r], s_ref[cfg.checkpoints - 1], rtol=1e-12)


# a power from 0 down to 1/2 at t = 4, then a power-log piece: a chunk's
# uniforms fall in both pieces, so inverse_survival gathers each piece's
# uniforms and scatters its roots
TWO_PIECE = tm.load_model({
    "name": "power-then-log", "sign_law": {"kind": "custom", "negative_prob": 0.3},
    "pieces": [
        {"t_lo": 0.0, "t_hi": 4.0, "formula_id": "power",
         "params": {"scale": 1.0, "power": 0.5}},
        {"t_lo": 4.0, "t_hi": None, "formula_id": "power-log",
         "params": {"scale": math.log(4.0), "power": 0.5, "log_power": 1.0}},
    ]})


def contract_draws(gen, model, size, point_mass=None):
    """The draw contract spelled out: `size` magnitudes, the constant
    `point_mass` where it is given (no draws) and else one uniform each;
    then the signs.  A fair sign is bit j of raw word k for draw 64k + j, a
    set bit negative; any other sign law is np.where(u < P(X < 0), -mag, mag)."""
    if point_mass is None:
        mag = mc.MagnitudeSampler(model)(1.0 - gen.random(size))
    else:
        mag = np.full(size, point_mass)
    threshold = model.negative_prob
    if threshold == 0.5:
        words = gen.bit_generator.random_raw(-(-size // 64))
        bits = (words[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        return np.where(bits.reshape(-1)[:size] == 1, -mag, mag)
    if threshold > 0.0:
        return np.where(gen.random(size) < threshold, -mag, mag)
    return mag


def test_signed_stream_draws_chunk_by_chunk(monkeypatch):
    # two chunks of a signed model: each chunk is one draw_batch call of
    # _CHUNK draws per stream, its magnitude uniforms first (none for
    # rademacher's point mass) and then its sign bits or sign uniforms; a
    # symmetrized chunk is the path stream's draws less the copy stream's.
    # The stream reuses one set of buffers; the reference allocates.
    seen = []
    accumulate = mc.kernels.accumulate_chunk

    def record(x, *args):
        seen.append(np.array(x))
        return accumulate(x, *args)

    monkeypatch.setattr(mc.kernels, "accumulate_chunk", record)
    for model, mode, point_mass in ((tm.rademacher(), "symmetrized", 1.0),
                                    (tm.pareto(2.0), "plain", None),
                                    (tm.log_loglog_power_tail(0.5), "symmetrized", None),
                                    (TWO_PIECE, "symmetrized", None)):
        cfg = small_config(model, p=1.0, q=0.5, n_max=2 * mc._CHUNK, reps=2, seed=13,
                           mode=mode)
        seen.clear()
        mc.run_paths(cfg)
        roles = [rng.ROLE_PATH] + ([rng.ROLE_COPY] if mode == "symmetrized" else [])
        assert model.negative_prob > 0.0 and len(seen) == 2 * cfg.replications
        for r in range(cfg.replications):
            gens = [rng.generator(cfg.master_seed, r, role) for role in roles]
            # one block streams its replications in lockstep: chunk c of
            # replication r is call c * replications + r
            for chunk in seen[r::cfg.replications]:
                signed = [contract_draws(gen, model, mc._CHUNK, point_mass) for gen in gens]
                want = signed[0] - signed[1] if len(signed) > 1 else signed[0]
                # bit for bit, so a zero's sign counts too
                np.testing.assert_array_equal(chunk.view(np.int64), want.view(np.int64))
    # TWO_PIECE's draws use both pieces: the magnitudes of the first chunk
    mag = mc.MagnitudeSampler(TWO_PIECE)(1.0 - rng.generator(13, 0).random(mc._CHUNK))
    assert np.any(mag < 4.0) and np.any(mag > 4.0)


def test_point_mass_is_found_from_the_inverse_route():
    # the magnitude is a point mass exactly when every u lands in one constant piece
    point = tm.load_model({"name": "at 2", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": 2.0, "formula_id": "constant", "params": {"value": 1.0}},
        {"t_lo": 2.0, "t_hi": None, "formula_id": "constant", "params": {"value": 0.0}}]})
    two_point = tm.load_model({"name": "0 or 2", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": 2.0, "formula_id": "constant", "params": {"value": 0.5}},
        {"t_lo": 2.0, "t_hi": None, "formula_id": "constant", "params": {"value": 0.0}}]})
    masses = {model.name: mc.MagnitudeSampler(model).point_mass for model in (
        tm.rademacher(), tm.degenerate(3.0), tm.zero(), point, two_point, tm.pareto(2.0))}
    assert masses == {"rademacher": 1.0, "degenerate(value=3)": 3.0, "zero": 0.0,
                      "at 2": 2.0, "0 or 2": None, "pareto(alpha=2)": None}


@pytest.mark.parametrize("model, mass, size, words", [
    (tm.rademacher(), 1.0, 1, 1), (tm.rademacher(), 1.0, 64, 1),
    (tm.rademacher(), 1.0, 100, 2), (tm.rademacher(), 1.0, mc._CHUNK, mc._CHUNK // 64),
    (tm.degenerate(2.0), 2.0, mc._CHUNK, 0), (tm.zero(), 0.0, 100, 0),
    (tm.degenerate(2.0, "symmetric"), 2.0, 65, 2),
], ids=lambda v: getattr(v, "name", v))
def test_point_mass_chunk_advances_its_stream_by_its_sign_words(model, mass, size, words):
    # a point mass draws no magnitude: a fair-sign chunk of m steps takes
    # ceil(m / 64) Philox words, a nonnegative one none
    gen, fresh = rng.generator(5, 0), rng.generator(5, 0)
    buffers = mc.ChunkBuffers(size, 1)
    got = mc.draw_batch(gen, mc.MagnitudeSampler(model), model.negative_prob,
                        buffers.draws[0], buffers)
    np.testing.assert_array_equal(np.abs(got), np.full(size, mass))
    assert gen.bit_generator.random_raw() == fresh.bit_generator.random_raw(words + 1)[-1]


def test_fair_signs_discard_the_spare_bits_of_the_last_word():
    # two batches of 100 fair signs take words 0-1 and then 2-3: the 28 high
    # bits of words 1 and 3 sign nothing
    model = tm.pareto(2.0)
    gen, ref = rng.generator(9, 4), rng.generator(9, 4)
    buffers = mc.ChunkBuffers(100, 1)
    sampler = mc.MagnitudeSampler(model)
    for _ in range(2):
        got = mc.draw_batch(gen, sampler, 0.5, buffers.draws[0], buffers)
        np.testing.assert_array_equal(got.view(np.int64),
                                      contract_draws(ref, model, 100).view(np.int64))
    assert gen.bit_generator.random_raw() == ref.bit_generator.random_raw()


class _PresetGenerator:
    """Stands in for a Generator: `random` hands out preset values in order,
    and `bit_generator.random_raw` preset words."""

    def __init__(self, *draws, words=()):
        self.draws = list(draws)
        self.bit_generator = self
        self.words = np.array(words, dtype=np.uint64)

    def random(self, out):
        vals = np.asarray(self.draws.pop(0), dtype=float)
        assert vals.size == out.size
        out[...] = vals
        return out

    def random_raw(self, size):
        assert size == self.words.size
        return self.words


@pytest.mark.parametrize("threshold", [0.5, 0.3, 1e-12, 1.0])
def test_copysign_sign_rule_is_the_where_rule(threshold):
    # signs by copysign(mag, u - threshold) are np.where(u < threshold, -mag,
    # mag) bit for bit: at u == threshold, at the floats next to it, on zero,
    # subnormal and infinite magnitudes.  A fair sign (0.5) takes bit j of
    # the one raw word instead, a set bit negative, on the same magnitudes;
    # the word's set bits past the batch sign nothing.
    tiny = 5e-324
    us = np.array([0.0, tiny, threshold, np.nextafter(threshold, 0.0),
                   np.nextafter(threshold, 2.0), 0.999999, 0.5, 1e-300])
    us = us[us < 1.0]  # a Generator draws from [0, 1)
    mags = np.resize([0.0, tiny, np.inf, 1.0, 3.5], us.size)

    def sampler(u, out, scratch):
        out[...] = mags
        return out

    sampler.point_mass = None
    buffers = mc.ChunkBuffers(us.size, 1)
    if threshold == 0.5:
        word = 0b1001_0110 | 0xFF << 56
        want = np.where([(word >> j) & 1 for j in range(us.size)], -mags, mags)
        gen = _PresetGenerator(np.zeros(us.size), words=[word])
    else:
        want = np.where(us < threshold, -mags, mags)
        gen = _PresetGenerator(np.zeros(us.size), us)
    got = mc.draw_batch(gen, sampler, threshold, buffers.draws[0], buffers)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("model, p, q, mode", [
    (tm.log_loglog_power_tail(0.5), 0.5, 0.25, "symmetrized"),
    (tm.pareto(2.0), 1.0, 0.5, "plain"),
], ids=lambda v: getattr(v, "name", v))
def test_streaming_touches_no_new_pages_per_chunk(model, p, q, mode):
    # a replication reuses one set of chunk buffers, so streaming 8 times as
    # many chunks takes no more minor page faults (each fresh chunk-sized
    # temporary would fault in 128 pages)
    resource = pytest.importorskip("resource")

    def faults(n_max):
        cfg = small_config(model, p=p, q=q, n_max=n_max, reps=2, seed=3, mode=mode)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        mc.run_paths(cfg, workers=1)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults(1 << 17)  # the model's tables and the allocator's first arenas
    assert faults(1 << 20) - faults(1 << 17) <= 1000


def count_threads(monkeypatch) -> list:
    """Make `parallel_map` record every thread it starts in the list returned."""
    started = []

    class Thread(mc.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(mc, "Thread", Thread)
    return started


def test_parallel_map_pool_never_outnumbers_items(monkeypatch):
    started, sizes = count_threads(monkeypatch), []
    for items, workers, want in [(range(3), 64, [0, 1, 4]), (range(1), 64, [0]),
                                 (range(5), 2, [0, 1, 4, 9, 16])]:
        before = len(started)
        assert mc.parallel_map(lambda v: v * v, items, workers) == want
        if len(started) > before:  # a single item runs in the caller's thread
            sizes.append(len(started) - before)
    assert sizes == [3, 2]


def test_parallel_map_keeps_the_input_order(monkeypatch):
    # item 0 finishes last: it waits until item 7 is done
    started, done, last = count_threads(monkeypatch), [], threading.Event()

    def square(k):
        if k == 0:
            assert last.wait(timeout=60)
        done.append(k)
        if k == 7:
            last.set()
        return k * k

    assert mc.parallel_map(square, range(8), 4) == [k * k for k in range(8)]
    assert len(started) == 4 and done[-1] == 0 and sorted(done) == list(range(8))


def test_parallel_map_raises_the_lowest_index_failure_after_every_thread_joins(monkeypatch):
    started, done = count_threads(monkeypatch), []

    def fail_odd(k):
        time.sleep(0.01 if k == 1 else 0.0)  # item 3 fails first
        done.append(k)
        if k % 2:
            raise ValueError(f"item {k}")
        return k

    with pytest.raises(ValueError, match="item 1"):
        mc.parallel_map(fail_odd, range(4), 4)
    assert len(started) == 4 and not any(t.is_alive() for t in started) and 1 in done


def test_parallel_map_runs_each_item_once_under_fast_thread_switches():
    # more threads than cores and a switch every microsecond: a lost update
    # of the shared item order would run an item twice or not at all
    calls, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = mc.parallel_map(lambda k: calls.append(k) or -k, range(3000), 8)
    finally:
        sys.setswitchinterval(interval)
    assert got == [-k for k in range(3000)] and sorted(calls) == list(range(3000))


@given(st.integers(1, 64).flatmap(lambda m: st.tuples(
    st.lists(st.floats(1e-300, 1e300) | st.just(0.0), min_size=1, max_size=m),
    st.lists(st.integers(0, 63), min_size=3 * m, max_size=3 * m))))
@settings(max_examples=200, deadline=None)
def test_summary_order_statistics_match_numpy_bit_for_bit(case):
    # m rows and 3 columns drawn from a pool of at most m values, so columns
    # hold ties; each statistic comes from the columns sorted once
    pool, picks = case
    rows = np.array([pool[k % len(pool)] for k in picks]).reshape(-1, 3)
    ordered = np.sort(rows, axis=0)
    got = [mc._median(ordered), mc._percentile(ordered, 0.75), mc._percentile(ordered, 0.25)]
    want = [np.median(rows, axis=0), *np.percentile(rows, [75, 25], axis=0)]
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))


@pytest.mark.parametrize("n_upto,reps,name", [(0, 10, "n_upto"), (3, 0, "replications")],
                         ids=["no-steps", "no-paths"])
def test_dense_ratio_moments_rejects_empty_input(n_upto, reps, name):
    with pytest.raises(ValueError,
                       match=rf"^{name} must be an integer at least 1 and at most 2\^53, got 0$"):
        mc.dense_ratio_moments(tm.pareto(1.5), [(1.0, 0.5)], n_upto, reps, 3)


def test_dense_ratio_moments_draws_block_b_from_probe_stream_b():
    # blocks of 4096 and 4 paths of n = 3 signed pareto steps: block b is its
    # magnitudes and then its sign bits, drawn whole from probe stream b (the
    # 12 signs of the short block use 12 bits of one word)
    model, pairs, n, reps = tm.pareto(1.5), [(1.0, 0.5), (1.5, 1.0)], 3, 4100
    sums, sumsq = np.zeros((2, len(pairs), n))
    for b, size in enumerate((4096, 4)):
        x = contract_draws(rng.generator(3, b, rng.ROLE_PROBE), model, size * n)
        s = np.abs(np.cumsum(x.reshape(size, n), axis=1))
        for j, (p, q) in enumerate(pairs):
            rq = (s / np.arange(1.0, n + 1) ** (1.0 / p)) ** q
            sums[j] += rq.sum(axis=0)
            sumsq[j] += (rq**2).sum(axis=0)
    for (mean, se), total, total_sq in zip(mc.dense_ratio_moments(model, pairs, n, reps, 3),
                                          sums, sumsq):
        np.testing.assert_array_equal(mean, total / reps)
        var = np.maximum(total_sq / reps - mean**2, 0.0)
        np.testing.assert_array_equal(se, np.sqrt(var / reps))


def test_w_monotone_per_replication():
    cfg = small_config(tm.log_loglog_power_tail(0.5), p=0.5, q=0.5,
                       n_max=1 << 12, reps=16, seed=5)
    table = mc.run_paths(cfg, workers=4)
    assert np.all(np.diff(table.w_partial, axis=1) >= -1e-15)


def test_small_n_against_exact_enumeration():
    # every dyadic checkpoint n = 1 .. 2^10 vs the exact binomial mean
    # E|S_n| / n = sum_k C(n, k) |2k - n| / (2^n n), 4 SE band
    cfg = small_config(tm.rademacher(), p=1.0, q=1.0, n_max=1 << 10,
                       reps=20_000, seed=71)
    table = mc.run_paths(cfg, workers=4)
    est = mc.summary_dict(table)["estimates"]
    assert [e["n"] for e in est] == [1 << k for k in range(11)]
    for e in est:
        n = e["n"]
        exact = float(Fraction(sum(math.comb(n, k) * abs(2 * k - n) for k in range(n + 1)),
                               2**n * n))
        band = 4.0 * e["se_mean_rq"]
        diff = abs(e["mean_rq"] - exact)
        assert diff <= max(band, 1e-12), (n, e["mean_rq"], exact)


def test_overflow_censoring_reported_not_fatal():
    cfg = small_config(tm.pareto(0.01), p=0.5, q=0.5, n_max=1 << 10, reps=16, seed=2)
    table = mc.run_paths(cfg)
    report = table.censoring_report()
    assert 0 < report["censored"] < report["replications"]
    summary = mc.summary_dict(table)
    assert summary["censoring"] == report
    assert all(np.isfinite(e["mean_rq"]) for e in summary["estimates"])


# ---------------------------------------------------------------------------
# growth verdict
# ---------------------------------------------------------------------------


def median_abs_rademacher_sum(n: int) -> int:
    """The population (lower) median of |S_n| = |2B - n|, B ~ Binomial(n, 1/2):
    the pmf from the center k0 = ceil(n/2) outward by cumulative log ratios
    C(n, k)/C(n, k - 1) = (n - k + 1)/k, each |2k - n| > 0 taken twice."""
    k0 = (n + 1) // 2
    k = np.arange(k0 + 1, n + 1, dtype=float)
    rel = np.exp(np.concatenate([[0.0], np.cumsum(np.log((n - k + 1.0) / k))]))
    mass = 2.0 * rel
    if 2 * k0 == n:
        mass[0] = rel[0]
    cdf = np.cumsum(mass) / mass.sum()
    return 2 * (k0 + int(np.argmax(cdf >= 0.5))) - n


def test_exact_median_matches_integer_binomials():
    for n in (1, 2, 3, 4, 7, 1 << 10):
        mass = {}
        for k in range(n + 1):
            mass[abs(2 * k - n)] = mass.get(abs(2 * k - n), 0) + math.comb(n, k)
        below, median = 0, None
        for m in sorted(mass):
            below += mass[m]
            if median is None and 2 * below >= 2**n:
                median = m
        assert median_abs_rademacher_sum(n) == median


@pytest.mark.parametrize("p,q,rho,kind", [
    (1.5, 0.5, 0.9441, cr.INCONCLUSIVE), (0.7, 0.35, 0.7984, cr.CONVERGES),
    (1.0, 0.5, 0.8411, cr.CONVERGES), (1.0, 1.0, 0.7075, cr.CONVERGES),
    (1.5, 1.0, 0.8914, cr.CONVERGES)])
def test_verdict_rule_on_exact_rademacher_curves(p, q, rho, kind):
    # the harmonic-block curve of the population median r^q that `summary_dict`
    # classifies, exact at every dyadic n <= 2^20: what the rule says with no
    # noise at all.  At (1.5, 0.5) median r^q ~ n^(-1/12), so rho ~ 2^(-1/12),
    # inside the abstention band: the best a Rademacher run there can do
    ns = 2 ** np.arange(21)
    med_rq = (np.array([median_abs_rademacher_sum(int(n)) for n in ns]) / ns ** (1.0 / p)) ** q
    weights = np.diff(mc.harmonic(ns), prepend=0.0)
    verdict = mc.growth_verdict(ns, np.cumsum(weights * med_rq))
    assert verdict.kind == kind
    assert verdict.diagnostics["rho"] == pytest.approx(rho, abs=5e-5)


def test_harmonic_matches_exact_sums():
    # the fsum table below 64 and Euler-Maclaurin above, against exact H_n
    exact, worst = Fraction(0), 0.0
    for n in range(1, 400):
        exact += Fraction(1, n)
        worst = max(worst, abs(Fraction(mc.harmonic(n)) - exact) / exact)
    assert worst <= 1e-15


def test_growth_verdict_cases():
    ns = 2 ** np.arange(0, 21)
    flat = np.full(ns.size, 2.5)
    assert mc.growth_verdict(ns, flat).kind == cr.CONVERGES
    harmonic = mc.harmonic(ns)
    assert mc.growth_verdict(ns, harmonic).kind == cr.DIVERGES
    # alternating bounded partial sums with vanishing increments
    alternating = 1.0 + np.cumsum((-0.5) ** np.arange(ns.size))
    assert mc.growth_verdict(ns, alternating).kind == cr.CONVERGES
    geo = 3.0 - 2.0 ** -np.arange(ns.size, dtype=float)
    v = mc.growth_verdict(ns, geo)
    assert v.kind == cr.CONVERGES and v.remainder_bound is not None


def test_mz_implication_on_convergent_run():
    # when the W path converges, the edge ratio has drifted down
    cfg = small_config(tm.rademacher(), p=0.7, q=0.35, n_max=1 << 14, reps=64, seed=9)
    table = mc.run_paths(cfg, workers=4)
    assert mc.summary_dict(table)["w_verdict"]["kind"] == cr.CONVERGES
    k10 = int(np.log2(1 << 10))
    assert np.median(table.ratio[:, -1]) <= np.median(table.ratio[:, k10])


def test_summary_verdict_marginal_zone_abstains():
    # ratio decay n^(-1/6) gives a per-doubling ratio 2^(-1/6) = 0.944, which
    # coincides numerically with the transient decay of the divergent
    # marginal laws; the classifier must therefore abstain rather than guess
    # (and must never call divergence on this convergent run)
    cfg = small_config(tm.rademacher(), p=1.5, q=0.5, n_max=1 << 16,
                       reps=512, seed=101)
    table = mc.run_paths(cfg, workers=8)
    verdict = mc.summary_dict(table)["w_verdict"]
    assert verdict["kind"] in (cr.CONVERGES, cr.INCONCLUSIVE)
    rho = verdict["diagnostics"].get("rho")
    assert rho is not None and 0.9 < rho < 1.0


@pytest.mark.parametrize("model,p,q,seed", [
    (tm.pareto(0.5), 0.5, 0.5, 1000),
    (tm.pareto(0.5), 0.5, 0.5, 1032),
    (tm.pareto(0.5), 0.5, 0.25, 1022),
    (tm.log_loglog_power_tail(0.5), 0.5, 0.25, 1022),
], ids=["critical-qp-1000", "critical-qp-1032", "critical-qlt-1022", "loglog-1022"])
def test_noise_level_increments_do_not_read_converges(model, p, q, seed):
    # NonMembers at criterion 13's size whose late block increments lie within
    # 3 interquartile standard errors of zero, one with fitted rho 1.21: only
    # exact zeros or a confident rho fit may say Converges
    cfg = small_config(model, p=p, q=q, n_max=1 << 20, reps=8, seed=seed)
    verdict = mc.summary_dict(mc.run_paths(cfg, workers=2))["w_verdict"]
    assert verdict["kind"] != cr.CONVERGES


# ---------------------------------------------------------------------------
# estimates and block series
# ---------------------------------------------------------------------------


def test_estimate_zero_series():
    cfg = small_config(tm.zero())
    est = mc.summary_dict(mc.run_paths(cfg))["estimates"]
    assert est[-1]["block_lower"] == 0.0 and est[-1]["block_upper"] == 0.0


def test_block_proxies_bracket():
    cfg = small_config(tm.rademacher(), p=1.5, q=0.5, n_max=1 << 12, reps=128, seed=13)
    est = mc.summary_dict(mc.run_paths(cfg, workers=4))["estimates"]
    # E r^q decays, so right-edge sums are below left-edge sums
    assert all(e["block_lower"] <= e["block_upper"] + 1e-12 for e in est)


def test_symmetrize_degenerate_is_zero():
    table = mc.run_paths(small_config(tm.degenerate(2.5), mode="symmetrized"))
    assert np.all(table.s_norm == 0.0) and np.all(table.w_partial == 0.0)


def test_symmetrize_pareto_mean_zero():
    # |mean of symmetrized draws| = |S_n|/n within 4 sd(X - X')/sqrt(n)
    cfg = small_config(tm.pareto(3.0, "nonnegative"), p=1.0, q=1.0,
                       n_max=1 << 14, reps=8, seed=17, mode="symmetrized")
    table = mc.run_paths(cfg)
    n = 1 << 14
    sd = math.sqrt(2.0 * 0.75)  # Var(X) = E X^2 - (E X)^2 = 3 - 2.25
    for r in range(8):
        assert table.s_norm[r, -1] / n <= 4.0 * sd / math.sqrt(n)


def test_symmetrized_two_point_law():
    # difference of two fair signs: {-2, 0, 2} with masses {1/4, 1/2, 1/4}
    conv = oracles.rademacher_law().difference
    masses = {float(v): p for v, p in conv.atoms}
    assert masses == {-2.0: Fraction(1, 4), 0.0: Fraction(1, 2), 2.0: Fraction(1, 4)}
    cfg = small_config(tm.rademacher(), n_max=1 << 10, reps=4000, seed=23,
                       mode="symmetrized")
    table = mc.run_paths(cfg)
    draws = table.s_norm[:, 0]  # |X_1 - X_1'| at n = 1
    for value, prob in ((0.0, 0.5), (2.0, 0.5)):
        emp = float(np.mean(draws == value))
        assert abs(emp - prob) <= 4.0 * math.sqrt(prob * (1 - prob) / 4000)


def test_w_verdict_consistent_with_membership():
    # member model with visibly vanishing ratios: the W verdict must not
    # contradict the membership
    model = tm.rademacher()
    assert cr.classify_slln(model, 0.7, 0.35).membership == cr.MEMBER
    table = mc.run_paths(small_config(model, p=0.7, q=0.35, n_max=1 << 12,
                                      reps=64, seed=4), workers=4)
    ratios = np.median(table.ratio, axis=0)
    assert ratios[-1] < 0.1 * ratios[2]  # ratios vanish empirically
    assert mc.summary_dict(table)["w_verdict"]["kind"] != cr.DIVERGES


def test_marginal_series_empirical_cross_check():
    # The analytic side proves divergence of the critically truncated series.
    # At (p, p) that divergence is a triple logarithm and a desk window
    # legitimately reads as convergent, so the empirical cross-check is run
    # at (p, p/2), where the same model's membership failure is visible: the
    # verdicts must not contradict there.
    model = tm.log_loglog_power_tail(0.5)
    _, analytic = cr.truncated_series(model, 0.5, 20_000)
    assert analytic.kind == cr.DIVERGES
    assert cr.integral_pq(model, 0.5, 0.25).kind == cr.DIVERGES
    cfg = small_config(model, p=0.5, q=0.25, n_max=1 << 16, reps=48, seed=7)
    table = mc.run_paths(cfg, workers=4)
    assert mc.summary_dict(table)["w_verdict"]["kind"] in (cr.DIVERGES, cr.INCONCLUSIVE)


def test_csv_shape_and_floats():
    cfg = small_config(tm.rademacher(), n_max=1 << 10, reps=2, seed=1)
    csv = mc.run_paths(cfg).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "replication,n,s_norm,ratio,w_partial"
    assert len(lines) == 1 + 2 * 11
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"
    float(first[2]), float(first[3]), float(first[4])
