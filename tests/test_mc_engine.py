import math
from fractions import Fraction

import numpy as np
import pytest

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
    with pytest.raises(ConfigError):
        small_config(tm.rademacher(), n_max=512)   # below 2^10
    with pytest.raises(ConfigError):
        small_config(tm.rademacher(), reps=1)
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
    # W is the harmonic number; check against an independent fsum
    h = math.fsum(1.0 / m for m in range(1, (1 << 12) + 1))
    assert table.w_partial[0, -1] == pytest.approx(h, rel=1e-13)


def test_determinism_across_worker_counts():
    cfg = small_config(tm.pareto(2.0), p=1.0, q=0.5, n_max=1 << 12, reps=8, seed=42)
    csv1 = mc.run_paths(cfg, workers=1).to_csv()
    csv2 = mc.run_paths(cfg, workers=2).to_csv()
    csv8 = mc.run_paths(cfg, workers=8).to_csv()
    assert csv1 == csv2 == csv8


def test_nonnegative_stream_draws_no_sign_uniforms():
    # two chunks of a nonnegative model: the increments are one unbroken
    # magnitude stream, with no sign uniforms interleaved between chunks
    model = tm.pareto(2.0, "nonnegative")
    cfg = small_config(model, p=1.0, q=0.5, n_max=1 << 17, reps=2, seed=13)
    table = mc.run_paths(cfg)
    sampler = mc.MagnitudeSampler(model)
    for r in range(cfg.replications):
        gen = rng.generator(cfg.master_seed, r, rng.ROLE_PATH)
        s_ref = np.cumsum(sampler(rng.open_uniforms(gen, cfg.n_max)))
        np.testing.assert_allclose(table.s_norm[r], s_ref[cfg.checkpoints - 1], rtol=1e-12)


def test_probe_blocks_one_stream_per_block():
    model = tm.rademacher()
    sampler = mc.MagnitudeSampler(model)
    threshold = model.sign_law.threshold
    blocks = list(mc.probe_blocks(model, 10, 4, 6, 3, threshold))
    assert [b.shape for b in blocks] == [(4, 6), (4, 6), (2, 6)]
    for b, block in enumerate(blocks):
        gen = rng.generator(3, b, rng.ROLE_PROBE)
        np.testing.assert_array_equal(block, mc.draw_batch(gen, sampler, threshold, block.shape))


def test_w_monotone_per_replication():
    cfg = small_config(tm.log_loglog_power_tail(0.5), p=0.5, q=0.5,
                       n_max=1 << 12, reps=16, seed=5)
    table = mc.run_paths(cfg, workers=4)
    assert np.all(np.diff(table.w_partial, axis=1) >= -1e-15)


def test_small_n_against_exact_enumeration():
    # dyadic checkpoints n in {1, 2, 4, 8} vs exact convolution, 4 SE band
    cfg = small_config(tm.rademacher(), p=1.0, q=1.0, n_max=1 << 10,
                       reps=20_000, seed=71)
    table = mc.run_paths(cfg, workers=4)
    exact = oracles.exact_series_small(oracles.rademacher_law(), 1.0, 1.0, 8)
    est = mc.summary_dict(table)["estimates"]
    for k, n in enumerate((1, 2, 4, 8)):
        e = est[k]
        band = 4.0 * e["se_mean_rq"]
        diff = abs(e["mean_rq"] - exact[n - 1])
        assert diff <= max(band, 1e-12), (n, e["mean_rq"], exact[n - 1])


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
    conv = oracles._convolve_difference(oracles.rademacher_law())
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
