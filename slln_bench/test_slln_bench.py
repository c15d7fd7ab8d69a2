"""Fast tests of the benchmark itself: its references and its output checks.

    python3 -m pytest slln_bench

None of these runs pqslln.
"""

from __future__ import annotations

import json
import math
import os

import mpmath
import pytest

import layers
import reference as ref
import run
import workloads as wl

T = wl.T_CAP
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,q", [(1.0, 0.5), (1.0, 1.0), (1.5, 0.5), (1.5, 1.0)])
def test_binomial_moments_match_sign_enumeration(p, q):
    for n in range(1, 13):
        assert abs(ref.rademacher_moment(n, p, q) - ref.brute_force_moment(n, p, q)) <= 1e-12


def test_abs_sum_law_is_a_law_of_even_or_odd_integers():
    for n in (1, 2, 7, 12, 1000, 1 << 20):
        values, probs = ref.abs_sum_law(n)
        assert abs(math.fsum(probs) - 1.0) <= 1e-8
        assert all(int(v) % 2 == n % 2 and v <= n for v in values)


def test_chernoff_band_bounds_the_exact_false_alarm_rate():
    assert ref.chernoff_band(*ref.abs_sum_law(1), 8, 1e-9) == (1.0, 0.0, 0.0)
    # |S_4| takes 0, 2, 4; the mean of m copies has an exactly computable law
    values, probs = ref.abs_sum_law(4)
    m, alpha = 8, 1e-3
    mu, lo, hi = ref.chernoff_band(values, probs, m, alpha)
    law = {0.0: 1.0}
    for _ in range(m):
        nxt = {}
        for total, pt in law.items():
            for v, pv in zip(values, probs):
                nxt[total + v] = nxt.get(total + v, 0.0) + pt * pv
        law = nxt
    above = math.fsum(pr for total, pr in law.items() if total / m > mu + hi)
    below = math.fsum(pr for total, pr in law.items() if total / m < mu - lo)
    assert above <= alpha and below <= alpha
    assert 0.0 < mu - lo and mu + hi < 4.0   # narrower than the support


def test_pareto_closed_forms():
    pareto2 = ref.tail_from_spec({"builtin": "pareto", "params": {"alpha": 2.0}})
    assert ref.pareto_p_moment(2.0, 1.0) == 2.0
    assert ref.window_integral(pareto2, 1.0, 0.5, T) == pytest.approx(2.0, abs=2e-12)
    for alpha, p in ((2.0, 1.0), (3.0, 1.5), (1.5, 0.5)):
        direct = mpmath.quad(lambda t: p * t ** (p - 1) * ref.survival_mp(
            ref.RefTail("pareto", 1.0, 1.0, alpha), t), [0, 1, mpmath.inf])
        assert float(direct) == pytest.approx(ref.pareto_p_moment(alpha, p), rel=1e-8)


@pytest.mark.parametrize("spec,p,q", [
    ({"builtin": "pareto", "params": {"alpha": 0.5}}, 0.5, 0.5),
    ({"builtin": "log-power", "params": {"power": 0.5, "log_power": 2.0}}, 0.5, 0.5),
    ({"builtin": "log-loglog-power", "params": {"power": 0.5}}, 0.5, 0.5),
    ({"custom": wl.README_CUSTOM_MODEL}, 0.5, 0.5),
    ({"builtin": "rademacher"}, 1.5, 0.5),
])
def test_window_integrals_match_quadrature(spec, p, q):
    tail = ref.tail_from_spec(spec)
    cap = 1e6
    with mpmath.workdps(30):
        f = lambda t: ref.survival_mp(tail, t ** (1 / mpmath.mpf(q))) ** (mpmath.mpf(q) / p)
        knee = tail.bound if tail.bound is not None else tail.knee ** q
        pts = [0, knee] + [mpmath.mpf(10) ** k for k in range(1, 7) if 10**k > knee]
        direct = float(mpmath.quad(f, pts))
    assert ref.window_integral(tail, p, q, cap) == pytest.approx(direct, rel=1e-9)


@pytest.mark.parametrize("spec", [
    {"builtin": "pareto", "params": {"alpha": 2.0}},
    {"builtin": "log-power", "params": {"power": 0.5, "log_power": 2.0}},
    {"builtin": "log-loglog-power", "params": {"power": 0.5}},
])
def test_mpmath_inverse_inverts_the_survival(spec):
    tail = ref.tail_from_spec(spec)
    for u in (1.0, 0.5, 1e-3, 2.0**-40, 2.0**-53):
        t = ref.inverse_survival_mp(tail, u)
        assert float(ref.survival_mp(tail, t)) == pytest.approx(u, rel=1e-13)


# Expected memberships, derived by hand in README.md.
EXPECTED = {
    "pareto2": "Member", "rademacher": "Member", "pareto05": "NonMember",
    "logpower-as": "Member", "logpower-exp": "NonMember",
    "loglog-as": "NonMember", "loglog-exp": "NonMember", "loglog-q025": "NonMember",
    "logpower025-q025": "NonMember", "readme-custom": "Member",
}


def test_expected_membership_table():
    for label, model, p, q, criterion in wl.CriteriaGrid.grid:
        got = ref.expected_membership(ref.tail_from_spec(model), p, q, criterion)
        assert got == EXPECTED[label], label
    simulate = {"rademacher": "Member", "pareto": "Member", "log-power": "Member",
                "log-loglog-power": "NonMember"}
    for label, model, p, q, _ in wl.SimulateStream.configs:
        got = ref.expected_membership(ref.tail_from_spec(model), p, q, "almost-sure")
        assert got == simulate[label], label


# ---------------------------------------------------------------------------
# output checks reject corrupted outputs
# ---------------------------------------------------------------------------


def rademacher_rows(n_max=16, reps=2):
    """A valid table: every replication alternates +1, -1, so |S_n| = n mod 2."""
    rows = []
    for r in range(reps):
        w = 0.0
        for k in range(n_max.bit_length()):
            n = 1 << k
            s = float(n % 2)
            w += (s / n ** (1 / 1.5)) ** 0.5 / n + 1e-3
            rows.append((r, n, s, s / n ** (1 / 1.5), w))
    return rows


def wide_bands(rows):
    return [(n, 0.0, 10.0, 10.0) for n in sorted({row[1] for row in rows})]


def test_valid_table_passes():
    rows = rademacher_rows()
    assert wl.check_table("rademacher", rows, 1.5, 2, 16, set()) == []
    assert wl.check_rademacher(rows, 1.5, 0.5, wide_bands(rows)) == []


def test_decreasing_w_is_rejected():
    rows = rademacher_rows()
    r, n, s, x, w = rows[3]
    rows[3] = (r, n, s, x, rows[2][4] / 2)
    assert any("W decreased" in e for e in wl.check_table("rademacher", rows, 1.5, 2, 16, set()))
    # a censored replication is exempt
    assert wl.check_table("rademacher", rows, 1.5, 2, 16, {0}) == []


def test_wrong_ratio_is_rejected():
    rows = rademacher_rows()
    r, n, s, x, w = rows[0]
    rows[0] = (r, n, s, x * (1 + 1e-12), w)
    assert wl.check_table("rademacher", rows, 1.5, 2, 16, set())


def test_non_integer_rademacher_sum_is_rejected():
    for bad in (0.5, 3.0, 17.0):   # not an integer; wrong parity; more than n
        rows = rademacher_rows()
        r, n, s, x, w = rows[4]          # n = 16
        rows[4] = (r, n, bad, bad / n ** (1 / 1.5), w)
        assert any("impossible" in e for e in
                   wl.check_rademacher(rows, 1.5, 0.5, wide_bands(rows))), bad


def test_mean_outside_band_is_rejected():
    rows = rademacher_rows()
    tight = [(n, 5.0, 0.0, 0.0) for n, *_ in wide_bands(rows)]
    assert wl.check_rademacher(rows, 1.5, 0.5, tight)


def criteria_outputs(tmp_path):
    """Outputs a correct `criteria` would print, built from the references."""
    for label, model, p, q, criterion in wl.CriteriaGrid.grid:
        tail = ref.tail_from_spec(model)
        est = {k: ref.window_integral(tail, p, pp, T) or 1.0
               for k, pp in (("integral_verdict", q), ("p_moment_verdict", p))}
        table = None
        if criterion == "almost-sure" and abs(p - q) < 1e-12:
            table = {"partial_sums": [0.0, 0.0, 0.0] if label == "pareto05" else [1.0, 2.0, 3.0]}
        report = {"membership": EXPECTED[label], "series_table": table,
                  **{k: {"estimate_on_window": v} for k, v in est.items()}}
        (tmp_path / f"{label}.json").write_text(json.dumps(report))


def corrupt(path, edit):
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def test_criteria_checker(tmp_path):
    grid = wl.CriteriaGrid(0, str(tmp_path))
    criteria_outputs(tmp_path)
    assert grid.check_round(str(tmp_path)) == ([], 0)

    corrupt(tmp_path / "loglog-as.json", lambda r: r.update(membership="Member"))
    errors, _ = grid.check_round(str(tmp_path))
    assert any("loglog-as: membership Member" in e for e in errors)

    criteria_outputs(tmp_path)
    corrupt(tmp_path / "pareto05.json",
            lambda r: r["series_table"].update(partial_sums=[0.0, 1e-300, 0.0]))
    corrupt(tmp_path / "loglog-as.json",
            lambda r: r["series_table"].update(partial_sums=[1.0, 1.0, 2.0]))
    corrupt(tmp_path / "pareto2.json",
            lambda r: r["integral_verdict"].update(estimate_on_window=2.00001))
    errors, _ = grid.check_round(str(tmp_path))
    assert len(errors) == 3


def test_report_checker_rejects_a_flipped_membership():
    rows = [{"model": wl.report_name(m), "membership": ref.expected_membership(
        ref.tail_from_spec(m), p, q, "almost-sure")} for _, m, p, q, _ in
        wl.SimulateStream.configs]
    assert wl.check_report(rows, wl.SimulateStream.configs) == []
    rows[0]["membership"] = "NonMember"
    assert wl.check_report(rows, wl.SimulateStream.configs)
    assert wl.contradicts("Member", "Diverges") and wl.contradicts("NonMember", "Converges")
    assert not wl.contradicts("Member", "Inconclusive")


def test_verify_checker(tmp_path):
    oracles = wl.VerifyOracles(7, str(tmp_path))
    lemmas = [{"check": "max-inequality", "instance": "full lattice", "count": 61440,
               "holds": True},
              {"check": "symmetrization", "instance": "100 laws x 4 x 5", "violations": 0,
               "holds": True}]
    small = [{"check": "small-series", "instance": {"p": p, "q": q}, "holds": True}
             for p, q in oracles.small_series]
    mp = [{"check": "marcus-pisier", "instance": {}, "min_margin": 0.1, "holds": True}] * 3
    for name, results in (("lemmas", lemmas), ("small-series", small), ("marcus-pisier", mp)):
        (tmp_path / f"{name}.json").write_text(json.dumps({"results": results}))
    assert oracles.check_round(str(tmp_path)) == ([], 0)
    lemmas[0]["count"] = 61439
    mp = [dict(mp[0], min_margin=-1e-9)] + mp[1:]
    small[2]["holds"] = False
    for name, results in (("lemmas", lemmas), ("small-series", small), ("marcus-pisier", mp)):
        (tmp_path / f"{name}.json").write_text(json.dumps({"results": results}))
    errors, _ = oracles.check_round(str(tmp_path))
    assert len(errors) == 3


def test_exact_series_checker():
    good = [((1.0, 0.5, 12), [ref.brute_force_moment(n, 1.0, 0.5) for n in range(1, 13)])]
    assert wl.check_exact_series(good) == []
    bad = [((1.0, 0.5, 12), [v + 1e-11 for v in good[0][1]])]
    assert len(wl.check_exact_series(bad)) == 12


# ---------------------------------------------------------------------------
# tracing and the benchmark definition
# ---------------------------------------------------------------------------


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        30 |         80 |     scipy.special",
        "import time:        20 |        200 |   pqslln.mc_engine",
        "import time:        40 |         40 |   scipy.interpolate",
        "import time:        10 |        250 | pqslln.cli",
    ])
    assert layers.parse_importtime(text) == (250e-6, 120e-6)


def test_spans_self_time():
    from spans import Tracer

    class Box:
        @staticmethod
        def inner():
            return 1

        @staticmethod
        def outer():
            return Box.inner() + Box.inner()

    tracer = Tracer()
    tracer.wrap(Box, "inner", "inner", work=lambda a, k, r: 3)
    tracer.wrap(Box, "outer", "outer")
    assert Box.outer() == 2
    tracer.restore()
    assert Box.outer() == 2 and len(tracer.spans) == 3
    index = tracer.analysis()
    assert index.calls("inner") == 2 and index.work("inner") == 6
    assert index.descendants_named(index.outermost("outer")[0], "inner") == 2
    selfs = index.self_seconds()
    assert selfs["outer"] <= index.seconds("outer") - index.seconds("inner") + 1e-9


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layers.PER_LAYER
