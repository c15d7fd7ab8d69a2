"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; nothing is calibrated at run time.
"""

import json
import math
import time

import numpy as np
import pytest

from bisection import bisect_decreasing
from clause_facts import clause_facts
from pqslln import banach_lp as lp
from pqslln import cli
from pqslln import criteria as cr
from pqslln import mc_engine as mc
from pqslln import tail_models as tm


def report(number: int, description: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number:2d} {status}: {description}{tail}")
    assert ok, f"criterion {number} failed: {description} {tail}"


def test_criterion_01_quantile_exactness():
    started = time.perf_counter()
    worst = 0.0
    ns = np.arange(1, 10_001, dtype=float)
    for p in (0.3, 0.5, 0.9):
        model = tm.pareto(p)
        u = tm.quantiles_un(model, ns)
        worst = max(worst, float(np.max(np.abs(u**p - ns) / ns)))
        # spot-check the exact inverse against the test-side bisection
        sub = ns[::1111]
        u_bis, _ = bisect_decreasing(lambda t, m=model: tm.survival(m, t), 1.0 / sub,
                                     hi_seed=2.0)
        worst = max(worst, float(np.max(np.abs(u_bis**p - sub) / sub)),
                    float(np.max(np.abs(u[::1111] - u_bis) / u_bis)))
    elapsed = time.perf_counter() - started
    report(1, "critical-tail quantiles satisfy u_n^p = n to 1e-9",
           worst <= 1e-9 and elapsed < 5.0,
           f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_truncated_series_exact_zero():
    table, verdict = cr.truncated_series(tm.pareto(0.5), 0.5, 10_000)
    max_term = max(table.terms_at_checkpoints)
    ok = (max_term <= 1e-12 and table.partial_sums[-1] <= 1e-12
          and verdict.kind == cr.CONVERGES)
    report(2, "critical-tail truncation series is identically zero",
           ok, f"max term {max_term:.2e}, verdict {verdict.kind}")


def test_criterion_03_marginal_contrast():
    started = time.perf_counter()
    model = tm.log_loglog_power_tail(0.5)
    pm = cr.p_moment(model, 0.5)
    table, series = cr.truncated_series(model, 0.5, 100_000)
    sums = table.partial_sums
    strictly_increasing = all(b > a for a, b in zip(sums, sums[1:]))
    fact = clause_facts(model)(0.5, 0.5)
    no_contradiction = (fact.p_moment_finite is True and pm.kind != cr.DIVERGES
                        and fact.series_finite is False and series.kind != cr.CONVERGES)
    elapsed = time.perf_counter() - started
    ok = (pm.kind == cr.CONVERGES and series.kind == cr.DIVERGES
          and strictly_increasing and no_contradiction and elapsed < 60.0)
    report(3, "marginal tail: finite p-moment with divergent truncation series",
           ok, f"p_moment {pm.kind}, series {series.kind}, partials {sums}, {elapsed:.1f}s")


def test_criterion_04_membership_split():
    p = 0.5
    member = cr.classify_slln(tm.log_power_tail(p, 2.0), p, p)
    splits = []
    for frac in (0.5, 0.8):
        q = frac * p
        model = tm.log_power_tail(power=q, log_power=2.0 * p / q)
        splits.append(cr.classify_slln(model, p, q).membership)
    llogl = cr.llogl_moment(tm.log_power_tail(p, 2.0), p, 0.5)
    ok = (member.membership == cr.MEMBER
          and all(m == cr.NON_MEMBER for m in splits)
          and llogl.kind == cr.CONVERGES)
    report(4, "membership split at the critical line with half-power log moment",
           ok, f"(p,p) {member.membership}, q<p {splits}, llogl {llogl.kind}")


def test_criterion_05_closed_form_quadrature():
    v = cr.integral_pq(tm.pareto(2.0), 1.0, 0.5)
    err = abs(v.estimate_on_window - 2.0)
    report(5, "pareto(2) integral condition evaluates to 2.0",
           v.kind == cr.CONVERGES and err <= 1e-6, f"value {v.estimate_on_window!r}")


def test_criterion_06_counterexample_exact():
    n_max = 1 << 16
    cfg = mc.ExperimentConfig(model=None, p=0.5, q=0.5, n_max=n_max,
                              replications=2, master_seed=0,
                              sequence=mc.SEQ_LP_COUNTEREXAMPLE)
    table = mc.run_paths(cfg)
    bitwise = bool(np.all(table.ratio == 1.0))
    h_oracle = math.fsum(1.0 / m for m in range(1, n_max + 1))
    w_matches = abs(table.w_partial[0, -1] - h_oracle) <= 1e-10 * h_oracle
    verdict = mc.growth_verdict(table.checkpoints, table.w_partial[0])
    ok = bitwise and w_matches and verdict.kind == cr.DIVERGES
    report(6, "disjoint-coordinate ratios are bitwise 1.0 and W is harmonic",
           ok, f"bitwise {bitwise}, W {table.w_partial[0, -1]:.6f} vs {h_oracle:.6f}, "
               f"verdict {verdict.kind}")


@pytest.fixture(scope="module")
def verified_lemmas():
    """`verify lemmas` at seed 2024 and its run time: criteria 07 and 08 read
    its records, so the tests check the instances the CLI checks."""
    started = time.perf_counter()
    results = cli._verify_lemmas(2024)
    return results, time.perf_counter() - started


def test_criterion_07_max_inequality_lattice(verified_lemmas):
    results, elapsed = verified_lemmas
    rows = [r for r in results if r["check"] == "max-inequality"]
    violations = sum(not r["holds"] for r in rows)
    count = next((r["count"] for r in rows if r["instance"] == "full lattice"), 0)
    report(7, "maximal inequality holds on the full lattice",
           violations == 0 and count == 2 * (1 << 10) * 10 * 3,
           f"{count} instances, {violations} violations, {elapsed:.1f}s")


def test_criterion_08_symmetrization_lattice(verified_lemmas):
    results, _ = verified_lemmas
    summary = next((r for r in results if r["instance"] == "100 laws x 4 x 5"), None)
    violations = summary["violations"] if summary else None
    report(8, "symmetrization inequality holds on 100 random laws x 4 x 5",
           violations == 0, f"{100 * 4 * 5} checks, {violations} violations")


def test_criterion_09_marcus_pisier():
    started = time.perf_counter()
    table = lp.marcus_pisier_check(tm.pareto(1.5, "nonnegative"), 64, 1.2,
                                   np.geomspace(1.0, 1e4, 16), 100_000,
                                   master_seed=5)
    elapsed = time.perf_counter() - started
    margin = min(rhs + 4.0 * se - l for l, rhs, se in
                 zip(table.empirical_lhs, table.analytic_rhs, table.standard_errors))
    ok = table.holds(4.0) and elapsed < 30.0
    report(9, "order-statistics maximal bound holds at every grid point",
           ok, f"min margin {margin:.3e}, sup {table.sup_value:.3f}, {elapsed:.1f}s")


def test_criterion_10_mz_ratio_decay():
    started = time.perf_counter()
    passes = 0
    seeds = 200
    for seed in range(seeds):
        cfg = mc.ExperimentConfig(model=tm.rademacher(), p=1.5, q=0.5,
                                  n_max=1 << 20, replications=2, master_seed=seed)
        table = mc.run_paths(cfg, workers=2)
        if float(np.median(table.ratio[:, -1])) <= 0.15:
            passes += 1
    elapsed = time.perf_counter() - started
    ok = passes >= int(0.9 * seeds) and elapsed < 120.0
    report(10, "normalized ratio at 2^20 below 0.15 for at least 90% of seeds",
           ok, f"{passes}/{seeds} seeds, {elapsed:.1f}s")


def test_criterion_11_mc_vs_exact():
    results = cli._verify_small_series(2024)
    ok = len(results) == 4 and all(r["holds"] for r in results)
    worst = max(r["worst_fraction_of_band"] for r in results)
    report(11, "MC ratio moments match exact enumeration within 4 SE",
           ok, f"worst band fraction {worst:.2f}")


def test_criterion_12_determinism(tmp_path):
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps({
        "schema": 1,
        "model": {"builtin": "pareto", "params": {"alpha": 2.0}},
        "p": 1.0, "q": 0.5,
        "simulate": {"n_max": 1 << 12, "replications": 16, "master_seed": 99},
    }))
    blobs = []
    for i, workers in enumerate((1, 2, 8)):
        out = tmp_path / f"w{i}"
        code = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out),
                         "--workers", str(workers)])
        assert code == 0
        blobs.append((out / "det_table.csv").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report(12, "simulate output is byte-identical for workers 1, 2, 8",
           ok, f"{len(blobs[0])} bytes")


MATRIX = [
    # (name, model spec, p, q) -- clause grid over the built-in models.  Each
    # empirical row is placed at a clause point where a desk-scale window can
    # reflect the asymptotic regime (see the ledger: the log-damped family at
    # q < p and the lnln-damped family at q = p diverge at rates invisible
    # below n ~ e^45 and lnlnln n respectively, so those rows would pit
    # correct finite-window evidence against correct asymptotics).
    ("critical-qp", {"builtin": "pareto", "params": {"alpha": 0.5}}, 0.5, 0.5),
    ("critical-qlt", {"builtin": "pareto", "params": {"alpha": 0.5}}, 0.5, 0.25),
    ("member-marginal", {"builtin": "log-power",
                         "params": {"power": 0.5, "log_power": 2.0}}, 0.5, 0.5),
    ("nonmember-marginal", {"builtin": "log-loglog-power",
                            "params": {"power": 0.5}}, 0.5, 0.25),
    ("pareto2-p1", {"builtin": "pareto", "params": {"alpha": 2.0}}, 1.0, 0.5),
    ("pareto2-p15", {"builtin": "pareto", "params": {"alpha": 2.0}}, 1.5, 0.5),
    ("rademacher-p15", {"builtin": "rademacher"}, 1.5, 0.5),
    ("rademacher-p07", {"builtin": "rademacher"}, 0.7, 0.35),
    ("degenerate-mean", {"builtin": "degenerate", "params": {"value": 1.0}}, 1.5, 0.5),
    ("degenerate-q-lt-p", {"builtin": "degenerate", "params": {"value": 1.0}}, 0.7, 0.35),
    ("zero", {"builtin": "zero"}, 0.5, 0.5),
    ("counterexample", {"sequence": "lp-counterexample"}, 0.5, 0.5),
]


def test_criterion_13_consistency_gate(tmp_path):
    started = time.perf_counter()
    manifests = []
    for name, model_spec, p, q in MATRIX:
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps({
            "schema": 1, "model": model_spec, "p": p, "q": q,
            "criteria": {"series_n_max": 50_000},
            "simulate": {"n_max": 1 << 16, "replications": 48, "master_seed": 101},
        }))
        out = tmp_path / name
        code = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out),
                         "--workers", "8"])
        assert code == 0
        manifests.append(str(out / f"{name}_manifest.json"))

    out_dir = tmp_path / "report"
    code = cli.main(["report", *manifests, "--out", str(out_dir)])
    assert code == 0
    import csv as csv_mod

    with open(out_dir / "consistency_report.csv") as fh:
        rows = list(csv_mod.DictReader(fh))
    contradictions = sum(int(r["hard_contradiction"]) for r in rows)
    elapsed = time.perf_counter() - started
    ok = contradictions == 0 and len(rows) == len(MATRIX)
    report(13, "built-in matrix shows zero hard analytic-vs-empirical contradictions",
           ok, f"{len(rows)} rows, {contradictions} contradictions, {elapsed:.0f}s")
