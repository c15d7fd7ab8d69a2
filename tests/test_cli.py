import json
import os
import subprocess
import sys

import pytest

from pqslln import cli, criteria
from pqslln import tail_models as tm


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def criteria_config(tmp_path, model, p, q, name="cfg.json", **crit):
    return write_config(tmp_path, name, {
        "schema": 1, "model": model, "p": p, "q": q,
        "criteria": crit or {"series_n_max": 5000},
    })


def simulate_config(tmp_path, model, p, q, name="sim.json", **sim):
    payload = {"schema": 1, "model": model, "p": p, "q": q,
               "simulate": {"n_max": 2048, "replications": 8, "master_seed": 5, **sim}}
    return write_config(tmp_path, name, payload)


# ---------------------------------------------------------------------------
# criteria subcommand
# ---------------------------------------------------------------------------


def test_criteria_critical_tail_nonmember(tmp_path, capsys):
    cfg = criteria_config(tmp_path, {"builtin": "pareto", "params": {"alpha": 0.5}},
                          0.5, 0.5)
    code = cli.main(["criteria", "--config", cfg])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["membership"] == "NonMember"
    assert out["p_moment_verdict"]["kind"] == "Diverges"


def test_criteria_zero_model_member(tmp_path, capsys):
    cfg = criteria_config(tmp_path, {"builtin": "zero"}, 0.5, 0.3)
    code = cli.main(["criteria", "--config", cfg])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["membership"] == "Member"


def test_criteria_integral_value_field(tmp_path, capsys):
    cfg = criteria_config(tmp_path, {"builtin": "pareto", "params": {"alpha": 2.0}},
                          1.0, 0.5)
    code = cli.main(["criteria", "--config", cfg])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["membership"] == "Member"
    assert abs(out["integral_verdict"]["estimate_on_window"] - 2.0) < 1e-6


def test_criteria_inconclusive_exit_code(tmp_path, capsys):
    # custom sign law with unknown mean: p >= 1 clause is undecidable
    cfg = write_config(tmp_path, "inc.json", {
        "schema": 1,
        "model": {"custom": {
            "name": "asym",
            "sign_law": {"kind": "custom", "negative_prob": 0.25},
            "pieces": [
                {"t_lo": 0.0, "t_hi": 1.0, "formula_id": "constant", "params": {"value": 1.0}},
                {"t_lo": 1.0, "t_hi": None, "formula_id": "power",
                 "params": {"scale": 1.0, "power": 2.0}},
            ],
        }},
        "p": 1.5, "q": 0.5,
    })
    code = cli.main(["criteria", "--config", cfg])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["membership"] == "Inconclusive"


def test_expectation_cap_past_the_largest_double_clips_the_window(tmp_path, capsys):
    # h^-1 of x^p ln(1 + x) is a double up to h(X_MAX), about 1e157 at p = 0.5,
    # so the window of t_cap = 1e200 ends there and the run gives its verdict
    cfg = criteria_config(tmp_path, {"builtin": "pareto", "params": {"alpha": 2.0}}, 0.5, 0.5,
                          t_cap=1e200, criterion="expectation")
    assert cli.main(["criteria", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["membership"] == "Member"


def test_expectation_at_small_p_runs_the_default_cap(tmp_path, capsys):
    # h(X_MAX) is about 1e9 at p = q = 0.02, below the default cap of 1e12
    cfg = criteria_config(tmp_path, {"builtin": "pareto", "params": {"alpha": 2.0}}, 0.02, 0.02,
                          criterion="expectation")
    assert cli.main(["criteria", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["membership"] == "Member"


def test_expectation_takes_a_series_n_max_of_10_15(tmp_path, capsys):
    # the expectation criterion sums no term of the series, so it allocates
    # none; the almost-sure one fails on it (test_out_of_memory_is_one_line)
    cfg = criteria_config(tmp_path, {"builtin": "log-loglog-power", "params": {"power": 0.5}},
                          0.5, 0.5, series_n_max=10**15, criterion="expectation")
    assert cli.main(["criteria", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["membership"] == out["contrast_membership"] == "NonMember"


def test_almost_sure_cap_past_the_largest_power_prints_only_membership(tmp_path, capsys):
    # t^(1/q) overflows to inf on the way to t_cap = 1e300, silently
    cfg = criteria_config(tmp_path, {"builtin": "pareto", "params": {"alpha": 2.0}}, 0.5, 0.25,
                          t_cap=1e300)
    assert cli.main(["criteria", "--config", cfg]) == 0
    assert capsys.readouterr().err == "membership: Member\n"


def test_bounded_support_past_the_double_range_of_its_power(tmp_path, capsys):
    # the p-th power of the support bound 1e210 overflows: a verdict, not a traceback
    cfg = criteria_config(tmp_path, {"builtin": "degenerate", "params": {"value": 1e210}},
                          1.5, 0.5)
    assert cli.main(["criteria", "--config", cfg]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["p_moment_verdict"]["remainder_bound"] is None
    assert "Traceback" not in err and "Infinity" not in out


def test_config_parse_error_has_line_and_column(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": 1,\n  "model": {')
    code = cli.main(["criteria", "--config", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err and "column" in err


def test_unknown_builtin_is_config_error(tmp_path):
    cfg = criteria_config(tmp_path, {"builtin": "nope"}, 0.5, 0.5)
    assert cli.main(["criteria", "--config", cfg]) == 2


# ---------------------------------------------------------------------------
# simulate subcommand
# ---------------------------------------------------------------------------


def test_simulate_counterexample_csv_constant_ratio(tmp_path, capsys):
    cfg = simulate_config(tmp_path, {"sequence": "lp-counterexample"}, 0.5, 0.5)
    out = tmp_path / "run"
    code = cli.main(["simulate", "--config", cfg, "--out", str(out)])
    assert code == 0
    csv = (out / "sim_table.csv").read_text().strip().split("\n")
    ratios = {line.split(",")[3] for line in csv[1:]}
    assert ratios == {"1.0"}


def test_simulate_zero_model_all_zero_csv(tmp_path):
    cfg = simulate_config(tmp_path, {"builtin": "zero"}, 0.5, 0.5)
    out = tmp_path / "runz"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "sim_table.csv").read_text().strip().split("\n")[1:]
    assert all(row.split(",")[2] == "0.0" and row.split(",")[4] == "0.0" for row in rows)


def test_simulate_byte_identical_across_workers(tmp_path):
    cfg = simulate_config(tmp_path, {"builtin": "pareto", "params": {"alpha": 2.0}},
                          1.0, 0.5, n_max=4096, replications=16)
    blobs = []
    for i, w in enumerate((1, 2, 8)):
        out = tmp_path / f"run{i}"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                         "--workers", str(w)]) == 0
        blobs.append((out / "sim_table.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = simulate_config(tmp_path, {"builtin": "pareto", "params": {"alpha": 2.0}},
                          1.0, 0.5)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["simulate", "--config", cfg, "--out", str(out1)])
    cli.main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "99"])
    assert (out1 / "sim_table.csv").read_bytes() != (out2 / "sim_table.csv").read_bytes()
    manifest = json.loads((out2 / "sim_manifest.json").read_text())
    assert manifest["config"]["simulate"]["master_seed"] == 99


def test_simulate_failure_leaves_no_artifacts(tmp_path):
    cfg = write_config(tmp_path, "bad_sim.json", {
        "schema": 1, "model": {"builtin": "rademacher"}, "p": 1.0, "q": 1.0,
        "simulate": {"n_max": 999, "replications": 8, "master_seed": 1},
    })
    out = tmp_path / "failed"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_bad_workers_exits_2(tmp_path, capsys, workers):
    cfg = simulate_config(tmp_path, {"builtin": "rademacher"}, 1.0, 1.0)
    out = tmp_path / "bad_workers"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                     "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --workers must be an integer at least 1 and at most 64, got {workers}\n"
    assert not out.exists()


@pytest.mark.parametrize("workers", ["65", "100000"])
def test_simulate_workers_past_the_ceiling_exit_2(tmp_path, capsys, workers):
    # two replications, so a missed check would start at most two threads
    cfg = simulate_config(tmp_path, {"builtin": "rademacher"}, 1.0, 1.0, replications=2)
    out = tmp_path / "many_workers"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                     "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --workers must be an integer at least 1 and at most 64, got {workers}\n"
    assert not out.exists()


def test_manifest_reproduces_run(tmp_path):
    cfg = simulate_config(tmp_path, {"builtin": "pareto", "params": {"alpha": 2.0}},
                          1.0, 0.5)
    out = tmp_path / "orig"
    cli.main(["simulate", "--config", cfg, "--out", str(out)])
    manifest = json.loads((out / "sim_manifest.json").read_text())
    # replay from the manifest's checked config alone
    replay_cfg = write_config(tmp_path, "replay.json", manifest["config"])
    out2 = tmp_path / "replay"
    cli.main(["simulate", "--config", replay_cfg, "--out", str(out2)])
    assert (out / "sim_table.csv").read_bytes() == (out2 / "replay_table.csv").read_bytes()


# ---------------------------------------------------------------------------
# report subcommand
# ---------------------------------------------------------------------------


def test_report_empty_set(capsys):
    assert cli.main(["report"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("model,p,q,")
    assert len(out.strip().split("\n")) == 1


def test_report_single_manifest(tmp_path, capsys):
    cfg = simulate_config(tmp_path, {"builtin": "rademacher"}, 1.5, 0.5,
                          n_max=4096, replications=32)
    out = tmp_path / "run"
    cli.main(["simulate", "--config", cfg, "--out", str(out)])
    capsys.readouterr()
    code = cli.main(["report", str(out / "sim_manifest.json")])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().split("\n")
    assert len(lines) == 2
    assert "rademacher" in lines[1]
    assert lines[1].split(",")[4] == "Member"
    assert "hard_contradictions: 0" in captured.err


def test_criteria_and_report_call_the_classifier_on_criteria(tmp_path, monkeypatch, capsys):
    # the classifier is looked up when it is called, so a patch of
    # criteria.classify_slln (as a tracing wrapper makes) sees both commands
    calls = []
    classify = criteria.classify_slln
    monkeypatch.setattr(criteria, "classify_slln",
                        lambda *args, **kw: calls.append(args[1:3]) or classify(*args, **kw))
    cfg = simulate_config(tmp_path, {"builtin": "rademacher"}, 1.5, 0.5)
    assert cli.main(["criteria", "--config", cfg]) == 0
    cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")])
    assert cli.main(["report", str(tmp_path / "run" / "sim_manifest.json")]) == 0
    capsys.readouterr()
    assert calls == [(1.5, 0.5), (1.5, 0.5)]


# ---------------------------------------------------------------------------
# verify subcommand (thin smoke; the full suites run in acceptance)
# ---------------------------------------------------------------------------


def test_verify_unknown_suite():
    with pytest.raises(SystemExit):
        cli.main(["verify", "bogus"])


def test_verify_marcus_pisier_passes(capsys):
    assert cli.main(["verify", "marcus-pisier", "--seed", "7"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert len(results) == 3
    assert all(r["holds"] and r["min_margin"] > 0.0 for r in results)


def test_verify_marcus_pisier_ignores_the_cpu_count(monkeypatch, capsys):
    assert cli.main(["verify", "marcus-pisier", "--seed", "7"]) == 0
    default = capsys.readouterr().out
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli.main(["verify", "marcus-pisier", "--seed", "7"]) == 0
    assert capsys.readouterr().out == default


def test_verify_small_series_passes(capsys):
    assert cli.main(["verify", "small-series"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(r["holds"] for r in payload["results"])


# ---------------------------------------------------------------------------
# manifests and config errors
# ---------------------------------------------------------------------------


def test_report_finds_outputs_from_any_cwd_after_a_move(tmp_path, monkeypatch, capsys):
    cfg = simulate_config(tmp_path, {"builtin": "rademacher"}, 1.5, 0.5)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--config", "sim.json", "--out", "o1"]) == 0
    (tmp_path / "o1").rename(tmp_path / "moved")
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    capsys.readouterr()
    assert cli.main(["report", os.path.join("..", "moved", "sim_manifest.json")]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2 and "rademacher" in lines[1]


def test_simulate_json_format_lists_only_written_files(tmp_path):
    cfg = simulate_config(tmp_path, {"builtin": "rademacher"}, 1.5, 0.5)
    out = tmp_path / "runjson"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
    manifest = json.loads((out / "sim_manifest.json").read_text())
    assert set(manifest["outputs"]) == {"summary_json"}
    assert all(os.path.isfile(path) for path in manifest["outputs"].values())
    assert not (out / "sim_table.csv").exists()


def power_model(params):
    return {"custom": {"name": "x", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": 1.0, "formula_id": "constant", "params": {"value": 1.0}},
        {"t_lo": 1.0, "t_hi": None, "formula_id": "power", "params": params}]}}


@pytest.mark.parametrize("command,payload,needle", [
    ("criteria", {"model": {"builtin": "rademacher"}, "q": 0.5}, "'p'"),
    ("criteria", {"model": {"builtin": "rademacher"}, "p": 1.5, "q": 0.5,
                  "criteria": {"t_cap": "big"}}, "'t_cap'"),
    ("simulate", {"model": {"builtin": "rademacher"}, "q": 0.5}, "'p'"),
    # pieces that leave [1, 2) uncovered
    ("criteria", {"model": {"custom": {"name": "gapped", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": 1.0, "formula_id": "constant", "params": {"value": 1.0}},
        {"t_lo": 2.0, "t_hi": None, "formula_id": "power",
         "params": {"scale": 1.0, "power": 2.0}}]}}, "p": 0.5, "q": 0.25}, "pieces must meet"),
    # settings the classifiers reject
    ("criteria", {"model": {"builtin": "pareto", "params": {"alpha": 2.0}}, "p": 1.5,
                  "q": 0.5, "criteria": {"t_cap": 0.5}}, "t_cap must exceed"),
    ("criteria", {"model": {"builtin": "pareto", "params": {"alpha": 2.0}}, "p": 0.5,
                  "q": 0.5, "criteria": {"series_n_max": 10}}, "at least 10^3"),
    ("criteria", {"model": {"builtin": "rademacher"}, "p": float("nan"), "q": 0.5}, "'p'"),
    # models that cannot be built
    ("criteria", {"model": {"builtin": "pareto", "params": 5}, "p": 0.5, "q": 0.25},
     "bad builtin model spec"),
    ("criteria", {"model": {"file": "missing.json"}, "p": 0.5, "q": 0.25}, "missing.json"),
    ("criteria", {"model": {"custom": {"name": "x", "sign_law": "symmetric", "pieces": 5}},
                  "p": 0.5, "q": 0.25}, "bad custom model"),
    ("criteria", {"model": {"custom": {"name": "x", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": None, "formula_id": "power",
         "params": {"scale": "big", "power": 2.0}}]}}, "p": 0.5, "q": 0.25}, "'scale'"),
    ("criteria", {"model": {"custom": {"name": "dip", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": 1.01, "formula_id": "constant", "params": {"value": 1.0}},
        {"t_lo": 1.01, "t_hi": None, "formula_id": "power-log",
         "params": {"scale": 2.0, "power": 0.25, "log_power": -0.2}}]}},
      "p": 0.5, "q": 0.25}, "survival increases"),
    # sections and keys outside the schema, and counts that are not integers
    ("criteria", {"model": {"builtin": "rademacher"}, "p": 1.5, "q": 0.5, "criteria": 5},
     "'criteria'"),
    ("simulate", {"model": {"builtin": "rademacher"}, "p": 1.5, "q": 0.5, "simulate": 5},
     "'simulate'"),
    ("simulate", {"model": {"builtin": "rademacher"}, "p": 1.5, "q": 0.5,
                  "simulate": {"n_max": 1024.9}}, "'n_max'"),
    ("simulate", {"model": {"builtin": "rademacher"}, "p": 1.5, "q": 0.5,
                  "simulate": {"n_max": 1024, "replications": 2.7}}, "'replications'"),
    ("simulate", {"model": {"builtin": "rademacher"}, "p": 1.5, "q": 0.5,
                  "simulat": {"n_max": 1024}}, "'simulat'"),
    ("criteria", {"model": {"builtin": "rademacher"}, "p": 1.5, "q": 0.5,
                  "epsilon_grid": [0.1]}, "'epsilon_grid'"),
    ("criteria", {"model": {"builtin": "rademacher"}, "p": True, "q": 0.5}, "'p'"),
    # a setting outside its allowed strings, though simulate does not use it
    ("simulate", {"model": {"builtin": "rademacher"}, "p": 1.5, "q": 0.5,
                  "criteria": {"criterion": "bogus"}, "simulate": {"n_max": 1024}},
     "'criterion'"),
    ("criteria", {"model": {"custom": {"name": "x", "sign_law": "symmetric", "pieces": [5]}},
                  "p": 0.5, "q": 0.25}, "bad custom model"),
    # seeds a 64-bit stream key would alias
    ("simulate", {"model": {"builtin": "rademacher"}, "p": 1.5, "q": 0.5,
                  "simulate": {"n_max": 1024, "master_seed": -1}}, "master seed"),
    ("simulate", {"model": {"builtin": "rademacher"}, "p": 1.5, "q": 0.5,
                  "simulate": {"n_max": 1024, "master_seed": 1 << 64}}, "master seed"),
    # a cap that is not positive
    ("criteria", {"model": {"builtin": "pareto", "params": {"alpha": 2.0}}, "p": 0.5,
                  "q": 0.25, "criteria": {"t_cap": 0.0}}, "t_cap must be positive"),
    ("criteria", {"model": {"builtin": "pareto", "params": {"alpha": 2.0}}, "p": 0.5,
                  "q": 0.25, "criteria": {"t_cap": -1.0}}, "t_cap must be positive"),
    # (p, q) outside 0 < p < 2, q > 0, the same error for every subcommand
    ("criteria", {"model": {"builtin": "rademacher"}, "p": 3.0, "q": 0.5}, "0 < p < 2"),
    ("criteria", {"model": {"builtin": "rademacher"}, "p": -1.0, "q": 0.5}, "0 < p < 2"),
    ("criteria", {"model": {"builtin": "rademacher"}, "p": 1.5, "q": 0.0}, "0 < p < 2"),
    ("simulate", {"model": {"builtin": "rademacher"}, "p": 2.0, "q": 0.5,
                  "simulate": {"n_max": 1024}}, "0 < p < 2"),
    # a first piece that does not start at 0, and keys outside the model document's
    *[("criteria", {"model": {"custom": {"name": "x", "sign_law": "symmetric", "pieces": [
        {"t_lo": t_lo, "t_hi": None, "formula_id": "power",
         "params": {"scale": 1.0, "power": 2.0}}]}}, "p": 0.5, "q": 0.25},
       f"the first piece must start at t = 0, not {t_lo:g}") for t_lo in (5.0, -3.0)],
    ("criteria", {"model": {"custom": {**tm.pareto(2.0).to_json(), "scale": 2.0}},
                  "p": 0.5, "q": 0.25}, "unknown key 'scale' in the custom model document"),
    ("criteria", {"model": {"custom": {"name": "x", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_high": 1e3, "formula_id": "power",
         "params": {"scale": 0.5, "power": 2.0}}]}}, "p": 0.5, "q": 0.25},
     "unknown key 't_high' in a custom model piece"),
    # piece edges that are not numbers (t_hi null is inf), and keys the document lacks
    *[("criteria", {"model": {"custom": {"name": "x", "sign_law": "symmetric", "pieces": [
        {"t_lo": t_lo, "t_hi": t_hi, "formula_id": "constant", "params": {"value": 1.0}},
        {"t_lo": 1.0, "t_hi": None, "formula_id": "constant", "params": {"value": 0.0}}]}},
        "p": 0.5, "q": 0.25}, f"piece edge {name!r} must be a finite number")
      for t_lo, t_hi, name in (("0", 1.0, "t_lo"), (False, 1.0, "t_lo"),
                               (0.0, "1", "t_hi"), (0.0, True, "t_hi"))],
    ("criteria", {"model": {"custom": {"name": "x", "sign_law": "symmetric"}},
                  "p": 0.5, "q": 0.25}, "the custom model document is missing key 'pieces'"),
    ("criteria", {"model": {"custom": {"name": "x", "pieces": []}}, "p": 0.5, "q": 0.25},
     "the custom model document is missing key 'sign_law'"),
    *[("criteria", {"model": {"custom": {"name": "x", "sign_law": "symmetric", "pieces": [
        {key: val for key, val in {"t_lo": 0.0, "t_hi": None, "formula_id": "power",
                                   "params": {"scale": 1.0, "power": 2.0}}.items()
         if key != missing}]}}, "p": 0.5, "q": 0.25},
       f"a custom model piece is missing key {missing!r}") for missing in ("t_lo", "formula_id")],
    # builtin params that are not finite numbers (a config's 1e400 reads as inf):
    # NaN would otherwise run a quadrature out of budget, true and inf give
    # pareto(1) and pareto(inf), and simulate write a table for an infinite power
    *[("criteria", {"model": {"builtin": "pareto", "params": {"alpha": alpha}},
                    "p": 0.5, "q": 0.25}, "alpha must be a finite number > 0")
      for alpha in (float("nan"), True, float("inf"))],
    ("simulate", {"model": {"builtin": "log-power", "params": {"power": float("inf"),
                                                             "log_power": 2.0}},
                  "p": 0.5, "q": 0.25, "simulate": {"n_max": 1024}},
     "power must be a finite number > 0"),
    # an integer past the largest double, where a model takes a number
    ("criteria", {"model": {"builtin": "pareto", "params": {"alpha": 10**400}},
                  "p": 0.5, "q": 0.25}, "alpha must be a finite number > 0"),
    ("criteria", {"model": {"builtin": "degenerate", "params": {"value": 10**400}},
                  "p": 0.5, "q": 0.25}, "value must be a finite number >= 0"),
    ("criteria", {"model": {"custom": {"name": "x", "sign_law": "symmetric", "pieces": [
        {"t_lo": 0.0, "t_hi": 10**400, "formula_id": "constant", "params": {"value": 1.0}},
        {"t_lo": 1.0, "t_hi": None, "formula_id": "constant", "params": {"value": 0.0}}]}},
      "p": 0.5, "q": 0.25}, "piece edge 't_hi' must be a finite number"),
    ("criteria", {"model": power_model({"scale": 1.0, "power": 10**400}), "p": 0.5, "q": 0.25},
     "piece param 'power' must be a finite number"),
    ("criteria", {"model": {"custom": {**tm.pareto(2.0).to_json(), "sign_law": {
        "kind": "custom", "negative_prob": 10**400}}}, "p": 0.5, "q": 0.25}, "sign_law must be"),
    # counts past 2^53, the largest integer a double holds exactly
    ("criteria", {"model": {"builtin": "pareto", "params": {"alpha": 2.0}}, "p": 0.5, "q": 0.5,
                  "criteria": {"series_n_max": 10**30}}, "at least 10^3 and at most 2^53"),
    # the series bound holds in every clause, not only at q = p where the series runs
    ("criteria", {"model": {"builtin": "pareto", "params": {"alpha": 2.0}}, "p": 0.5, "q": 0.25,
                  "criteria": {"series_n_max": 10**30}}, "at least 10^3 and at most 2^53"),
    ("criteria", {"model": {"builtin": "pareto", "params": {"alpha": 2.0}}, "p": 1.5, "q": 0.5,
                  "criteria": {"series_n_max": 10}}, "at least 10^3 and at most 2^53"),
    ("simulate", {"model": {"builtin": "pareto", "params": {"alpha": 2.0}}, "p": 1.0, "q": 0.5,
                  "simulate": {"n_max": 1024, "replications": 10**30}},
     "at least 2 and at most 2^53"),
])
def test_bad_numbers_are_config_errors(tmp_path, capsys, command, payload, needle):
    cfg = write_config(tmp_path, "badnum.json", {"schema": 1, **payload})
    code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and needle in err and len(err.strip().split("\n")) == 1


@pytest.mark.parametrize("command", ["criteria", "simulate", "verify"])
def test_out_that_is_a_file_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("keep")
    args = {"criteria": ["--config", criteria_config(tmp_path, {"builtin": "zero"}, 0.5, 0.3)],
            "simulate": ["--config", simulate_config(tmp_path, {"builtin": "zero"}, 0.5, 0.3)],
            "verify": ["small-series"]}[command]
    assert cli.main([command, *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot make output directory {out}: ")
    assert len(err.strip().split("\n")) == 1 and out.read_text() == "keep"


def test_failed_write_is_one_line_and_leaves_no_temporary(tmp_path, capsys):
    # the report's own path is a directory, so its rename fails
    cfg = criteria_config(tmp_path, {"builtin": "zero"}, 0.5, 0.3)
    out = tmp_path / "out"
    (out / "criterion_report.json").mkdir(parents=True)
    assert cli.main(["criteria", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().split("\n")) == 1
    assert os.listdir(out) == ["criterion_report.json"]


# 10^15 doubles are 8 PB, past any 64-bit user address space: the allocation always fails
@pytest.mark.parametrize("command,payload", [
    ("criteria", {"model": {"builtin": "log-loglog-power", "params": {"power": 0.5}},
                  "p": 0.5, "q": 0.5, "criteria": {"series_n_max": 10**15}}),
    ("simulate", {"model": {"builtin": "pareto", "params": {"alpha": 2.0}}, "p": 1.0, "q": 0.5,
                  "simulate": {"n_max": 1024, "replications": 10**15}}),
], ids=["series_n_max", "replications"])
def test_out_of_memory_is_one_line(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, "huge.json", {"schema": 1, **payload})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and len(err.strip().split("\n")) == 1
    assert not any(out.iterdir())


def test_atomic_writer_removes_every_file_of_a_failed_block(tmp_path):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    # a write that fails halfway: its temporary exists, but holds no content
    with pytest.raises(TypeError), cli._AtomicWriter() as writer:
        writer.write(str(first), "one")
        writer.write(str(second), None)
    assert os.listdir(tmp_path) == []
    # a rename that fails after the first one has succeeded
    second.mkdir()
    with pytest.raises(IsADirectoryError), cli._AtomicWriter() as writer:
        writer.write(str(first), "one")
        writer.write(str(second), "two")
    assert os.listdir(tmp_path) == ["second.txt"] and os.listdir(second) == []
    with cli._AtomicWriter() as writer:
        writer.write(str(first), "one")
    assert first.read_text() == "one"
    assert sorted(os.listdir(tmp_path)) == ["first.txt", "second.txt"]


@pytest.mark.parametrize("model,needle", [
    # a param the formula does not take, and one it needs
    (power_model({"scale": 1.0, "power": 2.0, "log_power": 1.0}), "params scale, power"),
    (power_model({"scale": 1.0}), "params scale, power"),
    # "custom" names no sign law; a custom one needs its negative_prob
    ({"builtin": "pareto", "params": {"alpha": 2.0, "sign_law": "custom"}}, "sign_law must be"),
], ids=["extra-param", "missing-param", "custom-string"])
def test_bad_model_inputs_are_config_errors(tmp_path, capsys, model, needle):
    cfg = criteria_config(tmp_path, model, 0.9, 0.45)
    assert cli.main(["criteria", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err and len(err.strip().split("\n")) == 1


@pytest.mark.parametrize("missing", ["manifest", "summary", "manifest-keys"])
def test_report_missing_file_is_config_error(tmp_path, capsys, missing):
    cfg = simulate_config(tmp_path, {"builtin": "rademacher"}, 1.5, 0.5)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    if missing == "manifest-keys":
        (out / "sim_manifest.json").write_text("{}")
    else:
        os.remove(out / f"sim_{missing}.json")
    capsys.readouterr()
    assert cli.main(["report", str(out / "sim_manifest.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and len(err.strip().split("\n")) == 1


def test_criteria_rejects_flags_it_ignores(tmp_path, capsys):
    cfg = criteria_config(tmp_path, {"builtin": "zero"}, 0.5, 0.3)
    with pytest.raises(SystemExit) as exc:
        cli.main(["criteria", "--config", cfg, "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_model_file_resolves_against_the_config_directory(tmp_path, monkeypatch, capsys):
    (tmp_path / "cfgdir").mkdir()
    (tmp_path / "cfgdir" / "model.json").write_text(json.dumps(tm.pareto(2.0).to_json()))
    cfg = criteria_config(tmp_path / "cfgdir", {"file": "model.json"}, 1.0, 0.5)
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert cli.main(["criteria", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["membership"] == "Member"


def test_manifest_config_replays_a_file_model_and_a_seed_override(tmp_path, monkeypatch):
    (tmp_path / "model.json").write_text(json.dumps(tm.pareto(2.0).to_json()))
    cfg = simulate_config(tmp_path, {"file": "model.json"}, 1.0, 0.5)
    out = tmp_path / "orig"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out), "--seed", "99"]) == 0
    manifest = json.loads((out / "sim_manifest.json").read_text())
    assert manifest["config"]["model"] == {"custom": tm.pareto(2.0).to_json()}
    assert manifest["config"]["simulate"]["master_seed"] == 99
    # a file holding only the manifest's config, away from model.json
    (tmp_path / "replay").mkdir()
    replay = write_config(tmp_path / "replay", "replay.json", manifest["config"])
    monkeypatch.chdir(tmp_path / "replay")
    assert cli.main(["simulate", "--config", replay, "--out", "again"]) == 0
    assert (out / "sim_table.csv").read_bytes() == \
        (tmp_path / "replay" / "again" / "replay_table.csv").read_bytes()


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("seed", [1 << 64, -1])
def test_seed_outside_64_bits_is_config_error(tmp_path, capsys, command, seed):
    if command == "simulate":
        args = ["simulate", "--config", simulate_config(tmp_path, {"builtin": "rademacher"},
                                                        1.5, 0.5, n_max=1024)]
    else:
        args = ["verify", "small-series"]
    out = tmp_path / "out"
    assert cli.main([*args, f"--seed={seed}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2^64" in err and len(err.strip().split("\n")) == 1
    assert not out.exists()


def test_censoring_run_writes_nothing_to_stderr(tmp_path):
    # pareto(0.01) overflows most replications: censoring is a result, and
    # the overflow must not surface as a numpy warning
    cfg = simulate_config(tmp_path, {"builtin": "pareto", "params": {"alpha": 0.01}},
                          0.5, 0.5, n_max=1024, replications=16, master_seed=2)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "pqslln.cli", "simulate", "--config", cfg,
                           "--out", str(tmp_path / "out")], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    summary = json.loads((tmp_path / "out" / "sim_summary.json").read_text())
    assert 0 < summary["censoring"]["censored"] < 16


# ---------------------------------------------------------------------------
# process start
# ---------------------------------------------------------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
# modules that only simulate and verify use, and the numpy.ma that np.unique loads
NOT_STARTED = ("pqslln.mc_engine", "pqslln.kernels", "pqslln.rng", "pqslln.oracles",
               "pqslln.banach_lp", "concurrent.futures", "fractions", "numpy.ma")


def run_python(*argv, blas_threads="4"):
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": blas_threads}
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode in (0, 3), proc.stderr
    return proc.stdout


def loglog_config(tmp_path):
    # a divergent q = p series: the report carries the slope that trend.fit_line's
    # dot products fit over the series' last decade
    return criteria_config(tmp_path, {"builtin": "log-loglog-power", "params": {"power": 0.5}},
                           0.5, 0.5, t_cap=1e12, series_n_max=100_000)


def test_criteria_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    cfg = loglog_config(tmp_path)
    outs = [run_python("-m", "pqslln.cli", "criteria", "--config", cfg, blas_threads=n)
            for n in ("1", "2")]
    assert json.loads(outs[0])["truncated_series_verdict"]["diagnostics"]["last_decade_slope"]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [["criteria", "--config"], ["--version"]])
def test_a_command_loads_only_what_it_runs(tmp_path, argv):
    if argv[0] == "criteria":
        argv = [*argv, loglog_config(tmp_path)]
    probe = ("import contextlib, io, sys\n"
             "from pqslln import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
             "    cli.main(sys.argv[1:])\n"
             f"print(*[name for name in {NOT_STARTED!r} if name in sys.modules])\n")
    loaded = run_python("-c", probe, *argv)
    assert loaded.split() == []


# what simulate and verify leave out: numpy.ma (np.unique, np.median and
# np.percentile load it) and the thread pool with the logging it imports
NOT_RUN_BY_ENGINE = ("numpy.ma", "concurrent.futures", "logging")


@pytest.mark.parametrize("model, workers", [
    ("rademacher", "1"), ("rademacher", "2"), ("log-loglog-power", "1"), ("log-loglog-power", "2"),
    ("verify", None)], ids=lambda v: str(v))
def test_simulate_and_verify_load_only_what_they_run(tmp_path, model, workers):
    if model == "verify":
        argv, absent = ["verify", "marcus-pisier"], NOT_RUN_BY_ENGINE
    else:
        spec = {"builtin": model, **({"params": {"power": 0.5}} if model != "rademacher" else {})}
        cfg = simulate_config(tmp_path, spec, 0.5, 0.25, n_max=4096, replications=4,
                              mode="symmetrized")
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "run"), "--workers", workers]
        absent = (*NOT_RUN_BY_ENGINE, "pqslln.criteria", "pqslln.oracles", "fractions")
    probe = ("import contextlib, io, sys\n"
             "from pqslln import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = cli.main(sys.argv[1:])\n"
             f"print(code, *[name for name in {absent!r} if name in sys.modules])\n")
    assert run_python("-c", probe, *argv).split() == ["0"]


@pytest.mark.parametrize("command", ["simulate", "--version"])
def test_simulate_and_version_do_not_load_criteria(tmp_path, command):
    # the config defaults live in tail_models: only criteria and report need
    # criteria.  --version exits through SystemExit, so its code stays None
    argv, code = ["--version"], "None"
    if command == "simulate":
        cfg = simulate_config(tmp_path, {"builtin": "rademacher"}, 1.0, 1.0, replications=2)
        argv, code = ["simulate", "--config", cfg, "--out", str(tmp_path / "run")], "0"
    probe = ("import contextlib, io, sys\n"
             "from pqslln import cli\n"
             "code = None\n"
             "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
             "    code = cli.main(sys.argv[1:])\n"
             "print(code, 'pqslln.criteria' in sys.modules)\n")
    assert run_python("-c", probe, *argv).split() == [code, "False"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_importing_the_cli_starts_no_blas_threads():
    # OPENBLAS_NUM_THREADS=4 from the caller: one thread shows that the CLI's
    # setting took effect before numpy loaded
    out = run_python("-c", "import os\nfrom pqslln import cli\n"
                           "print(len(os.listdir('/proc/self/task')))")
    assert out.split() == ["1"]
