import json
import os
import subprocess
import sys

import pytest

from pqslln import cli
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
    model = {"builtin": "pareto", "params": {"alpha": 2.0, "sign_law": "custom"}}
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


# ---------------------------------------------------------------------------
# verify subcommand (thin smoke; the full suites run in acceptance)
# ---------------------------------------------------------------------------


def test_verify_unknown_suite():
    with pytest.raises(SystemExit):
        cli.main(["verify", "bogus"])


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
])
def test_bad_numbers_are_config_errors(tmp_path, capsys, command, payload, needle):
    cfg = write_config(tmp_path, "badnum.json", {"schema": 1, **payload})
    code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
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
