"""The three workloads: their inputs, the commands of one round, and the checks.

A round is the list of `pqslln` invocations a closed-loop client starts one
after the other.  Every check compares the program's outputs with
`reference` or with a property the method must have; none compares with a
stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass

import reference as ref

MASK64 = (1 << 64) - 1
T_CAP = 1e12
SERIES_N_MAX = 100_000
RADEMACHER_ALPHA = 1e-9   # one-sided false-alarm bound of each Rademacher band

# The inline custom model of the README: the log-power(0.5, 2) law with its
# scale written to ten digits.
README_CUSTOM_MODEL = {
    "name": "my-tail",
    "sign_law": "symmetric",
    "pieces": [
        {"t_lo": 0.0, "t_hi": 2.718281828459045, "formula_id": "constant",
         "params": {"value": 1.0}},
        {"t_lo": 2.718281828459045, "t_hi": None, "formula_id": "power-log",
         "params": {"scale": 1.6487212707, "power": 0.5, "log_power": 2.0}},
    ],
}


@dataclass(frozen=True)
class Command:
    label: str        # stable slot name within a round
    argv: list        # arguments after `pqslln`
    stdout: str       # file that receives standard output


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
    return path


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# simulate-stream
# ---------------------------------------------------------------------------


class SimulateStream:
    """Four `simulate` configs streamed at 2^20 steps x 8 replications, then
    one `report` over their manifests."""

    name = "simulate-stream"
    n_max = 1 << 20
    replications = 8
    configs = [
        # label, model, p, q, mode
        ("rademacher", {"builtin": "rademacher"}, 1.5, 0.5, "plain"),
        ("pareto", {"builtin": "pareto", "params": {"alpha": 2.0}}, 1.0, 0.5, "plain"),
        ("log-power", {"builtin": "log-power", "params": {"power": 0.5, "log_power": 2.0}},
         0.5, 0.5, "plain"),
        ("log-loglog-power", {"builtin": "log-loglog-power", "params": {"power": 0.5}},
         0.5, 0.25, "symmetrized"),
    ]

    def __init__(self, seed: int, run_dir: str):
        self.inputs = os.path.join(run_dir, "inputs")
        os.makedirs(self.inputs, exist_ok=True)
        self.paths = {}
        for i, (label, model, p, q, mode) in enumerate(self.configs):
            cfg = {"schema": 1, "name": label, "model": model, "p": p, "q": q,
                   "criteria": {"t_cap": T_CAP, "series_n_max": SERIES_N_MAX},
                   "simulate": {"n_max": self.n_max, "replications": self.replications,
                                "master_seed": (seed * 0x9E3779B97F4A7C15 + i) & MASK64,
                                "mode": mode}}
            self.paths[label] = _write_json(os.path.join(self.inputs, f"{label}.json"), cfg)
        self._bands = None

    def commands(self, out_dir: str, workers: int = 2) -> list[Command]:
        out_dir = os.path.abspath(out_dir)
        cmds = [Command(label, ["simulate", "--config", self.paths[label], "--out", out_dir,
                                "--workers", str(workers), "--format", "both"],
                        os.path.join(out_dir, f"{label}.stdout"))
                for label, *_ in self.configs]
        manifests = [os.path.join(out_dir, f"{label}_manifest.json")
                     for label, *_ in self.configs]
        cmds.append(Command("report", ["report", *manifests],
                            os.path.join(out_dir, "report.csv")))
        return cmds

    def rademacher_bands(self):
        """(n, mu, lower, upper) per checkpoint for the mean of r_n^q over the
        replications of the Rademacher config."""
        if self._bands is None:
            _, _, p, q, _ = self.configs[0]
            self._bands = []
            for k in range(self.n_max.bit_length()):
                n = 1 << k
                values, probs = ref.abs_sum_law(n)
                mu, lo, hi = ref.chernoff_band((values / n ** (1.0 / p)) ** q, probs,
                                               self.replications, RADEMACHER_ALPHA)
                self._bands.append((n, mu, lo, hi))
        return self._bands

    def check_round(self, out_dir: str) -> tuple[list[str], int]:
        """(errors, w_verdict contradictions) for one round's outputs."""
        errors: list[str] = []
        contradictions = 0
        for label, model, p, q, mode in self.configs:
            manifest = _read_json(os.path.join(out_dir, f"{label}_manifest.json"))
            for key, path in manifest["outputs"].items():
                if not os.path.isfile(path):
                    errors.append(f"{label}: manifest output {key} missing: {path}")
            summary = _read_json(manifest["outputs"]["summary_json"])
            rows = read_table(manifest["outputs"]["table_csv"])
            errors += check_table(label, rows, p, self.replications, self.n_max,
                                  set(summary["censoring"]["censored_ids"]))
            if label == "rademacher":
                errors += check_rademacher(rows, p, q, self.rademacher_bands())
            expected = ref.expected_membership(ref.tail_from_spec(model), p, q, "almost-sure")
            contradictions += contradicts(expected, summary["w_verdict"]["kind"])
        with open(os.path.join(out_dir, "report.csv")) as fh:
            errors += check_report(list(csv.DictReader(fh)), self.configs)
        return errors, contradictions

    def tables(self, out_dir: str, labels=None) -> dict[str, bytes]:
        out = {}
        for label in labels or [c[0] for c in self.configs]:
            with open(os.path.join(out_dir, f"{label}_table.csv"), "rb") as fh:
                out[label] = fh.read()
        return out


def check_report(rows: list[dict], configs) -> list[str]:
    """Every `report` row carries the expected analytic membership."""
    errors = []
    by_model = {row["model"]: row for row in rows}
    if len(rows) != len(configs):
        errors.append(f"report has {len(rows)} rows, want {len(configs)}")
    for label, model, p, q, _ in configs:
        expected = ref.expected_membership(ref.tail_from_spec(model), p, q, "almost-sure")
        got = by_model.get(report_name(model), {}).get("membership")
        if got != expected:
            errors.append(f"report: {label} membership {got}, want {expected}")
    return errors


def report_name(model: dict) -> str:
    """The model name `report` prints, for pairing rows with configs."""
    if model["builtin"] == "rademacher":
        return "rademacher"
    params = ", ".join(f"{k}={v:g}" for k, v in model["params"].items())
    return f"{model['builtin']}({params})"


def contradicts(membership: str, verdict: str) -> int:
    return int((membership, verdict) in {(ref.MEMBER, "Diverges"),
                                         (ref.NON_MEMBER, "Converges")})


def read_table(path: str) -> list[tuple[int, int, float, float, float]]:
    with open(path) as fh:
        reader = csv.reader(fh)
        if next(reader) != ["replication", "n", "s_norm", "ratio", "w_partial"]:
            raise ValueError(f"{path}: unexpected header")
        return [(int(r), int(n), float(s), float(x), float(w)) for r, n, s, x, w in reader]


def check_table(label, rows, p, replications, n_max, censored) -> list[str]:
    """Ratios equal |S_n| / n^(1/p); W never decreases along a replication."""
    errors = []
    checkpoints = n_max.bit_length()
    if len(rows) != replications * checkpoints:
        errors.append(f"{label}: {len(rows)} rows, want {replications * checkpoints}")
    last_w = {}
    for r, n, s, ratio, w in rows:
        if r in censored:
            continue
        want = s / n ** (1.0 / p)
        if not math.isclose(ratio, want, rel_tol=1e-15, abs_tol=0.0):
            errors.append(f"{label}: rep {r} n {n}: ratio {ratio!r} != |S_n|/n^(1/p) {want!r}")
        if not w >= last_w.get(r, 0.0):
            errors.append(f"{label}: rep {r} n {n}: W decreased to {w!r}")
        last_w[r] = w
    return errors


def check_rademacher(rows, p, q, bands) -> list[str]:
    """|S_n| is an integer of the parity of n, at most n; the mean of r_n^q
    over the replications lies in the Chernoff band of the exact moment."""
    errors = []
    by_n: dict[int, list[float]] = {}
    for r, n, s, ratio, _ in rows:
        if s != math.floor(s) or int(s) % 2 != n % 2 or s > n:
            errors.append(f"rademacher: rep {r} n {n}: |S_n| = {s!r} is impossible")
        by_n.setdefault(n, []).append(ratio**q)
    for n, mu, lo, hi in bands:
        values = by_n.get(n, [])
        mean = math.fsum(values) / len(values) if values else math.nan
        if not (mu - lo - 1e-12 <= mean <= mu + hi + 1e-12):
            errors.append(f"rademacher: n {n}: mean r^q {mean!r} outside "
                          f"[{mu - lo!r}, {mu + hi!r}] around exact {mu!r}")
    return errors


# ---------------------------------------------------------------------------
# criteria-grid
# ---------------------------------------------------------------------------


class CriteriaGrid:
    """One `criteria` invocation per config, over the three clauses and both
    criteria.  The seed only orders the grid."""

    name = "criteria-grid"
    grid = [
        # label, model, p, q, criterion
        ("pareto2", {"builtin": "pareto", "params": {"alpha": 2.0}}, 1.0, 0.5, "almost-sure"),
        ("rademacher", {"builtin": "rademacher"}, 1.5, 0.5, "almost-sure"),
        ("pareto05", {"builtin": "pareto", "params": {"alpha": 0.5}}, 0.5, 0.5, "almost-sure"),
        ("logpower-as", {"builtin": "log-power", "params": {"power": 0.5, "log_power": 2.0}},
         0.5, 0.5, "almost-sure"),
        ("logpower-exp", {"builtin": "log-power", "params": {"power": 0.5, "log_power": 2.0}},
         0.5, 0.5, "expectation"),
        ("loglog-as", {"builtin": "log-loglog-power", "params": {"power": 0.5}},
         0.5, 0.5, "almost-sure"),
        ("loglog-exp", {"builtin": "log-loglog-power", "params": {"power": 0.5}},
         0.5, 0.5, "expectation"),
        ("loglog-q025", {"builtin": "log-loglog-power", "params": {"power": 0.5}},
         0.5, 0.25, "almost-sure"),
        ("logpower025-q025", {"builtin": "log-power", "params": {"power": 0.25, "log_power": 4.0}},
         0.5, 0.25, "almost-sure"),
        ("readme-custom", {"custom": README_CUSTOM_MODEL}, 0.5, 0.5, "almost-sure"),
    ]

    def __init__(self, seed: int, run_dir: str):
        self.inputs = os.path.join(run_dir, "inputs")
        os.makedirs(self.inputs, exist_ok=True)
        self.order = list(self.grid)
        random.Random(seed).shuffle(self.order)
        self.paths = {}
        for label, model, p, q, criterion in self.order:
            cfg = {"schema": 1, "model": model, "p": p, "q": q,
                   "criteria": {"t_cap": T_CAP, "series_n_max": SERIES_N_MAX,
                                "criterion": criterion}}
            self.paths[label] = _write_json(os.path.join(self.inputs, f"{label}.json"), cfg)

    def commands(self, out_dir: str) -> list[Command]:
        return [Command(label, ["criteria", "--config", self.paths[label]],
                        os.path.join(out_dir, f"{label}.json"))
                for label, *_ in self.order]

    def check_round(self, out_dir: str) -> tuple[list[str], int]:
        errors = []
        for label, model, p, q, criterion in self.grid:
            report = _read_json(os.path.join(out_dir, f"{label}.json"))
            tail = ref.tail_from_spec(model)
            expected = ref.expected_membership(tail, p, q, criterion)
            if report["membership"] != expected:
                errors.append(f"{label}: membership {report['membership']}, want {expected}")
            errors += check_estimates(label, report, tail, p, q)
            table = report["series_table"]
            if label == "pareto05":
                if not table or any(v != 0.0 for v in table["partial_sums"]):
                    errors.append(f"{label}: truncated series is not exactly zero")
            if label == "loglog-as":
                sums = table["partial_sums"] if table else []
                if len(sums) < 2 or any(b <= a for a, b in zip(sums, sums[1:])):
                    errors.append(f"{label}: partial sums {sums} do not strictly increase")
        return errors, 0


def check_estimates(label, report, tail, p, q) -> list[str]:
    """Window estimates with a closed form agree with it to 1e-6 (relative)."""
    errors = []
    want = {"integral_verdict": ref.window_integral(tail, p, q, T_CAP),
            "p_moment_verdict": ref.window_integral(tail, p, p, T_CAP)}
    if label == "pareto2":
        # the full integrals: both equal E|X|^p = alpha / (alpha - p) = 2 at p = 1
        want = {k: ref.pareto_p_moment(2.0, p) for k in want}
    for key, value in want.items():
        if value is None:
            continue
        got = report[key]["estimate_on_window"]
        if not abs(got - value) <= 1e-6 * max(1.0, abs(value)):
            errors.append(f"{label}: {key} estimate {got!r}, closed form {value!r}")
    return errors


# ---------------------------------------------------------------------------
# verify-oracles
# ---------------------------------------------------------------------------


class VerifyOracles:
    """The three oracle suites, one `verify` invocation each."""

    name = "verify-oracles"
    suites = ("lemmas", "small-series", "marcus-pisier")
    lemma_instances = 2 * (1 << 10) * 10 * 3
    symmetrization_instances = 100 * 4 * 5
    small_series = [(p, q) for p in (1.0, 1.5) for q in (0.5, 1.0)]

    def __init__(self, seed: int, run_dir: str):
        self.seed = seed & MASK64

    def commands(self, out_dir: str) -> list[Command]:
        return [Command(suite, ["verify", suite, "--seed", str(self.seed)],
                        os.path.join(out_dir, f"{suite}.json"))
                for suite in self.suites]

    def check_round(self, out_dir: str) -> tuple[list[str], int]:
        errors = []
        for suite in self.suites:
            results = _read_json(os.path.join(out_dir, f"{suite}.json"))["results"]
            for r in results:
                if not r["holds"]:
                    errors.append(f"{suite}: {r['check']} fails at {r['instance']}")
            if suite == "lemmas":
                counts = {r["check"]: r for r in results if isinstance(r["instance"], str)}
                lattice = counts.get("max-inequality", {}).get("count")
                sym = counts.get("symmetrization", {}).get("instance", "")
                sym_count = math.prod(int(t) for t in sym.split() if t.isdigit()) if sym else 0
                if lattice != self.lemma_instances:
                    errors.append(f"lemmas: max-inequality lattice {lattice}, "
                                  f"want {self.lemma_instances}")
                if sym_count != self.symmetrization_instances:
                    errors.append(f"lemmas: symmetrization instances {sym_count}, "
                                  f"want {self.symmetrization_instances}")
            if suite == "marcus-pisier":
                if len(results) != 3:
                    errors.append(f"marcus-pisier: {len(results)} cases, want 3")
                errors += [f"marcus-pisier: min_margin {r['min_margin']!r} <= 0 at "
                           f"{r['instance']}" for r in results if not r["min_margin"] > 0.0]
            if suite == "small-series" and len(results) != len(self.small_series):
                errors.append(f"small-series: {len(results)} cases, "
                              f"want {len(self.small_series)}")
        return errors, 0


def check_exact_series(calls) -> list[str]:
    """exact_series_small against brute-force enumeration, to 1e-12.

    `calls` holds ((p, q, n_limit), values) pairs from the program.
    """
    errors = []
    for (p, q, n_limit), values in calls:
        if len(values) != n_limit:
            errors.append(f"exact_series_small({p}, {q}): {len(values)} values, want {n_limit}")
        for n, got in enumerate(values, start=1):
            want = ref.brute_force_moment(n, p, q)
            if not abs(got - want) <= 1e-12:
                errors.append(f"exact_series_small({p}, {q}) at n={n}: {got!r} != {want!r}")
    return errors


WORKLOADS = {w.name: w for w in (SimulateStream, CriteriaGrid, VerifyOracles)}
