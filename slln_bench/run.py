"""Benchmark of the pqslln laboratory, run the way a user runs the CLI.

    python3 slln_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from its `src`.

--trace 0 is the timed run.  A closed-loop client with one connection runs
the workload's round of `pqslln` commands, one fresh process at a time, in
whole rounds for about S seconds, then checks every output.  Times are
reported at a fixed host speed (see `calibration_pass`).

--trace 1 is the traced run.  It runs the same inputs in this process
through `pqslln.cli.main`, first untraced and then with the layer wrappers of
`layers.py` installed, and reports per-layer figures.

The last line of standard output is the JSON result.  Working files go to
.slln_bench_runs/<workload>/ under the checkout, which each run empties.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 2          # set-up samples before the first round
SETUP_BETWEEN_ROUNDS = 1   # and after each round, so they span the run
CALIBRATION_PASSES = 2     # calibration passes timed between two commands
CALIBRATION_REF_S = 0.14   # seconds of one pass at the host speed times are scaled to
END_TO_END = [
    ("setup_s", "s"),
    ("command_max_s", "s"),
    ("rest_of_round_s", "s"),
    ("round_s", "s"),
    ("peak_rss_mib", "MiB"),
]


def fail(msg: str) -> None:
    print(f"slln_bench: {msg}", file=sys.stderr)
    sys.exit(2)


_CALIBRATION_ARRAY = np.random.default_rng(0).random(1 << 21)


def calibration_pass() -> float:
    """Seconds of a fixed piece of work of the benchmark's own, made of what
    a pqslln command does: start an interpreter that imports a few standard
    modules, then rational arithmetic on growing integers, then a numpy sort
    and cumulative sum.

    The host is shared, and its speed drifts by up to a factor of two over
    tens of seconds to minutes.  A command's wall time divided by the time
    of this pass just before and after it no longer carries that drift;
    multiplied by CALIBRATION_REF_S it is in seconds at the host speed where
    one pass takes CALIBRATION_REF_S.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "import argparse, csv, decimal, fractions, json"],
                   check=True)
    total = Fraction(0)
    for i in range(1, 2500):
        total += Fraction(1, i) ** 3
    np.cumsum(np.sqrt(np.sort(_CALIBRATION_ARRAY)))
    return time.perf_counter() - start


class Client:
    """Runs `pqslln` commands in fresh processes and records their cost."""

    def __init__(self, root: str, run_dir: str):
        self.run_dir = run_dir
        self.passes: list[float] = []   # calibration passes since the last command
        # the checkout's sources, and no setting that would change the program's path
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PQ_SLLN_WORKERS", "PQSLLN_BACKEND", "PYTHONPATH")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")

    def calibrate(self) -> list[float]:
        self.passes = [calibration_pass() for _ in range(CALIBRATION_PASSES)]
        return self.passes

    def run(self, argv: list, stdout_path: str) -> tuple[int, float, float, float]:
        """(exit code, wall seconds, seconds at the reference host speed,
        peak RSS MiB) of one invocation."""
        before = self.passes or self.calibrate()
        with open(stdout_path, "w") as out, open(stdout_path + ".stderr", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "pqslln.cli", *argv],
                                    stdout=out, stderr=err, cwd=self.run_dir, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
        speed = CALIBRATION_REF_S / statistics.median(before + self.calibrate())
        return proc.returncode, wall, wall * speed, usage.ru_maxrss / 1024.0


def run_in_process(cli, argv: list, stdout_path: str) -> int:
    with open(stdout_path, "w") as out, open(stdout_path + ".stderr", "w") as err:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return cli.main(argv)
            except Exception:  # a crash is a failed operation, recorded with its traceback
                traceback.print_exc()
                return -1


def commands(workload, out_dir: str, workers: int | None = None):
    os.makedirs(out_dir, exist_ok=True)
    if workers is None:
        return workload.commands(out_dir)
    return workload.commands(out_dir, workers=workers)


def check_round(workload, out_dir: str) -> tuple[list[str], int]:
    """The workload's checks; output that cannot be read is a failed check."""
    try:
        return workload.check_round(out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{out_dir}: unreadable output: {exc!r}"], 0


def setup_times(client: Client, repeats: int, warm: bool = False) -> list[tuple]:
    """(wall, scaled) seconds of fresh `pqslln --version` runs: interpreter
    start, imports and parser.  `warm` first runs one untimed, which compiles
    the byte code."""
    probe = os.path.join(client.run_dir, "version.out")
    times = []
    for i in range(repeats + warm):
        code, wall, scaled, _ = client.run(["--version"], probe)
        if code != 0:
            fail(f"pqslln --version exited {code}; see {probe}.stderr")
        if i or not warm:
            times.append((wall, scaled))
    return times


def time_metrics(rounds: list, setup: list, column: int) -> dict:
    """The time metrics of a timed run, from the wall (column 2) or the
    scaled (column 3) times of its commands.

    The slowest command is the one with the largest median over rounds; the
    rest of a round is the summed time of its other commands.  Sums over
    several commands are steadier than any one command of a few seconds.
    """
    slots: dict[str, list[float]] = {}
    for _, results in rounds:
        for r in results:
            slots.setdefault(r[0], []).append(r[column])
    slowest = max(slots, key=lambda label: statistics.median(slots[label]))
    totals = [sum(r[column] for r in results) for _, results in rounds]
    return {
        "setup_s": statistics.median(setup),
        "command_max_s": statistics.median(slots[slowest]),
        "rest_of_round_s": statistics.median(t - s for t, s in zip(totals, slots[slowest])),
        "round_s": statistics.median(totals),
    }


def timed_run(name: str, seed: int, seconds: float, root: str, run_dir: str) -> dict:
    client = Client(root, run_dir)
    workload = wl.WORKLOADS[name](seed, run_dir)
    setup = setup_times(client, SETUP_REPEATS, warm=True)

    rounds = []   # per round: out dir, [(label, code, wall, scaled, rss)]
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        out_dir = os.path.join(run_dir, f"round{len(rounds)}")
        results = [(c.label, *client.run(c.argv, c.stdout)) for c in commands(workload, out_dir)]
        rounds.append((out_dir, results))
        setup += setup_times(client, SETUP_BETWEEN_ROUNDS)

    errors: list[str] = []
    contradictions = 0
    attempted = failed = 0
    for out_dir, results in rounds:
        attempted += len(results)
        bad = [(label, code) for label, code, *_ in results if code != 0]
        failed += len(bad)
        for label, code in bad:
            print(f"failed: {label} exited {code}", file=sys.stderr)
        if not bad:
            errs, contra = check_round(workload, out_dir)
            errors += errs
            contradictions += contra
    if isinstance(workload, wl.SimulateStream) and not failed:
        first = workload.tables(rounds[0][0])
        for out_dir, _ in rounds[1:]:
            if workload.tables(out_dir) != first:
                errors.append(f"{out_dir}: tables differ from round 0 at the same seed")
    if isinstance(workload, wl.VerifyOracles):
        errors += check_exact_series_in_process(root)
    if contradictions:
        print(f"note: {contradictions} Monte Carlo W verdict(s) contradict the expected "
              "membership (reported, not gated)", file=sys.stderr)

    metrics = time_metrics(rounds, [scaled for _, scaled in setup], 3)
    metrics["peak_rss_mib"] = max(rss for _, results in rounds for *_, rss in results)
    wall = time_metrics(rounds, [wall for wall, _ in setup], 2)
    for label in dict.fromkeys(r[0] for r in rounds[0][1]):
        times = [r[3] for _, results in rounds for r in results if r[0] == label]
        print(f"{label}: {statistics.median(times):.4f} s (median of {len(times)})",
              file=sys.stderr)
    print(f"{len(rounds)} rounds; in wall seconds: "
          + ", ".join(f"{k} {v:.4f}" for k, v in wall.items()), file=sys.stderr)
    return {"errors": errors, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}}


def load_program(root: str):
    """Import pqslln from the checkout's sources into this process."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import pqslln
    from pqslln import (banach_lp, cli, criteria, kernels, mc_engine, oracles,
                        quadrature, rng, tail_models)
    if not os.path.abspath(pqslln.__file__).startswith(src + os.sep):
        fail(f"imported pqslln from {pqslln.__file__}, not from {src}")
    return argparse.Namespace(banach_lp=banach_lp, cli=cli, criteria=criteria,
                              kernels=kernels, mc_engine=mc_engine, oracles=oracles,
                              quadrature=quadrature, rng=rng, tail_models=tail_models)


def check_exact_series_in_process(root: str) -> list[str]:
    pq = load_program(root)
    calls = [((p, q, 12), pq.oracles.exact_series_small(pq.oracles.rademacher_law(), p, q, 12))
             for p, q in wl.VerifyOracles.small_series]
    return wl.check_exact_series(calls)


def traced_run(name: str, seed: int, root: str, run_dir: str) -> dict:
    client = Client(root, run_dir)
    workload = wl.WORKLOADS[name](seed, run_dir)
    setup_times(client, 0, warm=True)
    import_s = layers.import_times(root, client.env)
    simulate = isinstance(workload, wl.SimulateStream)
    attempted = failed = 0
    errors: list[str] = []

    def tally(label, code):
        nonlocal attempted, failed
        attempted += 1
        if code != 0:
            failed += 1
            print(f"failed: {label} exited {code}", file=sys.stderr)

    # the timed configuration once, for the worker-count comparison
    sub_dir = os.path.join(run_dir, "subprocess")
    if simulate:
        for c in commands(workload, sub_dir):
            tally(c.label, client.run(c.argv, c.stdout)[0])

    pq = load_program(root)
    one_worker = 1 if simulate else None

    def in_process_round(out_dir):
        start = time.perf_counter()
        for c in commands(workload, out_dir, one_worker):
            with tracer.span(f"cli.{c.label}"):
                tally(c.label, run_in_process(pq.cli, c.argv, c.stdout))
        return time.perf_counter() - start

    tracer = Tracer()
    tracer.phase = "untraced"
    untraced_dir = os.path.join(run_dir, "untraced")
    untraced_s = in_process_round(untraced_dir)

    inst = layers.Instrumentation(tracer, pq)
    inst.install()
    tracer.phase = "main"
    traced_dir = os.path.join(run_dir, "traced")
    try:
        traced_s = in_process_round(traced_dir)
        speedup = 0.0
        if simulate:
            tracer.phase = "speedup"
            speed_dir = os.path.join(run_dir, "speedup")
            c = commands(workload, speed_dir, workers=2)[0]
            tally(c.label, run_in_process(pq.cli, c.argv, c.stdout))
    finally:
        tracer.restore()

    index = tracer.analysis()
    if simulate:
        one = index.outermost("cli.rademacher", "main")[0]
        w1 = sum(s[3] - s[2] for s in index.by_name["mc_engine.run_paths"]
                 if s[6] == "main" and one[2] <= s[2] and s[3] <= one[3])
        w2 = index.seconds("mc_engine.run_paths", "speedup")
        speedup = w1 / 1e9 / w2 if w2 else 0.0

    contradictions = 0
    if not failed:
        for out_dir in ([sub_dir] if simulate else []) + [untraced_dir, traced_dir]:
            errs, contra = check_round(workload, out_dir)
            errors += errs
            contradictions += contra if out_dir == traced_dir else 0
        if simulate:
            traced_tables = workload.tables(traced_dir)
            if workload.tables(sub_dir) != traced_tables:
                errors.append("--workers 2 tables differ from the 1-worker traced tables")
            label = workload.configs[0][0]
            if workload.tables(speed_dir, [label])[label] != traced_tables[label]:
                errors.append("traced --workers 2 table differs from the 1-worker table")
    if isinstance(workload, wl.VerifyOracles):
        errors += wl.check_exact_series(inst.exact_series)
        if len(inst.exact_series) != len(workload.small_series):
            errors.append(f"{len(inst.exact_series)} exact_series_small calls traced")

    values = layers.per_layer_metrics(index, inst, import_s, speedup, contradictions)
    tracer.dump(os.path.join(run_dir, "trace_spans.jsonl"))
    summary = {
        "untraced_s": untraced_s, "traced_s": traced_s,
        "tracing_overhead_s": traced_s - untraced_s,
        "inclusive_s": {n: index.seconds(n) for n in sorted(index.by_name)},
        "self_s": dict(sorted(index.self_seconds().items())),
        "calls": {n: index.calls(n) for n in sorted(index.by_name)},
        "per_layer": values,
    }
    with open(os.path.join(run_dir, "trace_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"traced round {traced_s:.3f} s, untraced {untraced_s:.3f} s, "
          f"overhead {traced_s - untraced_s:+.3f} s", file=sys.stderr)
    units = {n: u for n, u, _ in layers.PER_LAYER}
    return {"errors": errors, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in units}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "pqslln", "cli.py")):
        fail(f"no pqslln sources under {os.path.join(root, 'src')}")
    run_dir = os.path.join(root, ".slln_bench_runs", args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    if args.trace:
        result = traced_run(args.workload, args.seed, root, run_dir)
    else:
        result = timed_run(args.workload, args.seed, args.seconds, root, run_dir)
    for err in result["errors"][:50]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not result["errors"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
