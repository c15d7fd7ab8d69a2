"""Experiment runner: criteria evaluation, simulation, oracle suites, reports.

Subcommands
-----------
criteria   evaluate the membership criteria for a (model, p, q) config
simulate   run the Monte Carlo engine; writes the checkpoint CSV, a JSON
           summary, and a run manifest sufficient to reproduce the outputs
verify     run the oracle suites (lemmas, marcus-pisier, small-series, all)
report     consolidate manifests into a CSV comparing analytic verdicts
           against empirical ones

Exit codes: criteria 0 on Member/NonMember, 3 on Inconclusive; any config
parse error exits 2 with line/column diagnostics; verify exits 1 if any
inequality is violated; a write error or running out of memory exits 1 with
one error line.  No partial artifacts survive a failed run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import operator
import os
import sys
import time
from dataclasses import asdict

# numpy reads this once, as it loads.  pqslln's only BLAS calls are the three
# dot products of trend.fit_line, and it runs in parallel through --workers:
# an OpenBLAS thread pool would only cost start-up time and make those sums
# depend on the host's core count.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from . import __version__  # noqa: E402
from . import tail_models as tm  # noqa: E402
from .errors import ConfigError, NonMonotoneTail, PqsllnError  # noqa: E402
from .trend import MODES  # noqa: E402

SCHEMA_VERSION = 1
# what building a model from a spec raises on bad input
_MODEL_ERRORS = (AttributeError, KeyError, TypeError, ValueError, NonMonotoneTail)
# the criterion names, each with the name of its classifier in `criteria`,
# looked up when it is called so that a wrapper put on `criteria` sees the call
_CLASSIFIERS = {"almost-sure": "classify_slln", "expectation": "series_expectation_criterion"}
# the ways to give a model, each with the keys it may carry
_MODEL_FORMS = {"builtin": {"builtin", "params"}, "custom": {"custom"}, "file": {"file"},
                "sequence": {"sequence"}}

# Every config key: section (None for the root) -> key -> (type, default), where
# a type may be a tuple of the strings allowed, a default of None marks a
# required key, and a dict-typed key with its own entry here is a section.
# A manifest's "config" is this checked document.
_SCHEMA = {
    None: {"schema": (int, SCHEMA_VERSION), "name": (str, ""), "model": (dict, None),
           "p": (float, None), "q": (float, None), "criteria": (dict, {}),
           "simulate": (dict, {})},
    "criteria": {"t_cap": (float, tm.T_CAP_DEFAULT),
                 "series_n_max": (int, tm.SERIES_N_MAX_DEFAULT),
                 "criterion": (tuple(_CLASSIFIERS), "almost-sure")},
    "simulate": {"n_max": (int, 1 << 14), "replications": (int, 64),
                 "master_seed": (int, 0), "mode": (MODES, "plain")},
}
_KIND_NAMES = {float: "a finite number", int: "an integer", str: "a string", dict: "an object"}


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def _typed(key: str, value, kind):
    """`value` as `kind`; a bool, a non-finite float, a non-integer count or
    a string outside the allowed ones is a ConfigError."""
    number = tm.is_number(value)
    if kind is float and number:
        return float(value)
    if kind is int and (type(value) is int or number and float(value).is_integer()):
        return int(value)
    if kind in (str, dict) and isinstance(value, kind) or \
            isinstance(kind, tuple) and value in kind:
        return value
    what = f"one of {list(kind)}" if isinstance(kind, tuple) else _KIND_NAMES[kind]
    raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")


def _checked(doc, section: str | None = None) -> dict:
    """A copy of `doc` checked against _SCHEMA[section], defaults filled in;
    an unknown, missing or mistyped key is a ConfigError."""
    where = f"config section {section!r}" if section else "config root"
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    schema = _SCHEMA[section]
    unknown = sorted(set(doc) - set(schema))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}; have {sorted(schema)}")
    out = {}
    for key, (kind, default) in schema.items():
        if key not in doc and default is None:
            raise ConfigError(f"config missing key {key!r}")
        value = doc.get(key, default)
        out[key] = _checked(value, key) if key in _SCHEMA else _typed(key, value, kind)
    if section is None:
        if out["schema"] != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema version {out['schema']!r}")
        try:
            tm.check_exponents(out["p"], out["q"])
        except ValueError as exc:
            raise ConfigError(f"need 0 < p < 2 and q > 0: {exc}") from exc
    return out


def _model_form(spec: dict) -> str:
    forms = [form for form in _MODEL_FORMS if form in spec]
    if len(forms) != 1 or not set(spec) <= _MODEL_FORMS[forms[0]]:
        raise ConfigError(f"model spec needs exactly one of {', '.join(_MODEL_FORMS)} "
                          f"(a builtin may add params), got keys {sorted(spec)}")
    return forms[0]


def _load_config(path: str, seed: int | None = None) -> dict:
    """The checked config at `path`.  A {"file": ...} model, resolved against
    the config's directory, is inlined as {"custom": <document>}; `seed`, when
    given, replaces simulate.master_seed.  The result replays the run."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    cfg = _checked(doc)
    if _model_form(cfg["model"]) == "file":
        model_path = os.path.join(os.path.dirname(os.path.abspath(path)),
                                  str(cfg["model"]["file"]))
        cfg["model"] = {"custom": _read_json(model_path, "model file")}
    if seed is not None:
        cfg["simulate"]["master_seed"] = seed
    return cfg


def resolve_model(spec: dict) -> tuple[tm.TailModel | None, str | None]:
    """Model spec of a checked config -> (TailModel, None) or (None, sequence rule)."""
    form = _model_form(spec)
    if form == "sequence":
        return None, spec["sequence"]
    try:
        if form == "builtin":
            return tm.make_builtin(spec["builtin"], **spec.get("params", {})), None
        return tm.load_model(spec.get("custom")), None
    except _MODEL_ERRORS as exc:
        raise ConfigError(f"bad {form} model spec: {exc}") from exc


def _criterion_report(model: tm.TailModel, cfg: dict, criterion: str):
    """The `criterion` report of `model` at the config's p, q and criteria settings."""
    from . import criteria
    settings = cfg["criteria"]
    try:
        return getattr(criteria, _CLASSIFIERS[criterion])(
            model, cfg["p"], cfg["q"], t_cap=settings["t_cap"],
            series_n_max=settings["series_n_max"])
    except ValueError as exc:  # t_cap or series_n_max out of range
        raise ConfigError(f"bad criteria settings: {exc}") from exc


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


class _AtomicWriter:
    """Output files of a `with` block, written to temporaries and renamed into
    place when it exits cleanly; a failed block or rename removes every
    temporary and every file already renamed, so no partial artifacts remain."""

    def __enter__(self) -> "_AtomicWriter":
        self._pending: list[tuple[str, str]] = []
        return self

    def write(self, path: str, content: str) -> None:
        tmp = f"{path}.tmp.{os.getpid()}"
        self._pending.append((tmp, path))  # before the write, which may fail halfway
        with open(tmp, "w") as fh:
            fh.write(content)

    def __exit__(self, exc_type, *_) -> None:
        renamed = []
        try:
            if exc_type is None:
                for tmp, path in self._pending:
                    os.replace(tmp, path)
                    renamed.append(path)
        finally:
            if len(renamed) < len(self._pending):  # the block or a rename failed
                for path in [tmp for tmp, _ in self._pending] + renamed:
                    with contextlib.suppress(OSError):
                        os.unlink(path)


def _make_out_dir(out_dir: str | None) -> None:
    """Make `--out` before any work; a path that cannot be a directory is a ConfigError."""
    if out_dir:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {out_dir}: {exc}") from exc


def _emit(out_dir: str | None, name: str, text: str) -> None:
    """Write text to out_dir/name and print that path, or print the text."""
    if not out_dir:
        print(text, end="")
        return
    path = os.path.join(out_dir, name)
    with _AtomicWriter() as writer:
        writer.write(path, text)
    print(path)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_criteria(args) -> int:
    from . import criteria
    cfg = _load_config(args.config)
    model, sequence = resolve_model(cfg["model"])
    if sequence is not None:
        raise ConfigError("criteria evaluation needs an iid tail model")
    _make_out_dir(args.out)
    report = _criterion_report(model, cfg, cfg["criteria"]["criterion"])

    _emit(args.out, "criterion_report.json",
          json.dumps(asdict(report), indent=2, sort_keys=True) + "\n")
    print(f"membership: {report.membership}", file=sys.stderr)
    return 0 if report.membership in (criteria.MEMBER, criteria.NON_MEMBER) else 3


def cmd_simulate(args) -> int:
    from . import mc_engine
    mc_engine.check_workers(args.workers)
    cfg = _load_config(args.config, args.seed)
    model, sequence = resolve_model(cfg["model"])
    config = mc_engine.ExperimentConfig(model=model, p=cfg["p"], q=cfg["q"],
                                        sequence=sequence, **cfg["simulate"])
    out_dir = args.out or "."
    _make_out_dir(out_dir)
    stem = cfg["name"] or os.path.splitext(os.path.basename(args.config))[0]

    started = time.perf_counter()
    with _AtomicWriter() as writer:
        table = mc_engine.run_paths(config, workers=args.workers)
        summary = {"config": cfg, **mc_engine.summary_dict(table)}
        wall = time.perf_counter() - started
        csv_path = os.path.join(out_dir, f"{stem}_table.csv")
        summary_path = os.path.join(out_dir, f"{stem}_summary.json")
        manifest_path = os.path.join(out_dir, f"{stem}_manifest.json")
        # absolute, so that the paths resolve from any working directory
        outputs = {"summary_json": os.path.abspath(summary_path)}
        if args.format == "both":
            outputs["table_csv"] = os.path.abspath(csv_path)
            writer.write(csv_path, table.to_csv())
        manifest = {
            "schema": SCHEMA_VERSION,
            "kind": "simulate",
            "tool_version": __version__,
            "config": cfg,
            "workers": args.workers,
            "outputs": outputs,
            "wallclock_s": wall,
        }
        writer.write(summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
        writer.write(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(manifest_path)
    return 0


_LATTICE_SCALES = ((1, 10), (1, 1), (7, 1))  # each c as (numerator, denominator)


def _max_lattice():
    """The maximal-inequality lattice as one `oracles.MaxInstances`, in the
    order K = 1, 2; n = 1..2^10; j = 1..10; c of `_LATTICE_SCALES`, with the
    (j, index of c) of each row.  Row (K, n, j, c) is the law with mass
    theta = min(K/(j n), 1) at c and the rest at 0, theta kept as the
    integers min(K, j n) over j n."""
    from . import oracles
    K, n, j, c = (a.ravel() for a in np.meshgrid(
        [1, 2], np.arange(1, (1 << 10) + 1), np.arange(1, 11),
        np.arange(len(_LATTICE_SCALES)), indexing="ij"))
    jn = j * n
    theta = np.minimum(K, jn)
    c_num, c_den = np.array(_LATTICE_SCALES).T[:, c]
    batch = oracles.MaxInstances(
        values=np.stack([np.zeros_like(c_num), c_num], axis=1), value_den=c_den,
        masses=np.stack([jn - theta, theta], axis=1), mass_den=jn, n=n, k_num=K, k_den=1)
    return batch, j, c


def _verify_lemmas(seed: int) -> list[dict]:
    from fractions import Fraction

    from . import oracles, rng
    results = []
    # maximal-inequality lattice: one batch call decides every point, and the
    # exact path gives the values of the rows recorded (n = 1, n = 2^10 and
    # any violation, up to the first)
    batch, j, c = _max_lattice()
    holds = oracles.lemma_max_holds_batch(batch)
    for i in np.flatnonzero(np.isin(batch.n, (1, 1 << 10)) | ~holds):
        law, n, K = batch.instance(i)
        lhs, rhs, exact_holds = oracles.lemma_max_check(law, n, K)
        results.append({"check": "max-inequality",
                        "instance": {"n": n, "j": int(j[i]),
                                     "c": operator.truediv(*_LATTICE_SCALES[c[i]]), "K": int(K)},
                        "lhs": lhs, "rhs": rhs, "holds": exact_holds})
        if not exact_holds:
            return results
    results.append({"check": "max-inequality", "instance": "full lattice",
                    "count": len(holds), "holds": True})

    # symmetrization lattice: randomized rational laws
    gen = rng.generator(seed, 0, rng.ROLE_PROBE)
    violations = 0
    for i in range(100):
        k = int(gen.integers(2, 7))
        values = np.round(gen.uniform(-4.0, 4.0, size=k), 6)
        weights = gen.integers(1, 20, size=k)
        total = int(weights.sum())
        law = oracles.DiscreteLaw(
            tuple((float(v), Fraction(int(w), total)) for v, w in zip(values, weights)))
        for p_exp in (0.3, 0.7, 1.0, 1.5):
            for t in (0.0, 0.25, 0.5, 1.0, 2.0):
                lhs, rhs, holds = oracles.symmetrization_check(law, p_exp, t)
                if not holds:
                    violations += 1
                    results.append({"check": "symmetrization",
                                    "instance": {"law": i, "p": p_exp, "t": t},
                                    "lhs": lhs, "rhs": rhs, "holds": False})
    results.append({"check": "symmetrization", "instance": "100 laws x 4 x 5",
                    "violations": violations, "holds": violations == 0})
    return results


def _verify_marcus_pisier(seed: int) -> list[dict]:
    from . import banach_lp
    cases = [
        (tm.pareto(1.5, "nonnegative"), 64, 1.2, np.geomspace(1.0, 1e4, 16), 100_000),
        (tm.pareto(3.0, "nonnegative"), 128, 1.5, np.geomspace(1.0, 1e3, 12), 20_000),
        (tm.degenerate(1.0), 32, 1.0, [0.5, 2.0, 8.0, 64.0], 5_000),
    ]
    results = []
    for model, n, r, grid, reps in cases:
        table = banach_lp.marcus_pisier_check(model, n, r, grid, reps, master_seed=seed)
        margin = min(rhs + 4.0 * se - l for l, rhs, se in
                     zip(table.empirical_lhs, table.analytic_rhs, table.standard_errors))
        results.append({"check": "marcus-pisier",
                        "instance": {"model": model.name, "n": n, "r": r, "reps": reps},
                        "min_margin": margin, "holds": table.holds(4.0)})
    return results


def _verify_small_series(seed: int) -> list[dict]:
    from . import mc_engine, oracles
    results = []
    law = oracles.rademacher_law()
    pairs = [(p, q) for p in (1.0, 1.5) for q in (0.5, 1.0)]
    moments = mc_engine.dense_ratio_moments(tm.rademacher(), pairs, 12, 100_000, seed)
    for (p, q), (mean, se) in zip(pairs, moments):
        exact = oracles.exact_series_small(law, p, q, 12)
        diff, band = np.abs(mean - exact), 4.0 * se  # a zero band needs diff == 0
        fraction = np.divide(diff, band, out=np.zeros_like(diff), where=band > 0.0)
        results.append({"check": "small-series", "instance": {"p": p, "q": q},
                        "worst_fraction_of_band": float(fraction.max()),
                        "holds": bool(np.all(diff <= band))})
    return results


def cmd_verify(args) -> int:
    from . import rng
    seed = rng.check_seed(args.seed if args.seed is not None else 2024)
    suites = {
        "lemmas": _verify_lemmas,
        "marcus-pisier": _verify_marcus_pisier,
        "small-series": _verify_small_series,
    }
    chosen = list(suites) if args.suite == "all" else [args.suite]
    _make_out_dir(args.out)
    results = []
    for name in chosen:
        results.extend(suites[name](seed))
    _emit(args.out, "verify_results.json",
          json.dumps({"suites": chosen, "results": results}, indent=2, sort_keys=True) + "\n")
    ok = all(r["holds"] for r in results)
    print(f"verify: {'all hold' if ok else 'VIOLATIONS FOUND'}", file=sys.stderr)
    return 0 if ok else 1


def _field(doc, path: str, what: str):
    """doc[k1][k2]... for the dotted `path`; a missing key is a ConfigError."""
    for key in path.split("."):
        if not isinstance(doc, dict) or key not in doc:
            raise ConfigError(f"cannot read {what}: no key {path!r}")
        doc = doc[key]
    return doc


def cmd_report(args) -> int:
    import csv

    from . import criteria
    _make_out_dir(args.out)
    rows = []
    contradictions = 0
    for manifest_path in args.manifests:
        manifest = _read_json(manifest_path, "manifest")
        what = f"manifest {manifest_path}"
        doc = _field(manifest, "config", what)
        try:
            cfg = _checked(doc)
        except ConfigError as exc:
            raise ConfigError(f"{what}: {exc}") from exc
        model, sequence = resolve_model(cfg["model"])
        p, q = cfg["p"], cfg["q"]
        manifest_dir = os.path.dirname(os.path.abspath(manifest_path))
        # simulate writes its outputs next to the manifest; looking them up
        # there works from any cwd and after the run directory is moved
        summary_name = os.path.basename(_field(manifest, "outputs.summary_json", what))
        summary_path = os.path.join(manifest_dir, summary_name)
        summary = _read_json(summary_path, "summary")
        mc_kind = _field(summary, "w_verdict.kind", f"summary {summary_path}")
        if sequence is not None:
            # sequence rules have no iid criteria side; report empirical only
            rows.append({"model": sequence, "p": p, "q": q, "clause": "sequence",
                         "membership": "", "integral": "", "p_moment": "",
                         "series": "", "mc_w_verdict": mc_kind, "hard_contradiction": 0})
            continue
        report = _criterion_report(model, cfg, "almost-sure")
        hard = int((report.membership, mc_kind) in criteria.CONTRADICTIONS)
        contradictions += hard
        rows.append({
            "model": report.model, "p": p, "q": q, "clause": report.clause,
            "membership": report.membership,
            "integral": report.integral_verdict.kind,
            "p_moment": report.p_moment_verdict.kind,
            "series": (report.truncated_series_verdict.kind
                       if report.truncated_series_verdict else ""),
            "mc_w_verdict": mc_kind,
            "hard_contradiction": hard,
        })

    header = ["model", "p", "q", "clause", "membership", "integral", "p_moment",
              "series", "mc_w_verdict", "hard_contradiction"]
    buffer = io.StringIO()
    writer_csv = csv.writer(buffer, lineterminator="\n")
    writer_csv.writerow(header)
    for row in rows:
        writer_csv.writerow([row[h] for h in header])
    _emit(args.out, "consistency_report.csv", buffer.getvalue())
    print(f"hard_contradictions: {contradictions}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pqslln",
                                     description="(p,q)-type SLLN laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("criteria", help="evaluate membership criteria")
    sp.add_argument("--config", required=True)
    sp.set_defaults(fn=cmd_criteria)

    sp = sub.add_parser("simulate", help="run the Monte Carlo engine")
    sp.add_argument("--config", required=True)
    sp.add_argument("--workers", type=int, default=1,
                    help="worker count; results do not depend on it")
    sp.add_argument("--format", choices=("json", "both"), default="both")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("verify", help="run oracle suites")
    sp.add_argument("suite", choices=("lemmas", "marcus-pisier", "small-series", "all"))
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("report", help="consolidate manifests into a comparison CSV")
    sp.add_argument("manifests", nargs="*")
    sp.set_defaults(fn=cmd_report)

    for name in ("simulate", "verify"):
        sub.choices[name].add_argument("--seed", type=int, default=None,
                                       help="master seed override (unsigned 64-bit)")
    for sp in sub.choices.values():
        sp.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PqsllnError, OSError, MemoryError) as exc:  # also a failed write or allocation
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
