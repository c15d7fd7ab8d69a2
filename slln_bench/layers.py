"""Which pqslln functions the traced run wraps, and the per-layer metrics.

Each public function is patched where its caller looks it up, so the spans
sit at the boundaries between the package's modules.  A metric of a layer
the workload does not reach reads 0.
"""

from __future__ import annotations

import statistics
import subprocess
import sys

import numpy as np

import reference as ref

# (name, unit, better); BENCHMARK.json lists the same metrics
PER_LAYER = [
    ("import.total_s", "s", "lower"),
    ("import.scipy_s", "s", "lower"),
    ("rng.uniforms", "count", "lower"),
    ("rng.open_uniforms.ns_per_elem", "ns", "lower"),
    ("mc_engine.sampler.ns_per_elem", "ns", "lower"),
    ("mc_engine.sampler.setup_s", "s", "lower"),
    ("mc_engine.sampler.inv_rel_err_max", "ratio", "lower"),
    ("kernels.accumulate_chunk.ns_per_step", "ns", "lower"),
    ("kernels.accumulate_chunk.s", "s", "lower"),
    ("mc_engine.run_paths.s", "s", "lower"),
    ("mc_engine.run_paths.speedup_w2", "ratio", "higher"),
    ("mc_engine.summary_dict.s", "s", "lower"),
    ("mc_engine.summary_verdict.contradictions", "count", "lower"),
    ("mc_engine.dense_ratio_moments.s", "s", "lower"),
    ("cli.to_csv.s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("tail_models.quantiles_un.s", "s", "lower"),
    ("tail_models.survival.elems", "count", "lower"),
    ("tail_models.CumulativeTailTable.s", "s", "lower"),
    ("quadrature.integrate.calls", "count", "lower"),
    ("quadrature.intervals", "count", "lower"),
    ("quadrature.integrate.s", "s", "lower"),
    ("criteria.integral_pq.calls", "count", "lower"),
    ("criteria.p_moment.calls", "count", "lower"),
    ("criteria.truncated_series.s", "s", "lower"),
    ("criteria.llogl_moment.s", "s", "lower"),
    ("oracles.lemma_max_check.us_per_call", "us", "lower"),
    ("oracles.symmetrization_check.s", "s", "lower"),
    ("oracles.exact_series_small.s", "s", "lower"),
    ("banach_lp.marcus_pisier_check.s", "s", "lower"),
]

# u values the sampler accuracy guard inverts: 2^0 down to 2^-53
SAMPLER_PROBE_U = np.exp2(-np.linspace(0.0, 53.0, 107))


class Instrumentation:
    """Installs the wrappers on a loaded pqslln and keeps what they collect."""

    def __init__(self, tracer, pq):
        self.tracer = tracer
        self.pq = pq
        self.generators: list = []     # (phase, generator) for every Philox stream opened
        self.samplers: list = []
        self.exact_series: list = []   # ((p, q, n_limit), values) per exact_series_small call

    def install(self) -> None:
        t, pq = self.tracer, self.pq

        def size(args, kwargs, result):
            return int(np.size(result))

        t.wrap(pq.rng, "generator", "rng.generator",
               on_call=lambda a, k, r: self.generators.append((t.phase, r)))
        t.wrap(pq.rng, "open_uniforms", "rng.open_uniforms", work=size)
        t.wrap(pq.mc_engine.MagnitudeSampler, "__init__", "mc_engine.sampler.setup",
               on_call=lambda a, k, r: self.samplers.append(a[0]))
        t.wrap(pq.mc_engine.MagnitudeSampler, "__call__", "mc_engine.sampler", work=size)
        t.wrap(pq.kernels, "accumulate_chunk", "kernels.accumulate_chunk",
               work=lambda a, k, r: int(np.size(a[0])))
        for fn in ("run_paths", "summary_dict", "dense_ratio_moments"):
            t.wrap(pq.mc_engine, fn, f"mc_engine.{fn}")
        t.wrap(pq.mc_engine.CheckpointTable, "to_csv", "cli.to_csv")
        t.wrap(pq.cli._AtomicWriter, "write", "cli.write",
               work=lambda a, k, r: len(a[2].encode()))
        t.wrap(pq.tail_models, "survival", "tail_models.survival",
               work=lambda a, k, r: int(np.size(a[1])))
        t.wrap(pq.tail_models, "quantiles_un", "tail_models.quantiles_un")
        for method in ("__init__", "__call__"):
            t.wrap(pq.tail_models.CumulativeTailTable, method,
                   "tail_models.CumulativeTailTable")
        # `integrate` is imported by name into criteria and tail_models
        for owner in (pq.quadrature, pq.criteria, pq.tail_models):
            t.wrap(owner, "integrate", "quadrature.integrate",
                   work=lambda a, k, r: r.intervals)
        for fn in ("integral_pq", "p_moment", "llogl_moment", "truncated_series"):
            t.wrap(pq.criteria, fn, f"criteria.{fn}")
        for fn in ("classify_slln", "series_expectation_criterion"):
            t.wrap(pq.criteria, fn, "criteria.classify")
        for fn in ("lemma_max_check", "symmetrization_check"):
            t.wrap(pq.oracles, fn, f"oracles.{fn}")
        t.wrap(pq.oracles, "exact_series_small", "oracles.exact_series_small",
               on_call=lambda a, k, r: self.exact_series.append((a[1:4], list(r))))
        t.wrap(pq.banach_lp, "marcus_pisier_check", "banach_lp.marcus_pisier_check")

    def uniforms_drawn(self, phase: str = "main") -> int:
        """64-bit outputs drawn from the Philox streams opened in `phase`."""
        total = 0
        for opened, gen in self.generators:
            if opened != phase:
                continue
            state = gen.bit_generator.state
            counter = state["state"]["counter"]
            total += 4 * (int(counter[0]) + (int(counter[1]) << 64) - 1) + state["buffer_pos"]
        return total

    def sampler_inverse_error(self) -> float:
        """Worst relative error of every sampler built, against the mpmath inverse."""
        worst, seen = 0.0, set()
        for sampler in self.samplers:
            kind, params = sampler.model.origin
            if (kind, params) in seen:
                continue
            seen.add((kind, params))
            spec = {"builtin": kind, "params": dict(params)}
            tail = ref.tail_from_spec(spec)
            got = np.asarray(sampler(SAMPLER_PROBE_U), dtype=float)
            want = np.array([ref.inverse_survival_mp(tail, float(u)) for u in SAMPLER_PROBE_U])
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
        return worst


def import_times(root: str, env: dict, repeats: int = 3) -> tuple[float, float]:
    """Median (total, scipy) seconds of `import pqslln.cli` in a fresh interpreter,
    from -X importtime.  The scipy figure sums the outermost scipy modules."""
    totals, scipys = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pqslln.cli"],
                              cwd=root, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import pqslln.cli failed:\n{proc.stderr}")
        total, scipy = parse_importtime(proc.stderr)
        totals.append(total)
        scipys.append(scipy)
    return statistics.median(totals), statistics.median(scipys)


def parse_importtime(text: str) -> tuple[float, float]:
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line or "self [us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip()))
    total = next(cum for _, cum, name in rows if name == "pqslln.cli")
    scipy, stack = 0, []
    for depth, cum, name in reversed(rows):   # parents come before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy"
                                                     for _, n in stack):
            scipy += cum
        stack.append((depth, name))
    return total / 1e6, scipy / 1e6


def per_layer_metrics(index, inst: Instrumentation, import_s: tuple[float, float],
                      speedup: float, contradictions: int) -> dict[str, float]:
    """Per-layer figures from the spans of the traced round (phase "main")."""
    criteria_tops = index.outermost("criteria.classify")

    def per_config(name):
        return max((index.descendants_named(s, name) for s in criteria_tops), default=0)

    lemma_calls = index.calls("oracles.lemma_max_check")
    values = {
        "import.total_s": import_s[0],
        "import.scipy_s": import_s[1],
        "rng.uniforms": inst.uniforms_drawn(),
        "rng.open_uniforms.ns_per_elem": index.per_elem_ns("rng.open_uniforms"),
        "mc_engine.sampler.ns_per_elem": index.per_elem_ns("mc_engine.sampler"),
        "mc_engine.sampler.setup_s": index.seconds("mc_engine.sampler.setup"),
        "mc_engine.sampler.inv_rel_err_max": inst.sampler_inverse_error(),
        "kernels.accumulate_chunk.ns_per_step": index.per_elem_ns("kernels.accumulate_chunk"),
        "kernels.accumulate_chunk.s": index.seconds("kernels.accumulate_chunk"),
        "mc_engine.run_paths.s": index.seconds("mc_engine.run_paths"),
        "mc_engine.run_paths.speedup_w2": speedup,
        "mc_engine.summary_dict.s": index.seconds("mc_engine.summary_dict"),
        "mc_engine.summary_verdict.contradictions": contradictions,
        "mc_engine.dense_ratio_moments.s": index.seconds("mc_engine.dense_ratio_moments"),
        "cli.to_csv.s": index.seconds("cli.to_csv"),
        "cli.artifact_bytes": index.work("cli.write"),
        "tail_models.quantiles_un.s": index.seconds("tail_models.quantiles_un"),
        "tail_models.survival.elems": index.work("tail_models.survival"),
        "tail_models.CumulativeTailTable.s": index.seconds("tail_models.CumulativeTailTable"),
        "quadrature.integrate.calls": index.calls("quadrature.integrate"),
        "quadrature.intervals": index.work("quadrature.integrate"),
        "quadrature.integrate.s": index.seconds("quadrature.integrate"),
        "criteria.integral_pq.calls": per_config("criteria.integral_pq"),
        "criteria.p_moment.calls": per_config("criteria.p_moment"),
        "criteria.truncated_series.s": index.seconds("criteria.truncated_series"),
        "criteria.llogl_moment.s": index.seconds("criteria.llogl_moment"),
        "oracles.lemma_max_check.us_per_call": (
            1e6 * index.seconds("oracles.lemma_max_check") / lemma_calls if lemma_calls else 0.0),
        "oracles.symmetrization_check.s": index.seconds("oracles.symmetrization_check"),
        "oracles.exact_series_small.s": index.seconds("oracles.exact_series_small"),
        "banach_lp.marcus_pisier_check.s": index.seconds("banach_lp.marcus_pisier_check"),
    }
    return values
