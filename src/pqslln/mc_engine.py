"""Deterministic, parallel Monte Carlo over independent sequences.

Streams partial sums S_n and the running series

    W_n = sum_{m <= n} (||S_m|| / m^(1/p))^q / m

for every m up to n_max, reporting at dyadic checkpoints.  Replications are
independent work units on counter-based streams (see rng.py), aggregation is
a fixed-order reduction into preallocated arrays, so the output is
bit-identical for a fixed master seed regardless of worker count.

Replications whose running sums leave the floating-point safe range are
flagged and excluded from means but counted in a censoring report: the
infinite-moment tails produce extreme values by design, and that is a
result, not an error.

`draw_batch` is the one place that turns Philox output into draws: a batch's
magnitude uniforms (none for a point mass), then its signs (a bit each when
fair, else a uniform each), from one stream into a caller's `ChunkBuffers`.
A replication draws one batch per chunk of _CHUNK steps from its path stream,
and in symmetrized mode one from its copy stream.  `run_paths` streams the
replications in blocks, each block in lockstep: one set of buffers and one
kernel workspace serve every chunk of every replication of the block, and
the kernel's plan of a chunk position (n^e1 and the cut points) is built
once for the whole block.  The probes draw block b from probe stream b:
`dense_ratio_moments` as one signed batch of at most 4096 paths, and
`banach_lp.marcus_pisier_check` in unsigned pieces of at most max(n, _CHUNK)
magnitudes.  The `MagnitudeSampler` that worker threads share holds no buffers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import kernels, rng
from . import tail_models as tm
from .errors import ConfigError
from .trend import CONVERGES, DIVERGES, INCONCLUSIVE, MODES, Verdict, fit_line

# Part of the draw contract: each chunk draws all its magnitude uniforms, then
# all its sign bits or sign uniforms (see draw_batch), so changing the chunk
# size changes every signed draw.
_CHUNK = 1 << 16
_EULER = 0.57721566490153286060651209008240243
# the most threads a run starts: each holds about 6 MB of chunk buffers
MAX_WORKERS = 64
# the most replications streamed in lockstep: they share one kernel plan per
# chunk position, and each holds its generators (about 1.4 kB each) until
# its block ends, so an uncapped block of 2^20 replications would hold GBs
_BLOCK_REPS = 16

# Growth-verdict constants.  rho is the fitted per-doubling decay ratio of
# the partial-sum increments.  Divergence needs increments confidently not
# decaying (above RHO_CRITICAL); convergence needs decay confidently below
# RHO_CONVERGE.  The gap [0.93, 0.97] is the abstention band: the marginal
# log-corrected laws produce transient in-window decay ratios around
# 0.93-0.95 that coincide numerically with genuinely convergent power decay
# (e.g. a ratio-exponent of -1/12 gives 2^(-1/12) = 0.944), so no finite
# window separates them and the classifier must say so.  Every positive-term
# series has a positive fitted partial-sum slope on a finite window; slope is
# recorded as a diagnostic and never certifies divergence by itself.
RHO_CRITICAL = 0.97
RHO_CONVERGE = 0.93
RHO_MARGIN = 0.02

SEQ_LP_COUNTEREXAMPLE = "lp-counterexample"


# H_n for n < 64 as exact-rounded sums
_H_SMALL = np.array([math.fsum(1.0 / m for m in range(1, k + 1)) for k in range(64)])


def harmonic(n) -> np.ndarray | float:
    """H_n to double precision: the fsum table below n = 64, Euler-Maclaurin
    through the 1/(252 n^6) term above (truncation error below 1/(240 n^8))."""
    n = np.asarray(n, dtype=float)
    m = np.maximum(n, 64.0)
    inv2 = 1.0 / (m * m)
    big = np.log(m) + _EULER + 0.5 / m - inv2 * (1 / 12 - inv2 * (1 / 120 - inv2 / 252))
    out = np.where(n < 64, _H_SMALL[np.minimum(n, 63).astype(int)], big)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ExperimentConfig:
    model: tm.TailModel | None
    p: float
    q: float
    n_max: int
    replications: int
    master_seed: int
    mode: str = "plain"  # one of MODES
    sequence: str | None = None  # e.g. "lp-counterexample" instead of an iid model

    def __post_init__(self):
        if not 1 << 10 <= self.n_max <= tm.MAX_COUNT or self.n_max & (self.n_max - 1):
            raise ConfigError("n_max must be a power of two, at least 2^10 and at most 2^53, "
                              f"got {self.n_max}")
        if not 2 <= self.replications <= tm.MAX_COUNT:
            raise ConfigError("replications must be at least 2 and at most 2^53, "
                              f"got {self.replications}")
        rng.check_seed(self.master_seed)
        tm.check_exponents(self.p, self.q)
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.sequence is None and self.model is None:
            raise ConfigError("config needs a model or a sequence rule")
        if self.sequence not in (None, SEQ_LP_COUNTEREXAMPLE):
            raise ConfigError(f"unknown sequence rule {self.sequence!r}")

    @property
    def checkpoints(self) -> np.ndarray:
        return 2 ** np.arange(0, self.n_max.bit_length(), dtype=np.int64)


@dataclass
class CheckpointTable:
    config: ExperimentConfig
    checkpoints: np.ndarray          # (K,)
    s_norm: np.ndarray               # (reps, K)
    w_partial: np.ndarray            # (reps, K)
    censored: np.ndarray             # (reps,) bool

    @property
    def active(self) -> np.ndarray:
        return ~self.censored

    @property
    def ratio(self) -> np.ndarray:
        """|S_n| / n^(1/p) at every checkpoint, (reps, K)."""
        return self.s_norm / self.checkpoints.astype(float) ** (1.0 / self.config.p)

    def censoring_report(self) -> dict:
        return {
            "replications": int(self.censored.size),
            "censored": int(np.count_nonzero(self.censored)),
            "censored_ids": np.nonzero(self.censored)[0].tolist(),
        }

    def to_csv(self) -> str:
        lines = ["replication,n,s_norm,ratio,w_partial"]
        ratio = self.ratio
        for r in range(self.s_norm.shape[0]):
            for k, n in enumerate(self.checkpoints):
                lines.append(
                    f"{r},{int(n)},{float(self.s_norm[r, k])!r},"
                    f"{float(ratio[r, k])!r},{float(self.w_partial[r, k])!r}"
                )
        return "\n".join(lines) + "\n"


class MagnitudeSampler:
    """Inverse-transform sampler for ||X||: the model's exact piecewise
    inverse survival function.  Building it builds the model's inverse
    route, Newton start tables included, so no draw, and no worker thread,
    pays for it.  Worker threads share one sampler, so it holds no buffers: a
    call with u alone allocates, and `draw_batch` passes its caller's.

    `point_mass` is the magnitude when the route is a single jump segment
    (rademacher, degenerate, zero), else None."""

    def __init__(self, model: tm.TailModel):
        self.model = model
        segments = model.inverse_route[1]  # built here, before any draw
        jump = len(segments) == 1 and segments[0].jump
        self.point_mass = segments[0].piece.t_lo if jump else None

    def __call__(self, u: np.ndarray, out: np.ndarray | None = None,
                 scratch: tm.InverseScratch | None = None) -> np.ndarray:
        return tm.inverse_survival(self.model, u, out, scratch)


class ChunkBuffers:
    """The arrays of `draw_batch` for batches of `size` draws: the uniforms,
    one draws row for each of `streams` streams, and the sampler's scratch.
    Each caller makes its own, so no two threads write to one."""

    def __init__(self, size: int, streams: int):
        self.uniforms = np.empty(size)
        self.draws = np.empty((streams, size))
        self.inverse = tm.InverseScratch(size)


def draw_batch(gen: np.random.Generator, sampler: MagnitudeSampler, threshold: float,
               out: np.ndarray, buffers: ChunkBuffers) -> np.ndarray:
    """Signed iid draws into `out`, a draws row of `buffers`, from `gen`:
    first one magnitude uniform per draw, inverted by `sampler` (none for a
    point mass, which fills `out`), then the signs unless threshold =
    P(X < 0) is 0.  A fair sign (threshold 0.5) is one bit: ceil(size / 64)
    words of `random_raw`, bit j of word k (least significant first) signing
    draw 64k + j, a set bit negative, the last word's spare bits discarded.
    Any other draw takes the sign of u - threshold, u its sign uniform.

    Signs are attached in place by `np.copysign` from `buffers.uniforms`
    (+-0.5 for a bit), so no float array of the batch's size is allocated.
    u - threshold is negative exactly where u < threshold and +0 where they
    are equal, so the uniform rule is bit for bit
    np.where(u < threshold, -mag, mag), zeros and infinities included.
    """
    signs, mag = buffers.uniforms, out
    if sampler.point_mass is None:
        sampler(rng.open_uniforms(gen, signs), out, buffers.inverse)
    else:
        out.fill(sampler.point_mass)
    if threshold <= 0.0:
        return mag
    if threshold == 0.5:  # the magnitudes are drawn: the uniforms row is free
        words = gen.bit_generator.random_raw(-(-out.size // 64)).astype("<u8", copy=False)
        bits = np.unpackbits(words.view(np.uint8), count=out.size, bitorder="little")
        np.subtract(0.5, bits, out=signs)
    else:
        gen.random(out=signs)
        signs -= threshold
    return np.copysign(mag, signs, out=mag)


def usable_cpus() -> int:
    """The CPUs this process may run on, at most MAX_WORKERS."""
    try:
        count = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        count = os.cpu_count() or 1
    return min(count, MAX_WORKERS)


def parallel_map(fn, items, workers: int) -> list:
    """[fn(item) for item in items], on min(workers, len(items)) threads when
    that is more than one; the results keep the input order."""
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _run_block(table: CheckpointTable, sampler: MagnitudeSampler, reps: range) -> None:
    """Replications `reps` of `table`, streamed in lockstep in chunks of m
    steps.  At each chunk position the kernel workspace is planned once (n^e1
    and the cut points), and then each live replication in turn draws from
    its own streams into the one `ChunkBuffers` (X, and X' in symmetrized
    mode, subtracted in place) and extends its own (S, W, comp) through the
    kernel.  |S| and W at each checkpoint go straight into the replication's
    row, and a sum that leaves the doubles sets censored[r] and ends that row
    alone."""
    config, checkpoints = table.config, table.checkpoints
    roles = [rng.ROLE_PATH] + ([rng.ROLE_COPY] if config.mode == "symmetrized" else [])
    # replication -> (its generators, its (S, W, comp)), until it is censored
    live = {r: ([rng.generator(config.master_seed, r, role) for role in roles], (0.0, 0.0, 0.0))
            for r in reps}
    threshold = config.model.negative_prob
    e1 = -(config.q / config.p) - 1.0
    m = min(_CHUNK, config.n_max)  # both are powers of two: m divides n_max
    buffers = ChunkBuffers(m, len(roles))
    work = kernels.Workspace(m)
    x = buffers.draws[0]
    filled = 0
    for pos in range(0, config.n_max, m):
        if not live:
            break
        local = checkpoints[(checkpoints > pos) & (checkpoints <= pos + m)] - pos - 1
        work.plan(pos, e1, local)
        for r, (gens, state) in list(live.items()):
            # an overflow censors the replication (checked below): a result, not a warning
            with np.errstate(over="ignore", invalid="ignore"):
                for gen, draws in zip(gens, buffers.draws):
                    draw_batch(gen, sampler, threshold, draws, buffers)
                if len(gens) > 1:
                    x -= buffers.draws[1]
                s_vals, w_vals, state = kernels.accumulate_chunk(x, state, config.q, work)
            np.abs(s_vals, out=table.s_norm[r, filled:filled + s_vals.size])
            table.w_partial[r, filled:filled + w_vals.size] = w_vals
            live[r] = gens, state
            if not (math.isfinite(state[0]) and math.isfinite(state[1])):
                table.censored[r] = True
                del live[r]
        filled += local.size


def _counterexample_table(config: ExperimentConfig) -> CheckpointTable:
    """Disjoint-coordinate l_p path: the norm of the partial sum is n^(1/p)
    exactly, so the ratio is identically 1 and W is `harmonic`'s H_n."""
    checkpoints = config.checkpoints
    # norm^p accumulates an integer count, so the norm is n^(1/p) computed as
    # the ratio's denominator is, and the ratio is bitwise 1.0
    s_row = checkpoints.astype(float) ** (1.0 / config.p)
    reps = config.replications
    return CheckpointTable(
        config=config,
        checkpoints=checkpoints,
        s_norm=np.tile(s_row, (reps, 1)),
        w_partial=np.tile(harmonic(checkpoints), (reps, 1)),
        censored=np.zeros(reps, dtype=bool),
    )


def check_workers(workers: int) -> None:
    """ConfigError unless 1 <= workers <= MAX_WORKERS."""
    if workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")
    if workers > MAX_WORKERS:
        raise ConfigError(f"--workers must be at most {MAX_WORKERS}, got {workers}")


def run_paths(config: ExperimentConfig, workers: int = 1) -> CheckpointTable:
    """Stream all replications on up to `workers` threads (1 to MAX_WORKERS);
    bit-identical output for a fixed master seed regardless of `workers`.

    The replications are cut into consecutive blocks of ceil(reps / workers),
    at most _BLOCK_REPS, and each block is streamed in lockstep (`_run_block`).
    A replication's draws and arithmetic do not depend on its block, so
    neither does the table."""
    check_workers(workers)
    if config.sequence == SEQ_LP_COUNTEREXAMPLE:
        return _counterexample_table(config)
    checkpoints, reps = config.checkpoints, config.replications
    table = CheckpointTable(config=config, checkpoints=checkpoints,
                            s_norm=np.full((reps, checkpoints.size), np.nan),
                            w_partial=np.full((reps, checkpoints.size), np.nan),
                            censored=np.zeros(reps, dtype=bool))
    sampler = MagnitudeSampler(config.model)
    size = min(-(-reps // workers), _BLOCK_REPS)
    blocks = [range(lo, min(lo + size, reps)) for lo in range(0, reps, size)]
    parallel_map(lambda block: _run_block(table, sampler, block), blocks, workers)
    return table


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def growth_verdict(ns, partial_sums) -> Verdict:
    """Trend classification of a nondecreasing partial-sum table, from the
    increments over the last two dyadic decades alone:

    - every increment zero to rounding (at most 1e-9 times the largest
      |value|): Converges, with that tolerance as the remainder bound;
    - increments decaying geometrically at fitted per-doubling ratio rho
      confidently below the critical band, over the whole window and over
      its later half: Converges, with the geometric remainder bound recorded;
    - increments confidently NOT decaying (rho above the band): Diverges;
    - anything else, the band included: Inconclusive.  The band is where the
      log-corrected marginal laws live; no finite window decides them.
    """
    ns = np.asarray(ns, dtype=float)
    vals = np.asarray(partial_sums, dtype=float)
    keep = np.isfinite(vals)
    ns, vals = ns[keep], vals[keep]
    if ns.size < 3:
        return Verdict(INCONCLUSIVE, float(vals[-1]) if vals.size else 0.0, method="growth")

    window = ns >= ns[-1] / 128.0  # last two dyadic decades (7 doublings)
    if np.count_nonzero(window) < 3:
        window = np.ones_like(ns, dtype=bool)
    nw, vw = ns[window], vals[window]
    incs = np.diff(vw)
    atol = 1e-9 * max(float(np.max(np.abs(vals))), 1e-300)
    if np.all(np.abs(incs) <= atol):
        return Verdict(CONVERGES, float(vals[-1]), remainder_bound=atol,
                       method="growth", diagnostics={"flat": True})

    pos = np.abs(incs) > 0
    rho = None
    rho_se = math.inf
    rho_late = None
    late_se = math.inf
    if np.count_nonzero(pos) >= 3:
        k_idx = np.arange(incs.size, dtype=float)[pos]
        log_inc = np.log(np.abs(incs[pos]))
        slope, slope_se = fit_line(k_idx, log_inc)
        rho = math.exp(slope)
        rho_se = abs(rho) * slope_se
        half = k_idx >= k_idx[k_idx.size // 2 - 1] if k_idx.size >= 4 else \
            np.ones_like(k_idx, dtype=bool)
        if np.count_nonzero(half) >= 3:
            slope_l, slope_l_se = fit_line(k_idx[half], log_inc[half])
            rho_late = math.exp(slope_l)
            late_se = abs(rho_late) * slope_l_se
    slope_v, se_v = fit_line(np.log(nw), vw)

    diagnostics = {"rho": rho, "rho_se": rho_se, "rho_late": rho_late,
                   "slope": slope_v, "slope_se": se_v}
    margin = max(RHO_MARGIN, 2.0 * rho_se) if rho is not None else math.inf

    if rho is not None and rho < min(RHO_CONVERGE - margin, 1.0 - 1e-9):
        # the most recent half of the window must independently show the same
        # confident decay: the marginal laws produce early-window transients
        # whose full-window fit alone looks convergent
        steady = (rho_late is None
                  or rho_late < RHO_CONVERGE - max(RHO_MARGIN, 2.0 * late_se))
        if steady:
            rem = abs(incs[-1]) * rho / (1.0 - rho)
            return Verdict(CONVERGES, float(vals[-1]), remainder_bound=float(rem),
                           method="growth", diagnostics=diagnostics)
    if rho is not None and rho - margin > RHO_CRITICAL:
        return Verdict(DIVERGES, float(vals[-1]), method="growth",
                       diagnostics=diagnostics)
    return Verdict(INCONCLUSIVE, float(vals[-1]), method="growth",
                   diagnostics=diagnostics)


def summary_dict(table: CheckpointTable) -> dict:
    """One pass over the uncensored replications of `table`: per-checkpoint
    statistics of r_n^q and W_n, the censoring report and the W verdict.

    The estimates add block-sum proxies for the expectation series
    sum_k w_k E r_{n_k}^q, with w_k = H(n_k) - H(n_{k-1}) the harmonic mass of
    the dyadic block (n_{k-1}, n_k]: lower/upper take E r^q at the right/left
    block edge.  The verdict classifies the harmonic-block proxy of
    median(r^q) instead: its increments track the typical ratio decay, which
    is far more stable across seeds than the increments of the median W path
    (those swing with single heavy draws), and a median exists even when r^q
    has infinite mean.  The verdict estimate still reports the median W at
    the edge.
    """
    act = table.active
    if not np.any(act):
        raise ConfigError("all replications censored; nothing to estimate")
    rq = table.ratio[act] ** table.config.q
    w = table.w_partial[act]
    m = rq.shape[0]
    mean_rq = rq.mean(axis=0)
    med_rq, med_w = np.median(rq, axis=0), np.median(w, axis=0)
    q75, q25 = np.percentile(rq, [75, 25], axis=0)
    q75w, q25w = np.percentile(w, [75, 25], axis=0)
    se_rq = rq.std(axis=0, ddof=1) / math.sqrt(m) if m > 1 else np.full_like(mean_rq, np.inf)
    weights = np.diff(harmonic(table.checkpoints), prepend=0.0)
    left_edge = np.concatenate([[mean_rq[0]], mean_rq[:-1]])
    columns = {"mean_rq": mean_rq, "median_rq": med_rq, "iqr_rq": q75 - q25,
               "se_mean_rq": se_rq, "mean_w": w.mean(axis=0), "median_w": med_w,
               "iqr_w": q75w - q25w, "block_lower": np.cumsum(weights * mean_rq),
               "block_upper": np.cumsum(weights * left_edge)}
    estimates = [{"n": int(n), **{key: float(col[k]) for key, col in columns.items()}}
                 for k, n in enumerate(table.checkpoints)]

    verdict = growth_verdict(table.checkpoints, np.cumsum(weights * med_rq))
    w_verdict = replace(verdict, estimate_on_window=float(med_w[-1]),
                        diagnostics={**verdict.diagnostics, "statistic": "median-ratio-blocks"})
    return {"estimates": estimates, "censoring": table.censoring_report(),
            "w_verdict": asdict(w_verdict)}


def dense_ratio_moments(model: tm.TailModel, pairs, n_upto: int, replications: int,
                        master_seed: int) -> list:
    """E (||S_n|| / n^(1/p))^q for every n <= n_upto and every (p, q) of
    `pairs` (any finite p > 0 and q >= 0), estimated from `replications` iid
    paths; returns one (means, standard errors) per pair, in the order of `pairs`.

    Block b of at most 4096 paths is one signed `draw_batch` from probe
    stream b, so results are reproducible for a fixed seed.  The paths are
    drawn once for all pairs, and each pair's sums run over the same blocks
    in the same order, so a pair's result does not depend on the other
    pairs.
    """
    if n_upto < 1 or replications < 1:
        raise ValueError(f"need n_upto >= 1 and replications >= 1, got {n_upto}, {replications}")
    for p, q in pairs:
        if not (tm.is_number(p) and p > 0.0 and tm.is_number(q) and q >= 0.0):
            raise ValueError(f"need a finite p > 0 and a finite q >= 0, got {p!r}, {q!r}")
    sums = np.zeros((len(pairs), n_upto))
    sumsq = np.zeros((len(pairs), n_upto))
    ns = np.arange(1, n_upto + 1, dtype=float)
    scales = [ns ** (1.0 / p) for p, _ in pairs]
    sampler = MagnitudeSampler(model)
    for block_id, done in enumerate(range(0, replications, 4096)):
        gen = rng.generator(master_seed, block_id, rng.ROLE_PROBE)
        size = min(4096, replications - done)
        buffers = ChunkBuffers(size * n_upto, 1)
        x = draw_batch(gen, sampler, model.negative_prob, buffers.draws[0], buffers)
        s = np.abs(np.cumsum(x.reshape(size, n_upto), axis=1))
        for j, ((_, q), scale) in enumerate(zip(pairs, scales)):
            rq = (s / scale) ** q
            sums[j] += rq.sum(axis=0)
            sumsq[j] += (rq**2).sum(axis=0)
    mean = sums / replications
    var = np.maximum(sumsq / replications - mean**2, 0.0)
    se = np.sqrt(var / replications)
    return list(zip(mean, se))
