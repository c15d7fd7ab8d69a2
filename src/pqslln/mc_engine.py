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
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels, rng
from . import tail_models as tm
from .errors import ConfigError
from .trend import CONVERGES, DIVERGES, INCONCLUSIVE, ExponentEvidence, Verdict, fit_line

_CHUNK = 1 << 16
_EULER = 0.57721566490153286060651209008240243

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
SLOPE_SIGMAS = 3.0

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
    mode: str = "plain"  # plain | symmetrized
    sequence: str | None = None  # e.g. "lp-counterexample" instead of an iid model

    def __post_init__(self):
        if self.n_max < 1 << 10 or self.n_max & (self.n_max - 1):
            raise ConfigError("n_max must be a power of two, at least 2^10")
        if self.replications < 2:
            raise ConfigError("need at least 2 replications")
        rng.check_seed(self.master_seed)
        if not (0.0 < self.p < 2.0 and self.q > 0.0):
            raise ConfigError("need 0 < p < 2 and q > 0")
        if self.mode not in ("plain", "symmetrized"):
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
    ratio: np.ndarray                # (reps, K)
    w_partial: np.ndarray            # (reps, K)
    censored: np.ndarray             # (reps,) bool

    @property
    def active(self) -> np.ndarray:
        return ~self.censored

    def censoring_report(self) -> dict:
        return {
            "replications": int(self.censored.size),
            "censored": int(np.count_nonzero(self.censored)),
            "censored_ids": np.nonzero(self.censored)[0].tolist(),
        }

    def to_csv(self) -> str:
        lines = ["replication,n,s_norm,ratio,w_partial"]
        for r in range(self.s_norm.shape[0]):
            for k, n in enumerate(self.checkpoints):
                lines.append(
                    f"{r},{int(n)},{float(self.s_norm[r, k])!r},"
                    f"{float(self.ratio[r, k])!r},{float(self.w_partial[r, k])!r}"
                )
        return "\n".join(lines) + "\n"


class MagnitudeSampler:
    """Inverse-transform sampler for ||X||: the model's exact piecewise
    inverse survival function."""

    def __init__(self, model: tm.TailModel):
        self.model = model

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return tm.inverse_survival(self.model, u)


def draw_batch(gen: np.random.Generator, sampler: MagnitudeSampler,
               threshold: float, shape) -> np.ndarray:
    """Signed iid draws of the given shape: magnitude uniforms first, then
    sign uniforms, which are drawn only when the negative sign has mass
    (`threshold` > 0 is the probability of a negative sign)."""
    size = int(np.prod(shape))
    mag = sampler(rng.open_uniforms(gen, size)).reshape(shape)
    if threshold <= 0.0:
        return mag
    return np.where(gen.random(shape) < threshold, -mag, mag)


def probe_blocks(model: tm.TailModel, replications: int, per_block: int, n: int,
                 master_seed: int, threshold: float):
    """Signed draws for `replications` probe paths of length n, yielded as
    (m, n) blocks of at most `per_block` paths; block b draws from probe
    stream b, so the blocks are reproducible for a fixed seed."""
    sampler = MagnitudeSampler(model)
    for block_id, done in enumerate(range(0, replications, per_block)):
        gen = rng.generator(master_seed, block_id, rng.ROLE_PROBE)
        yield draw_batch(gen, sampler, threshold, (min(per_block, replications - done), n))


def parallel_map(fn, items, workers: int) -> list:
    """[fn(item) for item in items], on `workers` threads when more than one;
    the results keep the input order."""
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _run_one_path(config: ExperimentConfig, sampler: MagnitudeSampler, r: int,
                  checkpoints: np.ndarray):
    gens = [rng.generator(config.master_seed, r, rng.ROLE_PATH)]
    if config.mode == "symmetrized":
        gens.append(rng.generator(config.master_seed, r, rng.ROLE_COPY))
    threshold = config.model.sign_law.threshold
    e1 = -(config.q / config.p) - 1.0
    k_total = checkpoints.size
    out_s = np.full(k_total, np.nan)
    out_w = np.full(k_total, np.nan)
    state = (0.0, 0.0, 0.0)
    pos = 0
    filled = 0
    censored = False
    while pos < config.n_max:
        m = int(min(_CHUNK, config.n_max - pos))
        local = checkpoints[(checkpoints > pos) & (checkpoints <= pos + m)] - pos - 1
        # an overflow censors the replication (checked below): a result, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            x = draw_batch(gens[0], sampler, threshold, m)
            if config.mode == "symmetrized":
                x = x - draw_batch(gens[1], sampler, threshold, m)
            s_vals, w_vals, state = kernels.accumulate_chunk(
                x, pos, state, config.q, e1, local)
        out_s[filled:filled + s_vals.size] = s_vals
        out_w[filled:filled + w_vals.size] = w_vals
        filled += s_vals.size
        pos += m
        if not (math.isfinite(state[0]) and math.isfinite(state[1])):
            censored = True
            break
    return r, out_s, out_w, censored


def _counterexample_table(config: ExperimentConfig) -> CheckpointTable:
    """Disjoint-coordinate l_p path: the norm of the partial sum is n^(1/p)
    exactly, so the ratio is identically 1 and W is the harmonic number."""
    checkpoints = config.checkpoints
    k_total = checkpoints.size
    inv_p = 1.0 / config.p
    # norm^p accumulates an integer count; the ratio is computed from it so
    # that it is bitwise 1.0
    counts = checkpoints.astype(float)
    ratio_row = (counts / checkpoints.astype(float)) ** inv_p
    s_row = counts ** inv_p
    inv_m = 1.0 / np.arange(1, config.n_max + 1, dtype=float)
    w_row = np.empty(k_total)
    acc = 0.0
    prev = 0
    for k, n in enumerate(checkpoints):
        acc += math.fsum(inv_m[prev:int(n)])
        w_row[k] = acc
        prev = int(n)
    reps = config.replications
    return CheckpointTable(
        config=config,
        checkpoints=checkpoints,
        s_norm=np.tile(s_row, (reps, 1)),
        ratio=np.tile(ratio_row, (reps, 1)),
        w_partial=np.tile(w_row, (reps, 1)),
        censored=np.zeros(reps, dtype=bool),
    )


def run_paths(config: ExperimentConfig, workers: int = 1) -> CheckpointTable:
    """Stream all replications; bit-identical output for a fixed master seed
    regardless of `workers`."""
    if config.sequence == SEQ_LP_COUNTEREXAMPLE:
        return _counterexample_table(config)
    checkpoints = config.checkpoints
    sampler = MagnitudeSampler(config.model)
    reps = config.replications
    s_norm = np.empty((reps, checkpoints.size))
    w_partial = np.empty((reps, checkpoints.size))
    censored = np.zeros(reps, dtype=bool)

    def work(r: int):
        return _run_one_path(config, sampler, r, checkpoints)

    for r, s_vals, w_vals, cens in parallel_map(work, range(reps), workers):
        s_norm[r] = s_vals
        w_partial[r] = w_vals
        censored[r] = cens

    ratio = np.abs(s_norm) / checkpoints.astype(float) ** (1.0 / config.p)
    return CheckpointTable(config=config, checkpoints=checkpoints,
                           s_norm=np.abs(s_norm), ratio=ratio,
                           w_partial=w_partial, censored=censored)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def growth_verdict(ns, partial_sums, inc_se=None) -> Verdict:
    """Trend classification of a nondecreasing partial-sum table.

    `inc_se` gives the standard error of each increment (length one less than
    the values).  The rules, on the last two dyadic decades:

    - increments indistinguishable from zero (everywhere, or over the whole
      second half of the window): Converges;
    - increments decaying geometrically at fitted per-doubling ratio rho
      confidently below the critical band: Converges, with the geometric
      remainder bound recorded;
    - increments confidently NOT decaying (rho above the band): Diverges;
    - anything inside the band: Inconclusive.  The band is where the
      log-corrected marginal laws live; no finite window decides them.
    """
    ns = np.asarray(ns, dtype=float)
    vals = np.asarray(partial_sums, dtype=float)
    keep = np.isfinite(vals)
    if inc_se is not None:
        inc_se = np.asarray(inc_se, dtype=float)[keep[1:]]
    ns, vals = ns[keep], vals[keep]
    if ns.size < 3:
        return Verdict(INCONCLUSIVE, float(vals[-1]) if vals.size else 0.0,
                       ExponentEvidence(0.0, None, (0.0, 0.0)), method="growth")

    window = ns >= ns[-1] / 128.0  # last two dyadic decades (7 doublings)
    if np.count_nonzero(window) < 3:
        window = np.ones_like(ns, dtype=bool)
    nw, vw = ns[window], vals[window]
    incs = np.diff(vw)
    if inc_se is not None:
        in_window = window[:-1] & window[1:]  # increments with both ends inside
        noise_inc = np.maximum(SLOPE_SIGMAS * inc_se[in_window], 0.0)
    else:
        noise_inc = np.zeros(incs.size)
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    atol = 1e-9 * scale
    win = (float(nw[0]), float(nw[-1]))

    if np.all(np.abs(incs) <= np.maximum(noise_inc, atol)):
        ev = ExponentEvidence(beta=math.inf, lam=None, window=win)
        return Verdict(CONVERGES, float(vals[-1]), ev,
                       remainder_bound=float(np.sum(noise_inc) + atol),
                       method="growth", diagnostics={"flat": True})

    # Stabilized tail: the second half of the window no longer moves.
    lo = incs.size // 2
    if incs.size - lo >= 2 and np.all(np.abs(incs[lo:]) <=
                                      np.maximum(noise_inc[lo:], atol)):
        ev = ExponentEvidence(beta=math.inf, lam=None, window=win)
        return Verdict(CONVERGES, float(vals[-1]), ev,
                       remainder_bound=float(np.sum(noise_inc[lo:]) + atol),
                       method="growth", diagnostics={"stabilized": True})

    pos = np.abs(incs) > 0
    rho = None
    rho_se = math.inf
    rho_late = None
    late_se = math.inf
    if np.count_nonzero(pos) >= 3:
        k_idx = np.arange(incs.size, dtype=float)[pos]
        log_inc = np.log(np.abs(incs[pos]))
        slope, _, slope_se = fit_line(k_idx, log_inc)
        rho = math.exp(slope)
        rho_se = abs(rho) * slope_se
        half = k_idx >= k_idx[k_idx.size // 2 - 1] if k_idx.size >= 4 else \
            np.ones_like(k_idx, dtype=bool)
        if np.count_nonzero(half) >= 3:
            slope_l, _, slope_l_se = fit_line(k_idx[half], log_inc[half])
            rho_late = math.exp(slope_l)
            late_se = abs(rho_late) * slope_l_se
    slope_v, _, se_v = fit_line(np.log(nw), vw)

    beta = 1.0 - math.log2(rho) if rho is not None and rho > 0 else math.inf
    ev = ExponentEvidence(beta=float(beta), lam=None, window=win)
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
            return Verdict(CONVERGES, float(vals[-1]), ev, remainder_bound=float(rem),
                           method="growth", diagnostics=diagnostics)
    if rho is not None and rho - margin > RHO_CRITICAL:
        return Verdict(DIVERGES, float(vals[-1]), ev, method="growth",
                       diagnostics=diagnostics)
    return Verdict(INCONCLUSIVE, float(vals[-1]), ev, method="growth",
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
    (those swing with single heavy draws), and its standard errors are honest
    order-statistic errors even when r^q has infinite variance.  The verdict
    estimate still reports the median W at the edge.
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

    se_med = (q75 - q25) / 1.349 / math.sqrt(m)
    w_verdict = growth_verdict(table.checkpoints, np.cumsum(weights * med_rq),
                               inc_se=(weights * se_med)[1:]).to_dict()
    w_verdict["estimate_on_window"] = float(med_w[-1])
    w_verdict["diagnostics"]["statistic"] = "median-ratio-blocks"
    return {"estimates": estimates, "censoring": table.censoring_report(),
            "w_verdict": w_verdict}


def dense_ratio_moments(model: tm.TailModel, p: float, q: float, n_upto: int,
                        replications: int, master_seed: int):
    """E (||S_n|| / n^(1/p))^q for every n <= n_upto, estimated from
    `replications` iid paths; returns (means, standard errors).

    Replications are drawn in fixed blocks of 4096 paths, each on its own
    counter-based stream, so results are reproducible for a fixed seed.
    """
    sums = np.zeros(n_upto)
    sumsq = np.zeros(n_upto)
    scale = np.arange(1, n_upto + 1, dtype=float) ** (1.0 / p)
    for x in probe_blocks(model, replications, 4096, n_upto, master_seed,
                          model.sign_law.threshold):
        rq = (np.abs(np.cumsum(x, axis=1)) / scale) ** q
        sums += rq.sum(axis=0)
        sumsq += (rq**2).sum(axis=0)
    mean = sums / replications
    var = np.maximum(sumsq / replications - mean**2, 0.0)
    se = np.sqrt(var / replications)
    return mean, se
