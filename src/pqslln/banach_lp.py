"""Finite-support l_p vectors and the sequence-space witnesses.

Two witnesses matter here.  The disjoint-coordinate sequence V_n = +/- e_n
has ||sum_{i<=n} V_i||^p = n exactly whatever the signs, so its normalized
ratio is identically 1: the Marcinkiewicz-Zygmund normalization cannot win,
and the associated W-series is the harmonic series.  The bounded-coefficient
sign-sequence probe asks the opposite question: whether ||sum x_k eps_k|| /
n^(1/p) decays, feeding the stable-type characterization as empirical
evidence on specific witnesses (never as a verification of the equivalence).

For p < 1 the functional (sum |v_i|^p)^(1/p) is a quasi-norm; nothing here
assumes the triangle inequality, only disjoint-support additivity of the
p-th powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mc_engine as mc
from . import rng
from . import tail_models as tm
from .criteria import Verdict

__all__ = [
    "LpVector", "lp_norm", "counterexample_path", "rademacher_probe",
    "marcus_pisier_check", "ProbeReport", "MarcusPisierTable",
    "disjoint_units", "repeated_unit",
]


@dataclass(frozen=True)
class LpVector:
    """Sparse vector with exponent p in (0, 2]; zero entries are never stored.

    The vector is `factor` times the stored entries.  Scaling multiplies the
    factor only, so it is exact and cannot underflow an entry to zero.
    """

    p: float
    entries: tuple[tuple[int, float], ...]
    factor: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.p <= 2.0):
            raise ValueError("p must lie in (0, 2]")
        if any(v == 0.0 for _, v in self.entries):
            raise ValueError("zero entries must not be stored")

    @staticmethod
    def from_dict(p: float, entries: dict[int, float]) -> "LpVector":
        cleaned = tuple(sorted((i, float(v)) for i, v in entries.items() if v != 0.0))
        return LpVector(p, cleaned)

    @staticmethod
    def unit(p: float, index: int) -> "LpVector":
        return LpVector(p, ((index, 1.0),))

    def items(self) -> tuple[tuple[int, float], ...]:
        """(index, value) pairs of the vector itself, the factor applied."""
        return tuple((i, self.factor * v) for i, v in self.entries)

    def norm_p_power(self) -> float:
        return abs(self.factor) ** self.p * math.fsum(abs(v) ** self.p for _, v in self.entries)

    def scale(self, c: float) -> "LpVector":
        if c == 0.0:
            return LpVector(self.p, ())
        return LpVector(self.p, self.entries, self.factor * c)

    def add(self, other: "LpVector") -> "LpVector":
        if other.p != self.p:
            raise ValueError("mismatched exponents")
        acc = dict(self.items())
        for i, v in other.items():
            acc[i] = acc.get(i, 0.0) + v
        return LpVector.from_dict(self.p, acc)

    def __add__(self, other: "LpVector") -> "LpVector":
        return self.add(other)


def lp_norm(v: LpVector) -> float:
    """(sum |v_i|^p)^(1/p); a quasi-norm for p < 1.  Homogeneous by
    construction: lp_norm(v.scale(c)) == |c| * lp_norm(v)."""
    s = math.fsum(abs(x) ** v.p for _, x in v.entries)
    return abs(v.factor) * s ** (1.0 / v.p) if s > 0.0 else 0.0


def disjoint_units(k: int) -> LpVector:
    """Coefficient rule of the counterexample: the k-th unit coordinate."""
    return LpVector.unit(1.0, k)  # exponent is attached by the caller


def repeated_unit(k: int) -> LpVector:
    """Every coefficient is the same first coordinate: the real-line probe."""
    return LpVector.unit(1.0, 1)


def counterexample_path(n_max: int, p: float, seed: int = 0) -> np.ndarray:
    """Ratios ||sum_{i<=n} (+/- e_i)||_p / n^(1/p) for n = 1..n_max.

    The coordinates are disjoint, so the p-th power of the norm accumulates
    an integer count whatever the signs, and the ratio is bitwise 1.0; no
    sign needs drawing.  `seed` is accepted for signature compatibility with
    the simulated paths and does not change the result.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    counts = np.arange(1, n_max + 1, dtype=float)
    return (counts / counts) ** (1.0 / p)


@dataclass(frozen=True)
class ProbeReport:
    ns: tuple[int, ...]
    p: float
    ratio_mean: tuple[float, ...]
    ratio_median: tuple[float, ...]
    ratio_iqr: tuple[float, ...]
    w_median: tuple[float, ...]
    w_verdict: Verdict
    sup_norm_bound: float
    ratio_paths: np.ndarray | None = None   # (reps, K), for the CSV dump
    w_paths: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "ns": list(self.ns),
            "p": self.p,
            "ratio_mean": list(self.ratio_mean),
            "ratio_median": list(self.ratio_median),
            "ratio_iqr": list(self.ratio_iqr),
            "w_median": list(self.w_median),
            "w_verdict": self.w_verdict.to_dict(),
            "sup_norm_bound": self.sup_norm_bound,
        }

    def to_csv(self) -> str:
        """Same row schema as the engine's checkpoint tables."""
        if self.ratio_paths is None or self.w_paths is None:
            raise ValueError("probe was built without per-replication paths")
        lines = ["replication,n,s_norm,ratio,w_partial"]
        inv_p = 1.0 / self.p
        for r in range(self.ratio_paths.shape[0]):
            for k, n in enumerate(self.ns):
                ratio = float(self.ratio_paths[r, k])
                lines.append(f"{r},{int(n)},{ratio * n**inv_p!r},{ratio!r},"
                             f"{float(self.w_paths[r, k])!r}")
        return "\n".join(lines) + "\n"


def _probe_summary(checkpoints: np.ndarray, ratio: np.ndarray, w: np.ndarray,
                   bound: float, p: float) -> ProbeReport:
    """Checkpoint statistics and the W growth verdict of (reps, K) ratio and
    W paths."""
    q75, q25 = np.percentile(ratio, [75, 25], axis=0)
    med_w = np.median(w, axis=0)
    dw = np.diff(w, axis=1)
    inc_se = (np.percentile(dw, 75, axis=0) - np.percentile(dw, 25, axis=0)) \
        / 1.349 / math.sqrt(w.shape[0])
    return ProbeReport(
        ns=tuple(int(n) for n in checkpoints),
        p=p,
        ratio_mean=tuple(float(x) for x in ratio.mean(axis=0)),
        ratio_median=tuple(float(x) for x in np.median(ratio, axis=0)),
        ratio_iqr=tuple(float(x) for x in (q75 - q25)),
        w_median=tuple(float(x) for x in med_w),
        w_verdict=mc.growth_verdict(checkpoints, med_w, inc_se),
        sup_norm_bound=bound,
        ratio_paths=ratio,
        w_paths=w,
    )


def rademacher_probe(xs, p: float, q: float, *, n_max: int, replications: int,
                     master_seed: int, sup_norm_bound: float | None = None,
                     workers: int = 1) -> ProbeReport:
    """MC over sign sequences for X_k = x_k eps_k with bounded coefficients.

    `xs` is a callable k -> LpVector (1-based), or one of the built-in rules
    `disjoint_units` / `repeated_unit`, which have fast exact paths.  The
    coefficient sup-norm bound must be finite and declared (or derivable).
    """
    if xs is disjoint_units or xs is repeated_unit:
        model, sequence = ((None, mc.SEQ_LP_COUNTEREXAMPLE) if xs is disjoint_units
                           else (tm.rademacher(), None))
        cfg = mc.ExperimentConfig(model=model, p=p, q=q, n_max=n_max,
                                  replications=replications, master_seed=master_seed,
                                  sequence=sequence)
        table = mc.run_paths(cfg, workers)
        return _probe_summary(table.checkpoints, table.ratio[table.active],
                              table.w_partial[table.active], 1.0, p)

    if sup_norm_bound is None or not math.isfinite(sup_norm_bound):
        raise ValueError("a finite coefficient sup-norm bound must be declared")
    checkpoints = 2 ** np.arange(0, int(n_max).bit_length())
    if checkpoints[-1] != n_max:
        raise ValueError("n_max must be a power of two")
    vectors = [xs(k) for k in range(1, n_max + 1)]
    reps = replications
    k_total = checkpoints.size
    ratio = np.empty((reps, k_total))
    w = np.empty((reps, k_total))
    inv_p = 1.0 / p
    for r in range(reps):
        gen = rng.generator(master_seed, r, rng.ROLE_PROBE)
        signs = np.where(mc.negative_signs(gen, 0.5, n_max), -1.0, 1.0)
        acc: dict[int, float] = {}
        w_run = 0.0
        snap = 0
        for n, (vec, s) in enumerate(zip(vectors, signs), start=1):
            for i, v in vec.items():
                acc[i] = acc.get(i, 0.0) + s * v
            norm = math.fsum(abs(v) ** p for v in acc.values()) ** inv_p
            ratio_n = norm / n**inv_p
            w_run += ratio_n**q / n
            if n == checkpoints[snap]:
                ratio[r, snap] = ratio_n
                w[r, snap] = w_run
                snap += 1
    return _probe_summary(checkpoints, ratio, w, float(sup_norm_bound), p)


# ---------------------------------------------------------------------------
# Order-statistics maximal inequality
# ---------------------------------------------------------------------------


def sup_power_weighted_tail(model: tm.TailModel, r: float) -> float:
    """sup_{t>0} t^r P(||X|| > t), exact on power/constant pieces, grid-refined
    on the log-corrected ones."""
    best = 0.0
    for i, pc in enumerate(model.pieces):
        lo = max(pc.t_lo, 1e-12) if i > 0 else 1e-12
        hi = pc.t_hi
        if pc.formula == "indicator-below":
            thr = pc.param("threshold")
            if thr > 0.0:
                best = max(best, thr**r)  # sup of t^r * 1(t < thr) as t -> thr
            continue
        if pc.formula == "constant":
            val = pc.param("value")
            if val <= 0.0:
                continue
            if math.isinf(hi):
                return math.inf
            best = max(best, hi**r * val)
            continue
        a = pc.param("power")
        scale = pc.param("scale")
        if pc.formula == "power":
            if r > a:
                if math.isinf(hi):
                    return math.inf
                best = max(best, hi ** (r - a) * scale)
            elif r < a:
                best = max(best, lo ** (r - a) * scale)
            else:
                best = max(best, scale)
            continue
        # log-corrected pieces: t^r S(t) with S decaying like t^-a (ln t)^-b...
        if r > a and math.isinf(hi):
            return math.inf
        top = hi if math.isfinite(hi) else max(lo * 1e30, 1e30)
        grid = np.geomspace(lo, top, 4096)
        vals = grid**r * np.asarray(tm.survival(model, grid))
        best = max(best, float(np.max(vals)))
    return best


@dataclass(frozen=True)
class MarcusPisierTable:
    n: int
    r: float
    u_grid: tuple[float, ...]
    empirical_lhs: tuple[float, ...]
    analytic_rhs: tuple[float, ...]
    standard_errors: tuple[float, ...]
    sup_value: float

    def holds(self, sigmas: float = 4.0) -> bool:
        return all(l <= rhs + sigmas * se for l, rhs, se in
                   zip(self.empirical_lhs, self.analytic_rhs, self.standard_errors))

    def to_dict(self) -> dict:
        return {
            "n": self.n, "r": self.r, "u_grid": list(self.u_grid),
            "empirical_lhs": list(self.empirical_lhs),
            "analytic_rhs": list(self.analytic_rhs),
            "standard_errors": list(self.standard_errors),
            "sup_value": self.sup_value,
        }


def marcus_pisier_check(model: tm.TailModel, n: int, r: float, u_grid,
                        replications: int, master_seed: int = 0) -> MarcusPisierTable:
    """Empirical P(sup_k k^(1/r) X*_k > u) against the bound
    (2e/u^r) sup_t t^r sum_k P(||X_k|| > t) for iid draws.

    X*_k is the nonincreasing rearrangement of the n magnitudes, computed by a
    full sort per replication.
    """
    if r < 1.0:
        raise ValueError("the inequality requires r >= 1")
    u_grid = np.asarray(sorted(float(u) for u in u_grid))
    sampler = mc.MagnitudeSampler(model)
    weights = np.arange(1, n + 1, dtype=float) ** (1.0 / r)
    counts = np.zeros(u_grid.size)
    done = 0
    block_id = 0
    per_block = max(1, (1 << 22) // max(n, 1))
    while done < replications:
        m = min(per_block, replications - done)
        gen = rng.generator(master_seed, block_id, rng.ROLE_PROBE)
        mags = mc.draw_batch(gen, sampler, 0.0, (m, n))
        mags[:, ::-1].sort(axis=1)  # descending
        stat = np.max(weights[None, :] * mags, axis=1)
        counts += (stat[None, :] > u_grid[:, None]).sum(axis=1)
        done += m
        block_id += 1
    lhs = counts / replications
    se = np.sqrt(lhs * (1.0 - lhs) / replications)
    sup_val = sup_power_weighted_tail(model, r)
    rhs = 2.0 * math.e * n * sup_val / u_grid**r
    return MarcusPisierTable(
        n=n, r=r, u_grid=tuple(u_grid.tolist()),
        empirical_lhs=tuple(lhs.tolist()),
        analytic_rhs=tuple(rhs.tolist()),
        standard_errors=tuple(se.tolist()),
        sup_value=sup_val,
    )
