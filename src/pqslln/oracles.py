"""Exact enumeration checks for the finite-n inequalities.

Discrete laws carry their probabilities as exact rationals (ints, Fractions,
or "a/b" strings; a float probability is rejected), so the inequality
checks cannot fail from rounding; real-valued functionals of the atoms
(fractional powers) are evaluated in floating point with compensated sums.
Convolutions are computed on value-indexed maps with exact Fraction values,
never on the raw product space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionViolated, StateSpaceExceeded

_CONV_CAP = 5_000_000  # value-map entries allowed during one convolution step


def _as_prob(p) -> Fraction:
    if isinstance(p, (Fraction, int, str)):
        return Fraction(p)
    raise ValueError(f"probability {p!r} must be an int, a Fraction or an 'a/b' string")


@dataclass(frozen=True)
class DiscreteLaw:
    atoms: tuple[tuple[Fraction, Fraction], ...]

    @staticmethod
    def from_pairs(pairs) -> "DiscreteLaw":
        # Fraction(float) is the exact binary value, so float atoms stay exact.
        atoms = tuple((v if isinstance(v, Fraction) else Fraction(v), _as_prob(p))
                      for v, p in pairs)
        law = DiscreteLaw(atoms)
        law.validate()
        return law

    def validate(self) -> None:
        if any((p < 0) for _, p in self.atoms):
            raise ValueError("probabilities must be nonnegative")
        total = sum((p for _, p in self.atoms), Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def values(self) -> list[Fraction]:
        return [v for v, _ in self.atoms]


def rademacher_law() -> DiscreteLaw:
    return DiscreteLaw.from_pairs([(-1, Fraction(1, 2)), (1, Fraction(1, 2))])


def two_point(zero_mass, value, value_mass) -> DiscreteLaw:
    return DiscreteLaw.from_pairs([(0, zero_mass), (value, value_mass)])


# ---------------------------------------------------------------------------
# Maximal inequality for sparsely supported nonnegative variables
# ---------------------------------------------------------------------------


def lemma_max_check(law: DiscreteLaw, n: int, K) -> tuple[float, float, bool]:
    """Check E(max of n iid copies) >= n/(2K) * E(Y) under P(Y > 0) <= K/n.

    E max is exact: P(max <= v) = F(v)^n over the sorted atom levels.
    Returns (lhs, rhs, holds); comparisons are exact rational arithmetic.
    Raises ValueError unless the law is one: masses nonnegative, summing to 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    kf = Fraction(K) if not isinstance(K, Fraction) else K
    if kf < 1:
        raise ValueError("K must be >= 1")

    zero = Fraction(0)
    merged: dict[Fraction, Fraction] = {}
    for v, p in law.atoms:
        if v < 0:
            raise ValueError("law must be nonnegative")
        if p < 0:
            raise ValueError("probabilities must be nonnegative")
        merged[v] = merged.get(v, zero) + p
    p_pos = sum((p for v, p in law.atoms if v > 0), zero)
    bound = kf / n
    if p_pos > bound:
        raise PreconditionViolated(
            f"P(Y>0) = {float(p_pos):g} exceeds K/n = {float(bound):g}")

    levels = sorted(merged)
    cdf_prev_n = zero  # F(previous level)^n
    e_max = zero
    e_y = zero
    cum = zero
    for v in levels:
        cum = cum + merged[v]
        cdf_n = cum**n
        e_max = e_max + v * (cdf_n - cdf_prev_n)
        e_y = e_y + v * merged[v]
        cdf_prev_n = cdf_n
    if cum != 1:
        raise ValueError(f"probabilities sum to {cum}, not 1")
    rhs = Fraction(n) / (2 * kf) * e_y
    holds = e_max >= rhs
    return float(e_max), float(rhs), bool(holds)


# ---------------------------------------------------------------------------
# Symmetrization inequality
# ---------------------------------------------------------------------------


def _convolve_difference(law: DiscreteLaw) -> DiscreteLaw:
    """Exact law of V - V' over atom pairs."""
    out: dict[Fraction, Fraction] = {}
    for v1, p1 in law.atoms:
        for v2, p2 in law.atoms:
            key = v1 - v2
            out[key] = out.get(key, 0) + p1 * p2
    return DiscreteLaw(tuple(sorted(out.items())))


def symmetrization_check(law: DiscreteLaw, p_exponent: float, t: float
                         ) -> tuple[float, float, bool]:
    """Check P(g(V) <= t) E(g(V)) <= E(g(V_hat)) + beta t for g(x) = |x|^p,
    beta = max(1, 2^(p-1)), with V_hat = V - V' convolved exactly over pairs."""
    if p_exponent <= 0.0:
        raise ValueError("p_exponent must be positive")
    beta = max(1.0, 2.0 ** (p_exponent - 1.0))

    def g(v: Fraction) -> float:
        return abs(float(v)) ** p_exponent

    e_g = math.fsum(g(v) * float(p) for v, p in law.atoms)
    p_le_t = math.fsum(float(p) for v, p in law.atoms if g(v) <= t)
    hat = _convolve_difference(law)
    e_g_hat = math.fsum(g(v) * float(p) for v, p in hat.atoms)
    lhs = p_le_t * e_g
    rhs = e_g_hat + beta * t
    holds = lhs <= rhs + 1e-12 * max(1.0, abs(rhs))
    return lhs, rhs, holds


# ---------------------------------------------------------------------------
# Exact moments of normalized partial sums
# ---------------------------------------------------------------------------


def _convolve_step(current: dict, law: DiscreteLaw, n: int) -> dict:
    """Law of S_n from the law of S_(n-1) on a value-indexed map."""
    if len(current) * len(law.atoms) > _CONV_CAP:
        raise StateSpaceExceeded(
            f"convolution support would exceed {_CONV_CAP} entries at n={n}")
    nxt: dict[Fraction, Fraction] = {}
    for s, ps in current.items():
        for v, pv in law.atoms:
            key = s + v
            nxt[key] = nxt.get(key, 0) + ps * pv
    return nxt


def _support_bound(law: DiscreteLaw, n: int) -> int:
    """Upper bound on the number of values of S_n: the multisets of n atoms
    or the lattice points S_n can reach, whichever is fewer."""
    values = sorted(set(law.values()))
    den = math.lcm(*(v.denominator for v in values))
    steps = [int((v - values[0]) * den) for v in values]
    lattice = n * steps[-1] // (math.gcd(*steps) or 1) + 1
    return min(math.comb(n + len(values) - 1, len(values) - 1), lattice)


def exact_series_small(law: DiscreteLaw, p: float, q: float, n_limit: int
                       ) -> list[float]:
    """Exact E(|S_n| / n^(1/p))^q for n = 1..n_limit by repeated convolution.

    The distribution of S_n lives on a value-indexed map with exact Fraction
    values; StateSpaceExceeded guards the support growth, raised before any
    arithmetic when the bounded support of the last step could pass the cap.
    """
    if n_limit < 1:
        raise ValueError("n_limit must be >= 1")
    if n_limit > 12:
        raise ValueError("exact enumeration is limited to n <= 12")
    # the bound grows with n, so the last step decides whether any step can pass
    if _support_bound(law, n_limit - 1) * len(law.atoms) > _CONV_CAP:
        raise StateSpaceExceeded(
            f"convolution support could exceed {_CONV_CAP} entries by n={n_limit}")
    current: dict[Fraction, Fraction] = {Fraction(0): Fraction(1)}
    out: list[float] = []
    for n in range(1, n_limit + 1):
        current = _convolve_step(current, law, n)
        if sum(current.values(), Fraction(0)) != 1:
            raise AssertionError("convolution lost probability mass")
        scale = n ** (1.0 / p)
        out.append(math.fsum((abs(float(s)) / scale) ** q * float(ps)
                             for s, ps in current.items()))
    return out

