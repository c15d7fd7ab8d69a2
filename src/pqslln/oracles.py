"""Exact enumeration checks for the finite-n inequalities.

Discrete laws carry their probabilities as exact rationals (ints, Fractions,
or "a/b" strings; a float probability is rejected), so the inequality
checks cannot fail from rounding; real-valued functionals of the atoms
(fractional powers) are evaluated in floating point with compensated sums.
Convolutions are computed on value-indexed maps with exact Fraction values,
never on the raw product space.

The maximal inequality has two entry points with one exact decision.
`lemma_max_check` evaluates both sides as Fractions and returns them rounded
once, so its values are exact.  `lemma_max_holds` answers first from a float
filter whose error bound is proved in its docstring, and runs the exact
Fraction path only where that bound cannot separate the two sides.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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


def _max_levels(law: DiscreteLaw, n: int, K):
    """Validated (values, masses, cumulative masses, K) of `law` at (n, K).

    Equal values are merged after a sort, so the values are strictly
    increasing and the last cumulative mass is 1; K comes back as an int or
    a Fraction.  Raises ValueError unless n is an int >= 1, K >= 1 and the
    law is one on [0, inf) (masses nonnegative, summing to 1), and
    PreconditionViolated when P(Y > 0) > K/n.  Atoms are exact rationals, so
    signs are read from numerators and the precondition is compared in ints.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an int >= 1, got {n!r}")
    kf = K if isinstance(K, (int, Fraction)) else Fraction(K)
    if kf < 1:
        raise ValueError("K must be >= 1")
    values: list = []
    masses: list = []
    for v, p in sorted(law.atoms, key=operator.itemgetter(0)):
        if p.numerator < 0:
            raise ValueError("probabilities must be nonnegative")
        if values and v == values[-1]:
            masses[-1] += p
        else:
            values.append(v)
            masses.append(p)
    if values and values[0].numerator < 0:
        raise ValueError("law must be nonnegative")
    cum = list(itertools.accumulate(masses))
    if not cum or cum[-1] != 1:
        raise ValueError(f"probabilities sum to {cum[-1] if cum else 0}, not 1")
    # P(Y > 0) = (b - a)/b with a/b the mass at 0; compare with K/n in ints
    a, b = (masses[0].numerator, masses[0].denominator) if values[0].numerator == 0 else (0, 1)
    if (b - a) * n * kf.denominator > kf.numerator * b:
        raise PreconditionViolated(
            f"P(Y>0) = {(b - a) / b:g} exceeds K/n = {float(kf / n):g}")
    return values, masses, cum, kf


def _exact_sides(values, masses, cum, kf, n: int) -> tuple[Fraction, Fraction]:
    """E(max of n iid copies) and n/(2K) E(Y), exactly: P(max <= v_i) = F_i^n."""
    e_max = e_y = prev = Fraction(0)
    for v, p, f in zip(values, masses, cum):
        g = f**n
        e_max += v * (g - prev)
        e_y += v * p
        prev = g
    return e_max, Fraction(n) / (2 * kf) * e_y


def _power(x: float, n: int) -> float:
    """x**n by binary powering: squarings and products, each rounded once,
    which the bound of `lemma_max_holds` counts (`x ** n` states no bound)."""
    result = 1.0
    while True:
        if n & 1:
            result *= x
        n >>= 1
        if not n:
            return result
        x *= x


_FILTER_MAX_K = 1 << 23  # k = 2n + m + 8 past this voids the bound's k u <= 2^-30
_TINY = 2.0**-1060  # 2^15 times the largest underflow error 2^-1075


def _float_sides(values, masses, cum, kf, n: int):
    """(lhs, rhs, bound) in doubles with |lhs - E max| + |rhs - n/(2K) E Y| < bound.

    The bound is proved in `lemma_max_holds`.  Returns None where it does not
    apply: a value too large for a double, k past `_FILTER_MAX_K`, or a side
    or bound that is not finite.
    """
    m = len(values)
    k = 2 * n + m + 8
    if k > _FILTER_MAX_K:
        return None
    lhs = wide = rhs = atoms = prev = 0.0
    for v, p, f in zip(values, masses, cum):
        try:  # x.numerator / x.denominator is float(x): int / int rounds once
            v = v.numerator / v.denominator
        except OverflowError:
            return None
        g = _power(f.numerator / f.denominator, n)
        lhs += v * (g - prev)
        wide += v * (g + prev)
        rhs += v * (p.numerator / p.denominator)
        atoms += v
        prev = g
    rhs *= n * kf.denominator / (2 * kf.numerator)  # int / int rounds once
    bound = k * 2.0**-52 * (wide + rhs) + _TINY * n * (atoms + m + 1)
    if not math.isfinite(lhs + rhs + bound):  # all three are >= 0 or nan
        return None
    return lhs, rhs, bound


def lemma_max_check(law: DiscreteLaw, n: int, K) -> tuple[float, float, bool]:
    """Check E(max of n iid copies) >= n/(2K) * E(Y) under P(Y > 0) <= K/n.

    Both sides are exact rationals: P(max <= v) = F(v)^n over the sorted atom
    levels.  Returns (lhs, rhs, holds) with lhs and rhs the exact values
    rounded once to doubles and holds the exact comparison.  Raises
    ValueError unless n is an int >= 1, K >= 1 and the law is one (masses
    nonnegative, summing to 1), and PreconditionViolated when
    P(Y > 0) > K/n.  `lemma_max_holds` gives the same holds faster.
    """
    e_max, rhs = _exact_sides(*_max_levels(law, n, K), n)
    return float(e_max), float(rhs), e_max >= rhs


def lemma_max_holds(law: DiscreteLaw, n: int, K) -> bool:
    """`lemma_max_check(law, n, K)[2]`, decided by a float filter first.

    The answer is exact, and the errors are those of `lemma_max_check`.
    A filter in the manner of Shewchuk (1997, "Adaptive precision
    floating-point arithmetic") evaluates both sides in doubles,
    L^ = sum fl(v_i)(g_i - g_(i-1)) and R^ = fl(n/(2K)) sum fl(v_i) fl(p_i),
    with g_i = fl(F_i)^n by binary powering and every sum taken left to
    right.  When |L^ - R^| > E, the bound below, it returns L^ > R^.
    Otherwise, or when a value overflows or is not finite, the exact
    Fraction sides decide.

    Proof of the bound.  Let u = 2^-53, eta = 2^-1075 and
    gamma_j = j u / (1 - j u).  Rounding a real r to a double gives
    r(1 + d) + e with |d| <= u and |e| <= eta, and e = 0 for a sum or a
    difference.  With m levels, G_i = F_i^n, H_i = G_i + G_(i-1),
    W = sum v_i H_i, V = sum v_i and k = 2n + m + 8 <= 2^23 (so k u <= 2^-30):
    1. Powers.  Each product of the powering stands for F^a and, by
       induction over the products, lies within
       F^a ((1 +- u)^(2a - 1) - 1) + 2(2a - 1) eta of F^a.  The leaf fl(F)
       has a = 1; a squaring doubles the relative error of its factor, so the
       exponents add up; F <= 1 and a <= 2^22 keep each absolute term in a
       product below 2 eta.  So |g_i - G_i| <= gamma_(2n) G_i + 4n eta.
    2. Left side.  The difference, fl(v_i), the product and the sum of m
       terms add m + 3 roundings: |L^ - L| <= gamma_(2n+m+3) W
       + 16n eta (V + m).  W^ = sum fl(v_i)(g_i + g_(i-1)), the same steps
       with a sum in place of the difference, is within the same of W.
    3. Right side.  Three roundings per term, m in the sum, one in
       fl(n/(2K)) <= n/2 and one in the product: |R^ - R| <= gamma_(m+5) R
       + 8n eta (V + m).
    4. W, R and V exceed W^, R^ and V^ = sum fl(v_i) by less than a factor
       1 + 2^-28 plus their absolute terms, so |L^ - L| + |R^ - R|
       <= 1.01 gamma_k (W^ + R^) + 50n eta (V^ + m + 1).  The filter's
       E = k 2^-52 (W^ + R^) + 2^-1060 n (V^ + m + 1) is at least 1.98 and
       2^15/50 times these two terms, less the few roundings of E and of
       L^ - R^, each at most a factor 1 + u and an absolute eta.  So
       |fl(L^ - R^)| > E gives L - R != 0 with the sign of L^ - R^.
    """
    levels = _max_levels(law, n, K)
    sides = _float_sides(*levels, n)
    if sides is not None:
        lhs, rhs, bound = sides
        diff = lhs - rhs
        if abs(diff) > bound:
            return diff > 0
    e_max, rhs_exact = _exact_sides(*levels, n)
    return e_max >= rhs_exact


# ---------------------------------------------------------------------------
# Symmetrization inequality
# ---------------------------------------------------------------------------


def _convolve(left, right) -> dict[Fraction, Fraction]:
    """Value-indexed law of A + B for independent A and B given as (value,
    mass) pairs: exact Fraction sums over all pairs of atoms."""
    out: dict[Fraction, Fraction] = {}
    for a, pa in left:
        for b, pb in right:
            key = a + b
            out[key] = out.get(key, 0) + pa * pb
    return out


@functools.lru_cache(maxsize=1)
def _convolve_difference(law: DiscreteLaw) -> DiscreteLaw:
    """Exact law of V - V' over atom pairs; built once for a run of checks
    on the same law."""
    negated = [(-v, p) for v, p in law.atoms]
    return DiscreteLaw(tuple(sorted(_convolve(law.atoms, negated).items())))


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
        current = _convolve(current.items(), law.atoms)
        if sum(current.values(), Fraction(0)) != 1:
            raise AssertionError("convolution lost probability mass")
        scale = n ** (1.0 / p)
        out.append(math.fsum((abs(float(s)) / scale) ** q * float(ps)
                             for s, ps in current.items()))
    return out

