"""Exact enumeration checks for the finite-n inequalities.

Every oracle takes its law as a `DiscreteLaw`, checked and put in canonical
form once, when it is built: values and probabilities are exact rationals (a
float value is its exact binary value; a float probability is rejected), the
probabilities are nonnegative and sum to 1, and the atoms are sorted by value
with equal values merged.  So no oracle checks a law again, and the
inequality checks cannot fail from rounding; real-valued functionals of the
atoms (fractional powers) are evaluated in floating point with compensated sums.
Convolutions are computed on value-indexed maps with exact Fraction values,
never on the raw product space.

The maximal inequality has two entry points with one exact decision.
`lemma_max_check` evaluates both sides of one law as Fractions and returns
them rounded once, so its values are exact.  `lemma_max_holds_batch` decides
a `MaxInstances` of laws, given as exact integer arrays: one kernel,
`_float_sides`, evaluates every law of the batch in doubles under an error
bound proved in its docstring, and `lemma_max_check` decides only the laws
that bound cannot separate.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionViolated, StateSpaceExceeded
from .tail_models import check_count, check_moment_exponents, is_number

_CONV_CAP = 5_000_000  # value-map entries allowed during one convolution step


def _as_prob(p) -> Fraction:
    if isinstance(p, (Fraction, int, str)):
        return p if isinstance(p, Fraction) else Fraction(p)
    raise ValueError(f"probability {p!r} must be an int, a Fraction or an 'a/b' string")


@dataclass(frozen=True)
class DiscreteLaw:
    """A law on finitely many values, built from any (value, probability)
    pairs into the canonical form of the module docstring, so laws built
    from the same atoms in another order, or with an atom split in two,
    compare and hash equal.  ValueError for a float probability, a negative
    mass or a total other than 1 (an empty law included).
    """

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        atoms: list = []
        for v, p in sorted(((v if isinstance(v, Fraction) else Fraction(v), _as_prob(p))
                            for v, p in self.atoms), key=operator.itemgetter(0)):
            if p.numerator < 0:
                raise ValueError("probabilities must be nonnegative")
            if atoms and v == atoms[-1][0]:  # no dict: hashing values again costs time
                atoms[-1] = (v, atoms[-1][1] + p)
            else:
                atoms.append((v, p))
        den = math.lcm(*(p.denominator for _, p in atoms))  # one gcd per law, not per atom
        total = Fraction(sum(p.numerator * (den // p.denominator) for _, p in atoms), den)
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "atoms", tuple(atoms))

    @functools.cached_property
    def float_atoms(self) -> tuple[tuple[float, float], ...]:
        """The atoms rounded to doubles, converted once per law."""
        return tuple((float(v), float(p)) for v, p in self.atoms)

    @functools.cached_property
    def difference(self) -> "DiscreteLaw":
        """Exact law of V - V' for an independent copy V', over atom pairs;
        built once per law."""
        negated = [(-v, p) for v, p in self.atoms]
        return DiscreteLaw(tuple(_convolve(self.atoms, negated).items()))


def rademacher_law() -> DiscreteLaw:
    return DiscreteLaw(((-1, Fraction(1, 2)), (1, Fraction(1, 2))))


# ---------------------------------------------------------------------------
# Maximal inequality for sparsely supported nonnegative variables
# ---------------------------------------------------------------------------


def _max_levels(law: DiscreteLaw, n: int, K):
    """Checked (values, masses, cumulative masses, K) of `law` at (n, K); the caller checks n.

    The values are the law's, strictly increasing, so the last cumulative
    mass is 1; K comes back as an int or a Fraction.  Raises ValueError
    unless K >= 1 and the law is one on [0, inf), and
    PreconditionViolated when P(Y > 0) > K/n.  Atoms are exact rationals, so
    signs are read from numerators and the precondition is compared in ints.
    """
    kf = K if isinstance(K, (int, Fraction)) else Fraction(K)
    if kf < 1:
        raise ValueError("K must be >= 1")
    values, masses = zip(*law.atoms)
    if values[0].numerator < 0:
        raise ValueError("law must be nonnegative")
    # P(Y > 0) = (b - a)/b with a/b the mass at 0; compare with K/n in ints
    a, b = (masses[0].numerator, masses[0].denominator) if values[0].numerator == 0 else (0, 1)
    if (b - a) * n * kf.denominator > kf.numerator * b:
        raise PreconditionViolated(
            f"P(Y>0) = {(b - a) / b:g} exceeds K/n = {float(kf / n):g}")
    return values, masses, list(itertools.accumulate(masses)), kf


def _exact_sides(values, masses, cum, kf, n: int) -> tuple[Fraction, Fraction]:
    """E(max of n iid copies) and n/(2K) E(Y), exactly: P(max <= v_i) = F_i^n."""
    e_max = e_y = prev = Fraction(0)
    for v, p, f in zip(values, masses, cum):
        g = f**n
        e_max += v * (g - prev)
        e_y += v * p
        prev = g
    return e_max, Fraction(n) / (2 * kf) * e_y


def _power(x, n):
    """x**n elementwise for (B, m) doubles x and a (B,) exponent n >= 0, by
    binary powering on each row's own bits: squarings and products, each
    rounded once, which the bound of `_float_sides` counts (`x ** n`
    states no bound).  A row multiplies only on its set bits, so it takes
    exactly the products that powering it alone would."""
    result = np.ones_like(x)
    bits = n[:, None]
    while bits.any():
        result = np.where(bits & 1, result * x, result)
        bits = bits >> 1
        x = x * x
    return result


_FILTER_MAX_K = 1 << 23  # k = 2n + m + 8 past this voids the bound's k u <= 2^-30
_TINY = 2.0**-1060  # 2^15 times the largest underflow error 2^-1075
_EXACT_INT = 1 << 53  # integers below this convert to doubles exactly


def _float_sides(values, masses, cum, n, scale):
    """(lhs, rhs, bound) of B laws in doubles, with |lhs - E max| +
    |rhs - n/(2K) E Y| < bound on every row.

    values, masses and cum are (B, m) arrays of fl(v_i), fl(p_i) and fl(F_i)
    over each law's sorted levels, n the (B,) int64 exponents and scale the
    (B,) doubles fl(n/(2K)).  A filter in the manner of Shewchuk (1997,
    "Adaptive precision floating-point arithmetic") evaluates both sides,
    L^ = sum fl(v_i)(g_i - g_(i-1)) and R^ = fl(n/(2K)) sum fl(v_i) fl(p_i),
    with g_i = fl(F_i)^n by binary powering and every sum taken left to
    right over the m columns.  Every operation is one IEEE double operation
    per element, so the bound E proved below holds on each row, and
    |L^ - R^| > E decides the exact comparison as L^ > R^.  The bound is
    +inf where it does not apply: k past `_FILTER_MAX_K`, or a side or bound
    that is not finite.

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
    m = values.shape[1]
    applies = n <= (_FILTER_MAX_K - m - 8) // 2  # k = 2n + m + 8 <= _FILTER_MAX_K
    n = np.where(applies, n, 0)
    k = 2 * n + m + 8
    with np.errstate(all="ignore"):  # overflow and nan are caught by the finite test
        g = _power(cum, n)
        lhs = wide = rhs = atoms = prev = np.zeros(len(n))
        for v, p, g_i in zip(values.T, masses.T, g.T):
            lhs = lhs + v * (g_i - prev)
            wide = wide + v * (g_i + prev)
            rhs = rhs + v * p
            atoms = atoms + v
            prev = g_i
        rhs = rhs * scale
        bound = k * 2.0**-52 * (wide + rhs) + _TINY * n * (atoms + m + 1)
        applies &= np.isfinite(lhs + rhs + bound)  # all three are >= 0 or nan
    return lhs, rhs, np.where(applies, bound, np.inf)


def lemma_max_check(law: DiscreteLaw, n: int, K) -> tuple[float, float, bool]:
    """Check E(max of n iid copies) >= n/(2K) * E(Y) under P(Y > 0) <= K/n.

    Both sides are exact rationals: P(max <= v) = F(v)^n over the sorted atom
    levels.  Returns (lhs, rhs, holds) with lhs and rhs the exact values
    rounded once to doubles and holds the exact comparison.  Raises
    ValueError unless n is an integer >= 1 (a numbers.Integral, not a bool),
    K >= 1 and the law's values are nonnegative, and PreconditionViolated
    when P(Y > 0) > K/n.  `lemma_max_holds_batch` gives the same holds faster.
    """
    n = check_count("n", n, 1)  # an int: a numpy one would wrap in F^n
    e_max, rhs = _exact_sides(*_max_levels(law, n, K), n)
    return float(e_max), float(rhs), e_max >= rhs


class MaxInstances:
    """B instances (law, n, K) of the maximal inequality as exact integers.

    Law i has m atoms values[i, j] / value_den[i] with masses
    masses[i, j] / mass_den[i], and is checked at n[i] and
    K = k_num[i] / k_den[i].  The fields are stored as int64 arrays of
    shapes (B, m), m >= 1, and (B,), broadcast from what is given;
    ValueError unless each has an integer dtype that casts to int64 without
    loss and every denominator is >= 1.  Whether a row is a law is checked
    when `instance` builds it.
    """

    __slots__ = ("values", "value_den", "masses", "mass_den", "n", "k_num", "k_den")

    def __init__(self, values, value_den, masses, mass_den, n, k_num, k_den):
        fields = {}
        for name, a in dict(n=n, values=values, value_den=value_den, masses=masses,
                            mass_den=mass_den, k_num=k_num, k_den=k_den).items():
            fields[name] = np.asarray(a)
            if not np.can_cast(fields[name].dtype, np.int64):
                raise ValueError(f"{name} must be an integer array, got {fields[name].dtype}")
        values, masses = np.broadcast_arrays(fields.pop("values"), fields.pop("masses"))
        if values.ndim != 2 or values.shape[1] == 0:
            raise ValueError("values and masses must be (B, m) arrays with m >= 1")
        fields = {name: np.broadcast_to(a, len(values)) for name, a in fields.items()}
        if min(fields[name].min(initial=1) for name in ("value_den", "mass_den", "k_den")) < 1:
            raise ValueError("denominators must be >= 1")
        for name, a in (*fields.items(), ("values", values), ("masses", masses)):
            setattr(self, name, a.astype(np.int64))

    def instance(self, i: int) -> tuple[DiscreteLaw, int, Fraction]:
        """Row i as the exact (law, n, K) that `lemma_max_check` takes;
        ValueError if the row is not a law."""
        vd, pd = int(self.value_den[i]), int(self.mass_den[i])
        atoms = tuple((Fraction(v, vd), Fraction(p, pd))
                      for v, p in zip(self.values[i].tolist(), self.masses[i].tolist()))
        return (DiscreteLaw(atoms), int(self.n[i]),
                Fraction(int(self.k_num[i]), int(self.k_den[i])))


def lemma_max_holds_batch(batch: MaxInstances) -> np.ndarray:
    """`lemma_max_check(law, n, K)[2]` on every row of `batch`, as a boolean
    array.

    Each row is checked in int64 arithmetic, exactly: every integer is in
    [0, 2^53), so it converts to a double exactly and each fl(a / b) is one
    rounding of the exact quotient; the precondition products
    (b - a) n K_den and K_num b are computed only where their float values
    bound them below 2^62, so none wraps.  The rows that pass go through
    `_float_sides` in one call.  Every other row (not a law, values not
    strictly increasing, or integers too large for these checks), and every
    row the filter cannot decide, is decided by `lemma_max_check` on
    `batch.instance(i)`, and either raises its errors.
    """
    v, p, n = batch.values, batch.masses, batch.n
    vd, pd, kn, kd = batch.value_den, batch.mass_den, batch.k_num, batch.k_den
    ints = np.column_stack([v, p, vd, pd, n, kn, kd])
    cum = np.cumsum(p, axis=1)  # exact until a partial sum passes mass_den
    a = np.where(v[:, 0] == 0, p[:, 0], 0)  # P(Y = 0) = a / mass_den
    # float products of integers below 2^53 bound the int64 ones: below 2^62
    # none wraps, and below 2^53 n K_den is exact as a double
    nf = n.astype(float)
    fits = (((pd - a) * nf * kd < 2.0**62) & (kn * pd.astype(float) < 2.0**62)
            & (nf * kd < _EXACT_INT))
    clean = (np.all((ints >= 0) & (ints < _EXACT_INT), axis=1) & fits
             & (n >= 1) & (kn >= kd) & np.all(np.diff(v, axis=1) > 0, axis=1)
             & np.all(cum <= pd[:, None], axis=1) & (cum[:, -1] == pd)
             & ((pd - a) * n * kd <= kn * pd))  # P(Y > 0) <= K/n; wraps only where not fits
    r = np.flatnonzero(clean)
    den = pd[r, None]
    lhs, rhs, bound = _float_sides(v[r] / vd[r, None], p[r] / den, cum[r] / den, n[r],
                                   n[r] * kd[r] / (2 * kn[r]))
    holds = np.zeros(len(clean), dtype=bool)
    decided = np.zeros(len(clean), dtype=bool)
    holds[r] = lhs > rhs
    decided[r] = np.abs(lhs - rhs) > bound
    for i in np.flatnonzero(~decided):
        holds[i] = lemma_max_check(*batch.instance(i))[2]
    return holds


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


def symmetrization_check(law: DiscreteLaw, p_exponent: float, t: float
                         ) -> tuple[float, float, bool]:
    """Check P(g(V) <= t) E(g(V)) <= E(g(V_hat)) + beta t for g(x) = |x|^p,
    beta = max(1, 2^(p-1)), with V_hat = V - V' convolved exactly over pairs,
    for a finite p = p_exponent > 0 and a finite t >= 0."""
    if not (is_number(p_exponent) and p_exponent > 0.0 and is_number(t) and t >= 0.0):
        raise ValueError(f"need a finite p_exponent > 0 and a finite t >= 0, "
                         f"got {p_exponent!r}, {t!r}")
    beta = max(1.0, 2.0 ** (p_exponent - 1.0))

    def g(v: float) -> float:
        return abs(v) ** p_exponent

    atoms = law.float_atoms
    e_g = math.fsum(g(v) * p for v, p in atoms)
    p_le_t = math.fsum(p for v, p in atoms if g(v) <= t)
    e_g_hat = math.fsum(g(v) * p for v, p in law.difference.float_atoms)
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
    values = [v for v, _ in law.atoms]
    den = math.lcm(*(v.denominator for v in values))
    steps = [int((v - values[0]) * den) for v in values]
    lattice = n * steps[-1] // (math.gcd(*steps) or 1) + 1
    return min(math.comb(n + len(values) - 1, len(values) - 1), lattice)


def exact_series_small(law: DiscreteLaw, p: float, q: float, n_limit: int
                       ) -> list[float]:
    """Exact E(|S_n| / n^(1/p))^q for n = 1..n_limit in [1, 12] by repeated
    convolution, for any finite p > 0 and q >= 0 (wider than the (p,q) laws').

    The distribution of S_n lives on a value-indexed map with exact Fraction
    values; StateSpaceExceeded guards the support growth, raised before any
    arithmetic when the bounded support of the last step could pass the cap.
    """
    check_moment_exponents(p, q)
    n_limit = check_count("n_limit", n_limit, 1, 12)
    # the bound grows with n, so the last step decides whether any step can pass
    if _support_bound(law, n_limit - 1) * len(law.atoms) > _CONV_CAP:
        raise StateSpaceExceeded(
            f"convolution support could exceed {_CONV_CAP} entries by n={n_limit}")
    current: dict[Fraction, Fraction] = {Fraction(0): Fraction(1)}
    out: list[float] = []
    for n in range(1, n_limit + 1):
        current = _convolve(current.items(), law.atoms)
        scale = n ** (1.0 / p)
        out.append(math.fsum((abs(float(s)) / scale) ** q * float(ps)
                             for s, ps in current.items()))
    return out

