"""Reference values computed apart from pqslln.

Nothing here imports pqslln.  The tail laws are re-derived from their
published formulas, so a fault shared by the program and its own tests
cannot hide in both places.

- exact law and moments of |S_n| for Rademacher steps, from the binomial law
- a Chernoff band for the mean of m independent copies of (|S_n|/n^(1/p))^q
- closed forms for the tail integrals the criteria report on a window [0, T]
- an mpmath inverse of the survival formulas, for the sampler accuracy guard
- the membership each config must have, from the clause conditions of the paper
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

MEMBER = "Member"
NON_MEMBER = "NonMember"
_TOL = 1e-12


# ---------------------------------------------------------------------------
# Tail laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefTail:
    """P(|X| > t) = 1 for t <= knee and const * t^-a (ln t)^-b (lnln t)^-c beyond.

    A bounded law (`bound` set) has |X| = bound: P(|X| > t) = 1(t < bound).
    """

    name: str
    knee: float = 1.0
    const: float = 1.0
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    bound: float | None = None
    symmetric: bool = True


def tail_from_spec(spec: dict) -> RefTail:
    """Reference law for a config `model` entry (builtin or inline custom)."""
    if "builtin" in spec:
        name, params = spec["builtin"], spec.get("params", {})
        symmetric = params.get("sign_law", "symmetric") == "symmetric"
        if name == "pareto":
            alpha = float(params["alpha"])
            return RefTail(f"pareto({alpha:g})", 1.0, 1.0, alpha, symmetric=symmetric)
        if name == "log-power":
            a, b = float(params["power"]), float(params["log_power"])
            return RefTail(f"log-power({a:g},{b:g})", math.e, math.exp(a), a, b,
                           symmetric=symmetric)
        if name == "log-loglog-power":
            a = float(params["power"])
            return RefTail(f"log-loglog-power({a:g})", math.exp(math.e),
                           math.exp(math.e * a + 1.0), a, 1.0, 2.0, symmetric=symmetric)
        if name == "rademacher":
            return RefTail("rademacher", bound=1.0)
        if name == "degenerate":
            return RefTail("degenerate", bound=float(params["value"]),
                           symmetric=params.get("sign_law", "nonnegative") == "symmetric")
        raise ValueError(f"no reference for builtin {name!r}")
    doc = spec["custom"]
    head, tail = doc["pieces"]
    if (head["formula_id"], tail["formula_id"]) != ("constant", "power-log") \
            or head["params"]["value"] != 1.0:
        raise ValueError("reference covers a unit head followed by one power-log piece")
    prm = tail["params"]
    return RefTail(doc.get("name", "custom"), float(tail["t_lo"]), float(prm["scale"]),
                   float(prm["power"]), float(prm["log_power"]),
                   symmetric=doc["sign_law"] == "symmetric")


def survival_mp(tail: RefTail, t) -> mpmath.mpf:
    t = mpmath.mpf(t)
    if tail.bound is not None:
        return mpmath.mpf(1 if t < tail.bound else 0)
    if t <= tail.knee:
        return mpmath.mpf(1)
    lt = mpmath.log(t)
    out = mpmath.mpf(tail.const) * t ** (-tail.a) * lt ** (-tail.b)
    if tail.c:
        out *= mpmath.log(lt) ** (-tail.c)
    return out


def inverse_survival_mp(tail: RefTail, u: float, dps: int = 40) -> float:
    """inf{t : P(|X| > t) < u} for u in (0, 1], solved in s = ln t with mpmath."""
    if not 0.0 < u <= 1.0:
        raise ValueError("u must lie in (0, 1]")
    if tail.bound is not None:
        return tail.bound
    if u == 1.0:
        return tail.knee
    with mpmath.workdps(dps):
        target = mpmath.log(mpmath.mpf(u))

        def g(s):
            return mpmath.log(survival_mp(tail, mpmath.exp(s))) - target

        lo = mpmath.log(mpmath.mpf(tail.knee)) * (1 + mpmath.mpf(10) ** -30)
        hi = lo + 1
        while g(hi) > 0:
            lo, hi = hi, 2 * hi
        s = mpmath.findroot(g, (lo, hi), solver="anderson")
        return float(mpmath.exp(s))


# ---------------------------------------------------------------------------
# Rademacher partial sums
# ---------------------------------------------------------------------------


def abs_sum_law(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and probabilities of |S_n| = |2K - n| with K ~ Binomial(n, 1/2).

    Atoms beyond 14 standard deviations (mass below e^-98) are dropped.
    """
    half = 7.0 * math.sqrt(n) + 2.0
    lo, hi = max(0, math.floor(n / 2 - half)), min(n, math.ceil(n / 2 + half))
    k = range(lo, hi + 1)
    base = math.lgamma(n + 1) - n * math.log(2.0)
    logp = np.array([base - math.lgamma(j + 1) - math.lgamma(n - j + 1) for j in k])
    values = np.abs(2.0 * np.arange(lo, hi + 1) - n)
    return values, np.exp(logp)


def rademacher_moment(n: int, p: float, q: float) -> float:
    """E (|S_n| / n^(1/p))^q, exact up to floating-point rounding."""
    values, probs = abs_sum_law(n)
    return math.fsum((values / n ** (1.0 / p)) ** q * probs) / math.fsum(probs)


def brute_force_moment(n: int, p: float, q: float) -> float:
    """E (|S_n| / n^(1/p))^q by enumerating all 2^n sign vectors (n <= 12)."""
    if not 1 <= n <= 12:
        raise ValueError("enumeration is limited to 1 <= n <= 12")
    codes = np.arange(1 << n)[:, None] >> np.arange(n)[None, :]
    sums = (2 * (codes & 1) - 1).sum(axis=1)
    return math.fsum((np.abs(sums) / n ** (1.0 / p)) ** q) / (1 << n)


def chernoff_band(values: np.ndarray, probs: np.ndarray, m: int,
                  alpha: float) -> tuple[float, float, float]:
    """(mu, lower, upper) with P(mean of m copies < mu - lower) <= alpha and
    P(mean > mu + upper) <= alpha, from the exact moment generating function."""
    probs = probs / math.fsum(probs)
    mu = math.fsum(values * probs)
    dev = values - mu
    sd = math.sqrt(math.fsum(dev**2 * probs))
    if sd == 0.0:
        return mu, 0.0, 0.0
    logw = np.log(probs)
    budget = math.log(1.0 / alpha) / m
    lams = np.geomspace(1e-2, 1e3, 300) / sd
    bands = []
    for sign in (-1.0, 1.0):
        z = logw[None, :] + sign * lams[:, None] * dev[None, :]
        top = z.max(axis=1)
        log_mgf = top + np.log(np.exp(z - top[:, None]).sum(axis=1))
        bands.append(float(np.min((log_mgf + budget) / lams)))
    return mu, bands[0], bands[1]


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def pareto_p_moment(alpha: float, p: float) -> float:
    """E|X|^p = alpha / (alpha - p) for P(|X| > t) = t^-alpha beyond 1.

    The integral condition int_0^inf P^(q/p)(|X|^q > t) dt has the same value
    for every q, since its integrand is t^(-alpha/p) beyond 1.
    """
    return alpha / (alpha - p) if p < alpha else math.inf


def window_integral(tail: RefTail, p: float, q: float, t_cap: float) -> float | None:
    """int_0^T P^(q/p)(|X|^q > t) dt on the window T = t_cap, or None where
    no elementary antiderivative exists.  With q = p this is the p-th moment
    on the window."""
    r = q / p
    if tail.bound is not None:
        return min(tail.bound**q, t_cap)
    t0 = tail.knee**q                      # P(|X|^q > t) = 1 below t0
    if tail.b == 0.0 and tail.c == 0.0:    # const t^(-a/q), so the integrand is K t^-e
        k, e = tail.const**r, tail.a / p
        if abs(e - 1.0) <= _TOL:
            return t0 + k * math.log(t_cap / t0)
        return t0 + k * (t_cap ** (1 - e) - t0 ** (1 - e)) / (1 - e)
    if abs(tail.a - p) > _TOL:
        return None
    if tail.c == 0.0:
        # K t^-1 (ln t)^-B with K = const^r q^(b r), B = b r
        k, big_b = tail.const**r * q ** (tail.b * r), tail.b * r
        lo, hi = math.log(t0), math.log(t_cap)
        if abs(big_b - 1.0) <= _TOL:
            return t0 + k * math.log(hi / lo)
        return t0 + k * (hi ** (1 - big_b) - lo ** (1 - big_b)) / (1 - big_b)
    if (tail.b, tail.c) == (1.0, 2.0) and abs(r - 1.0) <= _TOL:
        # const t^-1 (ln t/q)^-1 (ln(ln t/q))^-2 has antiderivative -const q / ln(ln t/q)
        v0, v1 = math.log(math.log(t0) / q), math.log(math.log(t_cap) / q)
        return t0 + tail.const * q * (1.0 / v0 - 1.0 / v1)
    return None


# ---------------------------------------------------------------------------
# Expected membership from the clause conditions
# ---------------------------------------------------------------------------


def _finite(a: float, b: float, c: float) -> bool:
    """int^inf t^-a (ln t)^-b (lnln t)^-c dt < inf."""
    if abs(a - 1.0) > _TOL:
        return a > 1.0
    if abs(b - 1.0) > _TOL:
        return b > 1.0
    return c > 1.0 + _TOL


def integral_finite(tail: RefTail, p: float, q: float) -> bool:
    """P^(q/p)(|X|^q > t) decays with exponents (a/p, b q/p, c q/p)."""
    if tail.bound is not None:
        return True
    r = q / p
    return _finite(tail.a / p, tail.b * r, tail.c * r)


def p_moment_finite(tail: RefTail, p: float) -> bool:
    return integral_finite(tail, p, p)


def log_moment_finite(tail: RefTail, p: float) -> bool:
    """E |X|^p ln(1 + |X|): the level t of x^p ln x sits at x ~ (p t / ln t)^(1/p),
    so the tail of the transform has exponents (a/p, b - a/p, c)."""
    if tail.bound is not None:
        return True
    return _finite(tail.a / p, tail.b - tail.a / p, tail.c)


def truncated_series_finite(tail: RefTail, p: float) -> bool:
    """sum_n E[Y 1(min{u_n^p, n} < Y <= n)] / n with Y = |X|^p.

    Y has tail exponents (A, b, c) with A = a/p.  If A != 1 the window
    (min{u_n^p, n}, n] is eventually empty (A < 1) or its mass decays like a
    power (A > 1).  If A = 1 the quantile of Y is n (ln n)^-b (lnln n)^-c up
    to a constant, the window spans a factor (ln n)^b (lnln n)^c, and the
    n-th term is n^-1 (ln n)^-b (lnln n)^-c times the log of that factor.
    """
    if tail.bound is not None:
        return True
    big_a = tail.a / p
    if abs(big_a - 1.0) > _TOL:
        return True
    if tail.b > _TOL:
        return _finite(1.0, tail.b, tail.c - 1.0)
    if tail.c > _TOL:
        return False
    return tail.const >= 1.0  # pure power: u_n^p = C n, so the window is empty iff C >= 1


def expected_membership(tail: RefTail, p: float, q: float, criterion: str) -> str:
    """Membership in the (p, q)-type SLLN by the clause that (p, q) falls in.

    q < p < 1:       the integral condition
    q = p < 1:       E|X|^p < inf and the truncated series  (almost sure), or
                     E|X|^p ln(1 + |X|) < inf               (expectation)
    q < 1 <= p < 2:  E X = 0 and the integral condition
    """
    if q < p - _TOL and p < 1.0:
        ok = integral_finite(tail, p, q)
    elif abs(q - p) <= _TOL and p < 1.0:
        if criterion == "expectation":
            ok = log_moment_finite(tail, p)
        else:
            ok = p_moment_finite(tail, p) and truncated_series_finite(tail, p)
    elif q < 1.0 and 1.0 <= p < 2.0:
        ok = tail.symmetric and integral_finite(tail, p, q)
    else:
        raise ValueError(f"(p, q) = ({p}, {q}) lies outside the clauses")
    return MEMBER if ok else NON_MEMBER
