"""Exact asymptotic exponent algebra for log-polynomial tails.

Every tail in the built-in catalog (and every custom model loadable from
JSON) ends in a piece of the form

    S(t) = const * t^(-a) * (ln t)^(-b) * (lnln t)^(-c),    t -> infinity,

so the integrands the classifiers care about stay inside the same family
under the transformations used here: powering the argument (Y = |X|^r),
powering the function (S^s), multiplying by log factors, and composing with
the moment transform x -> x^p ln^delta(1+x).  Exponent triples compose
exactly, which turns convergence of int^inf t^(-a) (ln t)^(-b) (lnln t)^(-c) dt
into a lexicographic comparison:

    converges  iff  a > 1,  or  a = 1 and b > 1,  or  a = 1, b = 1, c > 1.

The boundary cases (a=1,b=1,c=1 and below) diverge.  No fit on a finite
window could resolve these marginal cases -- a (lnln t)^(-1) factor shifts a
log slope by ~1/lnln(t_cap) ~ 0.3 even at t_cap = 1e12 -- so the classifiers
decide by this algebra alone, and `tail_remainder` bounds what lies past the
window from the same exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EQ_TOL = 1e-9


@dataclass(frozen=True)
class LogPolyTail:
    """Asymptote const * t^(-a) * (ln t)^(-b) * (lnln t)^(-c) as t -> inf."""

    const: float
    a: float
    b: float = 0.0
    c: float = 0.0

    def power_arg(self, r: float) -> "LogPolyTail":
        """Tail of t -> S(t^(1/r)), r > 0: the tail of |X|^r when S is the tail of |X|."""
        # ln(t^(1/r)) = ln(t)/r contributes r^b; lnln is unchanged to leading order.
        return LogPolyTail(self.const * r**self.b, self.a / r, self.b, self.c)

    def powered(self, s: float) -> "LogPolyTail":
        """Tail of S(t)^s, for s > 0."""
        return LogPolyTail(self.const**s, s * self.a, s * self.b, s * self.c)

    def moment_transform(self, p: float, delta: float) -> "LogPolyTail":
        """Tail of h(|X|), h(x) = x^p ln^delta(1+x) with p > 0, delta >= 0, given this tail of |X|.

        Inverting h gives x_t ~ t^(1/p) (ln(t)/p)^(-delta/p), hence
        S(x_t) ~ const' * t^(-a/p) * (ln t)^(-(b - a*delta/p)) * (lnln t)^(-c).
        """
        const = self.const * p ** (self.b + self.a * delta / p)
        return LogPolyTail(const, self.a / p, self.b - self.a * delta / p, self.c)

    def value(self, t):
        """Evaluate const * t^(-a) * (ln t)^(-b) * (lnln t)^(-c) at t."""
        t = np.asarray(t, dtype=float)
        out = self.const * t**-self.a
        if self.b:
            out = out * np.log(t) ** -self.b
        if self.c:
            out = out * np.log(np.log(t)) ** -self.c
        return out

    def log_value(self, log_t):
        """ln value(t) from ln t, for const > 0; like `value`, it takes each
        log factor only where its exponent is nonzero."""
        out = math.log(self.const) - self.a * np.asarray(log_t, dtype=float)
        if self.b:
            out = out - self.b * np.log(log_t)
        if self.c:
            out = out - self.c * np.log(np.log(log_t))
        return out


def integral_converges(tail: LogPolyTail) -> bool:
    """Whether int^inf t^(-a) (ln t)^(-b) (lnln t)^(-c) dt is finite.

    Lexicographic in (a, b, c); exponents within EQ_TOL of an integer
    boundary are treated as equal to it, and the boundary itself diverges
    at every level (a=1, b=1, c=1 gives lnlnln t).
    """
    a, b, c = tail.a, tail.b, tail.c
    if a > 1.0 + EQ_TOL:
        return True
    if a < 1.0 - EQ_TOL:
        return False
    if b > 1.0 + EQ_TOL:
        return True
    if b < 1.0 - EQ_TOL:
        return False
    return c > 1.0 + EQ_TOL


def tail_remainder(tail: LogPolyTail, t_cap: float, f_cap: float,
                   log_arg: float | None = None) -> float | None:
    """Proved upper bound of int_T^inf f(t) dt, T = t_cap, or None.

    f is the last piece in t: f(t) = K t^-a (ln x)^-b (lnln x)^-c on [T, inf),
    (a, b, c) the exponents of `tail` and ln x = (ln t)/r its argument
    (x = t^(1/r) under Y = |X|^r).  `log_arg` is ln X = (ln T)/r, by default
    r = 1, and must exceed 1.  Only f_cap = f(T) enters, not K or r.

    Proof: -d ln f/d ln t = a + b/ln t + c/(ln t lnln x), and ln t and
    ln t lnln x increase, so the slope is at least the local exponent at T,
    s = a + min(b,0)/ln T + min(c,0)/(ln T lnln X), and f <= f_cap (t/T)^-s
    gives f_cap T/(s-1) for s > 1 (s = a when b, c >= 0).  For a = 1 the same
    runs in v = ln x, where f dt = r K v^-b (ln v)^-c dv: s = b + min(c,0)/lnln X
    and the bound is f_cap T ln T/(s-1).  For a = b = 1 it runs in w = ln v and
    gives f_cap T ln T lnln X/(c-1) for c > 1.  Anything else gives None.

    Rounding: for a pure power the bound equals the remainder, so the float
    result is pushed outward by the factor 1 + m, with
    m = 16 eps (1 + |a ln T| + |b| lnln X + s/(s-1)).  The power factor of
    f_cap is exp(-a ln t) at t = T (or the same in the piece's argument), so a
    relative rounding of a few eps in the exponent or the argument moves it by
    |a ln T| times that, and the log factor (ln X)^-b by |b| lnln X times that;
    s - 1 carries s/(s-1) times the few-eps error of s; the products and the
    division add a few eps.  Each unit of m is 16 eps, room for the few
    roundings each of these terms collects.
    """
    L = math.log(t_cap)
    log_arg = L if log_arg is None else log_arg
    if log_arg <= 1.0:
        return None
    a, b, c = tail.a, tail.b, tail.c
    LL = math.log(log_arg)
    if a > 1.0 + EQ_TOL:
        s, scale = a + min(b, 0.0) / L + min(c, 0.0) / (L * LL), f_cap * t_cap
    elif a >= 1.0 - EQ_TOL and b > 1.0 + EQ_TOL:
        s, scale = b + min(c, 0.0) / LL, f_cap * t_cap * L
    elif a >= 1.0 - EQ_TOL and b >= 1.0 - EQ_TOL and c > 1.0 + EQ_TOL:
        s, scale = c, f_cap * t_cap * L * LL
    else:
        return None
    if s <= 1.0:
        return None
    margin = 16.0 * np.finfo(float).eps * (1.0 + abs(a * L) + abs(b) * LL + s / (s - 1.0))
    return float(scale / (s - 1.0) * (1.0 + margin))
