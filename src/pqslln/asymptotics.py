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

The boundary cases (a=1,b=1,c=1 and below) diverge.  Desk-scale trend fits
cannot resolve these marginal cases -- a (lnln t)^(-1) factor shifts a fitted
log exponent by ~1/lnln(t_cap) ~ 0.3 even at t_cap = 1e12 -- so the
classifiers use this algebra whenever a model exposes its catalog form and
keep fitted exponents as recorded evidence only.
"""

from __future__ import annotations

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
        """Tail of t -> S(t^(1/r)), i.e. the tail of |X|^r when S is the tail of |X|."""
        if r <= 0:
            raise ValueError("argument power must be positive")
        # ln(t^(1/r)) = ln(t)/r contributes r^b; lnln is unchanged to leading order.
        return LogPolyTail(self.const * r**self.b, self.a / r, self.b, self.c)

    def powered(self, s: float) -> "LogPolyTail":
        """Tail of S(t)^s."""
        if s <= 0:
            raise ValueError("function power must be positive")
        return LogPolyTail(self.const**s, s * self.a, s * self.b, s * self.c)

    def moment_transform(self, p: float, delta: float) -> "LogPolyTail":
        """Tail of h(|X|) for h(x) = x^p ln^delta(1+x), given this tail of |X|.

        Inverting h gives x_t ~ t^(1/p) (ln(t)/p)^(-delta/p), hence
        S(x_t) ~ const' * t^(-a/p) * (ln t)^(-(b - a*delta/p)) * (lnln t)^(-c).
        """
        if p <= 0 or delta < 0:
            raise ValueError("p must be positive and delta nonnegative")
        const = self.const * p ** (self.b + self.a * delta / p)
        return LogPolyTail(const, self.a / p, self.b - self.a * delta / p, self.c)

    def value(self, t):
        """Evaluate the asymptotic form (diagnostic use only)."""
        t = np.asarray(t, dtype=float)
        out = self.const * t**-self.a
        if self.b:
            out = out * np.log(t) ** -self.b
        if self.c:
            out = out * np.log(np.log(t)) ** -self.c
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


def tail_remainder(tail: LogPolyTail, t_cap: float, f_cap: float) -> float | None:
    """Upper-bound estimate of int_{t_cap}^inf f(t) dt for a convergent tail.

    Uses the observed value f_cap = f(t_cap) so the constant in the asymptote
    does not need to be trusted.  Returns None when the tail diverges.
    """
    if not integral_converges(tail):
        return None
    a, b, c = tail.a, tail.b, tail.c
    L = np.log(t_cap)
    if a > 1.0 + EQ_TOL:
        return float(f_cap * t_cap / (a - 1.0))
    if b > 1.0 + EQ_TOL:
        return float(f_cap * t_cap * L / (b - 1.0))
    return float(f_cap * t_cap * L * np.log(L) / (c - 1.0))
