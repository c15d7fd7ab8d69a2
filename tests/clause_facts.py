"""Known truth values of the membership clauses for the builtin tail models,
from closed-form tail calculus; the classifiers are tested against them.

`clause_facts(model)` looks a builtin up by its `origin` and returns
facts(p, q) -> ClauseFact, whose None fields are not asserted.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class ClauseFact:
    """Known truth values for one (p, q) pair."""

    integral_finite: bool | None = None
    p_moment_finite: bool | None = None
    series_finite: bool | None = None
    member: bool | None = None
    note: str = ""


TOL = 1e-12


def _pareto_facts(alpha: float):
    def facts(p: float, q: float) -> ClauseFact:
        # S(t) = t^(-alpha) beyond 1: every criterion reduces to comparing
        # p against alpha; the truncated series is finite for every p
        # (exactly zero when p >= alpha, summable power decay when p < alpha).
        finite = bool(p < alpha - TOL)
        return ClauseFact(integral_finite=finite, p_moment_finite=finite, series_finite=True,
                          member=finite, note=f"pure power tail, exponent {alpha:g}")

    return facts


def _member(p: float, q: float, integral: bool, pm: bool, series: bool | None) -> bool | None:
    """Membership from the q < p < 1 and q = p < 1 clauses; None elsewhere."""
    if q < p - TOL and p < 1.0:
        return integral
    if abs(q - p) <= TOL and p < 1.0:
        return pm and bool(series)
    return None


def _log_power_facts(a: float, b: float):
    def facts(p: float, q: float) -> ClauseFact:
        # Tail calculus for S(t) = e^a t^(-a) (ln t)^(-b):
        #   integral condition exponent triple: (a/p, b*q/p, 0)
        #   p-moment triple:                    (a/p, b, 0)
        #   series at q = p: finite iff a > p, or a = p with b > 1.
        if a > p + TOL:
            integral = pm = series = True
        elif a < p - TOL:
            integral = pm = False
            series = None  # window eventually empties only if the scale wins; not asserted
        else:
            integral = b * q / p > 1.0 + TOL
            pm = b > 1.0 + TOL
            series = b > 1.0 + TOL if b > TOL else None
        return ClauseFact(integral, pm, series, _member(p, q, integral, pm, series),
                          note=f"power-log tail, exponents ({a:g}, {b:g})")

    return facts


def _log_loglog_facts(a: float):
    def facts(p: float, q: float) -> ClauseFact:
        # S(t) = e^(e*a+1) t^(-a) (ln t)^(-1) (lnln t)^(-2):
        #   p-moment triple (a/p, 1, 2) is finite at a = p thanks to the
        #   squared lnln factor, while the series integrand (1, 1, 1) sits
        #   exactly on the divergent boundary.
        if a > p + TOL:
            integral = pm = series = True
        elif a < p - TOL:
            integral = pm = False
            series = None
        else:
            integral = q > p - TOL  # (1, q/p, 2q/p): needs q/p > 1, or = 1 with 2q/p > 1
            pm = True
            series = False
        return ClauseFact(integral, pm, series, _member(p, q, integral, pm, series),
                          note=f"power-log-loglog tail, exponent {a:g}")

    return facts


def _degenerate_facts(value: float, neg_prob: float):
    def facts(p: float, q: float) -> ClauseFact:
        member = True
        if q < 1.0 - TOL <= p - TOL and value > 0.0 and neg_prob in (0.0, 1.0):
            member = False  # bounded but mean nonzero
        return ClauseFact(True, True, True, member, note="bounded support")

    return facts


def clause_facts(model):
    """facts(p, q) of a builtin model, by its origin (rademacher is the
    degenerate law at 1 with a fair sign)."""
    kind, params = model.origin
    params = dict(params)
    if kind == "pareto":
        return _pareto_facts(params["alpha"])
    if kind == "log-power":
        return _log_power_facts(params["power"], params["log_power"])
    if kind == "log-loglog-power":
        return _log_loglog_facts(params["power"])
    if kind == "rademacher":
        return _degenerate_facts(1.0, model.negative_prob)
    return _degenerate_facts(params["value"], model.negative_prob)
