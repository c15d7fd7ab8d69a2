import math

import numpy as np
import pytest

from pqslln.asymptotics import LogPolyTail, integral_converges, tail_remainder


def test_lexicographic_convergence_rule():
    assert integral_converges(LogPolyTail(1.0, 1.5))
    assert not integral_converges(LogPolyTail(1.0, 0.7))
    assert integral_converges(LogPolyTail(1.0, 1.0, 2.0))
    assert not integral_converges(LogPolyTail(1.0, 1.0, 1.0))
    assert not integral_converges(LogPolyTail(1.0, 1.0, 0.5))
    assert integral_converges(LogPolyTail(1.0, 1.0, 1.0, 2.0))
    # every marginal boundary diverges
    assert not integral_converges(LogPolyTail(1.0, 1.0, 1.0, 1.0))
    assert not integral_converges(LogPolyTail(1.0, 1.0, 1.0, 0.9))


@pytest.mark.parametrize("a,b,c", [(0.5, 2.0, 0.0), (1.0, 1.0, 2.0), (2.0, 0.0, 1.0)])
def test_power_arg_matches_direct_evaluation(a, b, c):
    # The transform preserves the exponent content: the local log-slope of the
    # tail of |X|^r computed directly and through the algebra must agree.
    # (Constant prefactors at the lnln level converge only like 1/ln t, so a
    # value-ratio comparison would be meaningless at any floating-point t.)
    base = LogPolyTail(3.0, a, b, c)
    r = 0.7
    transformed = base.power_arg(r)
    for t in (1e8, 1e12):
        h = 1.0001
        direct_slope = (np.log(base.value((t * h) ** (1.0 / r)))
                        - np.log(base.value(t ** (1.0 / r)))) / np.log(h)
        via_slope = (np.log(transformed.value(t * h))
                     - np.log(transformed.value(t))) / np.log(h)
        assert direct_slope == pytest.approx(via_slope, abs=5e-3)
    # pure power/log cases: even the constants match
    if c == 0.0:
        t = np.geomspace(1e8, 1e12, 5)
        assert np.allclose(base.value(t ** (1.0 / r)) / transformed.value(t), 1.0,
                           rtol=1e-3)


def test_powered_is_exact():
    base = LogPolyTail(2.0, 1.2, 0.8, 0.3)
    s = 0.4
    t = np.geomspace(1e6, 1e10, 4)
    assert np.allclose(base.value(t) ** s, base.powered(s).value(t), rtol=1e-12)


def test_moment_transform_matches_numeric_inversion():
    # S(x) = x^-2 (ln x)^-1; h(x) = x^p ln^delta(1+x)
    base = LogPolyTail(1.0, 2.0, 1.0, 0.0)
    p, delta = 0.8, 1.0
    trans = base.moment_transform(p, delta)
    for t in (1e10, 1e12):
        # invert h numerically
        lo, hi = 1.0, 1e300
        for _ in range(200):
            mid = np.sqrt(lo * hi)
            if mid**p * np.log1p(mid) ** delta < t:
                lo = mid
            else:
                hi = mid
        x = np.sqrt(lo * hi)
        assert trans.value(t) == pytest.approx(float(base.value(x)), rel=0.05)


def test_remainder_bound_finite_only_when_convergent():
    assert tail_remainder(LogPolyTail(1.0, 1.5), 1e12, 1e-18) is not None
    assert tail_remainder(LogPolyTail(1.0, 1.0, 1.0, 1.0), 1e12, 1e-18) is None
    rem = tail_remainder(LogPolyTail(1.0, 1.0, 2.0), 1e12, 1e-12)
    assert rem is not None and np.isfinite(rem) and rem > 0


def test_remainder_bound_with_growing_log_factor():
    # t^-1.5 (ln t)^2: int_T^inf = e^(-L/2) (2 L^2 + 8 L + 16), L = ln T
    T = 1e12
    L = math.log(T)
    exact = math.exp(-0.5 * L) * (2.0 * L * L + 8.0 * L + 16.0)
    rem = tail_remainder(LogPolyTail(1.0, 1.5, -2.0), T, T**-1.5 * L * L)
    assert rem >= exact
    # a growing factor that outweighs the power margin at T has no bound
    assert tail_remainder(LogPolyTail(1.0, 1.05, -2.0), T, 1.0) is None


def test_remainder_bound_with_growing_loglog_factor():
    # t^-1 (ln t)^-2 lnln t: int_T^inf = (ln L + 1)/L
    T = 1e5
    L = math.log(T)
    exact = (math.log(L) + 1.0) / L
    rem = tail_remainder(LogPolyTail(1.0, 1.0, 2.0, -1.0), T, math.log(L) / (T * L * L))
    assert rem >= exact


def test_remainder_bound_reads_the_piece_argument():
    # S(x) = x^-1/2 (ln x)^-1 (lnln x)^-2 at x = t^2: t^-1 (2 ln t)^-1 (ln(2 ln t))^-2,
    # whose tail past T is 1/(2 ln(2L)); lnln of the argument, not of t, enters
    T = 1e12
    L = math.log(T)
    f_cap = 1.0 / (T * 2.0 * L * math.log(2.0 * L) ** 2)
    exact = 0.5 / math.log(2.0 * L)
    tail = LogPolyTail(1.0, 1.0, 1.0, 2.0)
    assert tail_remainder(tail, T, f_cap, log_arg=2.0 * L) == pytest.approx(exact, rel=1e-12)
