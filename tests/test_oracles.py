import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqslln import cli
from pqslln import mc_engine as mc
from pqslln import oracles as orc
from pqslln import tail_models as tm
from pqslln.errors import PreconditionViolated, StateSpaceExceeded


# ---------------------------------------------------------------------------
# discrete laws
# ---------------------------------------------------------------------------


def two_point(zero_mass, value, value_mass) -> orc.DiscreteLaw:
    return orc.DiscreteLaw([(0, zero_mass), (value, value_mass)])


NON_LAWS = [
    ([(0, Fraction(1, 2)), (1, Fraction(1, 3))], "sum to 5/6, not 1"),
    ([(0, Fraction(3, 2)), (1, Fraction(-1, 2))], "probabilities must be nonnegative"),
    ([], "sum to 0, not 1"),
    ([(0, 0.5), (1, "1/2")], "must be an int, a Fraction"),  # a float probability is not exact
]


def test_law_validation():
    for atoms, message in NON_LAWS:
        with pytest.raises(ValueError, match=message):
            orc.DiscreteLaw(atoms)
    law = orc.DiscreteLaw([(0, "1/3"), (1, "2/3")])
    assert law.atoms[1][1] == Fraction(2, 3)


def test_law_is_canonical():
    law = orc.DiscreteLaw([(Fraction(1, 2), "1/4"), (-1, "1/4"), (3, "1/2")])
    assert law.atoms == ((-1, Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 4)),
                         (3, Fraction(1, 2)))
    assert all(isinstance(x, Fraction) for atom in law.atoms for x in atom)
    for same in (orc.DiscreteLaw([(3, "1/2"), (0.5, "1/4"), (-1, "1/4")]),  # another order
                 orc.DiscreteLaw([(-1, "1/4"), (3, "1/8"), (0.5, "1/4"), (3, "3/8")])):  # split
        assert same == law and hash(same) == hash(law)


# ---------------------------------------------------------------------------
# maximal inequality
# ---------------------------------------------------------------------------


def test_lemma_max_zero_law():
    law = orc.DiscreteLaw([(0, 1)])
    lhs, rhs, holds = orc.lemma_max_check(law, 5, 1)
    assert lhs == 0.0 and rhs == 0.0 and holds


def test_lemma_max_bernoulli_example():
    # scaled Bernoulli(1/n) at n = 10: E max / c = 1 - 0.9^10
    law = two_point(Fraction(9, 10), 1, Fraction(1, 10))
    lhs, rhs, holds = orc.lemma_max_check(law, 10, 1)
    assert lhs == pytest.approx(1.0 - 0.9**10, abs=1e-15)
    assert rhs == pytest.approx(0.5)
    assert holds
    # scaling by c moves both sides together
    for c in (0.1, 7.0):
        law_c = two_point(Fraction(9, 10), c, Fraction(1, 10))
        lhs_c, rhs_c, holds_c = orc.lemma_max_check(law_c, 10, 1)
        assert holds_c and lhs_c == pytest.approx(c * lhs, rel=1e-12)


def test_lemma_max_two_atom_direct_enumeration():
    law = orc.DiscreteLaw([(0, Fraction(15, 16)), (5, Fraction(1, 16))])
    lhs, rhs, holds = orc.lemma_max_check(law, 8, 1)
    exact = 5.0 * (1.0 - (15.0 / 16.0) ** 8)
    assert lhs == pytest.approx(exact, rel=1e-12)
    assert holds


def _batch(instances):
    """MaxInstances of (atoms, n, K) triples with one atom count, each row the
    (value, mass) pairs as given, over the lcm of its value denominators and
    of its mass denominators."""
    cols = {"values": [], "value_den": [], "masses": [], "mass_den": [],
            "n": [], "k_num": [], "k_den": []}
    for atoms, n, K in instances:
        values, masses = [Fraction(v) for v, _ in atoms], [Fraction(p) for _, p in atoms]
        vd = math.lcm(*(v.denominator for v in values))
        pd = math.lcm(*(p.denominator for p in masses))
        K = Fraction(K)
        for name, x in (("values", [int(v * vd) for v in values]), ("value_den", vd),
                        ("masses", [int(p * pd) for p in masses]), ("mass_den", pd),
                        ("n", n), ("k_num", K.numerator), ("k_den", K.denominator)):
            cols[name].append(x)
    return orc.MaxInstances(**{name: np.array(x) for name, x in cols.items()})


def _holds_in_a_batch(law, n, K):
    return bool(orc.lemma_max_holds_batch(_batch([(law.atoms, n, K)]))[0])


LEMMA_MAX = (orc.lemma_max_check, _holds_in_a_batch)


def test_lemma_max_precondition():
    law = two_point(Fraction(1, 2), 1, Fraction(1, 2))
    for entry in LEMMA_MAX:
        with pytest.raises(PreconditionViolated):
            entry(law, 10, 1)


@pytest.mark.parametrize("entry", LEMMA_MAX)
@pytest.mark.parametrize("n", [2.5, 10.0, 0, -3])
def test_lemma_max_requires_an_int_n_of_at_least_one(entry, n):
    # a float n would take F^n in floats and leave exact arithmetic
    law = two_point(Fraction(9, 10), 1, Fraction(1, 10))
    # the batch reads n as an array, whose dtype must be an integer one
    with pytest.raises(ValueError,
                       match=r"^n must be an integer (at least 1 and at most 2\^53|array), got "):
        entry(law, n, 1)


def test_lemma_max_lattice_subset():
    for n in (1, 3, 17, 256, 1024):
        for j in range(1, 11):
            for K in (1, 2):
                theta = min(Fraction(K, j * n), 1)
                law = orc.DiscreteLaw(((Fraction(0), 1 - theta), (Fraction(7), theta)))
                _, _, holds = orc.lemma_max_check(law, n, K)
                assert holds, (n, j, K)


@pytest.mark.parametrize("c", [Fraction(1, 10), Fraction(1), Fraction(7)])
@pytest.mark.parametrize("masses,message", [
    # theta = K/(j n) = 2 unclamped at n = 1: P(0) = -1, P(c) = 2
    ((-1, 2), "probabilities must be nonnegative"),
    ((Fraction(1, 2), Fraction(1, 4)), "sum to 3/4, not 1"),
])
def test_lemma_max_rejects_a_non_law(c, masses, message):
    atoms = ((Fraction(0), Fraction(masses[0])), (c, Fraction(masses[1])))
    with pytest.raises(ValueError, match=message):
        orc.DiscreteLaw(atoms)
    with pytest.raises(ValueError, match=message):  # the row, as raw integer columns
        orc.lemma_max_holds_batch(_batch([(atoms, 1, 2)]))


@pytest.mark.parametrize("bad,error,message", [
    # theta = K/(j n) = 2 unclamped at n = 1, K = 2, j = 1
    (([0, 1], 1, [-1, 2], 1, 1, 2), ValueError, "probabilities must be nonnegative"),
    (([0, 1], 1, [2, 1], 4, 1, 2), ValueError, "sum to 3/4, not 1"),
    (([0, 1], 1, [1, 1], 2, 10, 1), PreconditionViolated, "exceeds K/n"),
    (([0, 1], 1, [9, 1], 10, 0, 1), ValueError,
     r"^n must be an integer at least 1 and at most 2\^53, got 0$"),
], ids=["negative-mass", "mass-3/4", "precondition", "n-0"])
def test_batch_rejects_a_bad_row_among_laws(bad, error, message):
    good = ([0, 7], 10, [9, 1], 10, 10, 1)  # values, value_den, masses, mass_den, n, K
    columns = [np.array(column) for column in zip(good, bad, good)]
    batch = orc.MaxInstances(*columns, k_den=1)
    with pytest.raises(error, match=message):
        orc.lemma_max_holds_batch(batch)


@pytest.mark.parametrize("fields,message", [
    ({"n": [2.5]}, "n must be an integer array"),
    ({"masses": [[0.5, 0.5]]}, "masses must be an integer array"),
    ({"values": [[0, 2**70]]}, "values must be an integer array"),  # no int64 holds it
    ({"values": np.array([[0, 1]], dtype=np.uint64)}, "values must be an integer array"),
    ({"mass_den": [0]}, "denominators must be >= 1"),
])
def test_max_instances_take_only_exact_integers(fields, message):
    row = {"values": [[0, 1]], "value_den": [1], "masses": [[1, 1]], "mass_den": [2],
           "n": [1], "k_num": [1], "k_den": [1]}
    with pytest.raises(ValueError, match=message):
        orc.MaxInstances(**(row | fields))


@pytest.mark.parametrize("atoms,n,K", [
    # values out of order, and a repeated value: the law sorts and merges them
    (((7, Fraction(1, 20)), (0, Fraction(19, 20))), 10, 1),
    (((0, Fraction(9, 10)), (3, Fraction(1, 20)), (3, Fraction(1, 20))), 10, 1),
    # a value numerator past 2^53 would not convert to a double exactly
    (((0, Fraction(9, 10)), (2**60 + 1, Fraction(1, 10))), 10, 1),
    # (b - a) n K_den = (2^40 + 1) 2^11 2^40 would wrap an int64
    (((0, 1 - Fraction(2**40 + 1, 2**52)), (5, Fraction(2**40 + 1, 2**52))), 2**11,
     Fraction(2**40 + 1, 2**40)),
], ids=["unsorted", "repeated", "wide-value", "wide-product"])
def test_batch_leaves_rows_past_its_int64_checks_to_the_exact_entry(monkeypatch, atoms, n, K):
    exact_calls = []
    exact = orc.lemma_max_check
    expected = exact(orc.DiscreteLaw(atoms), n, K)[2]
    monkeypatch.setattr(orc, "lemma_max_check",
                        lambda *args: exact_calls.append(args) or exact(*args))
    batch = _batch([(atoms, n, K)])  # the row as given, not in the law's canonical order
    assert bool(orc.lemma_max_holds_batch(batch)[0]) == expected
    assert len(exact_calls) == 1


# ---------------------------------------------------------------------------
# the float filter of lemma_max_holds_batch
# ---------------------------------------------------------------------------


def _doubles_of_levels(values, masses, cum, kf, n):
    """`_float_sides` arguments (B = 1) for one law's levels: each double is
    an int / int, which Python rounds once, so any law that fits a double is
    covered, not only an int64 row.  Raises OverflowError where a value is
    too large for a double."""
    rows = [[x.numerator / x.denominator for x in xs] for xs in (values, masses, cum)]
    return (*(np.array([row]) for row in rows), np.array([n], dtype=np.int64),
            np.array([n * kf.denominator / (2 * kf.numerator)]))


def _float_and_exact(law, n, K):
    """The filter's (lhs, rhs, bound) for one law, None where a value does
    not fit a double, and the exact sides."""
    levels = orc._max_levels(law, n, K)
    try:
        doubles = _doubles_of_levels(*levels, n)
    except OverflowError:
        return None, orc._exact_sides(*levels, n)
    return tuple(float(x[0]) for x in orc._float_sides(*doubles)), orc._exact_sides(*levels, n)


def _assert_bound(law, n, K):
    """The float sides are within the filter's bound of the exact sides, and
    where they are further apart than the bound, their order is that of the
    exact sides: lemma_max_check's holds, e_max >= rhs."""
    sides, (e_max, rhs) = _float_and_exact(law, n, K)
    assert sides is not None
    lhs_f, rhs_f, bound = sides
    assert math.isfinite(bound)
    assert abs(Fraction(lhs_f) - e_max) + abs(Fraction(rhs_f) - rhs) < Fraction(bound)
    if abs(lhs_f - rhs_f) > bound:
        assert (lhs_f > rhs_f) == (e_max >= rhs)


@st.composite
def max_instances(draw, atoms=st.integers(1, 5)):
    """(law, n, K) within the precondition: values 1e-300 .. 1e300 (some not
    dyadic), masses with denominators up to about 1e20, and K up to 2n, so
    that no atom need sit at 0 and F_i^n can underflow.  The law has an atom
    at 0 and `atoms` more."""
    n = draw(st.integers(1, 4096))
    K = draw(st.one_of(st.integers(1, 2 * n),
                       st.fractions(min_value=1, max_value=2 * n, max_denominator=1000)))
    m = draw(atoms)
    values = [Fraction(draw(st.floats(1e-300, 1e300))) / draw(st.integers(1, 1000))
              for _ in range(m)]
    weights = [draw(st.integers(1, 10**6)) for _ in range(m)]
    theta = min(Fraction(K) / n, 1) * Fraction(draw(st.integers(1, 10**6)), 10**6)
    atoms = [(Fraction(0), 1 - theta)]
    atoms += [(v, theta * Fraction(w, sum(weights))) for v, w in zip(values, weights)]
    return orc.DiscreteLaw(tuple(atoms)), n, K


@given(max_instances())
@settings(max_examples=40, deadline=None)
def test_filter_bound_and_decision_on_random_laws(instance):
    _assert_bound(*instance)


SUBNORMAL_NS = [1030, 1060, 1073, 1100, 4096]


def _subnormal_power_laws(n):
    # F_1 = 1/2: F_1^n is subnormal for 1022 < n <= 1074 and underflows past it
    law = orc.DiscreteLaw(((Fraction(1, 3), Fraction(1, 2)), (Fraction(5), Fraction(1, 2))))
    # a subnormal atom and a large-denominator mass
    tiny = orc.DiscreteLaw(((Fraction(3, 10**320), Fraction(1, 2) + Fraction(1, 10**40)),
                            (Fraction(2, 10**310), Fraction(1, 2) - Fraction(1, 10**40))))
    return [(law, n, n), (tiny, n, n)]


@pytest.mark.parametrize("n", SUBNORMAL_NS)
def test_filter_bound_with_subnormal_powers(n):
    for instance in _subnormal_power_laws(n):
        _assert_bound(*instance)


def _reference_float_sides(values, masses, cum, kf, n):
    """The filter as one scalar loop over a law's levels, every step the
    double operation the proof of `_float_sides` counts; None where the
    bound does not apply.  `_float_sides` must match it bit for bit."""
    m = len(values)
    k = 2 * n + m + 8
    if k > orc._FILTER_MAX_K:
        return None
    lhs = wide = rhs = atoms = prev = 0.0
    for v, p, f in zip(values, masses, cum):
        v = v.numerator / v.denominator
        g, x, e = 1.0, f.numerator / f.denominator, n
        while True:  # binary powering
            if e & 1:
                g *= x
            e >>= 1
            if not e:
                break
            x *= x
        lhs += v * (g - prev)
        wide += v * (g + prev)
        rhs += v * (p.numerator / p.denominator)
        atoms += v
        prev = g
    rhs *= n * kf.denominator / (2 * kf.numerator)
    bound = k * 2.0**-52 * (wide + rhs) + orc._TINY * n * (atoms + m + 1)
    return (lhs, rhs, bound) if math.isfinite(lhs + rhs + bound) else None


def _bits(xs):
    return [float(x).hex() for x in xs]


def _assert_batch_matches_single_laws(instances):
    """Laws stacked by level count into one `_float_sides` call give, row by
    row, the bits of the B = 1 call and of the scalar reference loop."""
    groups = {}
    for law, n, K in instances:
        levels = orc._max_levels(law, n, K)
        groups.setdefault(len(levels[0]), []).append((levels, n))
    for group in groups.values():
        singles = [_doubles_of_levels(*levels, n) for levels, n in group]
        batched = orc._float_sides(*(np.concatenate(part) for part in zip(*singles)))
        for row, (single, (levels, n)) in enumerate(zip(singles, group)):
            sides = [x[row] for x in batched]
            assert _bits(sides) == _bits(x[0] for x in orc._float_sides(*single))
            reference = _reference_float_sides(*levels, n)
            if reference is None:
                assert sides[2] == math.inf
            else:
                assert _bits(sides) == _bits(reference)


@given(st.integers(1, 5).flatmap(
    lambda m: st.lists(max_instances(st.just(m)), min_size=2, max_size=8)))
@settings(max_examples=25, deadline=None)
def test_batched_filter_matches_each_law_bit_for_bit(instances):
    _assert_batch_matches_single_laws(instances)


def test_batched_filter_matches_each_law_with_subnormal_powers():
    _assert_batch_matches_single_laws(
        [instance for n in SUBNORMAL_NS for instance in _subnormal_power_laws(n)])


def _counting_exact_sides(monkeypatch):
    calls = []
    exact = orc._exact_sides

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(orc, "_exact_sides", counted)
    return calls


def test_filter_decides_the_whole_lattice_without_the_exact_path(monkeypatch):
    batch, _, _ = cli._max_lattice()
    calls = _counting_exact_sides(monkeypatch)
    laws_built = []
    instance = orc.MaxInstances.instance
    monkeypatch.setattr(orc.MaxInstances, "instance",
                        lambda self, i: laws_built.append(i) or instance(self, i))
    holds = orc.lemma_max_holds_batch(batch)
    assert calls == [] and laws_built == []
    assert len(holds) == 2 * (1 << 10) * 10 * 3 and holds.all()
    gen = np.random.default_rng(18)
    for i in gen.choice(len(holds), 400, replace=False):
        assert holds[i] == orc.lemma_max_check(*batch.instance(i))[2]


@pytest.mark.parametrize("law,n,K,fits_a_row", [
    # lhs = rhs = 0
    (orc.DiscreteLaw([(0, 1)]), 5, 1, True),
    # float(10**400) overflows
    (orc.DiscreteLaw(((Fraction(0), Fraction(1, 2)), (Fraction(10**400), Fraction(1, 2)))), 2, 1,
     False),
    # lhs - rhs = 2.5e-319 is inside the bound's absolute term
    (orc.DiscreteLaw(((Fraction(0), Fraction(1, 2)), (Fraction(1, 10**318), Fraction(1, 2)))), 2, 1,
     False),
], ids=["zero-law", "overflow", "inseparable"])
def test_filter_defers_to_the_exact_path(monkeypatch, law, n, K, fits_a_row):
    sides, (e_max, rhs) = _float_and_exact(law, n, K)
    assert sides is None or abs(sides[0] - sides[1]) <= sides[2]
    if fits_a_row:  # no int64 holds the other two laws
        calls = _counting_exact_sides(monkeypatch)
        assert _holds_in_a_batch(law, n, K) == (e_max >= rhs)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# symmetrization inequality
# ---------------------------------------------------------------------------


def test_symmetrization_trivial_cases():
    zero = orc.DiscreteLaw([(0, 1)])
    lhs, rhs, holds = orc.symmetrization_check(zero, 1.0, 0.3)
    assert lhs == 0.0 and holds
    # fair sign at t = 0: left side vanishes since P(|V| <= 0) = 0
    lhs, rhs, holds = orc.symmetrization_check(orc.rademacher_law(), 1.0, 0.0)
    assert lhs == 0.0 and holds


@pytest.mark.parametrize("p_exponent,t", [(math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0),
                                           (1.0, math.nan), (1.0, math.inf), (1.0, -1.0)])
def test_symmetrization_takes_only_finite_p_and_t(p_exponent, t):
    # NaN would otherwise read as a violation, t = -1 as an inequality that holds
    with pytest.raises(ValueError, match="need a finite p_exponent > 0 and a finite t >= 0"):
        orc.symmetrization_check(orc.rademacher_law(), p_exponent, t)


def test_symmetrization_five_atom_example():
    law = orc.DiscreteLaw(
        [(-2, "1/10"), (-1, "2/10"), (0, "3/10"), (1, "2/10"), (3, "2/10")])
    for t in (0.0, 0.5, 1.0):
        lhs, rhs, holds = orc.symmetrization_check(law, 0.7, t)
        assert holds, (t, lhs, rhs)


def test_symmetrization_builds_the_difference_once_per_law(monkeypatch):
    law = orc.DiscreteLaw(
        [(-2, "1/10"), (-1, "2/10"), (0, "3/10"), (1, "2/10"), (3, "2/10")])
    convolutions = []
    convolve = orc._convolve
    monkeypatch.setattr(orc, "_convolve", lambda *pair: convolutions.append(1) or convolve(*pair))
    checks = [orc.symmetrization_check(law, p, t) for p in (0.3, 1.5) for t in (0.0, 1.0)]
    assert len(convolutions) == 1
    fresh = orc.DiscreteLaw(law.atoms)
    assert checks[-1] == orc.symmetrization_check(fresh, 1.5, 1.0)
    assert len(convolutions) == 2 and fresh.difference == law.difference


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_symmetrization_random_rational_laws(seed):
    gen = np.random.default_rng(seed)
    k = int(gen.integers(2, 6))
    values = gen.uniform(-3.0, 3.0, size=k)
    weights = gen.integers(1, 12, size=k)
    total = int(weights.sum())
    law = orc.DiscreteLaw(
        [(float(v), Fraction(int(w), total)) for v, w in zip(values, weights)])
    for p in (0.3, 1.0, 1.5):
        for t in (0.0, 0.5, 2.0):
            _, _, holds = orc.symmetrization_check(law, p, t)
            assert holds


# ---------------------------------------------------------------------------
# exact normalized-moment series
# ---------------------------------------------------------------------------


def test_exact_series_zero_law():
    law = orc.DiscreteLaw([(0, 1)])
    assert orc.exact_series_small(law, 1.0, 1.0, 6) == [0.0] * 6


def test_exact_series_rademacher_values():
    vals = orc.exact_series_small(orc.rademacher_law(), 1.0, 1.0, 4)
    # two-coin enumeration: E|S_2|/2 = (0.5*0 + 0.5*2)/2
    assert vals[1] == pytest.approx(0.5)
    # variance additivity: E S_4^2 / 4 = 1
    vals22 = orc.exact_series_small(orc.rademacher_law(), 2.0, 2.0, 4)
    assert vals22[3] == pytest.approx(1.0)


def test_exact_series_mass_conserved():
    law = orc.DiscreteLaw(
        [(-1.5, Fraction(1, 4)), (0.25, Fraction(1, 2)), (2, Fraction(1, 4))])
    # at q = 0 every |s|^q is 1, so the series is the mass of each S_n's law
    assert orc.exact_series_small(law, 1.0, 0.0, 12) == pytest.approx([1.0] * 12, abs=1e-15)


@pytest.mark.parametrize("entry", [
    lambda p, q: orc.exact_series_small(orc.rademacher_law(), p, q, 3),
    lambda p, q: mc.dense_ratio_moments(tm.rademacher(), [(1.0, 1.0), (p, q)], 3, 10, 0),
], ids=["exact", "dense"])
@pytest.mark.parametrize("p,q", [(math.nan, 0.5), (math.inf, 0.5), (0.0, 0.5), (-1.0, 0.5),
                                 (1.0, math.nan), (1.0, math.inf), (1.0, -1.0)])
def test_small_series_take_only_finite_p_and_q(entry, p, q):
    # a wider domain than the (p,q) laws': p = q = 2 and q = 0 stay valid
    with pytest.raises(ValueError, match="need a finite p > 0 and a finite q >= 0"):
        entry(p, q)


def test_exact_series_respects_cap():
    gen = np.random.default_rng(0)
    values = gen.uniform(0.0, 1.0, size=60)
    law = orc.DiscreteLaw([(float(v), Fraction(1, 60)) for v in values])
    with pytest.raises(StateSpaceExceeded):
        orc.exact_series_small(law, 1.0, 1.0, 12)


@pytest.mark.parametrize("entry", [
    lambda law: orc.lemma_max_check(law, 1, 2),
    lambda law: orc.symmetrization_check(law, 1.0, 0.5),
    lambda law: orc.exact_series_small(law, 1.0, 1.0, 3),
], ids=["lemma_max_check", "symmetrization_check", "exact_series_small"])
@pytest.mark.parametrize("atoms,message", NON_LAWS[:3], ids=["5/6", "negative", "empty"])
def test_every_oracle_entry_rejects_a_non_law(entry, atoms, message):
    # the law is checked once, as it is built, so no oracle sees a non-law
    with pytest.raises(ValueError, match=message):
        entry(orc.DiscreteLaw(atoms))


def test_exact_series_limits():
    with pytest.raises(ValueError):
        orc.exact_series_small(orc.rademacher_law(), 1.0, 1.0, 13)
