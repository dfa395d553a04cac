from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fibrecount import ordinary, weighted
from fibrecount.multiindex import MultiIndex, unit
from fibrecount.series import TruncatedSeries


def mi(text):
    return MultiIndex.parse(text)


def var(a, j, max_degree=6):
    return TruncatedSeries.variable(a, j, max_degree)


def test_zero_one_variable():
    z = TruncatedSeries.zero(4)
    one = TruncatedSeries.one(4)
    x = var("a", 0, 4)
    assert not z
    assert one.coefficient(MultiIndex([])) == 1
    assert x.coefficient(unit("a", 0)) == 1
    assert x.coefficient(unit("a", 1)) == 0


def test_ring_identities():
    x, y = var("a", 0), var("a", 1)
    one = TruncatedSeries.one(6)
    assert x + y == y + x
    assert (x + y) * (x - y) == x * x - y * y
    assert x * one == x
    assert x * TruncatedSeries.zero(6) == TruncatedSeries.zero(6)
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y


def test_truncation_drops_high_degree():
    x = var("a", 0, 2)
    cube = x * x * x
    assert cube == TruncatedSeries.zero(2)
    sq = x * x
    assert sq.coefficient(mi("a:0=2")) == 1


def test_bound_mismatch_raises():
    with pytest.raises(ValueError):
        var("a", 0, 3) + var("a", 0, 4)
    with pytest.raises(ValueError):
        var("a", 0, 3) * var("a", 0, 4)


def test_scalar_multiplication():
    x = var("a", 0)
    half = Fraction(1, 2) * x
    assert half.coefficient(unit("a", 0)) == Fraction(1, 2)
    assert (2 * half) == x
    assert (x * 0) == TruncatedSeries.zero(6)


def test_substitute_powers():
    x, y = var("a", 0), var("b", 2)
    s = x + x * y
    t = s.substitute_powers(2)
    assert t.coefficient(mi("a:0=2")) == 1
    assert t.coefficient(mi("a:0=2,b:2=2")) == 1
    assert t.coefficient(mi("a:0=1")) == 0
    # scaling past the bound truncates
    u = (x * y).substitute_powers(4)
    assert u == TruncatedSeries.zero(6)


def test_sorted_terms_are_deterministic():
    s = var("b", 1) + var("a", 0) + var("a", -1)
    monos = [m for m, _ in s.sorted_terms()]
    assert monos == sorted(monos, key=lambda m: m.sort_key())


def test_equality_requires_same_bound():
    a3 = TruncatedSeries.one(3)
    a4 = TruncatedSeries.one(4)
    assert a3 != a4


# -- the packed multiply kernel against a naive convolution ---------------------

BOUNDS = (0, 1, 3, 4, 7, 8)
KEYS = (("a", -1), ("a", 0), ("a", 3), ("b", -1), ("b", 1), ("c", 0))


def naive_product(left, right):
    bound = left.max_degree
    out = {}
    for m1, c1 in left._terms.items():
        for m2, c2 in right._terms.items():
            mono = m1 + m2
            if mono.degree() <= bound:
                out[mono] = out.get(mono, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {m: c for m, c in out.items() if c != 0}


def assert_clean(series):
    for mono, c in series._terms.items():
        assert c != 0
        assert mono.degree() <= series.max_degree
        assert mono == MultiIndex(dict(mono.items()))


coefficients = st.one_of(st.integers(-5, 5),
                         st.fractions(min_value=-3, max_value=3, max_denominator=12))


@st.composite
def series_over(draw, bound, keys):
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        counts = {}
        budget = draw(st.integers(0, bound))
        for key in draw(st.lists(st.sampled_from(keys), unique=True)):
            if budget == 0:
                break
            c = draw(st.integers(1, budget))
            counts[key] = c
            budget -= c
        mono = MultiIndex(counts)
        terms[mono] = terms.get(mono, 0) + draw(coefficients)
    return TruncatedSeries(bound, terms)


@st.composite
def operand_pairs(draw):
    bound = draw(st.sampled_from(BOUNDS))
    # Each operand draws from its own key subset, so key sets differ.
    left_keys = draw(st.lists(st.sampled_from(KEYS), min_size=1, unique=True))
    right_keys = draw(st.lists(st.sampled_from(KEYS), min_size=1, unique=True))
    return (draw(series_over(bound, tuple(left_keys))),
            draw(series_over(bound, tuple(right_keys))))


@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_product_matches_naive_convolution(pair):
    left, right = pair
    got = left * right
    assert got._terms == naive_product(left, right)
    assert got.max_degree == left.max_degree
    assert_clean(got)


@pytest.mark.parametrize("bound", BOUNDS)
def test_product_fills_a_field_to_the_bound(bound):
    # One key whose count reaches the bound uses the top value of its field;
    # the other key's field sits just above it and must stay untouched.
    x, y = var("a", 0, bound), var("b", 2, bound)
    for low in range(bound + 1):
        got = (x ** low) * (x ** (bound - low))
        assert got._terms == {MultiIndex({("a", 0): bound}): 1}
        assert_clean(got)
    if bound >= 1:
        got = (x ** (bound - 1) + y) * (x + y)
        want = naive_product(x ** (bound - 1) + y, x + y)
        assert got._terms == want
        assert got.coefficient(MultiIndex({("a", 0): bound})) == 1
        assert_clean(got)


def test_product_cancellation_leaves_no_zero_terms():
    x, y = var("a", 0, 4), var("b", -1, 4)
    half = Fraction(1, 2)
    got = (x + half * y) * (x - half * y)
    assert got._terms == {mi("a:0=2"): 1, mi("b:-1=2"): Fraction(-1, 4)}
    assert_clean(got)
    # Every product lands above the bound.
    assert (x * x * y) * (x * y - y * y) == TruncatedSeries.zero(4)
    assert (x * x) * TruncatedSeries.zero(4) == TruncatedSeries.zero(4)


# -- the degree-by-degree solver against full sweeps -------------------------------

def full_sweeps(rhs, alphabet, max_degree):
    """The iteration the solver replaced: max_degree full sweeps at the bound."""
    out = TruncatedSeries.zero(max_degree)
    for _ in range(max_degree):
        out = rhs(out, alphabet)
    return out


@pytest.mark.parametrize("alphabet,top", [(("a",), 6), (("a", "b"), 5)])
def test_solver_matches_full_sweeps(alphabet, top):
    for d in range(1, top + 1):
        assert (weighted.weighted_series(alphabet, d)
                == full_sweeps(weighted.functional_rhs, alphabet, d))
        assert (ordinary.ordinary_series(alphabet, d)
                == full_sweeps(ordinary.functional_rhs, alphabet, d))
