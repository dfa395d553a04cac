import math
from fractions import Fraction

import pytest

from fibrecount.multiindex import (MultiIndex, apply_shift,
                                   enumerate_multiindices, find_shift, unit)
from fibrecount.lowering import (apply_lowering, c_coefficient,
                                 c_coefficient_tables, coefficient_gf,
                                 d_coefficient, d_coefficient_recursive,
                                 lowering_power, transition_gf,
                                 transport_arrays)


def mi(text):
    return MultiIndex.parse(text)


# -- the derivation itself --------------------------------------------------------

def test_kills_bottom_variable():
    assert apply_lowering({mi("a:-1=1"): 1}) == {}


def test_leibniz_on_square():
    # d(x0^2) = 2 x_{-1} x0
    got = apply_lowering({mi("a:0=2"): 1})
    assert got == {mi("a:-1=1,a:0=1"): 2}


def test_mixed_monomial():
    # d(x1 x0 x_{-1}^2) = x0^2 x_{-1}^2 + x1 x_{-1}^3
    got = apply_lowering({mi("a:1=1,a:0=1,a:-1=2"): 1})
    assert got == {mi("a:0=2,a:-1=2"): 1, mi("a:1=1,a:-1=3"): 1}


def test_linearity():
    got = apply_lowering({mi("a:1=1"): 2, mi("a:0=1"): 3})
    assert got == {mi("a:0=1"): 2, mi("a:-1=1"): 3}


def test_grading_moves_down():
    # applying the derivation preserves degree and drops weight by one
    k = mi("a:2=1,a:0=2,b:1=1")
    poly = {k: 1}
    for step in range(1, 4):
        poly = apply_lowering(poly)
        assert poly
        for mono in poly:
            assert mono.degree() == k.degree()
            assert mono.weight() == k.weight() - step


def test_power_nilpotent():
    # x0^2 dies at order 3, x1 at order 3, x_{-1} at order 1
    assert lowering_power(mi("a:0=2"), 2) == {mi("a:-1=2"): 2}
    assert lowering_power(mi("a:0=2"), 3) == {}
    assert lowering_power(mi("a:1=1"), 2) == {mi("a:-1=1"): 1}
    assert lowering_power(mi("a:1=1"), 3) == {}
    assert lowering_power(mi("a:-1=1"), 1) == {}
    assert lowering_power(mi("a:0=2"), 0) == {mi("a:0=2"): 1}


# -- structure coefficients --------------------------------------------------------

def test_c_table_examples():
    assert c_coefficient_tables(mi("a:0=2"), 1)[1] == {mi("a:0=1"): 2}
    assert c_coefficient_tables(mi("a:1=1"), 2)[2] == {mi("a:1=1,a:0=1"): 1}
    assert c_coefficient_tables(mi("a:0=2"), 0)[0] == {MultiIndex([]): 1}


def test_c_coefficient_direct():
    assert c_coefficient(mi("a:0=2"), mi("a:0=1")) == 2
    assert c_coefficient(mi("a:1=1"), mi("a:1=1,a:0=1")) == 1
    assert c_coefficient(mi("a:0=2"), MultiIndex([])) == 1
    # unreachable shift gives zero
    assert c_coefficient(mi("a:0=1"), mi("a:0=1,a:1=1")) == 0
    with pytest.raises(ValueError):
        c_coefficient(mi("a:0=1"), mi("a:-1=1"))


def test_c_tables_match_iterated_lowering():
    for k in enumerate_multiindices(("a",), 4, 2):
        tables = c_coefficient_tables(k, 3)
        poly = {k: 1}
        for r in range(1, 4):
            poly = apply_lowering(poly)
            expanded = {}
            for low, c in tables[r].items():
                expanded[apply_shift(k, low)] = c
            assert expanded == poly


def test_d_is_c_times_target_factorial():
    k = mi("a:1=1,a:0=1")
    for r in range(4):
        for low, c in c_coefficient_tables(k, 3)[r].items():
            target = apply_shift(k, low)
            assert d_coefficient(k, low) == c * target.symmetry_factor()
            assert d_coefficient_recursive(k, low) == d_coefficient(k, low)


def test_d_recursions_agree_small_grid():
    for k in enumerate_multiindices(("a", "b"), 3, 2):
        tables = c_coefficient_tables(k, 3)
        for r in range(4):
            for low in tables[r]:
                assert d_coefficient(k, low) == d_coefficient_recursive(k, low)


# -- generating function views -------------------------------------------------------

def test_coefficient_gf_single_variable():
    gf = coefficient_gf(mi("a:1=1"))
    assert gf == {
        mi("a:1=1"): {0: Fraction(1)},
        mi("a:0=1"): {1: Fraction(1)},
        mi("a:-1=1"): {2: Fraction(1, 2)},
    }


def test_coefficient_gf_matches_transitions():
    for k in enumerate_multiindices(("a",), 3, 2):
        gf = coefficient_gf(k)
        for target, upoly in gf.items():
            assert upoly == transition_gf(k, target)
        # unreachable targets produce the empty polynomial
        assert transition_gf(k, k + unit("a", 0)) == {}


def test_transition_example():
    assert transition_gf(mi("a:1=1"), mi("a:-1=1")) == {2: Fraction(1, 2)}
    assert transition_gf(mi("a:0=2"), mi("a:-1=1,a:0=1")) == {1: Fraction(2)}
    assert transition_gf(mi("a:0=1"), mi("a:0=1")) == {0: Fraction(1)}


def test_transition_is_single_monomial():
    # reachable pairs carry exactly one u-power: |l| with weight C/|l|!
    k = mi("a:2=1,a:0=1")
    for target, upoly in coefficient_gf(k).items():
        low = find_shift(k, target)
        assert low is not None
        r = low.degree()
        assert list(upoly) == [r]
        assert upoly[r] == Fraction(c_coefficient(k, low), math.factorial(r))


# -- transport arrays ----------------------------------------------------------------

def test_transport_single_route():
    arrays = transport_arrays(mi("a:1=1"), mi("a:-1=1"))
    assert arrays == [{("a", 1, -1): 1}]


def test_transport_two_slots():
    arrays = transport_arrays(mi("a:0=2"), mi("a:-1=1,a:0=1"))
    assert arrays == [{("a", 0, -1): 1, ("a", 0, 0): 1}]


def test_transport_empty_when_sums_differ():
    assert transport_arrays(mi("a:0=2"), mi("a:-1=1")) == []


def test_transport_reproduces_transition():
    # sum over arrays of the factored weights reproduces the u-polynomial
    k = mi("a:1=2")
    for target in (mi("a:1=2"), mi("a:1=1,a:0=1"), mi("a:0=2"),
                   mi("a:1=1,a:-1=1"), mi("a:0=1,a:-1=1"), mi("a:-1=2")):
        arrays = transport_arrays(k, target)
        total = {}
        for arr in arrays:
            deg = sum((j - s) * c for (_, j, s), c in arr.items())
            num = 1
            for (a, j), count in k.items():
                num *= math.factorial(count)
            den = 1
            for (_, j, s), c in arr.items():
                den *= math.factorial(c) * math.factorial(j - s) ** c
            total[deg] = total.get(deg, Fraction(0)) + Fraction(num, den)
        total = {d: c for d, c in total.items() if c}
        assert total == transition_gf(k, target)
