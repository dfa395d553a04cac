import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fibrecount.multiindex import (MultiIndex, apply_shift,
                                   enumerate_multiindices, find_shift,
                                   multiindices_of_degree, unit)
from fibrecount import lowering
from fibrecount.lowering import (_c_levels, _d_levels, _LevelLayout, apply_lowering, c_coefficient,
                                 c_coefficient_level, c_coefficient_tables,
                                 coefficient_gf, d_coefficient,
                                 d_coefficient_level, d_coefficient_recursive,
                                 d_coefficient_tables, lowering_power,
                                 transition_gf, transport_arrays)


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


def _lowering_reference(poly):
    # One lowering step with each target built by `apply_shift`.
    out = {}
    for mono, coeff in poly.items():
        for (a, j), c in mono.items():
            if j >= 0:
                target = apply_shift(mono, unit(a, j))
                out[target] = out.get(target, 0) + coeff * c
    return {m: c for m, c in out.items() if c != 0}


def test_apply_lowering_matches_shift_reference():
    # Same dict, same insertion order, over every k of the grid and over
    # polynomials whose entries hit each splice case: (a, j - 1) present or
    # absent, and a count of 1 or more; the last two terms cancel.
    polys = [{k: 1} for k in enumerate_multiindices(("a", "b"), 4, 3)]
    polys.append({mi("a:-1=1,a:0=2,a:1=1,a:3=3,b:0=1,b:2=2"): 3,
                  mi("a:0=1,a:1=3,b:-1=2,b:0=1,b:1=1"): -2,
                  mi("a:2=1,b:3=1"): Fraction(1, 2)})
    polys.append({mi("a:1=1,b:0=1"): 1, mi("a:0=1,b:1=1"): -1})
    for poly in polys:
        for _ in range(4):
            want, got = _lowering_reference(poly), apply_lowering(poly)
            assert list(got.items()) == list(want.items())
            assert all(m.items() == MultiIndex(dict(m.items())).items() for m in got)
            poly = want


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
        c_tables, d_tables = c_coefficient_tables(k, 3), d_coefficient_tables(k, 3)
        for r in range(4):
            assert d_tables[r] == {low: c * apply_shift(k, low).symmetry_factor()
                                   for low, c in c_tables[r].items()}


def _plain_d(k, low, memo):
    """D[k,l] entry by entry, straight from its recursion on multi-indices."""
    if low not in memo:
        if apply_shift(k, low) is None:
            memo[low] = 0
        elif not low:
            memo[low] = k.symmetry_factor()
        else:
            memo[low] = sum(_plain_d(k, low - unit(a, j), memo)
                            * (k.get(a, j - 1) - low.get(a, j - 1) + lj)
                            for (a, j), lj in low.items())
    return memo[low]


def test_d_tables_match_plain_d_recursion():
    for k in enumerate_multiindices(("a", "b"), 4, 3):
        tables = d_coefficient_tables(k, 4)
        keys = [(a, j) for a in k.decorations() for j in range(k.max_index(a) + 1)]
        memo = {}
        for r in range(5):
            plain = {low: _plain_d(k, low, memo)
                     for low in multiindices_of_degree(keys, r)}
            assert tables[r] == {low: d for low, d in plain.items() if d}, (k, r)


def test_c_tables_match_iterated_lowering_on_large_monomials():
    # Catalogue-sized monomials at high orders: the tables build each
    # lowering from a reachable one and test reachability at the new key
    # only, which deep levels exercise.
    for text, order in (("a:-1=2,a:0=3,a:1=2,a:2=2,a:3=1,a:4=2", 8),
                        ("a:0=4,a:2=3,a:4=2,b:1=3", 7),
                        ("a:-1=3,a:1=2,a:3=2,b:0=2,b:2=3,b:4=1", 8),
                        ("a:1=3,a:3=1,b:-1=2,b:0=3,b:1=2,b:4=3", 6),
                        ("a:0=2,a:1=2,a:2=2,a:3=2,a:4=2,b:2=2,b:3=1", 7)):
        k = mi(text)
        assert 12 <= k.degree() <= 14
        tables = c_coefficient_tables(k, order)
        poly = {k: 1}
        for r in range(1, order + 1):
            poly = apply_lowering(poly)
            expanded = {apply_shift(k, low): c for low, c in tables[r].items()}
            assert expanded == poly, (k, r)


def test_single_coefficients_read_their_own_table():
    k = mi("a:2=1,a:1=2,a:0=1,b:1=1")
    c_tables, d_tables = c_coefficient_tables(k, 4), d_coefficient_tables(k, 4)
    for r in range(5):
        assert set(c_tables[r]) == set(d_tables[r])
        for low, c in c_tables[r].items():
            assert c_coefficient(k, low) == c
            assert d_coefficient(k, low) == d_tables[r][low]
            assert d_coefficient_recursive(k, low) == d_tables[r][low]
    # off the extension keys, or unreachable: zero; not a lowering: an error
    assert d_coefficient_recursive(k, mi("a:3=1")) == 0
    assert d_coefficient_recursive(k, mi("b:0=3")) == 0
    assert c_coefficient(k, mi("c:0=1")) == 0
    with pytest.raises(ValueError):
        d_coefficient_recursive(k, mi("a:-1=1"))
    with pytest.raises(ValueError):
        d_coefficient_tables(k, -1)


def _shifted_rows(k, table):
    return {(low, apply_shift(k, low), v) for low, v in table.items()}


def test_level_rows_read_targets_off_the_tuple():
    # The level functions read each target off the dense tuple; apply_shift
    # computes it on multi-indices.  Each row comes once, and its l is canonical.
    for k in enumerate_multiindices(("a", "b"), 5, 3):
        c_tables, d_tables = c_coefficient_tables(k, 4), d_coefficient_tables(k, 4)
        for r in range(5):
            for level_fn, tables in ((c_coefficient_level, c_tables),
                                     (d_coefficient_level, d_tables)):
                rows = level_fn(k, r)
                assert len(rows) == len(tables[r])
                assert set(rows) == _shifted_rows(k, tables[r]), (k, r)
                for low, target, _ in rows:
                    assert low == MultiIndex(low.items())
                    assert target == MultiIndex(target.items())


KEYS = [(a, j) for a in "abc" for j in range(-1, 5)]


@st.composite
def boundary_monomials(draw, max_exponent=5):
    # |k| = 2^m - 1 or 2^m: the degrees at which the fields of the packed
    # level states, |k|.bit_length() + 1 bits wide, fill up or widen.
    degree = 2 ** draw(st.integers(0, max_exponent)) - draw(st.integers(0, 1))
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=5, unique=True))
    cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=len(keys) - 1,
                                max_size=len(keys) - 1)))
    return MultiIndex(zip(keys, (b - a for a, b in zip([0] + cuts, cuts + [degree]))))


@settings(max_examples=200, deadline=None)
@given(boundary_monomials(), st.integers(0, 5))
def test_level_rows_at_field_width_boundaries(k, r):
    # The C rows are the iterated lowering, target by target, with each
    # target the shift of its l; the D rows are C * target!; no value is 0.
    c_rows, d_rows = c_coefficient_level(k, r), d_coefficient_level(k, r)
    c_table = {low: c for low, _, c in c_rows}
    assert len(c_table) == len(c_rows) == len(d_rows)
    assert {target: c for _, target, c in c_rows} == lowering_power(k, r)
    assert set(c_rows) == _shifted_rows(k, c_table)
    assert set(d_rows) == _shifted_rows(k, {low: c * apply_shift(k, low).symmetry_factor()
                                            for low, c in c_table.items()})
    assert all(v >= 1 for _, _, v in c_rows + d_rows)


def _decoded_levels(walk):
    # Every level of one route's (layout, levels) as {(l, target): value}.
    layout, levels = walk
    return [{(layout.lows.decode(state), layout.columns.decode(layout.target_code(state))): v
             for state, v in level.items()} for level in levels]


@st.composite
def boundary_pairs(draw):
    # k at |k| = 2^m - 1 or 2^m, so the count fields of k's layout fill up
    # or widen, and any b <= k.
    k = draw(boundary_monomials(max_exponent=4))
    b = MultiIndex({key: draw(st.integers(0, c)) for key, c in k.items()})
    return k, b


@settings(max_examples=150, deadline=None)
@given(boundary_pairs())
@example((mi("a:-1=1,a:0=7,b:2=8"), mi("a:0=3,b:2=1")))
@example((mi("a:-1=15,a:1=1"), mi("a:-1=15")))
def test_levels_of_b_walked_in_the_layout_of_k_are_its_own(pair):
    # The refined coproduct legs walk each remainder b from its start in
    # the one `_LevelLayout(k)` of their call: every level, up to order
    # weight(b) + 1, decodes to the same l, target and value as the walk
    # in b's own layout, for the C and the D route.
    k, b = pair
    shared, top = _LevelLayout(k), max(b.weight() + 1, 0)
    for levels_fn in (_c_levels, _d_levels):
        in_k = _decoded_levels(levels_fn(b, top, shared))
        assert in_k == _decoded_levels(levels_fn(b, top)), (k, b, levels_fn)
        assert len(in_k) <= top + 1 and list(in_k[0]) == [(MultiIndex(), b)]


def test_level_rows_edge_cases():
    k = mi("a:1=1,a:0=2,b:-1=1")
    # order 0: the one row (0, k, C = 1 or D = k!)
    assert c_coefficient_level(k, 0) == [(MultiIndex(), k, 1)]
    assert d_coefficient_level(k, 0) == [(MultiIndex(), k, 2)]
    # a decoration with only j = -1 entries keeps them in every target
    assert c_coefficient_level(mi("a:-1=2,b:1=1"), 1) == [
        (mi("b:1=1"), mi("a:-1=2,b:0=1"), 1)]
    assert d_coefficient_level(mi("a:-1=2,b:1=1"), 2) == [
        (mi("b:0=1,b:1=1"), mi("a:-1=2,b:-1=1"), 2)]
    assert c_coefficient_level(mi("a:-1=3"), 1) == []
    # orders past the reachable ones have no rows
    assert c_coefficient_level(mi("a:1=1"), 3) == []
    assert d_coefficient_level(k, 7) == []
    # the empty remainder: only order 0
    assert c_coefficient_level(MultiIndex(), 0) == [(MultiIndex(), MultiIndex(), 1)]
    assert d_coefficient_level(MultiIndex(), 0) == [(MultiIndex(), MultiIndex(), 1)]
    assert c_coefficient_level(MultiIndex(), 2) == []
    # any order past the walk's end, sys.maxsize and beyond
    for r in (sys.maxsize, sys.maxsize + 1, 2 ** 100):
        assert c_coefficient_level(mi("a:0=1"), r) == d_coefficient_level(k, r) == []
    with pytest.raises(ValueError):
        c_coefficient_level(k, -1)


def test_levels_stop_at_the_largest_drop():
    # The largest drop of a:0=2,b:1=1 is 2 + 2 = 4: the levels end at order
    # 4 whatever order is asked for, and every reader sees later orders empty.
    k = mi("a:0=2,b:1=1")
    for levels_fn in (_c_levels, _d_levels):
        assert len(list(levels_fn(k, 3_000_000)[1])) == 5
        assert len(list(levels_fn(k, 2)[1])) == 3
    tables = c_coefficient_tables(k, 6)
    assert len(tables) == 7 and tables[4] and tables[5] == tables[6] == {}
    assert len(d_coefficient_tables(k, 6)) == 7
    assert c_coefficient_level(k, 10 ** 11) == d_coefficient_level(k, 10 ** 11) == []
    assert c_coefficient(k, mi("a:0=3,b:0=1,b:1=1")) == 0
    assert d_coefficient_recursive(k, mi("a:0=3,b:0=1,b:1=1")) == 0


# -- generating function views -------------------------------------------------------

def test_coefficient_gf_single_variable():
    gf = coefficient_gf(mi("a:1=1"))
    assert gf == {
        mi("a:1=1"): {0: Fraction(1)},
        mi("a:0=1"): {1: Fraction(1)},
        mi("a:-1=1"): {2: Fraction(1, 2)},
    }


# Every k of degree <= 4 and index <= 3 on a,b, and of degree <= 3 on a,b,c.
GF_GRID = enumerate_multiindices(("a", "b"), 4, 3) + enumerate_multiindices(("a", "b", "c"), 3, 3)


def _balanced_targets(k):
    # Every b with k's count per decoration and no index above k's largest
    # for that decoration: the only candidates for a transport array.
    per_decoration = [
        multiindices_of_degree([(a, j) for j in range(-1, k.max_index(a) + 1)],
                               sum(c for (d, _), c in k.items() if d == a))
        for a in k.decorations()]
    return [sum(combo, MultiIndex()) for combo in itertools.product(*per_decoration)]


def _hand_sum(k, b):
    # The (k, b) u-polynomial summed by hand over the listed transport
    # arrays: the reference for the walk.
    kfact = math.prod(math.factorial(c) for _, c in k.items())
    total = {}
    for arr in transport_arrays(k, b):
        deg = sum((j - s) * c for (_, j, s), c in arr.items())
        den = math.prod(math.factorial(c) * math.factorial(j - s) ** c
                        for (_, j, s), c in arr.items())
        total[deg] = total.get(deg, Fraction(0)) + Fraction(kfact, den)
    return {d: c for d, c in total.items() if c}


def test_coefficient_gf_matches_transitions():
    # The one walk over k agrees with the per-pair route on every target,
    # and has the same support; on the a,b half of the grid the per-pair
    # route also equals the hand sum over the listed arrays.
    for k in GF_GRID:
        targets = _balanced_targets(k)
        per_pair = {b: upoly for b in targets if (upoly := transition_gf(k, b))}
        assert coefficient_gf(k) == per_pair
        if "c" not in k.decorations():
            for b in targets:
                assert per_pair.get(b, {}) == _hand_sum(k, b), (k, b)
        # unreachable targets produce the empty polynomial
        assert transition_gf(k, k + unit("a", 0)) == {}


def test_coefficient_gf_truncates_by_u_degree():
    for k in GF_GRID:
        full = coefficient_gf(k)
        for r in range(5):
            cut = {b: {d: c for d, c in upoly.items() if d <= r}
                   for b, upoly in full.items()}
            assert coefficient_gf(k, r) == {b: upoly for b, upoly in cut.items() if upoly}
    assert coefficient_gf(MultiIndex()) == {MultiIndex(): {0: Fraction(1)}}
    with pytest.raises(ValueError):
        coefficient_gf(mi("a:1=1"), -1)


def test_coefficient_gf_long_row():
    # One unit at j = 1500 reaches every index below it; the walk keeps no
    # frame per cell.
    gf = coefficient_gf(mi("a:1500=1"))
    assert len(gf) == 1502
    assert gf[mi("a:-1=1")] == {1501: Fraction(1, math.factorial(1501))}
    assert coefficient_gf(mi("a:1500=1"), 2) == {
        mi("a:1500=1"): {0: Fraction(1)}, mi("a:1499=1"): {1: Fraction(1)},
        mi("a:1498=1"): {2: Fraction(1, 2)}}


def test_transition_example():
    assert transition_gf(mi("a:1=1"), mi("a:-1=1")) == {2: Fraction(1, 2)}
    assert transition_gf(mi("a:0=2"), mi("a:-1=1,a:0=1")) == {1: Fraction(2)}
    assert transition_gf(mi("a:0=1"), mi("a:0=1")) == {0: Fraction(1)}


def test_transition_is_single_monomial():
    # reachable pairs carry exactly one u-power: |l| with weight C/|l|!
    k = mi("a:2=1,a:0=1")
    gf = coefficient_gf(k)
    lows = {target: find_shift(k, target) for target in gf}
    assert None not in lows.values()
    tables = c_coefficient_tables(k, max(low.degree() for low in lows.values()))
    for target, upoly in gf.items():
        r = lows[target].degree()
        assert list(upoly) == [r]
        assert upoly[r] == Fraction(tables[r][lows[target]], math.factorial(r))


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
        assert _hand_sum(k, target) == transition_gf(k, target)


def test_transition_on_a_decoration_mismatch_runs_no_walk(monkeypatch):
    # Every pair (k, b) of the a,b half of GF_GRID of equal degree that
    # differs in degree on some decoration: no transport array exists, and
    # the transition is {} before the walk starts.
    def walk(*args):
        raise AssertionError("walked a per-decoration mismatch")
    monkeypatch.setattr(lowering, "_walk", walk)
    ab = enumerate_multiindices(("a", "b"), 4, 3)
    pairs = 0
    for k in ab:
        a_count = sum(c for (d, _), c in k.items() if d == "a")
        for b in ab:
            if b.degree() == k.degree() \
                    and sum(c for (d, _), c in b.items() if d == "a") != a_count:
                assert transition_gf(k, b) == {} == _hand_sum(k, b), (k, b)
                pairs += 1
    assert pairs == 426_250


def test_transition_of_a_large_pair_holds_no_array_list():
    # Five rows of 8 to five columns of 8: each column's room caps the walk
    # and the states merge at each row end, so no array is held.
    k = mi("a:0=8,a:1=8,a:2=8,a:3=8,a:4=8")
    b = mi("a:-1=8,a:0=8,a:1=8,a:2=8,a:3=8")
    tracemalloc.start()
    try:
        upoly = transition_gf(k, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert upoly == {40: Fraction(10664017482895544228345812771, 42998169600000000)}
    assert peak < 2_000_000, peak
