import itertools
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest

from fibrecount import ordinary
from fibrecount.multiindex import MultiIndex, enumerate_profiles
from fibrecount.ordinary import (cycle_index_set, h_series_cycle,
                                 h_series_product, mlt, ordinary_count,
                                 ordinary_count_recursive, ordinary_series)
from fibrecount.series import TruncatedSeries
from fibrecount.trees import enumerate_trees, fibres_of_degree
from fibrecount.weighted import weighted_counts_recursive


def mi(text):
    return MultiIndex.parse(text)


# -- multiset coefficient ----------------------------------------------------------

def test_mlt_values():
    assert mlt(3, 2) == 6          # multisets of size 2 from 3 kinds
    assert mlt(1, 5) == 1
    assert mlt(4, 0) == 1
    assert mlt(0, 0) == 1
    assert mlt(0, 3) == 0


def test_mlt_brute():
    for r in range(5):
        for m in range(5):
            brute = len(list(itertools.combinations_with_replacement(range(r), m)))
            assert mlt(r, m) == brute


# -- fibre sizes -------------------------------------------------------------------

@pytest.mark.parametrize("alphabet", [("a",), ("a", "b")])
def test_counts_match_fibre_sizes(alphabet):
    for n in range(1, 8):
        for k, fibre in fibres_of_degree(n, alphabet).items():
            assert ordinary_count(k) == len(fibre), k
            if n <= 5:
                assert ordinary_count_recursive(k) == len(fibre), k


@pytest.mark.parametrize("alphabet, max_degree",
                         [(("a", "b"), 9), (("a", "b", "c"), 6)])
def test_box_solve_matches_recursion(alphabet, max_degree):
    profiles = enumerate_profiles(alphabet, max_degree)
    if alphabet == ("a", "b"):
        assert len(profiles) == 2076
    for k in profiles:
        assert ordinary_count(k) == ordinary_count_recursive(k), k


def test_counts_sum_to_tree_totals():
    expected = {("a",): [1, 1, 2, 4, 9], ("a", "b"): [2, 4, 14, 52, 214]}
    for alphabet, totals in expected.items():
        profiles = enumerate_profiles(alphabet, 5)
        for n, total in enumerate(totals, start=1):
            got = sum(ordinary_count(k) for k in profiles if k.degree() == n)
            assert got == total


def test_count_examples():
    for count in (ordinary_count, ordinary_count_recursive):
        assert count(mi("a:-1=1")) == 1
        assert count(mi("a:1=1,a:0=1,a:-1=2")) == 2
        with pytest.raises(ValueError):
            count(mi("a:0=1"))     # weight 0: not a profile
        with pytest.raises(ValueError):
            count(MultiIndex([]))


def test_count_sixty_one_vertices():
    # The recursion takes tens of seconds here; the box solve holds 441
    # terms of T.
    assert ordinary_count(mi("a:-1=21,a:0=20,a:1=20")) == 268292872860064955272


@pytest.mark.parametrize("legs, unary", [(2, 30), (3, 100), (5, 120)])
def test_count_spiders_match_partitions(legs, unary):
    # A trunk and `legs` unordered legs share the unary vertices, so F is
    # the number of partitions of 0..unary into parts of size <= legs.
    p = [1] + [0] * unary
    for size in range(1, legs + 1):
        for s in range(size, unary + 1):
            p[s] += p[s - size]
    k = mi(f"a:-1={legs},a:0={unary},a:{legs - 1}=1")
    assert ordinary_count(k) == sum(p)


def test_count_long_chain_does_not_recurse(monkeypatch):
    limit = sys.getrecursionlimit()
    assert ordinary_count(mi("a:-1=1,a:0=5000")) == 1
    # The recursion runs bottom-up: a frame per level would overflow here.
    # From an empty memo, W's walk fills F too.
    monkeypatch.setattr(ordinary, "_COUNTS", {})
    assert weighted_counts_recursive(mi("a:-1=1,a:0=1500")) == 1
    assert ordinary_count_recursive(mi("a:-1=1,a:0=1500")) == 1
    assert sys.getrecursionlimit() == limit


# -- the shared (F, W) memo ----------------------------------------------------------

@pytest.mark.parametrize("first", ["W", "F"])
def test_shared_memo_either_order_matches_brute_force(monkeypatch, first):
    # One walk fills F and W of every part; whichever route asks first, from
    # an empty memo, both must come out right.  The profiles are asked
    # largest first, so most answers are parts an earlier call filled.
    monkeypatch.setattr(ordinary, "_COUNTS", {})
    alphabet = ("a", "b")
    fibres = {}
    for n in range(1, 8):
        fibres.update(fibres_of_degree(n, alphabet))
    profiles = enumerate_profiles(alphabet, 7)[::-1]
    routes = [ordinary_count_recursive, weighted_counts_recursive]
    if first == "W":
        routes.reverse()
    got = {route: {k: route(k) for k in profiles} for route in routes}
    for k in profiles:
        fibre = fibres.get(k, ())
        assert got[ordinary_count_recursive][k] == len(fibre), k
        assert got[weighted_counts_recursive][k] == sum(
            Fraction(1, t.automorphism_order()) for t in fibre), k


@pytest.mark.parametrize("alphabet,max_n", [(("a", "b"), 8), (("a", "b", "c"), 6)])
def test_fill_counts_matches_per_profile_walks(monkeypatch, alphabet, max_n):
    # The walk over all profiles at once gives every profile the (F, W) of
    # its own walk, from an empty memo and from one that per-profile walks
    # half filled, whose entries it keeps.
    profiles = enumerate_profiles(alphabet, max_n)
    monkeypatch.setattr(ordinary, "_COUNTS", {})
    want = {k: ordinary._branch_counts(k) for k in profiles}
    monkeypatch.setattr(ordinary, "_COUNTS", {})
    ordinary.fill_counts(alphabet, max_n)
    assert ordinary._COUNTS == want
    monkeypatch.setattr(ordinary, "_COUNTS", {})
    for k in profiles[::-2]:
        ordinary._branch_counts(k)
    half = dict(ordinary._COUNTS)
    assert 0 < len(half) < len(profiles)
    ordinary.fill_counts(alphabet, max_n)
    assert ordinary._COUNTS == want
    assert all(ordinary._COUNTS[k] is v for k, v in half.items())


# -- series -------------------------------------------------------------------------

# ordinary_count shares the series' solver, so the series is held against
# the recursion.
@pytest.mark.parametrize("alphabet", [("a",), ("a", "b")])
def test_series_matches_counts(alphabet):
    s = ordinary_series(alphabet, 5)
    profiles = enumerate_profiles(alphabet, 5)
    for k in profiles:
        assert s.coefficient(k) == ordinary_count_recursive(k)
    assert set(s.monomials()) <= set(profiles)


def test_series_matches_counts_two_letters_degree_8():
    s = ordinary_series(("a", "b"), 8)
    profiles = enumerate_profiles(("a", "b"), 8)
    assert len(profiles) == 1066
    for k in profiles:
        assert s.coefficient(k) == ordinary_count_recursive(k)
    assert set(s.monomials()) == set(profiles)


# Trees per vertex count: OEIS A000081 (one letter) and A038055 (two letters).
KNOWN_TOTALS = {
    ("a",): [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973],
    ("a", "b"): [2, 4, 14, 52, 214, 916, 4116, 18996, 89894, 433196],
}


@pytest.mark.parametrize("alphabet", sorted(KNOWN_TOTALS))
def test_series_totals_match_known_sequences(alphabet):
    # Sums the series by degree; never consults the profile list.
    expected = KNOWN_TOTALS[alphabet]
    totals = [0] * (len(expected) + 1)
    for k, c in ordinary_series(alphabet, len(expected)).sorted_terms():
        totals[k.degree()] += c
    assert totals[1:] == expected


# -- the cycle index of the symmetric group ----------------------------------------

def test_partition_weights_sum_to_one():
    # sum over partitions of 1/z_lambda is 1: the cycle index at p_i = 1
    for m in range(7):
        assert cycle_index_set(m, [1] * (m + 1))[m] == 1


def test_cycle_index_small():
    # Z_2 = (p1^2 + p2)/2 and Z_3 = (p1^3 + 3 p1 p2 + 2 p3)/6
    p = [7, 11, 13]     # p_1, p_2, p_3
    assert cycle_index_set(2, p)[2] == Fraction(7 * 7 + 11, 2)
    assert cycle_index_set(3, p)[3] == Fraction(7 ** 3 + 3 * 7 * 11 + 2 * 13, 6)
    assert cycle_index_set(0, p)[0] == 1


def test_cycle_index_counts_multisets_and_sets():
    # p_r = t counts size-m multisets of t kinds; p_r = (-1)^(r+1) t, sets.
    for t in range(5):
        multisets = cycle_index_set(8, [t] * 8)
        sets = cycle_index_set(8, [t if r % 2 else -t for r in range(1, 9)])
        for m in range(9):
            assert multisets[m] == mlt(t, m)
            assert sets[m] == math.comb(t, m)


def test_cycle_index_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cycle_index_set(-1, [])
    with pytest.raises(ValueError):
        cycle_index_set(3, [1, 1])


def test_plethysm_substitute():
    # the power substitution p_r[S] that the cycle-index route feeds on
    x = TruncatedSeries.variable("a", 0, 6)
    s = x + 2 * x * x
    t = s.substitute_powers(3)
    assert t.coefficient(mi("a:0=3")) == 1
    assert t.coefficient(mi("a:0=6")) == 2
    assert t.coefficient(mi("a:0=1")) == 0


# -- multiset-of-trees series: two computation routes ---------------------------------

def brute_h(alphabet, m, max_degree):
    """Coefficients of the size-m multiset series via explicit tree multisets."""
    trees = []
    for n in range(1, max_degree + 1):
        trees.extend(enumerate_trees(n, alphabet))
    counts = Counter()
    for combo in itertools.combinations_with_replacement(trees, m):
        total = MultiIndex([])
        for t in combo:
            total = total + t.profile()
        if total.degree() <= max_degree:
            counts[total] += 1
    return counts


def reference_euler_product(alphabet, bound):
    """The z-graded product over TruncatedSeries: each factor
    (1 - z u^part)^(-F_part) as a list of z coefficients, multiplied in as
    z polynomials."""
    prod = [TruncatedSeries.one(bound)] + [TruncatedSeries.zero(bound)] * bound
    for part in enumerate_profiles(alphabet, bound):
        f = ordinary_count_recursive(part)
        factor = [TruncatedSeries(bound, {part.scale(i): Fraction(mlt(f, i))})
                  for i in range(bound // part.degree() + 1)]
        out = [TruncatedSeries.zero(bound) for _ in range(bound + 1)]
        for i, left in enumerate(prod):
            for jz, right in enumerate(factor[:bound + 1 - i]):
                out[i + jz] = out[i + jz] + left * right
        prod = out
    return prod


@pytest.mark.parametrize("alphabet, max_degree",
                         [(("a",), 8), (("a", "b"), 6), (("a", "b", "c"), 4)])
def test_h_series_product_matches_reference_product(alphabet, max_degree):
    for bound in range(1, max_degree + 1):
        reference = reference_euler_product(alphabet, bound)
        for m in range(bound + 1):
            assert h_series_product(alphabet, m, bound) == reference[m], (bound, m)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_h_series_routes_agree(m):
    for alphabet in (("a",), ("a", "b")):
        assert h_series_product(alphabet, m, 4) == h_series_cycle(alphabet, m, 4)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_h_series_matches_brute_multisets(m):
    s = h_series_product(("a",), m, 4)
    brute = brute_h(("a",), m, 4)
    for mono, c in brute.items():
        assert s.coefficient(mono) == c
    assert {mono for mono, c in s.sorted_terms()} == set(brute)


def test_h_one_is_tree_series():
    assert h_series_product(("a", "b"), 1, 4) == ordinary_series(("a", "b"), 4)


def test_h_zero_is_one():
    assert h_series_product(("a",), 0, 4) == TruncatedSeries.one(4)


def test_h_beyond_bound_is_zero():
    # m trees have at least m vertices, so H_m vanishes below degree m.
    for m in (5, 7):
        assert h_series_product(("a", "b"), m, 4) == TruncatedSeries.zero(4)
        assert h_series_cycle(("a", "b"), m, 4) == TruncatedSeries.zero(4)


def test_h_rejects_negative_size():
    with pytest.raises(ValueError):
        h_series_product(("a",), -1, 4)
