import itertools
from collections import Counter
from fractions import Fraction

import pytest

from fibrecount.multiindex import MultiIndex, enumerate_profiles
from fibrecount.ordinary import (cycle_index_set, h_series_cycle,
                                 h_series_product, mlt, ordinary_count,
                                 ordinary_series, partitions)
from fibrecount.series import TruncatedSeries
from fibrecount.trees import enumerate_trees, fibres_of_degree


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
    for n in range(1, 6):
        for k, fibre in fibres_of_degree(n, alphabet).items():
            assert ordinary_count(k) == len(fibre)


def test_counts_sum_to_tree_totals():
    expected = {("a",): [1, 1, 2, 4, 9], ("a", "b"): [2, 4, 14, 52, 214]}
    for alphabet, totals in expected.items():
        profiles = enumerate_profiles(alphabet, 5)
        for n, total in enumerate(totals, start=1):
            got = sum(ordinary_count(k) for k in profiles if k.degree() == n)
            assert got == total


def test_count_examples():
    assert ordinary_count(mi("a:-1=1")) == 1
    assert ordinary_count(mi("a:1=1,a:0=1,a:-1=2")) == 2
    with pytest.raises(ValueError):
        ordinary_count(mi("a:0=1"))     # weight 0: not a profile
    with pytest.raises(ValueError):
        ordinary_count(MultiIndex([]))


# -- series -------------------------------------------------------------------------

@pytest.mark.parametrize("alphabet", [("a",), ("a", "b")])
def test_series_matches_counts(alphabet):
    s = ordinary_series(alphabet, 5)
    profiles = enumerate_profiles(alphabet, 5)
    for k in profiles:
        assert s.coefficient(k) == ordinary_count(k)
    assert set(s.monomials()) <= set(profiles)


# -- partitions and the cycle index of the symmetric group ---------------------------

def test_partitions_of_four():
    got = set(partitions(4))
    expected = {
        ((4, 1),),
        ((1, 1), (3, 1)),
        ((2, 2),),
        ((1, 2), (2, 1)),
        ((1, 4),),
    }
    assert got == expected


def test_partition_weights_sum_to_one():
    # sum over partitions of 1/z_lambda is 1: the cycle index at p_i = 1
    for m in range(7):
        assert cycle_index_set(m, [1] * (m + 1)) == 1


def test_cycle_index_small():
    # Z_2 = (p1^2 + p2)/2 and Z_3 = (p1^3 + 3 p1 p2 + 2 p3)/6
    p = [7, 11, 13]     # p_1, p_2, p_3
    assert cycle_index_set(2, p) == Fraction(7 * 7 + 11, 2)
    assert cycle_index_set(3, p) == Fraction(7 ** 3 + 3 * 7 * 11 + 2 * 13, 6)
    assert cycle_index_set(0, p) == 1


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
