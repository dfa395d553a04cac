import math
import sys
from fractions import Fraction

import pytest

from fibrecount.multiindex import MultiIndex, enumerate_profiles
from fibrecount.trees import fibres_of_degree
from fibrecount.weighted import (functional_rhs, prescribed_fertility_count,
                                 weighted_counts, weighted_counts_recursive,
                                 weighted_series)


def mi(text):
    return MultiIndex.parse(text)


def brute_w(fibre):
    return sum(Fraction(1, t.automorphism_order()) for t in fibre)


# -- closed form and recursion against brute force -------------------------------

@pytest.mark.parametrize("alphabet", [("a",), ("a", "b")])
def test_counts_match_fibre_sums(alphabet):
    for n in range(1, 6):
        for k, fibre in fibres_of_degree(n, alphabet).items():
            expected = brute_w(fibre)
            counts = weighted_counts(k)
            assert counts.W == expected
            assert weighted_counts_recursive(k) == expected
            assert counts.L == math.factorial(n) * expected
            assert counts.J == k.symmetry_factor() * expected


def test_recursion_matches_closed_form_to_degree_9():
    # The multiset recursion, with its 1/m! per repeated branch, against the
    # closed form on every profile of degree <= 9 on two letters.
    profiles = enumerate_profiles(("a", "b"), 9)
    assert len(profiles) == 2076
    for k in profiles:
        assert weighted_counts_recursive(k) == weighted_counts(k).W


def test_recursion_runs_bottom_up_on_a_long_chain():
    # 1,501 vertices: a frame per level would overflow.
    limit = sys.getrecursionlimit()
    assert weighted_counts_recursive(mi("a:-1=1,a:0=1500")) == 1
    assert sys.getrecursionlimit() == limit


def test_known_example():
    counts = weighted_counts(mi("a:1=1,a:0=1,a:-1=2"))
    assert counts.W == Fraction(3, 2)
    assert counts.J == 3
    assert counts.L == 36


def test_second_example():
    counts = weighted_counts(mi("a:1=1,a:-1=2"))
    assert counts.W == Fraction(1, 2)
    assert counts.J == 1
    assert counts.L == 3


def test_star_tree():
    # single root of fertility 3 over three leaves: one tree with sigma = 6
    counts = weighted_counts(mi("a:2=1,a:-1=3"))
    assert counts.W == Fraction(1, 6)
    assert counts.J == 1
    assert counts.L == 4


def test_single_vertex():
    counts = weighted_counts(mi("a:-1=1"))
    assert (counts.W, counts.J, counts.L) == (1, 1, 1)


def test_rejects_wrong_weight():
    with pytest.raises(ValueError):
        weighted_counts(mi("a:0=1"))
    with pytest.raises(ValueError):
        weighted_counts_recursive(mi("a:1=1,a:-1=3"))


# -- labelled trees with prescribed fertilities -----------------------------------

def test_prescribed_fertility_values():
    assert prescribed_fertility_count((0,)) == 1
    assert prescribed_fertility_count((2, 0, 0)) == 1
    assert prescribed_fertility_count((1, 1, 0)) == 2
    assert prescribed_fertility_count((3, 0, 0, 0)) == 1
    assert prescribed_fertility_count((1, 1, 1, 0)) == 6


def test_prescribed_fertility_totals():
    # summed over all fertility vectors this recovers Cayley's n^(n-1)
    def comps(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in comps(total - head, parts - 1):
                yield (head,) + tail
    for n in range(1, 7):
        total = sum(prescribed_fertility_count(c) for c in comps(n - 1, n))
        assert total == n ** (n - 1)


def test_prescribed_fertility_rejects_bad_sum():
    with pytest.raises(ValueError):
        prescribed_fertility_count((1, 1))


# -- series solution ---------------------------------------------------------------

def test_series_known_coefficients():
    s = weighted_series(("a",), 3)
    assert s.coefficient(mi("a:-1=1")) == 1
    assert s.coefficient(mi("a:0=1,a:-1=1")) == 1
    assert s.coefficient(mi("a:0=2,a:-1=1")) == 1
    assert s.coefficient(mi("a:1=1,a:-1=2")) == Fraction(1, 2)


@pytest.mark.parametrize("alphabet,max_degree", [(("a",), 5), (("a", "b"), 10),
                                                  (("a", "b", "c"), 7)])
def test_series_matches_counts(alphabet, max_degree):
    s = weighted_series(alphabet, max_degree)
    profiles = enumerate_profiles(alphabet, max_degree)
    for k in profiles:
        assert s.coefficient(k) == weighted_counts(k).W
    assert set(s.monomials()) == set(profiles)


def test_series_is_fixpoint():
    s = weighted_series(("a",), 5)
    assert functional_rhs(s, ("a",)) == s


@pytest.mark.parametrize("alphabet,max_degree", [(("a",), 14), (("a", "b"), 10)])
def test_series_totals_count_labelled_trees(alphabet, max_degree):
    # n! * (sum of W over degree n) = n^(n-1) rooted labelled trees, each
    # vertex decorated in |A| ways; no profile list is involved.
    totals = [Fraction(0)] * (max_degree + 1)
    for k, c in weighted_series(alphabet, max_degree).sorted_terms():
        totals[k.degree()] += c
    for n in range(1, max_degree + 1):
        assert math.factorial(n) * totals[n] == n ** (n - 1) * len(alphabet) ** n
