import math
from collections import Counter
from fractions import Fraction

import pytest

from fibrecount.multiindex import MultiIndex
from fibrecount.trees import (DecoratedTree, ParseError, enumerate_fibre,
                              enumerate_trees, fibre_expansion,
                              fibres_of_degree, labelled_fertility_counts,
                              parse_tree)

# Rooted trees on n unlabelled vertices with c possible vertex decorations.
# Classical values, independent of this package.
KNOWN_COUNTS = {
    ("a",): [1, 1, 2, 4, 9, 20, 48],
    ("a", "b"): [2, 4, 14, 52, 214, 916, 4116],
}


def mi(text):
    return MultiIndex.parse(text)


# -- parsing and canonical form -------------------------------------------------

def test_parse_str_roundtrip():
    t = parse_tree("a(b,a(a),b(a,a))")
    assert parse_tree(str(t)) == t


def test_children_are_canonically_sorted():
    assert parse_tree("a(a(a),a)") == parse_tree("a,a(a)".join(["a(", ")"]))
    assert parse_tree("a(b,a)") == parse_tree("a(a,b)")
    assert str(parse_tree("a(a(a),a)")) == "a(a,a(a))"


@pytest.mark.parametrize("bad", ["", "a(", "a)b", "a(b", "a(,a)", "1x", "a()"])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_tree(bad)


# -- enumeration against classical counts ---------------------------------------

@pytest.mark.parametrize("alphabet", [("a",), ("a", "b")])
def test_tree_counts(alphabet):
    for n, expected in enumerate(KNOWN_COUNTS[alphabet], start=1):
        trees = enumerate_trees(n, alphabet)
        assert len(trees) == expected
        assert len(set(trees)) == expected
        assert all(t.vertex_count() == n for t in trees)


def test_fibres_partition_all_trees():
    for n in range(1, 6):
        groups = fibres_of_degree(n, ("a", "b"))
        pooled = [t for fibre in groups.values() for t in fibre]
        assert sorted(pooled, key=str) == sorted(enumerate_trees(n, ("a", "b")), key=str)
        for profile, fibre in groups.items():
            assert all(t.profile() == profile for t in fibre)


def test_fibres_of_degree_is_read_only():
    # The grouping is a shared cache; a caller must not be able to empty it.
    groups = fibres_of_degree(3, ("a",))
    with pytest.raises((AttributeError, TypeError)):
        groups.clear()
    with pytest.raises(TypeError):
        groups[mi("a:-1=2,a:1=1")] = ()
    assert len(enumerate_fibre(mi("a:-1=2,a:1=1"))) == 1


# -- profiles -------------------------------------------------------------------

def test_profile_example():
    t = parse_tree("a(a,a(a))")
    assert t.profile() == mi("a:1=1,a:0=1,a:-1=2")
    assert parse_tree("b(a)").profile() == mi("b:0=1,a:-1=1")


def test_profile_grading():
    for n in range(1, 6):
        for t in enumerate_trees(n, ("a", "b")):
            p = t.profile()
            assert p.degree() == n
            assert p.weight() == -1


# -- automorphisms, checked against plane-tree multiplicities --------------------

def _plane_trees(n, alphabet):
    """All ordered (plane) decorated trees on n vertices, as nested tuples."""
    if n == 1:
        return [(a, ()) for a in alphabet]
    out = []
    for a in alphabet:
        for comp in _compositions(n - 1):
            child_lists = [[]]
            for size in comp:
                child_lists = [acc + [c] for acc in child_lists
                               for c in _plane_trees(size, alphabet)]
            out.extend((a, tuple(children)) for children in child_lists)
    return out


def _compositions(total):
    if total == 0:
        return [()]
    return [(head,) + tail
            for head in range(1, total + 1)
            for tail in _compositions(total - head)]


def _unordered(plane):
    a, children = plane
    return DecoratedTree(a, [_unordered(c) for c in children])


def _fertility_product(t):
    return math.prod(math.factorial(len(s.children))
                     for s in _iter_subtrees(t))


def _iter_subtrees(t):
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


@pytest.mark.parametrize("alphabet,max_n", [(("a",), 6), (("a", "b"), 5)])
def test_automorphism_order_vs_plane_multiplicity(alphabet, max_n):
    # each unordered tree t is realised by prod_v fert(v)! / |Aut(t)| plane trees
    for n in range(1, max_n + 1):
        histogram = Counter(_unordered(p) for p in _plane_trees(n, alphabet))
        assert set(histogram) == set(enumerate_trees(n, alphabet))
        for t, plane_count in histogram.items():
            expected = Fraction(_fertility_product(t), t.automorphism_order())
            assert expected.denominator == 1
            assert plane_count == expected


def test_automorphism_examples():
    assert parse_tree("a").automorphism_order() == 1
    assert parse_tree("a(a,a)").automorphism_order() == 2
    assert parse_tree("a(a,a,a)").automorphism_order() == 6
    assert parse_tree("a(a(a,a))").automorphism_order() == 2
    assert parse_tree("a(a,b)").automorphism_order() == 1
    assert parse_tree("a(a(a),a(a))").automorphism_order() == 2


# -- fibres ----------------------------------------------------------------------

def test_fibre_example():
    fibre = enumerate_fibre(mi("a:1=1,a:0=1,a:-1=2"))
    assert [str(t) for t in fibre] == ["a(a,a(a))", "a(a(a,a))"]


def test_fibre_of_non_profile_is_empty():
    assert enumerate_fibre(mi("a:0=1")) == []


def test_fibre_expansion_example():
    exp = fibre_expansion(mi("a:1=1,a:0=1,a:-1=2"))
    by_str = {str(t): c for t, c in exp.items()}
    assert by_str == {"a(a,a(a))": 2, "a(a(a,a))": 1}
    with pytest.raises(ValueError):
        fibre_expansion(mi("a:0=1"))


def test_fibre_expansion_coefficients():
    # coefficient of t is sigma(k) / sigma(t) and always a positive integer
    for n in range(1, 6):
        for k, fibre in fibres_of_degree(n, ("a", "b")).items():
            exp = fibre_expansion(k)
            sigma_k = k.symmetry_factor()
            for t in fibre:
                c = exp[t]
                assert c == Fraction(sigma_k, t.automorphism_order())
                assert isinstance(c, int) or c.denominator == 1
                assert c >= 1


# -- labelled trees ---------------------------------------------------------------

def test_labelled_totals_match_cayley():
    for n in range(1, 6):
        histogram = labelled_fertility_counts(n)
        assert sum(histogram.values()) == n ** (n - 1)


def test_labelled_small_cases():
    assert labelled_fertility_counts(1) == {(0,): 1}
    assert labelled_fertility_counts(2) == {(1, 0): 1, (0, 1): 1}
    three = labelled_fertility_counts(3)
    assert three[(2, 0, 0)] == 1
    assert three[(1, 1, 0)] == 2
    assert sum(three.values()) == 9
