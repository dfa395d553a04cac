import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from fibrecount.multiindex import MultiIndex
from fibrecount.trees import (DecoratedTree, ParseError, enumerate_fibre,
                              enumerate_trees, fibre_expansion,
                              fibre_statistics, fibres_of_degree,
                              labelled_fertility_counts, parse_tree)

# Rooted trees on n unlabelled vertices with c possible vertex decorations.
# Classical values, independent of this package.
# OEIS A000081 and A038055, up to n = 8, the oracle's cap.
KNOWN_COUNTS = {
    ("a",): [1, 1, 2, 4, 9, 20, 48, 115],
    ("a", "b"): [2, 4, 14, 52, 214, 916, 4116, 18996],
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


def _group_by_profile(n, alphabet):
    # The reference grouping: each tree's profile from its own vertex walk.
    groups = {}
    for t in enumerate_trees(n, alphabet):
        groups.setdefault(t.profile(), []).append(t)
    return sorted(((k, tuple(v)) for k, v in groups.items()),
                  key=lambda kv: kv[0].sort_key())


@pytest.mark.parametrize("alphabet,max_n", [(("a",), 8), (("a", "b"), 7),
                                            (("a", "b", "c"), 5)])
def test_fibres_match_profile_grouping(alphabet, max_n):
    # Same keys, key order and tree order as grouping by `profile()`.
    for n in range(1, max_n + 1):
        assert list(fibres_of_degree(n, alphabet).items()) == _group_by_profile(n, alphabet)


@pytest.mark.parametrize("alphabet,max_n", [(("a", "b"), 7), (("a", "b", "c"), 5)])
def test_fibre_statistics_match_enumerated_trees(alphabet, max_n):
    # At every bound n, the records give the same multiset of (profile,
    # aut) pairs as the trees of every size up to n, in profile order.
    want = Counter()
    for n in range(1, max_n + 1):
        want.update((t.profile(), t.automorphism_order()) for t in enumerate_trees(n, alphabet))
        stats = fibre_statistics(n, alphabet)
        assert Counter({(k, aut): m for k, tally in stats.items()
                        for aut, m in tally.items()}) == want
        assert list(stats) == sorted(stats, key=MultiIndex.sort_key)
    with pytest.raises(ValueError):
        fibre_statistics(0, alphabet)


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


def _automorphism_reference(t):
    order = 1
    for child in t.children:
        order *= _automorphism_reference(child)
    for _, run in itertools.groupby(t.children):
        order *= math.factorial(len(list(run)))
    return order


def test_automorphism_order_matches_recursive_reference():
    for n in range(1, 8):
        for t in enumerate_trees(n, ("a", "b")):
            assert t._aut == t.automorphism_order() == _automorphism_reference(t)


def test_deep_chain_automorphism_order():
    # A leaf under 3,000 unary vertices, built one constructor call at a time.
    t = DecoratedTree("a")
    for _ in range(3000):
        t = DecoratedTree("a", [t])
    assert t.automorphism_order() == 1
    assert t.profile() == mi("a:-1=1,a:0=3000")


def test_deep_chain_text_round_trip():
    # A leaf under 3,000 unary vertices through str, parse_tree and repr.
    t = DecoratedTree("a")
    for _ in range(3000):
        t = DecoratedTree("a", [t])
    text = str(t)
    assert text == "a(" * 3000 + "a" + ")" * 3000
    back = parse_tree(text)
    assert str(back) == text
    assert hash(back) == hash(t)
    assert back.vertex_count() == 3001
    assert back.profile() == t.profile()
    assert repr(back) == f"DecoratedTree({text!r})"


def _nested_key(t):
    # The canonical order's definition: nested (decoration, child keys)
    # tuples, compared recursively (shallow trees only).
    return (t.decoration, tuple(_nested_key(c) for c in t.children))


@pytest.mark.parametrize("alphabet, max_n", [(("a", "b"), 6), (("a", "ab", "b_", "B"), 4)])
def test_canonical_order_is_the_nested_tuple_order(alphabet, max_n):
    # Decorations that are prefixes of one another, and every pair of trees
    # up to the size, in both orders.
    trees = [t for n in range(1, max_n + 1) for t in enumerate_trees(n, alphabet)]
    assert trees == sorted(trees, key=lambda t: (t.vertex_count(), _nested_key(t)))
    for n in range(1, max_n + 1):
        assert enumerate_trees(n, alphabet) == sorted(enumerate_trees(n, alphabet),
                                                      key=_nested_key)
    sample = trees[::7] + trees[-40:]
    for s, t in itertools.product(sample, repeat=2):
        assert (s < t) == (_nested_key(s) < _nested_key(t))
        assert (s == t) == (_nested_key(s) == _nested_key(t))
    for t in sample:
        assert parse_tree(str(t)) == t and str(parse_tree(str(t))) == str(t)


def test_deep_chains_compare_without_recursion():
    # Two separately parsed 1,501-level chains, equal and unequal, and two
    # such chains as the children of one vertex, which the constructor sorts
    # and compares for its automorphism order.
    chain = "a(" * 1500 + "a" + ")" * 1500
    other = "a(" * 1500 + "b" + ")" * 1500
    assert parse_tree(chain) == parse_tree(chain)
    assert parse_tree(chain) != parse_tree(other)
    assert parse_tree(chain) < parse_tree(other)
    assert not parse_tree(other) < parse_tree(chain)
    twin = parse_tree(f"b({chain},{chain})")
    assert twin.automorphism_order() == 2
    pair = parse_tree(f"b({other},{chain})")
    assert str(pair) == f"b({chain},{other})"
    assert pair.automorphism_order() == 1
    assert twin.vertex_count() == pair.vertex_count() == 3003


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
