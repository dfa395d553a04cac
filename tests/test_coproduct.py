import importlib
import itertools
import math
from fractions import Fraction

import pytest

from fibrecount.coproduct import (DECOMPOSITION_MODES, FORMS, _forest_splits,
                                  coproduct, coproduct_raw, forest_symmetry)
from fibrecount.multiindex import (MultiIndex, PackedLayout, branch_multisets,
                                   enumerate_profiles, iter_profile_parts,
                                   multiindices_of_degree)
from fibrecount.ordinary import ordinary_count

# The package exports the function `coproduct` under the module's name.
coproduct_module = importlib.import_module("fibrecount.coproduct")


def mi(text):
    return MultiIndex.parse(text)


def test_single_vertex_profile():
    got = coproduct(mi("a:-1=1"))
    assert got == {((), mi("a:-1=1")): Fraction(1)}


def test_known_expansion():
    k = mi("a:-1=2,a:1=1")
    got = coproduct(k)
    part = mi("a:-1=1")
    assert got == {
        ((), k): Fraction(1),
        (((part, 1),), mi("a:-1=1,a:0=1")): Fraction(2),
        (((part, 2),), mi("a:-1=1")): Fraction(1),
    }


def test_rejects_wrong_weight():
    with pytest.raises(ValueError):
        coproduct(mi("a:0=1"))


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("mode", DECOMPOSITION_MODES)
def test_forms_agree(form, mode):
    for k in enumerate_profiles(("a", "b"), 4):
        assert coproduct(k, form, mode) == coproduct(k, "raw-dbar", mode)


def test_refined_d_lowerings_are_every_vector_of_the_order():
    # The degree walker on b's extension keys yields every order-r lowering
    # once, and none is missing.  Refined-D reads the D table of b instead
    # of walking them, but the plain D recursion in test_lowering takes its
    # lowerings from this walk.
    for text in ("a:-1=1", "a:-1=2,a:1=1", "a:-1=3,a:0=1,a:2=1", "a:-1=2,a:0=1,b:1=1"):
        b = mi(text)
        keys = [(a, j) for a in b.decorations() for j in range(b.max_index(a) + 1)]
        for r in range(4):
            got = multiindices_of_degree(keys, r)
            scan = {MultiIndex(zip(keys, counts))
                    for counts in itertools.product(range(r + 1), repeat=len(keys))
                    if sum(counts) == r}
            assert len(got) == len(set(got))
            assert set(got) == scan


def test_term_bookkeeping():
    # every term's forest parts are profiles; degrees add back up to |k|
    for k in enumerate_profiles(("a",), 5):
        for (forest, right), c in coproduct(k).items():
            assert c > 0
            removed = 0
            for part, mult in forest:
                assert part.weight() == -1
                assert mult >= 1
                removed += part.degree() * mult
            assert right.degree() == k.degree() - removed


def test_ordered_vs_multiset_scaling():
    k = mi("a:-1=3,a:2=1")
    multiset = coproduct(k, decomposition="multiset")
    ordered = coproduct(k, decomposition="ordered")
    assert set(ordered) == set(multiset)
    for (forest, right), c in multiset.items():
        r = sum(mult for _, mult in forest)
        denom = math.prod(math.factorial(mult) for _, mult in forest)
        assert ordered[(forest, right)] == c * math.factorial(r) // denom


def test_forest_symmetry_modes():
    part = mi("a:-1=2,a:1=1")     # sigma = 2
    forest = ((part, 2),)
    assert forest_symmetry(forest, "mult-times-sigma") == 2 * 2 ** 2
    assert forest_symmetry(forest, "sigma-only") == 2 ** 2
    assert forest_symmetry(forest, "mult-only") == 2
    assert forest_symmetry((), "mult-times-sigma") == 1
    with pytest.raises(ValueError):
        forest_symmetry(forest, "nonsense")


def test_forest_sigma_mode_rescales_terms():
    k = mi("a:-1=3,a:2=1")
    default = coproduct(k, forest_sigma="mult-times-sigma")
    mult_only = coproduct(k, forest_sigma="mult-only")
    for (forest, right), c in default.items():
        sigma = math.prod(p.symmetry_factor() ** m for p, m in forest)
        assert mult_only[(forest, right)] == c * sigma


def test_raw_terms_expose_orders():
    k = mi("a:-1=2,a:1=1")
    for term in coproduct_raw(k):
        assert term.order == sum(m for _, m in term.forest)
        rebuilt = term.remainder
        for part, mult in term.forest:
            rebuilt = rebuilt + part.scale(mult)
        assert rebuilt == k
        assert term.prefactor > 0


# -- forest splits and right legs ----------------------------------------------------

def _plain_splits(k):
    """The forest splits of k on multi-indices: inclusion by `includes`,
    removal by `-`, in the order `_forest_splits` yields them."""
    cands = iter_profile_parts(k)
    acc = []

    def rec(start, remaining):
        yield tuple(acc), remaining
        for i in range(start, len(cands)):
            part, mult, left = cands[i], 0, remaining
            while left.includes(part):
                left = left - part
                mult += 1
                acc.append((part, mult))
                yield from rec(i + 1, left)
                acc.pop()

    return list(rec(0, k))


# Counts 1, 3, 4, 7, 8, 15 and 16 sit on the field-width boundaries of
# `PackedLayout` (a count c takes c.bit_length() + 1 bits).
BOUNDARY_PROFILES = [mi(f"a:-1=1,a:0={c}") for c in (1, 3, 4, 7, 8, 15, 16)] + [
    mi("a:-1=4,a:1=3"), mi("a:-1=8,a:1=7"), mi("a:-1=16,a:1=15"),
    mi("a:-1=8,a:0=1,a:1=7"), mi("a:-1=4,a:0=16,a:1=3"),
    mi("a:-1=3,a:1=3,b:-1=1,b:0=15"),
]


def test_packed_forest_splits_match_plain_enumeration():
    profiles = (enumerate_profiles(("a", "b"), 7)
                + enumerate_profiles(("a", "b", "c"), 5) + BOUNDARY_PROFILES)
    for k in profiles:
        assert list(_forest_splits(k)) == _plain_splits(k), k


def test_narrower_packed_fields_break_the_packed_paths(monkeypatch):
    # The comparisons with the plain routes have the power to see the one
    # layout one bit too narrow, in each path that subtracts under its guard.
    def branches(k):
        return [(part, list(multisets)) for part, multisets in branch_multisets(k)]

    counts = {k: ordinary_count(k) for k in BOUNDARY_PROFILES}
    walked = {k: branches(k) for k in BOUNDARY_PROFILES}
    monkeypatch.setattr(PackedLayout, "field_width",
                        staticmethod(lambda count: count.bit_length()))
    for k in BOUNDARY_PROFILES:
        assert list(_forest_splits(k)) != _plain_splits(k), k
        assert ordinary_count(k) != counts[k], k
        # A chain's branch multisets are single parts found by their codes,
        # with no subtraction; a binary vertex's need one.
        if k.max_index() >= 1:
            assert branches(k) != walked[k], k


@pytest.mark.parametrize("mode", DECOMPOSITION_MODES)
def test_one_right_leg_per_remainder(monkeypatch, mode):
    calls = []
    expand = coproduct_module._right_leg

    def counted(b, r, form):
        calls.append((b, r, form))
        return expand(b, r, form)

    monkeypatch.setattr(coproduct_module, "_right_leg", counted)
    shared = 0
    for k in (mi("a:-1=5,a:1=1,a:2=1,b:0=1,b:1=1"), mi("a:-1=4,a:0=2,a:3=1"),
              mi("a:-1=1")):
        terms = coproduct_raw(k, mode)
        remainders = {term.remainder for term in terms}
        shared += len(terms) - len(remainders)
        for term in terms:
            assert term.order == term.remainder.weight() + 1
        for form in FORMS:
            calls.clear()
            coproduct(k, form, mode)
            assert len(calls) == len(remainders)
            assert {b for b, _, _ in calls} == remainders
            assert all(r == b.weight() + 1 and f == form for b, r, f in calls)
    assert MultiIndex() in remainders     # a:-1=1 splits off whole
    assert shared > 0
