import importlib
import itertools
import math
from fractions import Fraction

import pytest

from fibrecount.coproduct import (DECOMPOSITION_MODES, FORMS, _forest_splits, _right_leg,
                                  coproduct, coproduct_raw, coproduct_stream,
                                  forest_symmetry)
from fibrecount.lowering import _LevelLayout
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

def _decoded_splits(k):
    """`_forest_splits` with each remainder code decoded."""
    layout = PackedLayout(k)
    return [(forest, layout.decode(code)) for forest, code in _forest_splits(k, layout)]


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
        assert _decoded_splits(k) == _plain_splits(k), k


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
        assert _decoded_splits(k) != _plain_splits(k), k
        assert ordinary_count(k) != counts[k], k
        # A chain's branch multisets are single parts found by their codes,
        # with no subtraction; a binary vertex's need one.
        if k.max_index() >= 1:
            assert branches(k) != walked[k], k


@pytest.mark.parametrize("mode", DECOMPOSITION_MODES)
def test_one_right_leg_per_remainder(monkeypatch, mode):
    calls = []
    expand = coproduct_module._right_leg

    def counted(b, r, form, layout):
        calls.append((b, r, form))
        return expand(b, r, form, layout)

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


# -- the stream in print order ------------------------------------------------------

def _forest_key(forest):
    return tuple(part.sort_key() + (mult,) for part, mult in forest)


@pytest.mark.parametrize("mode", DECOMPOSITION_MODES)
def test_forest_splits_come_in_print_order(mode):
    # The stream prints forests as `_forest_splits` yields them, with no
    # sort: their keys must rise strictly, in both decomposition modes.
    profiles = enumerate_profiles(("a", "b"), 7) + enumerate_profiles(("a", "b", "c"), 5)
    for k in profiles:
        keys = [_forest_key(forest) for forest, _ in _forest_splits(k, PackedLayout(k))]
        assert all(a < b for a, b in zip(keys, keys[1:])), k
        raw = coproduct_raw(k, mode)
        assert [_forest_key(term.forest) for term in raw] == keys, k


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("mode", DECOMPOSITION_MODES)
def test_coproduct_is_the_dict_of_the_stream(form, mode):
    # The dict reads the stream; the stream's legs are sorted once, as
    # multi-indices or as their text, and every term is the prefactor times
    # the leg's coefficient.
    for k in enumerate_profiles(("a", "b"), 5):
        stream = list(coproduct_stream(k, form, mode))
        rows = {(forest, mono): Fraction(num * n, den * d)
                for forest, num, den, leg in stream for mono, n, d in leg}
        assert coproduct(k, form, mode) == rows, k
        layout = _LevelLayout(k)
        reference = {(term.forest, layout.columns.decode(code)): term.prefactor * c
                     for term in coproduct_raw(k, mode)
                     for code, c in _right_leg(term.remainder, term.order, form, layout).items()}
        assert rows == reference, k
        assert [forest for forest, *_ in stream] == [t.forest for t in coproduct_raw(k, mode)]
        texts = list(coproduct_stream(k, form, mode, text=True))
        for (_, num, den, leg), (_, *prefactor, text_leg) in zip(stream, texts, strict=True):
            assert math.gcd(num, den) == 1 and prefactor == [num, den]
            assert [mono.sort_key() for mono, *_ in leg] == sorted(
                mono.sort_key() for mono, *_ in leg)
            assert text_leg == [(str(mono), n, d) for mono, n, d in leg]


def test_stream_checks_its_arguments_before_the_first_split():
    # The command writes a JSON envelope before the first row, so a bad
    # argument must fail when the stream is made, not when it is read.
    k = mi("a:-1=2,a:1=1")
    for args in ((mi("a:0=1"),), (k, "nonsense"), (k, "raw-dbar", "nonsense"),
                 (k, "raw-dbar", "multiset", "nonsense")):
        with pytest.raises(ValueError):
            coproduct_stream(*args)
