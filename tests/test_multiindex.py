import itertools
import math
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from fibrecount.multiindex import (READER_TABLE, MultiIndex, PackedLayout, ParseError,
                                   apply_shift, branch_multisets, entries_text, entry_label,
                                   enumerate_multiindices, enumerate_profiles,
                                   find_shift, iter_profile_parts, unit)
from fibrecount.trees import fibres_of_degree


def mi(text):
    return MultiIndex.parse(text)


# -- construction and canonical form ------------------------------------------

def test_parse_str_roundtrip():
    k = mi("a:1=1,a:0=1,a:-1=2")
    assert str(k) == "a:-1=2,a:0=1,a:1=1"
    assert MultiIndex.parse(str(k)) == k


def test_empty_prints_zero():
    assert str(MultiIndex([])) == "0"
    assert not MultiIndex([])


def test_entry_order_is_canonical():
    assert mi("b:0=1,a:2=3") == mi("a:2=3,b:0=1")
    assert mi("a:-1=1,a:3=2").items() == ((("a", -1), 1), (("a", 3), 2))


@pytest.mark.parametrize("bad", [
    "a:1=1,a:1=2",      # duplicate key
    "a:1=0",            # zero count
    "a:1=-2",           # negative count
    "a:-2=1",           # index below -1
    "1a:0=1",           # bad decoration name
    "garbage",
    "a:0",
    "",
])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        MultiIndex.parse(bad)


def test_constructor_rejects_negative():
    with pytest.raises(ValueError):
        MultiIndex([(("a", 0), -1)])
    with pytest.raises(ValueError):
        MultiIndex([(("a", -2), 1)])


# -- grading -------------------------------------------------------------------

def test_degree_weight_sigma():
    k = mi("a:1=1,a:0=1,a:-1=2")
    assert k.degree() == 4
    assert k.weight() == -1
    assert k.symmetry_factor() == 2    # 2! * 1! * 1!
    assert mi("a:2=3,b:-1=2").symmetry_factor() == 12


def test_max_index():
    assert mi("a:1=1,b:3=1").max_index() == 3
    assert mi("a:1=1,b:3=1").max_index("a") == 1
    assert MultiIndex([]).max_index() == -2


# -- algebra -------------------------------------------------------------------

def test_add_sub_scale():
    k = mi("a:0=1") + mi("a:0=2,b:1=1")
    assert k == mi("a:0=3,b:1=1")
    assert k - mi("b:1=1") == mi("a:0=3")
    assert mi("a:0=2").scale(3) == mi("a:0=6")
    with pytest.raises(ValueError):
        mi("a:0=1") - mi("a:0=2")
    with pytest.raises(ValueError):
        mi("a:0=1") - mi("b:0=1")


def test_includes():
    assert mi("a:0=3,b:1=1").includes(mi("a:0=2"))
    assert not mi("a:0=1").includes(mi("a:0=2"))
    assert mi("a:0=1").includes(MultiIndex([]))


def test_left_shift():
    low = mi("a:0=1,a:1=2")
    assert low.is_lowering()
    assert low.left_shift() == mi("a:-1=1,a:0=2")
    with pytest.raises(ValueError):
        mi("a:-1=1").left_shift()


def _profile_parts_by_box(k):
    """Every m <= k componentwise, filtered to nonzero weight -1."""
    keys = [key for key, _ in k.items()]
    box = [MultiIndex(dict(zip(keys, counts)))
           for counts in itertools.product(*(range(c + 1) for _, c in k.items()))]
    assert len(box) == len(set(box))
    parts = [m for m in box if m.weight() == -1 and m.degree() >= 1]
    return sorted(parts, key=lambda m: m.sort_key())


def test_iter_profile_parts_matches_box_filter():
    # The bounded walk against filtering the whole box of k.
    ks = enumerate_multiindices(("a", "b"), 5, 3)
    ks += [mi("a:-1=4,a:0=2,a:1=1,a:2=1,b:-1=3,b:0=1,b:3=1"),
           mi("a:-1=21,a:0=20,a:1=20"), mi("a:-1=1,a:0=30"), mi("b:2=2,b:0=3")]
    for k in ks:
        parts = iter_profile_parts(k)
        assert parts == _profile_parts_by_box(k), k
        assert all(k.includes(p) for p in parts)


def _branch_multisets_by_combinations(k):
    """For every entry (a, j) of k, each multiset of j + 1 weight -1 parts
    of k summing to k - e_j^a, from all combinations with repetition."""
    parts = _profile_parts_by_box(k)
    out = []
    for (a, j), _ in k.items():
        target = k - unit(a, j)
        for combo in itertools.combinations_with_replacement(parts, j + 1):
            if sum(combo, MultiIndex()) == target:
                out.append(tuple(Counter(combo).items()))
    return out


# Counts at the edges of the packed field widths: 1, 3, 7 and 15 fill a
# field below its guard bit, 4, 8 and 16 need one bit more.
FIELD_EDGE_PROFILES = ["a:-1=4,a:0=1,a:1=3", "a:-1=8,a:0=4,a:1=7",
                       "a:-1=16,a:1=15", "a:-1=7,a:0=8,b:3=2",
                       "a:-1=3,b:0=16,b:1=2", "a:-1=1,a:0=15",
                       "a:-1=7,a:0=1,a:1=4,b:2=1"]


def test_branch_multisets_match_combinations():
    ks = (enumerate_profiles(("a", "b"), 7) + enumerate_profiles(("a", "b", "c"), 5)
          + [mi(text) for text in FIELD_EDGE_PROFILES])
    for k in ks:
        walked = list(branch_multisets(k))
        parts = [part for part, _ in walked]
        assert parts == iter_profile_parts(k), k
        assert sorted(walked[-1][1]) == sorted(_branch_multisets_by_combinations(k)), k
        assert [part for part, _ in branch_multisets(k, set(parts[:-1]))] == [k]
    with pytest.raises(ValueError):
        next(branch_multisets(mi("a:0=1")))


# -- the packed layout ---------------------------------------------------------

# Boxes on one and on two letters, with counts on the field-width boundaries.
LAYOUT_COUNTS = (1, 3, 4, 7, 8, 15, 16)
LAYOUT_BOXES = ("a:-1={c},a:1={c}", "a:0={c},b:-1={c}",
                "a:-1={c},a:0=3,a:2={c}", "a:1={c},b:-1=2,b:0={c}")


def _in_box(box):
    keys = [key for key, _ in box.items()]
    return [MultiIndex(dict(zip(keys, counts)))
            for counts in itertools.product(*(range(c + 1) for _, c in box.items()))]


def _fields(layout, code):
    # Each field read between its offset and the next, guard bit included.
    bounds = sorted(layout.offsets.values()) + [layout.guard.bit_length()]
    width = {offset: bounds[i + 1] - offset for i, offset in enumerate(bounds[:-1])}
    return {key: code >> offset & ((1 << width[offset]) - 1)
            for key, offset in layout.offsets.items()}


@pytest.mark.parametrize("c", LAYOUT_COUNTS)
@pytest.mark.parametrize("shape", LAYOUT_BOXES)
def test_layout_decodes_every_code_in_the_box(shape, c):
    box = mi(shape.format(c=c))
    layout = PackedLayout(box)
    read = layout.reader(lambda key, count: (key, count))
    above = 0b101 << layout.guard.bit_length()
    codes = set()
    for m in _in_box(box):
        code = layout.code(m)
        assert code & layout.guard == 0
        assert layout.decode(code) == m
        assert layout.entries(code) == layout.entries(code | above) == read(code) == m.items()
        assert layout.symmetry_factor(code) == m.symmetry_factor()
        codes.add(code)
    assert len(codes) == math.prod(count + 1 for _, count in box.items())


@pytest.mark.parametrize("c", [READER_TABLE - 1, READER_TABLE, 10 ** 5])
def test_reader_labels_counts_past_its_table(c):
    # A reader makes the labels of counts below READER_TABLE up front and
    # labels a larger count as it reads it: both read as `entries`, and a
    # box of huge counts holds no table as large as its counts.
    box = mi(f"a:-1={c},a:0=3,b:2={c}")
    layout = PackedLayout(box)
    tracemalloc.start()
    try:
        read = layout.reader(entry_label)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak
    entries = layout.reader(lambda key, count: (key, count))
    for counts in itertools.product((0, 1, READER_TABLE - 1, c), (0, 3), (0, c - 1, c)):
        m = MultiIndex(zip([key for key, _ in box.items()], counts))
        code = layout.code(m)
        assert (",".join(read(code)) or "0") == str(m)
        assert entries(code) == layout.entries(code) == m.items()


@pytest.mark.parametrize("c", LAYOUT_COUNTS)
@pytest.mark.parametrize("shape", LAYOUT_BOXES)
def test_layout_sort_key_orders_each_degree_as_entry_tuples(shape, c):
    box = mi(shape.format(c=c))
    layout = PackedLayout(box)
    above = 0b101 << layout.guard.bit_length()
    by_degree: dict[int, list] = {}
    for m in _in_box(box):
        by_degree.setdefault(m.degree(), []).append(m)
    for ms in by_degree.values():
        codes = [layout.code(m) for m in ms]
        assert sorted(codes, key=layout.sort_key) == [layout.code(m) for m in sorted(ms)]
        assert [layout.sort_key(code | above) for code in codes] \
            == [layout.sort_key(code) for code in codes]


@pytest.mark.parametrize("c", LAYOUT_COUNTS)
@pytest.mark.parametrize("shape", LAYOUT_BOXES[:2])     # every pair: two keys only
def test_layout_add_and_guarded_subtraction(shape, c):
    box = mi(shape.format(c=c))
    layout = PackedLayout(box)
    guard = layout.guard
    ms = _in_box(box)
    codes = [layout.code(m) for m in ms]
    for r, r_code in zip(ms, codes):
        for m, m_code in zip(ms, codes):
            # Codes add field by field, with no carry into the next field.
            assert _fields(layout, r_code + m_code) == {
                key: r.get(*key) + m.get(*key) for key in layout.offsets}
            diff = (r_code | guard) - m_code
            assert (diff & guard == guard) == r.includes(m)
            if r.includes(m):
                assert layout.decode(diff - guard) == r - m


def test_layout_slack_marks_the_sub_boxes():
    box = mi("a:-1=7,a:0=4,b:2=16")
    layout = PackedLayout(box)
    for r in (1, 2, 3, 5):
        sub = MultiIndex({key: c // r for key, c in box.items()})
        slack = layout.slack(r)
        for m in _in_box(box):
            assert ((layout.code(m) + slack) & layout.guard == 0) == sub.includes(m)


# -- shifts --------------------------------------------------------------------

def test_apply_shift_basic():
    # removing one vertex-slot at (a,0) replaces it by one at (a,-1)
    assert apply_shift(mi("a:0=2"), unit("a", 0)) == mi("a:-1=1,a:0=1")
    assert apply_shift(mi("a:1=1"), mi("a:1=1,a:0=1")) == mi("a:-1=1")
    # shift consuming more than available is invalid
    assert apply_shift(mi("a:0=1"), mi("a:0=2")) is None
    assert apply_shift(mi("a:0=1"), mi("a:1=1")) is None


def test_find_shift_known_pair():
    low = find_shift(mi("a:1=1"), mi("a:-1=1"))
    assert low == mi("a:1=1,a:0=1")
    assert apply_shift(mi("a:1=1"), low) == mi("a:-1=1")


def test_find_shift_unreachable():
    assert find_shift(mi("a:-1=1"), mi("a:0=1")) is None
    assert find_shift(mi("a:0=1"), mi("b:-1=1")) is None


def test_find_shift_identity():
    k = mi("a:0=2,b:1=1")
    assert find_shift(k, k) == MultiIndex([])


def _all_lowerings(max_index, max_count):
    """Every lowering multi-index over decoration 'a' up to the given size."""
    keys = [("a", j) for j in range(0, max_index + 1)]
    out = []
    for counts in itertools.product(range(max_count + 1), repeat=len(keys)):
        entries = [(key, c) for key, c in zip(keys, counts) if c]
        out.append(MultiIndex(entries))
    return out


def test_find_shift_matches_exhaustive_search():
    # find_shift must agree with a brute-force scan, and the solution is unique
    space = enumerate_multiindices(("a",), 3, 2)
    lowerings = _all_lowerings(2, 6)
    for k in space:
        for b in space:
            hits = [l for l in lowerings if apply_shift(k, l) == b]
            assert len(hits) <= 1
            got = find_shift(k, b)
            if hits:
                assert got == hits[0]
            else:
                assert got is None


# -- enumeration ---------------------------------------------------------------

def test_enumerate_multiindices_count():
    # two keys (a,-1), (a,0); degrees 0..2 give 1 + 2 + 3 entries
    got = enumerate_multiindices(("a",), 2, 0)
    assert len(got) == 6
    assert got == sorted(got, key=lambda k: k.sort_key())
    assert len(set(got)) == len(got)


def test_enumerate_profiles_brute():
    # The weight-pruned walk against filtering the whole box.
    for alph, n in [(("a",), 7), (("a", "b"), 6), (("a", "b", "c"), 5)]:
        profiles = enumerate_profiles(alph, n)
        brute = [k for k in enumerate_multiindices(alph, n, n - 2)
                 if k.weight() == -1 and k.degree() >= 1]
        assert profiles == sorted(brute, key=lambda k: k.sort_key())
        assert all(p.weight() == -1 for p in profiles)


def test_profiles_are_tree_profiles():
    # Every weight -1 multi-index is the profile of at least one tree.
    profiles = enumerate_profiles(("a", "b"), 6)
    for n in range(1, 7):
        of_degree = {k for k in profiles if k.degree() == n}
        assert of_degree == set(fibres_of_degree(n, ("a", "b")))


# -- property tests ------------------------------------------------------------

entry_st = st.tuples(
    st.tuples(st.sampled_from(["a", "b"]), st.integers(min_value=-1, max_value=4)),
    st.integers(min_value=1, max_value=4))
mi_st = st.lists(entry_st, max_size=6).map(MultiIndex)


@given(mi_st, mi_st)
def test_add_commutes_and_grades(x, y):
    assert x + y == y + x
    assert (x + y).degree() == x.degree() + y.degree()
    assert (x + y).weight() == x.weight() + y.weight()


@given(mi_st, mi_st)
def test_sub_inverts_add(x, y):
    assert (x + y) - y == x


@given(mi_st)
def test_parse_roundtrip_property(x):
    assert MultiIndex.parse(str(x)) == x
    assert hash(MultiIndex.parse(str(x))) == hash(x)


@given(mi_st)
def test_entries_text_prints_the_multiindex(x):
    # The one formatter, on the entry tuple alone, against str and the grammar.
    text = entries_text(x.items())
    assert text == str(x)
    assert text == (",".join(f"{a}:{j}={c}" for (a, j), c in sorted(x.items())) or "0")
    assert MultiIndex.parse(text) == x


@given(st.lists(entry_st, max_size=6))
def test_degree_and_weight_of_both_constructors(entries):
    # __init__ merges repeated keys; _raw reads a canonical tuple as it is.
    x = MultiIndex(entries)
    raw = MultiIndex._raw(x.items())
    for m in (x, raw):
        assert m.degree() == sum(c for _, c in entries)
        assert m.weight() == sum(j * c for (_, j), c in entries)
    assert raw == x and hash(raw) == hash(x)
