"""Sparse decorated multi-indices and the index-shift machinery.

A multi-index assigns a positive count to finitely many pairs
``(decoration, j)`` where the decoration is an identifier string and the
fertility index ``j`` is an integer ``>= -1``.  Zero counts are never
stored, so structural equality coincides with mathematical equality and
values can serve as dictionary keys and deterministic sort keys.  The
canonical entry order is lexicographic in the decoration name, then
ascending in ``j`` (so ``j = -1`` comes first).

Text format, bit-exact in both directions::

    multiindex := entry ("," entry)* | "0"
    entry      := decoration ":" j "=" count        e.g.  "a:-1=2,a:1=1"

Formatting always emits canonical order; parsing accepts entries in any
order but rejects duplicate ``(decoration, j)`` keys.  `entries_text`
prints a canonical entry tuple and `entry_label` one entry: the label with
which a `PackedLayout.reader` reads codes as text, so the packed paths
print with no `MultiIndex` built.

One walker, `multiindices_of_degree`, serves the box
(`enumerate_multiindices`), the weight -1 profiles (`enumerate_profiles`)
and, in one walk over all degrees bounded by the profile, the weight -1
parts of a profile (`iter_profile_parts`).  It takes the keys from the
largest j down and, given a target weight, cuts each branch whose missing
weight the remaining keys can no longer reach, so profiles are generated
rather than filtered from the box.  `branch_multisets` walks the branch
multisets that the F and W recursions share, for every part of a profile
in (degree, entries) order, so both recursions run bottom-up;
`profile_branch_multisets` is the same walk over every profile up to a
degree at once, in the layout of `profile_box`, which the oracle uses to
fill F and W of all its profiles in one pass.  `PackedLayout` is the one
packed-int codec of a box {m <= box}: every packed path of the package
encodes, decodes, sorts and labels its codes through it, and no other
module scans the fields of a code.
"""

from __future__ import annotations

import math
import re
from functools import cache
from typing import Callable, Container, Iterable, Iterator, Optional, Union

_ENTRY_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*):(-?\d+)=(\d+)\Z")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class ParseError(ValueError):
    """Text does not match the multi-index or tree grammar."""


def is_valid_decoration(name: str) -> bool:
    return bool(_NAME_RE.match(name))


class MultiIndex:
    """Finitely supported map ``(decoration, j >= -1) -> positive count``."""

    __slots__ = ("_entries", "_map", "_degree", "_weight", "_hash")

    def __init__(self, entries: Union[dict, Iterable, None] = ()):
        items = entries.items() if isinstance(entries, dict) else (entries or ())
        merged: dict[tuple[str, int], int] = {}
        degree = weight = 0
        for (a, j), count in items:
            if count == 0:
                continue
            if count < 0:
                raise ValueError("negative component")
            if j < -1:
                raise ValueError(f"fertility index {j} is below -1")
            key = (a, j)
            merged[key] = merged.get(key, 0) + count
            degree += count
            weight += j * count
        ordered = tuple(sorted(merged.items()))
        self._entries = ordered
        self._map = dict(ordered)
        self._degree = degree
        self._weight = weight
        self._hash = hash(ordered)

    @classmethod
    def _raw(cls, ordered: tuple) -> "MultiIndex":
        # Fast path for internal callers that already hold a canonical,
        # validated entry tuple.
        self = object.__new__(cls)
        self._entries = ordered
        self._map = dict(ordered)
        degree = weight = 0
        for (_, j), c in ordered:
            degree += c
            weight += j * c
        self._degree = degree
        self._weight = weight
        self._hash = hash(ordered)
        return self

    # -- basic queries ------------------------------------------------

    def items(self) -> tuple:
        """Entries as a canonical tuple of ``((decoration, j), count)``."""
        return self._entries

    def get(self, decoration: str, j: int) -> int:
        return self._map.get((decoration, j), 0)

    def degree(self) -> int:
        """Total count, |k|.  Equals the vertex count for tree profiles."""
        return self._degree

    def weight(self) -> int:
        """Weighted sum of indices, sum_j j * k_j^a."""
        return self._weight

    def symmetry_factor(self) -> int:
        """Product of factorials of the counts, k!."""
        out = 1
        for _, c in self._entries:
            out *= math.factorial(c)
        return out

    def decorations(self) -> tuple[str, ...]:
        return tuple(sorted({a for (a, _), _ in self._entries}))

    def max_index(self, decoration: Optional[str] = None) -> int:
        """Largest fertility index present (for one decoration if given), or -2."""
        js = [j for (a, j), _ in self._entries
              if decoration is None or a == decoration]
        return max(js) if js else -2

    def is_lowering(self) -> bool:
        """True when no entry sits at j = -1."""
        return all(j >= 0 for (_, j), _ in self._entries)

    def includes(self, other: "MultiIndex") -> bool:
        """Componentwise ``other <= self``."""
        get = self._map.get
        return all(c <= get(key, 0) for key, c in other._entries)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        d = dict(self._map)
        for key, c in other._entries:
            d[key] = d.get(key, 0) + c
        return MultiIndex._raw(tuple(sorted(d.items())))

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        d = dict(self._map)
        for key, c in other._entries:
            nc = d.get(key, 0) - c
            if nc < 0:
                raise ValueError("negative component")
            if nc == 0:
                d.pop(key, None)
            else:
                d[key] = nc
        return MultiIndex._raw(tuple(sorted(d.items())))

    def scale(self, m: int) -> "MultiIndex":
        """Componentwise multiple ``m * self`` for m >= 0."""
        if m < 0:
            raise ValueError("negative component")
        if m == 0:
            return MultiIndex()
        return MultiIndex._raw(tuple((key, c * m) for key, c in self._entries))

    def left_shift(self) -> "MultiIndex":
        """Shift every entry one index down: result_j = self_{j+1}."""
        if not self.is_lowering():
            raise ValueError("not a lowering multi-index")
        return MultiIndex._raw(tuple(((a, j - 1), c) for (a, j), c in self._entries))

    # -- ordering / hashing ---------------------------------------------

    def sort_key(self) -> tuple:
        return (self._degree, self._entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiIndex) and self._entries == other._entries

    def __lt__(self, other: "MultiIndex") -> bool:
        return self._entries < other._entries

    def __hash__(self) -> int:
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._entries)

    # -- text format -----------------------------------------------------

    def __str__(self) -> str:
        return entries_text(self._entries)

    def __repr__(self) -> str:
        return f"MultiIndex({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "MultiIndex":
        """Parse the bit-exact text grammar; raises ParseError on bad input."""
        if text == "0":
            return cls()
        if not text:
            raise ParseError("empty multi-index text")
        entries: dict[tuple[str, int], int] = {}
        for part in text.split(","):
            m = _ENTRY_RE.match(part)
            if m is None:
                raise ParseError(f"bad multi-index entry {part!r}")
            a, j, c = m.group(1), int(m.group(2)), int(m.group(3))
            if j < -1:
                raise ParseError(f"fertility index {j} is below -1")
            if c < 1:
                raise ParseError(f"count must be >= 1 in {part!r}")
            if (a, j) in entries:
                raise ParseError(f"duplicate key {a}:{j}")
            entries[(a, j)] = c
        return cls(entries)


def entries_text(entries: tuple) -> str:
    """The text of a canonical entry tuple ``((decoration, j), count)``, as
    `MultiIndex.__str__` prints it, with no `MultiIndex` built."""
    if not entries:
        return "0"
    return ",".join([f"{a}:{j}={c}" for (a, j), c in entries])


def entry_label(key: tuple[str, int], count: int) -> str:
    """The text of one entry, the label a `PackedLayout.reader` takes to
    read codes as text: the text of m is ``",".join(labels) or "0"``."""
    return f"{key[0]}:{key[1]}={count}"


@cache
def unit(decoration: str, j: int) -> MultiIndex:
    """The unit multi-index e_j^a."""
    return MultiIndex({(decoration, j): 1})


def apply_shift(k: MultiIndex, lowering: MultiIndex) -> Optional[MultiIndex]:
    """``k - lowering + left_shift(lowering)``, or None on a negative component."""
    if not lowering:
        return k
    if not lowering.is_lowering():
        raise ValueError("not a lowering multi-index")
    d = dict(k.items())
    for (a, j), c in lowering.items():
        key = (a, j)
        d[key] = d.get(key, 0) - c
        down = (a, j - 1)
        d[down] = d.get(down, 0) + c
    cleaned = tuple(sorted((key, c) for key, c in d.items() if c))
    if any(c < 0 for _, c in cleaned):
        return None
    return MultiIndex._raw(cleaned)


def find_shift(k: MultiIndex, b: MultiIndex) -> Optional[MultiIndex]:
    """The unique lowering l with ``b == k - l + left_shift(l)``, else None.

    Exists iff the per-decoration degree balance holds and every suffix sum
    sum_{m >= j} (k_m^a - b_m^a) for j >= 0 is nonnegative; the suffix sums
    are then the entries of l.  The reconstruction is verified before
    returning.
    """
    decs = sorted(set(k.decorations()) | set(b.decorations()))
    entries: dict[tuple[str, int], int] = {}
    for a in decs:
        top = max(k.max_index(a), b.max_index(a))
        balance = 0
        suffix = 0
        for j in range(top, -1, -1):
            suffix += k.get(a, j) - b.get(a, j)
            if suffix < 0:
                return None
            if suffix:
                entries[(a, j)] = suffix
            balance += k.get(a, j) - b.get(a, j)
        balance += k.get(a, -1) - b.get(a, -1)
        if balance != 0:
            return None
    lowering = MultiIndex(entries)
    if apply_shift(k, lowering) != b:
        return None
    return lowering


def multiindices_of_degree(keys: Iterable[tuple[str, int]], degree: Optional[int],
                           weight: Optional[int] = None,
                           bound: Optional[MultiIndex] = None) -> list[MultiIndex]:
    """Every multi-index supported on `keys` with exactly `degree` (any
    degree if `degree` is None, which needs a `bound`), with `weight` if
    given and at most `bound` componentwise if given, each once, in no
    particular order.

    The keys are walked from the largest j down, and a branch whose missing
    weight the keys still to come can no longer add is cut, with no
    multi-index built for it.  With `degree` fixed that weight lies in
    [budget * j_min, budget * j] for the degree budget left; with any
    degree, between the sums of the negative and of the positive cap * j
    over the keys still to come.
    """
    order = sorted(keys, key=lambda key: key[1], reverse=True)
    caps = [degree if bound is None else bound.get(*key) for key in order]
    j_min = order[-1][1] if order else 0
    prune = weight is not None
    low, high = [0] * (len(order) + 1), [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        reach = caps[i] * order[i][1]
        low[i], high[i] = low[i + 1] + min(0, reach), high[i + 1] + max(0, reach)
    out: list[MultiIndex] = []
    acc: list = []

    def rec(i: int, budget: int, missing: int) -> None:
        if budget == 0 or i == len(order):
            if (budget == 0 or degree is None) and (not prune or missing == 0):
                out.append(MultiIndex._raw(tuple(sorted(acc))))
            return
        key = order[i]
        j = key[1]
        if prune and not (budget * j_min <= missing <= budget * j if degree is not None
                          else low[i] <= missing <= high[i]):
            return
        rec(i + 1, budget, missing)
        for c in range(1, min(budget, caps[i]) + 1):
            acc.append((key, c))
            rec(i + 1, budget - c, missing - c * j)
            acc.pop()

    rec(0, sum(caps) if degree is None else degree, weight or 0)
    return out


def _keys(alphabet: Iterable[str], max_index: int) -> list[tuple[str, int]]:
    return [(a, j) for a in sorted(set(alphabet)) for j in range(-1, max_index + 1)]


def enumerate_multiindices(alphabet: Iterable[str], max_degree: int,
                           max_index: int) -> list[MultiIndex]:
    """All multi-indices over `alphabet` with -1 <= j <= max_index and
    degree <= max_degree, sorted by (degree, entries)."""
    keys = _keys(alphabet, max_index)
    return [k for d in range(max_degree + 1)
            for k in sorted(multiindices_of_degree(keys, d))]


def enumerate_profiles(alphabet: Iterable[str], max_degree: int) -> list[MultiIndex]:
    """All weight -1 multi-indices with 1 <= degree <= max_degree, sorted by
    (degree, entries).

    Entries above j = max_degree - 2 cannot occur at these degrees: a single
    entry at index j already contributes j + 1 to degree - 1.
    """
    keys = _keys(alphabet, max_degree - 2)
    return [k for d in range(1, max_degree + 1)
            for k in sorted(multiindices_of_degree(keys, d, -1))]


def iter_profile_parts(k: MultiIndex) -> list[MultiIndex]:
    """Nonzero weight -1 sub-multi-indices of k, sorted by (degree, entries),
    from one walk over all degrees."""
    keys = [key for key, _ in k.items()]
    return sorted(multiindices_of_degree(keys, None, -1, k), key=MultiIndex.sort_key)


READER_TABLE = 64     # `PackedLayout.reader` makes the labels of smaller counts up front


class PackedLayout:
    """The packed-int layout of the multi-indices m <= box: packed
    exponent vectors (Monagan and Pearce, CASC 2007).

    Each entry of the box gets one field, one bit wider than its count, at
    bit `offsets[key]`; the top bit of the field is its guard bit, and
    `guard` is the mask of them all.  The first key of the box takes the
    top field and the last key bit 0.  The code of m is
    sum m_key << offsets[key].  The sum of two codes in the box fits in
    every field, guard bit included, so codes add without a carry across
    fields.  For r and m in the box, m <= r exactly when
    ((code(r) | guard) - code(m)) has every guard bit set, and that
    difference less the guard is code(r - m).
    """

    __slots__ = ("box", "offsets", "guard", "_fields", "_mask", "_ones")

    def __init__(self, box: MultiIndex):
        widths = [self.field_width(c) for _, c in box.items()]
        top = sum(widths)
        self.box, self.offsets, self._mask = box, {}, (1 << top) - 1
        guard, offsets, fields = 0, self.offsets, []
        for (key, _), width in zip(box.items(), widths):
            guard |= 1 << (top - 1)
            top -= width
            offsets[key] = top
            fields.append((key, top, (1 << width) - 1))
        # Each field starts just above the guard bit of the one below it.
        self.guard, self._fields, self._ones = guard, fields, (guard << 1 | 1) & self._mask

    @staticmethod
    def field_width(count: int) -> int:
        return count.bit_length() + 1     # the count, then its guard bit

    def code(self, m: MultiIndex) -> int:
        """The code of m <= box."""
        offsets, code = self.offsets, 0
        for key, c in m.items():
            code += c << offsets[key]
        return code

    def entries(self, code: int) -> tuple:
        """The canonical entry tuple of the m of a code whose guard bits are
        clear, read field by field; bits above the layout are ignored."""
        return tuple([(key, c) for key, offset, mask in self._fields
                      if (c := code >> offset & mask)])

    def decode(self, code: int) -> MultiIndex:
        """The multi-index of a code, as `entries` reads it."""
        return MultiIndex._raw(self.entries(code))

    def sort_key(self, code: int) -> int:
        """An int key that sorts the codes of one degree as their entry
        tuples, ignoring bits above the layout.

        All m of one degree have one total count, so field by field from the
        top a nonzero count sorts before a zero and a smaller count first.
        The key maps each field c to c - 1 and 0 to all ones,
        ((code | guard) - ones) ^ guard, with no borrow across fields, as
        no count of the box sets its guard bit."""
        return ((code & self._mask | self.guard) - self._ones) ^ self.guard

    def reader(self, label: Callable[[tuple[str, int], int], object]
               ) -> Callable[[int], tuple]:
        """A reader of in-box codes, guard bits clear, to the tuples of
        label(key, c) over the entries (key, c) of `entries`.  It reads a
        code from its top set bit down, one nonzero field at a time.  Each
        label of a count below `READER_TABLE` is made here, once per
        (field, count); a larger count is labelled as it is read, so the
        reader of a box of huge counts costs no more than its codes."""
        # field[b]: the offset, the mask of the bits below it, the key and
        # the labels by count of the field that holds bit b - 1.
        field: list = [None] * (self.guard.bit_length() + 1)
        for key, count in self.box.items():
            offset, width = self.offsets[key], self.field_width(count)
            names = [None] + [label(key, c) for c in range(1, min(count + 1, READER_TABLE))]
            field[offset + 1:offset + width + 1] = [(offset, (1 << offset) - 1, key, names)] * width

        def read(code: int) -> tuple:
            labels, rest = [], code
            while rest:
                offset, below, key, names = field[rest.bit_length()]
                try:
                    labels.append(names[rest >> offset])
                except IndexError:
                    labels.append(label(key, rest >> offset))
                rest &= below
            return tuple(labels)
        return read

    def symmetry_factor(self, code: int) -> int:
        """m! for the m of an in-box code: the product of the factorials of
        its counts, read with no `MultiIndex` built."""
        out = 1
        for _, offset, mask in self._fields:
            out *= math.factorial(code >> offset & mask)
        return out

    def slack(self, r: int) -> int:
        """The code that fills each field up to its guard bit less the count
        of box // r: the code s is in that box iff (s + slack(r)) & guard == 0."""
        fill = self._mask - self.guard
        return fill - sum((c // r) << self.offsets[key] for key, c in self.box.items())


def profile_box(alphabet: Iterable[str], max_degree: int) -> MultiIndex:
    """The box with max_degree at every key (a, j), j <= max_degree - 2: it
    holds every profile of degree <= max_degree over the alphabet, and any
    sum of such profiles of total degree <= max_degree."""
    return MultiIndex(dict.fromkeys(_keys(alphabet, max_degree - 2), max_degree))


def branch_multisets(k: MultiIndex, skip: Container = ()
                     ) -> Iterator[tuple[MultiIndex,
                                         Iterator[tuple[tuple[MultiIndex, int], ...]]]]:
    """Every weight -1 part p of the profile k not in `skip`, with its
    branch multisets: for every entry (a, j) of p, each multiset of j + 1
    weight -1 profiles summing to p - e_j^a, as ((part, multiplicity), ...)
    with the parts in (degree, entries) order.  The leaf e_{-1}^a has one,
    empty.  The parts come in (degree, entries) order, so each branch of p
    comes before p, and k comes last.

    The parts of k are walked once (`iter_profile_parts`) and packed once in
    k's layout (`PackedLayout`), where an inclusion test with the
    subtraction it guards is one subtraction and one mask test.  `skip` is
    read as each part comes up, so a caller that fills a memo from the
    yielded parts can pass that memo.
    """
    if k.weight() != -1:
        raise ValueError("weight must be -1")
    parts = iter_profile_parts(k)
    parts[-1] = k     # equal, and a memo keyed by the parts holds no copy of k
    yield from _branch_walk(parts, k, skip)


def profile_branch_multisets(alphabet: Iterable[str], max_degree: int,
                             skip: Container = ()):
    """`branch_multisets` for every profile of degree <= max_degree over the
    alphabet at once: the parts are `enumerate_profiles`, packed in the
    layout of `profile_box`, so each profile's parts are walked once for
    all of them."""
    yield from _branch_walk(enumerate_profiles(alphabet, max_degree),
                            profile_box(alphabet, max_degree), skip)


def _branch_walk(parts: list[MultiIndex], box: MultiIndex, skip: Container):
    # The walk of `branch_multisets` over `parts`, weight -1 profiles in
    # (degree, entries) order, all <= box, holding every weight -1
    # multi-index <= box of degree <= the largest part's: a branch that
    # fits in a part is then a part.
    layout = PackedLayout(box)
    offsets, guard = layout.offsets, layout.guard
    # Codes carry their guard bits, so a subtraction that stays in the box
    # leaves every guard bit set.
    codes = [guard + layout.code(part) for part in parts]
    degrees = [part.degree() for part in parts]
    index = {code: i for i, code in enumerate(codes)}

    def rec(start: int, left: int, degree: int, slots: int):
        # left = guard + code of what is still to cover, of weight -slots.
        if slots <= 1:
            if slots == 0:
                if left == guard:
                    yield ()
            else:
                i = index.get(left, -1)
                if i >= start:
                    yield ((parts[i], 1),)
            return
        for i in range(start, len(parts)):
            size = degrees[i]
            if size * slots > degree:
                break     # the parts from i on are no smaller
            part, code = parts[i], codes[i] - guard
            rest, mult = left - code, 1
            while mult < slots and rest & guard == guard:
                for tail in rec(i + 1, rest, degree - mult * size, slots - mult):
                    yield ((part, mult),) + tail
                rest -= code
                mult += 1
            if mult == slots and rest == guard:
                yield ((part, mult),)

    def multisets(i: int):
        for (a, j), _ in parts[i].items():
            yield from rec(0, codes[i] - (1 << offsets[(a, j)]), degrees[i] - 1, j + 1)

    for i, part in enumerate(parts):
        if part not in skip:
            yield part, multisets(i)
