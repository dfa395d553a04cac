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
order but rejects duplicate ``(decoration, j)`` keys.
"""

from __future__ import annotations

import math
import re
from functools import cache
from typing import Iterable, Optional, Union

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
        for (a, j), count in items:
            if count == 0:
                continue
            if count < 0:
                raise ValueError("negative component")
            if j < -1:
                raise ValueError(f"fertility index {j} is below -1")
            key = (a, j)
            merged[key] = merged.get(key, 0) + count
        ordered = tuple(sorted(merged.items()))
        self._entries = ordered
        self._map = dict(ordered)
        self._degree = sum(merged.values())
        self._weight = sum(j * c for (_, j), c in ordered)
        self._hash = hash(ordered)

    @classmethod
    def _raw(cls, ordered: tuple) -> "MultiIndex":
        # Fast path for internal callers that already hold a canonical,
        # validated entry tuple.
        self = object.__new__(cls)
        self._entries = ordered
        self._map = dict(ordered)
        self._degree = sum(c for _, c in ordered)
        self._weight = sum(j * c for (_, j), c in ordered)
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
        if not self._entries:
            return "0"
        return ",".join(f"{a}:{j}={c}" for (a, j), c in self._entries)

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


def sub_multiindices(k: MultiIndex) -> list[MultiIndex]:
    """All m with 0 <= m <= k componentwise, in a fixed generation order."""
    out = [()]
    for key, count in k.items():
        out = [prefix + (((key), c),) if c else prefix
               for prefix in out for c in range(count + 1)]
    # Entry order inside each prefix follows k's canonical order already.
    return [MultiIndex._raw(tuple(e for e in entries if e)) for entries in out]


def enumerate_multiindices(alphabet: Iterable[str], max_degree: int,
                           max_index: int) -> list[MultiIndex]:
    """All multi-indices over `alphabet` with -1 <= j <= max_index and
    degree <= max_degree, sorted by (degree, entries)."""
    keys = [(a, j) for a in sorted(set(alphabet)) for j in range(-1, max_index + 1)]
    out: list[MultiIndex] = []

    def rec(i: int, budget: int, acc: list) -> None:
        if i == len(keys):
            out.append(MultiIndex._raw(tuple(acc)))
            return
        rec(i + 1, budget, acc)
        for c in range(1, budget + 1):
            acc.append((keys[i], c))
            rec(i + 1, budget - c, acc)
            acc.pop()

    rec(0, max_degree, [])
    out.sort(key=MultiIndex.sort_key)
    return out


def enumerate_profiles(alphabet: Iterable[str], max_degree: int) -> list[MultiIndex]:
    """All weight -1 multi-indices with 1 <= degree <= max_degree.

    Entries above j = max_degree - 2 cannot occur at these degrees: a single
    entry at index j already contributes j + 1 to degree - 1.
    """
    top = max(max_degree - 2, -1)
    return [k for k in enumerate_multiindices(alphabet, max_degree, top)
            if k.weight() == -1 and k.degree() >= 1]


def iter_profile_parts(k: MultiIndex) -> list[MultiIndex]:
    """Nonzero weight -1 sub-multi-indices of k, sorted by (degree, entries)."""
    parts = [m for m in sub_multiindices(k) if m.weight() == -1 and m.degree() >= 1]
    parts.sort(key=MultiIndex.sort_key)
    return parts


@cache
def cached_profile_parts(k: MultiIndex) -> tuple[MultiIndex, ...]:
    """`iter_profile_parts` as a tuple, memoised per multi-index."""
    return tuple(iter_profile_parts(k))
