"""Canonical decorated rooted trees, profiles, and brute-force fibre enumeration.

Trees are immutable; construction sorts the children into canonical order
(compare the nested ``(decoration, child keys)`` encoding lexicographically),
so two trees are isomorphic as decorated rooted trees iff they are equal.

Text format::

    tree := decoration | decoration "(" tree ("," tree)* ")"

Formatting emits children in canonical order; parsing accepts any order and
canonicalizes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Iterable, Mapping

from .multiindex import MultiIndex, ParseError, is_valid_decoration

_NAME_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"


class DecoratedTree:
    """A rooted tree whose vertices carry decoration strings."""

    __slots__ = ("decoration", "children", "_key", "_hash", "_size")

    def __init__(self, decoration: str, children: Iterable["DecoratedTree"] = ()):
        kids = sorted(children, key=lambda t: t._key)
        self.decoration = decoration
        self.children = tuple(kids)
        self._key = (decoration, tuple(t._key for t in kids))
        self._hash = hash(self._key)
        self._size = 1 + sum(t._size for t in kids)

    def vertex_count(self) -> int:
        return self._size

    def fertility(self) -> int:
        """Number of children of the root."""
        return len(self.children)

    def profile(self) -> MultiIndex:
        """Count vertices by (decoration, fertility - 1)."""
        counts: dict[tuple[str, int], int] = {}
        stack = [self]
        while stack:
            t = stack.pop()
            key = (t.decoration, len(t.children) - 1)
            counts[key] = counts.get(key, 0) + 1
            stack.extend(t.children)
        return MultiIndex(counts)

    def automorphism_order(self) -> int:
        """Order of the automorphism group: product over runs of equal
        children of (run length)! times the children's own orders."""
        order = 1
        for child in self.children:
            order *= child.automorphism_order()
        for _, run in itertools.groupby(self.children):
            order *= math.factorial(len(tuple(run)))
        return order

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DecoratedTree) and self._key == other._key

    def __lt__(self, other: "DecoratedTree") -> bool:
        return self._key < other._key

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self.children:
            return self.decoration
        return f"{self.decoration}({','.join(str(c) for c in self.children)})"

    def __repr__(self) -> str:
        return f"DecoratedTree({str(self)!r})"


def parse_tree(text: str) -> DecoratedTree:
    """Parse the tree grammar; canonicalizes child order."""
    pos = 0

    def take_name() -> str:
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos] in _NAME_CHARS:
            pos += 1
        name = text[start:pos]
        if not is_valid_decoration(name):
            raise ParseError(f"bad decoration at position {start} in {text!r}")
        return name

    def take_tree() -> DecoratedTree:
        nonlocal pos
        name = take_name()
        if pos < len(text) and text[pos] == "(":
            pos += 1
            kids = [take_tree()]
            while pos < len(text) and text[pos] == ",":
                pos += 1
                kids.append(take_tree())
            if pos >= len(text) or text[pos] != ")":
                raise ParseError(f"expected ')' at position {pos} in {text!r}")
            pos += 1
            return DecoratedTree(name, kids)
        return DecoratedTree(name)

    tree = take_tree()
    if pos != len(text):
        raise ParseError(f"trailing input at position {pos} in {text!r}")
    return tree


def _normalized_alphabet(alphabet: Iterable[str]) -> tuple[str, ...]:
    alph = tuple(sorted(set(alphabet)))
    if not alph:
        raise ValueError("alphabet must be nonempty")
    for name in alph:
        if not is_valid_decoration(name):
            raise ValueError(f"bad decoration name {name!r}")
    return alph


def enumerate_trees(n: int, alphabet: Iterable[str]) -> list[DecoratedTree]:
    """All decorated rooted trees with exactly n vertices, sorted canonically."""
    if n < 1:
        raise ValueError("vertex count must be >= 1")
    return list(_trees_exact(n, _normalized_alphabet(alphabet)))


@cache
def _trees_exact(n: int, alph: tuple[str, ...]) -> tuple[DecoratedTree, ...]:
    if n == 1:
        return tuple(DecoratedTree(a) for a in alph)
    pool: list[DecoratedTree] = []
    for s in range(1, n):
        pool.extend(_trees_exact(s, alph))
    sizes = [t._size for t in pool]
    out = []
    for root in alph:
        for kids in _child_multisets(pool, sizes, n - 1):
            out.append(DecoratedTree(root, kids))
    return tuple(sorted(out, key=lambda t: t._key))


def _child_multisets(pool, sizes, budget):
    # Multisets as nondecreasing index sequences into pool; distinct
    # multisets give distinct canonical trees, so no dedup pass is needed.
    acc: list[DecoratedTree] = []

    def rec(start: int, remaining: int):
        if remaining == 0:
            yield tuple(acc)
            return
        for i in range(start, len(pool)):
            if sizes[i] <= remaining:
                acc.append(pool[i])
                yield from rec(i, remaining - sizes[i])
                acc.pop()

    yield from rec(0, budget)


def fibres_of_degree(n: int, alphabet: Iterable[str]) -> Mapping[MultiIndex, tuple]:
    """Group all n-vertex trees by profile.  The keys are exactly the
    nonempty fibres of degree n over the alphabet.  The mapping is a
    read-only view of a shared cache."""
    return _fibres(n, _normalized_alphabet(alphabet))


@cache
def _fibres(n: int, alph: tuple[str, ...]) -> Mapping[MultiIndex, tuple]:
    groups: dict[MultiIndex, list] = {}
    for t in _trees_exact(n, alph):
        groups.setdefault(t.profile(), []).append(t)
    return MappingProxyType({k: tuple(v) for k, v in
                             sorted(groups.items(), key=lambda kv: kv[0].sort_key())})


def enumerate_fibre(k: MultiIndex) -> list[DecoratedTree]:
    """All trees with profile k; empty unless weight(k) == -1."""
    if k.weight() != -1:
        return []
    return list(fibres_of_degree(k.degree(), k.decorations()).get(k, ()))


def fibre_expansion(k: MultiIndex) -> dict[DecoratedTree, Fraction]:
    """The fibre of k with each tree weighted by symmetry_factor(k) divided
    by its automorphism order.  The coefficients total a positive integer."""
    if k.weight() != -1:
        raise ValueError("weight must be -1")
    sigma_k = k.symmetry_factor()
    return {t: Fraction(sigma_k, t.automorphism_order()) for t in enumerate_fibre(k)}


def labelled_fertility_counts(n: int) -> dict[tuple[int, ...], int]:
    """Histogram of fertility vectors over all rooted labelled trees on
    vertices 0..n-1, by exhaustive parent-map enumeration.

    The total equals n^(n-1).  Exponential in n; intended for n <= 6.
    """
    if n < 1:
        raise ValueError("vertex count must be >= 1")
    counts: dict[tuple[int, ...], int] = {}
    for root in range(n):
        others = [v for v in range(n) if v != root]
        for parents in itertools.product(range(n), repeat=n - 1):
            fert = [0] * n
            ok = True
            for v, p in zip(others, parents):
                fert[p] += 1
            # Acyclicity: every vertex must reach the root.
            parent_of = dict(zip(others, parents))
            for v in others:
                seen = 0
                cur = v
                while cur != root:
                    cur = parent_of[cur]
                    seen += 1
                    if seen > n:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                key = tuple(fert)
                counts[key] = counts.get(key, 0) + 1
    return counts
