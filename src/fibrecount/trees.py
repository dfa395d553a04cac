"""Canonical decorated rooted trees, profiles, and brute-force fibre enumeration.

Trees are immutable; construction sorts the children into canonical order
(compare the nested ``(decoration, child keys)`` encoding lexicographically),
so two trees are isomorphic as decorated rooted trees iff they are equal.
Each tree holds that encoding flat, as one string, so comparing two trees
of any depth is one string comparison with no recursion.

Text format::

    tree := decoration | decoration "(" tree ("," tree)* ")"

Formatting emits children in canonical order; parsing accepts any order and
canonicalizes.

Brute force builds every tree on n vertices from a root and a multiset of
smaller trees (Polya's multiset construction; Flajolet and Sedgewick,
Analytic Combinatorics I.2), walked by `_child_multisets` as pool indices.
Two folds read that walk: `_trees_exact` builds `DecoratedTree` objects,
for `enumerate_trees`, `fibres_of_degree`, `enumerate_fibre` and
`fibre_expansion`; `fibre_statistics`, which the oracle reads, keeps each
tree only as a record (profile code, aut) and counts each fibre's trees by
automorphism order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Iterable, Mapping

from .multiindex import (MultiIndex, PackedLayout, ParseError,
                         is_valid_decoration, profile_box)

_NAME_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"


class DecoratedTree:
    """A rooted tree whose vertices carry decoration strings."""

    __slots__ = ("decoration", "children", "_key", "_hash", "_size", "_aut")

    def __init__(self, decoration: str, children: Iterable["DecoratedTree"] = ()):
        kids = sorted(children, key=lambda t: t._key)
        self.decoration = decoration
        self.children = tuple(kids)
        # The key is the decoration, "\x01", the children's keys and "\x00".
        # Both marks sort below every character of a decoration name, and no
        # key is a proper prefix of another, so keys compare as strings in
        # the order of the nested (decoration, child keys) tuples.  A key has
        # about three chars per vertex of its subtree, so the keys of a
        # chain of n vertices hold O(n^2) chars in all.
        self._key = decoration + "\x01" + "".join(t._key for t in kids) + "\x00"
        self._hash = hash(self._key)
        self._size = 1 + sum(t._size for t in kids)
        # The children's orders times (run length)! for each run of equal
        # children: the i-th child of a run multiplies in i.
        aut = run = 1
        for i, t in enumerate(kids):
            run = run + 1 if i and t._key == kids[i - 1]._key else 1
            aut *= t._aut * run
        self._aut = aut

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
        children of (run length)! times the children's own orders,
        computed when the tree is built."""
        return self._aut

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DecoratedTree) and self._key == other._key

    def __lt__(self, other: "DecoratedTree") -> bool:
        return self._key < other._key

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        # Written from a stack of trees and text still to come, so that no
        # depth of tree can exhaust the recursion limit.
        out: list[str] = []
        stack: list = [self]
        while stack:
            t = stack.pop()
            if isinstance(t, str):
                out.append(t)
            elif t.children:
                out.append(t.decoration + "(")
                stack.append(")")
                for i, child in enumerate(reversed(t.children)):
                    stack.extend((",", child) if i else (child,))
            else:
                out.append(t.decoration)
        return "".join(out)

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

    # The vertices whose ")" is still to come, outermost first, each with
    # the children read so far: a loop in place of recursion, so that no
    # depth of tree can exhaust the recursion limit.
    stack: list[tuple[str, list[DecoratedTree]]] = []
    while True:
        name = take_name()
        if pos < len(text) and text[pos] == "(":
            pos += 1
            stack.append((name, []))
            continue
        tree = DecoratedTree(name)
        while stack:     # hand the finished tree to its parent
            stack[-1][1].append(tree)
            if pos < len(text) and text[pos] == ",":
                pos += 1
                break
            if pos >= len(text) or text[pos] != ")":
                raise ParseError(f"expected ')' at position {pos} in {text!r}")
            pos += 1
            name, kids = stack.pop()
            tree = DecoratedTree(name, kids)
        else:
            break
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
    out = [DecoratedTree(root, [pool[i] for i in kids])
           for root in alph for kids in _child_multisets(sizes, n - 1)]
    return tuple(sorted(out, key=lambda t: t._key))


def _child_multisets(sizes: list[int], budget: int):
    """Every multiset of trees from a pool in size order, given by their
    sizes, whose sizes total `budget`: a nondecreasing tuple of pool
    indices, so a run of equal children is a run of equal indices.
    Distinct multisets give distinct canonical trees, so no dedup pass is
    needed."""
    acc: list[int] = []

    def rec(start: int, remaining: int):
        if remaining == 0:
            yield tuple(acc)
            return
        for i in range(start, len(sizes)):
            if sizes[i] > remaining:
                break     # the pool is in size order
            acc.append(i)
            yield from rec(i, remaining - sizes[i])
            acc.pop()

    yield from rec(0, budget)


def fibre_statistics(max_n: int, alphabet: Iterable[str]) -> dict[MultiIndex, dict[int, int]]:
    """For every nonempty fibre of degree <= max_n over the alphabet, in
    (degree, entries) order, the number of its trees with each automorphism
    order, as {aut: count}.

    Brute force: every tree with at most max_n vertices is enumerated, as
    the multisets of its children (`_child_multisets`), but as a record
    (code, aut) in place of a `DecoratedTree`.  The code is the profile's
    in the layout of `profile_box`: the root key's unit code plus the
    children's codes.  aut is the children's auts times, for each run of
    equal children, (run length)!, as `DecoratedTree` computes it.
    """
    if max_n < 1:
        raise ValueError("vertex count must be >= 1")
    alph = _normalized_alphabet(alphabet)
    layout = PackedLayout(profile_box(alph, max_n))
    unit_code = {key: 1 << offset for key, offset in layout.offsets.items()}
    sizes: list[int] = []     # every smaller tree, in size order,
    pool: list[tuple[int, int]] = []     # as its record (code, aut)
    stats: dict[int, dict[int, int]] = {}
    for n in range(1, max_n + 1):
        records = []
        for root in alph:
            for kids in _child_multisets(sizes, n - 1):
                code = unit_code[(root, len(kids) - 1)]
                aut = run = 1
                prev = -1
                for i in kids:
                    run = run + 1 if i == prev else 1
                    prev = i
                    kid_code, kid_aut = pool[i]
                    code += kid_code
                    aut *= kid_aut * run
                tally = stats.setdefault(code, {})
                tally[aut] = tally.get(aut, 0) + 1
                if n < max_n:     # no larger tree takes it as a child
                    records.append((code, aut))
        pool += records
        sizes += [n] * len(records)
    fibres = [(layout.decode(code), tally) for code, tally in stats.items()]
    return dict(sorted(fibres, key=lambda kv: kv[0].sort_key()))


def fibres_of_degree(n: int, alphabet: Iterable[str]) -> Mapping[MultiIndex, tuple]:
    """Group all n-vertex trees by profile.  The keys are exactly the
    nonempty fibres of degree n over the alphabet.  The mapping is a
    read-only view of a shared cache."""
    return _fibres(n, _normalized_alphabet(alphabet))


@cache
def _fibres(n: int, alph: tuple[str, ...]) -> Mapping[MultiIndex, tuple]:
    # Profiles as ints in the layout of `profile_box(alph, n)`, which holds
    # every profile of degree n.  A tree's code is its root key's unit code
    # plus its children's codes, so the trees below n, the only possible
    # children, keep theirs, keyed by id: `_trees_exact`'s cache holds
    # every tree alive.
    layout = PackedLayout(profile_box(alph, n))
    unit_code = {key: 1 << offset for key, offset in layout.offsets.items()}
    codes: dict[int, int] = {}

    def code_of(t: DecoratedTree) -> int:
        code = unit_code[(t.decoration, len(t.children) - 1)]
        for child in t.children:
            code += codes[id(child)]
        return code

    for size in range(1, n):
        for t in _trees_exact(size, alph):
            codes[id(t)] = code_of(t)
    groups: dict[int, list] = {}
    for t in _trees_exact(n, alph):
        groups.setdefault(code_of(t), []).append(t)
    fibres = [(layout.decode(code), tuple(v)) for code, v in groups.items()]
    return MappingProxyType(dict(sorted(fibres, key=lambda kv: kv[0].sort_key())))


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
