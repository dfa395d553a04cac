"""The index-lowering derivation and its expansion coefficients.

``apply_lowering`` sends each monomial x^m to sum over fertile entries of
m_j^a * x^(m - e_j^a + e_{j-1}^a); entries at j = -1 are annihilated.  It
splices each target from the monomial's canonical entry tuple.
Iterating r times from x^k expands as sum over lowering multi-indices l of
order r of C[k,l] * x^(k - l + left_shift(l)), where the plain coefficients
C and the factorial-normalized D = C * target! each satisfy their own
one-step recursion.  Each route walks per-k levels of packed states
(`_levels`, level r from level r - 1, up to the last nonempty level, which
the largest drop bounds), one int per (target, l) in a `_LevelLayout`
built once per call, where a unit of l is one add and its reachability
one guard-bit test; no memo is kept across calls.  The layout of k also
holds the walk of every b <= k, from b's own start, so the refined
coproduct legs of all the remainders of k share one.  A state is two
`PackedLayout` codes, l below the target, through which every reader
decodes and sorts, and a reader of one order holds only that level:
`_level_rows` makes rows (l, target, value) one at a time, sorted by l,
with l and the target read off their codes by one `PackedLayout.reader`
per layout, as labels that `lower` joins into text
(`multiindex.entry_label`) with no `MultiIndex` or entry tuple built;
`c_coefficient_level` and `d_coefficient_level` make both multi-indices
(`_level_terms`), and the refined coproduct legs keep target codes
(`_level_targets`).
The generating function in an auxiliary variable u factorizes over the
entries of k; its (k, b) coefficient is a sum over transport arrays, for
reachable pairs the single monomial u^|l| / |l|! * C[k,l].  One integer
walk evaluates that sum (`transport_walk`), keyed by target code in a
packed column layout (`_LevelLayout.target_code` reads a state's target
there for the oracle): `coefficient_gf` decodes it over every target and
`transition_gf` runs it capped at one, once k and b agree in degree on
every decoration.  `transport_arrays` lists the arrays of a pair, the
reference that tests sum by hand.

Polynomials here are plain dicts monomial -> coefficient with no zero
values stored; u-polynomials are dicts degree -> Fraction.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator, Optional, TypeVar

from .multiindex import MultiIndex, PackedLayout, apply_shift

T = TypeVar("T")
Polynomial = dict  # MultiIndex -> int | Fraction
UPolynomial = dict  # int degree -> Fraction


def apply_lowering(poly: Polynomial) -> Polynomial:
    """One application of the lowering derivation to a polynomial.

    Each target is spliced from the monomial's canonical entry tuple: the
    entry (a, j) loses one count and (a, j - 1), which sorts just before
    it, gains one, so the tuple stays canonical with no sort."""
    out: Polynomial = {}
    for mono, coeff in poly.items():
        entries = mono.items()
        for i, ((a, j), c) in enumerate(entries):
            if j < 0:
                continue
            rest = ((((a, j), c - 1),) if c > 1 else ()) + entries[i + 1:]
            if i and entries[i - 1][0] == (a, j - 1):
                head = entries[:i - 1] + (((a, j - 1), entries[i - 1][1] + 1),)
            else:
                head = entries[:i] + (((a, j - 1), 1),)
            target = MultiIndex._raw(head + rest)
            out[target] = out.get(target, 0) + coeff * c
    return {m: c for m, c in out.items() if c != 0}


def lowering_power(k: MultiIndex, r: int) -> Polynomial:
    """The r-th lowering iterate of the single monomial x^k."""
    if r < 0:
        raise ValueError("order must be >= 0")
    poly: Polynomial = {k: 1}
    for _ in range(r):
        poly = apply_lowering(poly)
    return poly


def _column_layout(k: MultiIndex) -> PackedLayout:
    # The layout of the targets of k: |k| at every column (a, s),
    # -1 <= s <= max_index(a), where no count of a target passes |k|.
    top = {a: j for (a, j), _ in k.items()}     # the last j of each a is its largest
    return PackedLayout(MultiIndex._raw(tuple([
        ((a, s), k.degree()) for a, j in top.items() for s in range(-1, j + 1)])))


class _LevelLayout:
    """The packed states of the level walk of k, one int per (target, l):
    the code of l in `lows`, |k| at each extension key of k, in the low
    bits and, from bit `shift`, the code of the target k - l +
    left_shift(l) in `columns` (`_column_layout(k)`, that of
    `transport_walk`) with its guard bits set.  A unit of l at (a, j) adds
    `units[(a, j)]`: +1 to l at (a, j), -1 to the target at (a, j) and +1
    at (a, j - 1).  No count of a reachable l or its target passes |k|, so
    one unit more never carries out of a field of l, and it keeps l
    reachable exactly while every guard bit stays set.

    The walk of any b <= k runs in this layout too, from `begin(b)`: b's
    keys, its columns and every count are within k's, and a unit at a key
    where b's target has no count borrows that field's guard bit, so the
    states of b here are those of b's own layout."""

    __slots__ = ("k", "lows", "columns", "shift", "guard", "start", "units")

    def __init__(self, k: MultiIndex):
        self.k = k
        self.columns = columns = _column_layout(k)
        # A nonzero C forces l_j^a <= k_j^a + l_{j+1}^a, so the support of l,
        # its extension keys, is confined to 0 <= j <= max_index(a).
        self.lows = lows = PackedLayout(MultiIndex._raw(tuple([
            entry for entry in columns.box.items() if entry[0][1] >= 0])))
        self.shift = shift = lows.guard.bit_length()
        self.guard = columns.guard << shift
        self.start = self.begin(k)
        offsets = columns.offsets
        self.units = {(a, j): (1 << low) + (1 << shift + offsets[(a, j - 1)])
                      - (1 << shift + offsets[(a, j)]) for (a, j), low in lows.offsets.items()}

    def begin(self, b: MultiIndex) -> int:
        """The state of l = 0 and target b, for b <= k."""
        return (self.columns.code(b) << self.shift) + self.guard

    def state(self, lowering: MultiIndex) -> Optional[int]:
        """The state of l, or None when a key of l is off the extension keys
        or a target count k_j - l_j + l_{j+1} is negative: in one sum of many
        units a field can borrow its guard bit and a lower field carry it back."""
        k, state = self.k, self.start
        for (a, j), c in lowering.items():
            unit = self.units.get((a, j))
            if unit is None or k.get(a, j) - c + lowering.get(a, j + 1) < 0:
                return None
            state += c * unit
        return state

    def target_code(self, state: int) -> int:
        """The code of a state's target in `_column_layout(k)`."""
        return (state >> self.shift) - self.columns.guard


def _levels(b: MultiIndex, max_order: int, first: int, down: int, plus: int,
            layout: Optional[_LevelLayout] = None):
    """(layout, levels): `layout`, a `_LevelLayout` of some k >= b (b's own
    if None), and an iterator over levels 0..max_order of one route's
    recursion for b, dicts state -> value walked from `layout.begin(b)`,
    that holds one level at a time and ends at the last nonempty one, which
    the largest drop sum (j + 1) * b_j^a bounds; `_level` reads any order.

    Level r extends each state of level r - 1 by one unit at each key
    (a, j) and adds prior * step to the new state, the step being the target
    count at (a, j - down) after the unit plus `plus`: >= 1, so no value is 0.
    """
    if max_order < 0:
        raise ValueError("order must be >= 0")
    if layout is None:
        layout = _LevelLayout(b)
    guard, offsets, shift = layout.guard, layout.columns.offsets, layout.shift
    mask = (1 << layout.k.degree().bit_length()) - 1     # a target count, less its guard bit
    extensions = [(unit, shift + offsets[(a, j - down)])
                  for (a, j), unit in layout.units.items()]

    def walk():
        level = {layout.begin(b): first}
        for _ in range(max_order):
            yield level
            prev, level = level, {}
            for base, prior in prev.items():
                for unit, offset in extensions:
                    new = base + unit
                    if new & guard == guard:
                        value = prior * ((new >> offset & mask) + plus)
                        if new in level:
                            level[new] += value
                        else:
                            level[new] = value
            del prev     # a reader of one order holds only that level
            if not level:
                return     # every later level is empty too
        yield level
    return layout, walk()


def _level(walk: tuple, r: int) -> tuple[_LevelLayout, dict]:
    # The layout and level r of one route's (layout, levels), {} past the last.
    layout, levels = walk
    return layout, next((level for order, level in enumerate(levels) if order == r), {})


def _c_levels(b: MultiIndex, max_order: int, layout: Optional[_LevelLayout] = None):
    # C[b,0] = 1; the step at (a,j) is b_j^a - l_j^a + 1 + l_{j+1}^a, the
    # target count at (a,j) before the unit: the count after it, plus one.
    return _levels(b, max_order, 1, 0, 1, layout)


def _d_levels(b: MultiIndex, max_order: int, layout: Optional[_LevelLayout] = None):
    # D[b,0] = b!; the step at (a,j) is b_{j-1}^a - l_{j-1}^a + l_j^a, the
    # target count at (a,j-1) after the unit.
    return _levels(b, max_order, b.symmetry_factor(), 1, 0, layout)


def _as_multiindices(layout: _LevelLayout, levels,
                     max_order: int) -> list[dict[MultiIndex, int]]:
    decode = layout.lows.decode
    tables = [{decode(state): v for state, v in level.items()} for level in levels]
    return tables + [{} for _ in range(max_order + 1 - len(tables))]


def _level_rows(layout: _LevelLayout, level: dict, label: Callable[[tuple[str, int], int], T]
                ) -> Iterator[tuple[tuple[T, ...], tuple[T, ...], int]]:
    """The rows (l, target, value) of one level, made one at a time in the
    order of their l entry tuples (every l of a level has one degree), with
    l and the target as the tuples of label(key, c) over their entries in
    key order, each made by one `PackedLayout.reader` per layout: the one
    converter of levels to rows."""
    read_low, read_target = layout.lows.reader(label), layout.columns.reader(label)
    shift, guard = layout.shift, layout.columns.guard
    low_bits = (1 << shift) - 1
    for state in sorted(level, key=layout.lows.sort_key):
        yield read_low(state & low_bits), read_target((state >> shift) - guard), level[state]


def _level_targets(layout: _LevelLayout, level: dict) -> dict[int, int]:
    """One level as target code in `layout.columns` -> value, with l not
    read: each target is reached by one l."""
    shift, guard = layout.shift, layout.columns.guard
    return {(state >> shift) - guard: v for state, v in level.items()}


def _level_terms(layout: _LevelLayout, level: dict
                 ) -> list[tuple[MultiIndex, MultiIndex, int]]:
    """The rows (l, target, value) of one level (`_level_rows`)."""
    return [(MultiIndex._raw(low), MultiIndex._raw(target), v)
            for low, target, v in _level_rows(layout, level, lambda key, c: (key, c))]


def _lookup(k: MultiIndex, lowering: MultiIndex, levels_fn) -> int:
    # The level |l| of one route's table for k, read at l; 0 off the support.
    if not lowering.is_lowering():
        raise ValueError("not a lowering multi-index")
    layout, level = _level(levels_fn(k, lowering.degree()), lowering.degree())
    return level.get(layout.state(lowering), 0)     # no state is None


def c_coefficient_tables(k: MultiIndex, max_order: int) -> list[dict[MultiIndex, int]]:
    """Tables of nonzero C[k,l] for |l| = 0..max_order, by the one-step
    recursion C[k,l] = sum over entries (a,j) of l of
    C[k, l - e_j^a] * (k_j^a - l_j^a + 1 + l_{j+1}^a)."""
    return _as_multiindices(*_c_levels(k, max_order), max_order)


def d_coefficient_tables(k: MultiIndex, max_order: int) -> list[dict[MultiIndex, int]]:
    """Tables of nonzero D[k,l] for |l| = 0..max_order, by the D route's own
    recursion: D[k,0] = k!, and D[k,l] = sum over entries (a,j) of l of
    D[k, l - e_j^a] * (k_{j-1}^a - l_{j-1}^a + l_j^a)."""
    return _as_multiindices(*_d_levels(k, max_order), max_order)


def c_coefficient_level(k: MultiIndex, r: int) -> list[tuple[MultiIndex, MultiIndex, int]]:
    """The rows (l, target, C[k,l]) of the C table of k at order r, sorted
    by l, with target = k - l + left_shift(l); only level r is converted."""
    return _level_terms(*_level(_c_levels(k, r), r))


def d_coefficient_level(k: MultiIndex, r: int) -> list[tuple[MultiIndex, MultiIndex, int]]:
    """The rows (l, target, D[k,l]) of the D table of k at order r, sorted
    by l, with target = k - l + left_shift(l); only level r is converted."""
    return _level_terms(*_level(_d_levels(k, r), r))


def c_coefficient(k: MultiIndex, lowering: MultiIndex) -> int:
    """Single C[k,l], read from the C table of k; 0 off the valid range.

    Each call builds the C table of k up to order |l|; read many entries
    of one k from `c_coefficient_tables`."""
    return _lookup(k, lowering, _c_levels)


def d_coefficient(k: MultiIndex, lowering: MultiIndex) -> int:
    """D[k,l] = C[k,l] * (k - l + left_shift(l))!, or 0 when unreachable.

    Each call builds the C table of k up to order |l|; read many entries
    of one k from `c_coefficient_tables`."""
    target = apply_shift(k, lowering)
    if target is None:
        return 0
    return c_coefficient(k, lowering) * target.symmetry_factor()


def d_coefficient_recursive(k: MultiIndex, lowering: MultiIndex) -> int:
    """Single D[k,l], read from the D table of k, which its own recursion
    builds independently of the C route; 0 off the valid range.

    Each call builds the D table of k up to order |l|; read many entries
    of one k from `d_coefficient_tables`."""
    return _lookup(k, lowering, _d_levels)


def coefficient_gf(k: MultiIndex, max_order: Optional[int] = None
                   ) -> dict[MultiIndex, UPolynomial]:
    """Exponential generating function of the lowering iterates of x^k,
    collected by target monomial: the expansion of the factorized product

        prod over entries (a,j) of (sum_{m=0}^{j+1} u^m/m! x_{j-m}^a)^(k_j^a)

    as target -> u-polynomial, leaving out the targets of u-degree above
    `max_order` when it is given.

    The multinomial expansion of the product is a sum over the transport
    arrays n[a, j, s] of k, -1 <= s <= j (see `transport_arrays`): an array
    reaches b, b_s^a = sum_j n[a,j,s], at u-degree its drop
    r = sum (j - s) * n[a,j,s] = weight(k) - weight(b), with weight
    k! / prod (n! * (j - s)!^n).  `transport_walk` totals r! times the
    coefficient of u^r at every b, decoded here.
    """
    layout, totals = transport_walk(k, max_order)
    return dict(walk_term(k, layout, code, total) for code, total in totals.items())


def walk_term(k: MultiIndex, layout: PackedLayout, code: int, total: int
              ) -> tuple[MultiIndex, UPolynomial]:
    """The target b of one code of `transport_walk(k)` and its u-polynomial
    {r: total / r!}, with r = weight(k) - weight(b)."""
    target = layout.decode(code)
    r = k.weight() - target.weight()
    return target, {r: Fraction(total, math.factorial(r))}


def transport_walk(k: MultiIndex, max_order: Optional[int] = None
                   ) -> tuple[PackedLayout, dict[int, int]]:
    """One walk over the transport arrays of k, as (layout, totals): totals
    maps the code in `layout` (|k| at every column (a, s), -1 <= s <=
    max_index(a)) of each target b of drop r <= `max_order` (any if None)
    to the sum over its arrays of r! * k! / prod (n! * (j - s)!^n), which
    is C[k, l] for the l that reaches b.  `transition_gf` runs the same
    walk (`_walk`) capped at b."""
    if max_order is not None and max_order < 0:
        raise ValueError("order must be >= 0")
    layout = _column_layout(k)
    limit = sum((j + 1) * c for (_, j), c in k.items()) if max_order is None else max_order
    return layout, _walk(k, layout, layout.box, limit)


def _walk(k: MultiIndex, layout: PackedLayout, cap: MultiIndex, limit: int) -> dict[int, int]:
    """The totals of the arrays of k with columns <= `cap` and drop <= `limit`,
    row by row over the entries of k and, within a row, cell by cell over s
    on a stack.  A state's room is code(cap) less its units, guard bits set:
    an overfull column clears one.  At a row end the states merge by room,
    as the rows done and the columns fix the drop d, each holding
    d! * prod (c! / prod (n! * (j - s)!^n)) over the rows done; a row from
    d to d' multiplies it by the integer (d'! / d!) * c! / prod (...)."""
    guard, fact = layout.guard, math.factorial
    top = layout.code(cap) + guard
    states = {top: (0, 1)}     # room -> (drop, value)
    for (a, j), c in k.items():
        cells = [1 << layout.offsets[(a, s)] for s in range(-1, j + 1)]
        merged: dict[int, tuple[int, int]] = {}
        for room, (drop, value) in states.items():
            # Column s, the units left for columns s..j, the drop, the
            # denominator so far and the room.
            stack = [(-1, c, drop, 1, room)]
            while stack:
                s, left, d, denom, rest = stack.pop()
                s = max(s, j - (limit - d))     # a unit further left would pass the limit
                if s == j or not left:     # the diagonal cell takes the rest, at no drop
                    rest -= left * cells[-1]
                    if rest & guard == guard:
                        v = value * (fact(d) // fact(drop) * fact(c) // (denom * fact(left)))
                        merged[rest] = (d, merged[rest][1] + v if rest in merged else v)
                    continue
                gap, cell = j - s, cells[s + 1]
                stack.append((s + 1, left, d, denom, rest))
                for n in range(1, min(left, (limit - d) // gap) + 1):
                    rest -= cell
                    if rest & guard != guard:
                        break
                    denom *= n * fact(gap)
                    stack.append((s + 1, left - n, d + gap * n, denom, rest))
        states = merged
    return {top - room: value for room, (_, value) in states.items()}


def transport_arrays(k: MultiIndex, b: MultiIndex) -> list[dict]:
    """All nonnegative arrays n[a, j, s] with -1 <= s <= j, row sums
    sum_s n[a,j,s] = k_j^a and column sums sum_j n[a,j,s] = b_s^a,
    enumerated decoration by decoration in lexicographic cell order."""
    decs = sorted(set(k.decorations()) | set(b.decorations()))
    per_dec: list[list[dict]] = []
    for a in decs:
        rows = [(j, c) for (d, j), c in k.items() if d == a]
        cols = [(s, c) for (d, s), c in b.items() if d == a]
        if sum(c for _, c in rows) != sum(c for _, c in cols):
            return []
        solutions = _per_decoration_arrays(rows, cols)
        if not solutions:
            return []
        per_dec.append([{(a, j, s): v for (j, s), v in sol.items()}
                        for sol in solutions])
    out = []
    for combo in itertools.product(*per_dec):
        merged: dict = {}
        for part in combo:
            merged.update(part)
        out.append(merged)
    return out


def _per_decoration_arrays(rows: list[tuple[int, int]],
                           cols: list[tuple[int, int]]) -> list[dict]:
    # Row by row, and within a row column by column over s <= j, each cell
    # takes 0, 1, ... units in turn, on a stack in place of recursion, so
    # that the arrays come in lexicographic cell order at any number of
    # cells.  A state: row ri, its ci-th allowed column, the units of row ri
    # left, the column sums left and the cells filled so far.
    allowed = [[i for i, (s, _) in enumerate(cols) if s <= j] for j, _ in rows]
    sols: list[dict] = []
    stack = [(0, 0, rows[0][1] if rows else 0, tuple(c for _, c in cols), ())]
    while stack:
        ri, ci, remaining, rem, acc = stack.pop()
        if ri == len(rows):
            if not any(rem):
                sols.append(dict(acc))
            continue
        if ci == len(allowed[ri]):
            if remaining == 0:
                rest = rows[ri + 1][1] if ri + 1 < len(rows) else 0
                stack.append((ri + 1, 0, rest, rem, acc))
            continue
        col = allowed[ri][ci]
        cell = (rows[ri][0], cols[col][0])
        for c in range(min(remaining, rem[col]), 0, -1):
            left = rem[:col] + (rem[col] - c,) + rem[col + 1:]
            stack.append((ri, ci + 1, remaining - c, left, acc + ((cell, c),)))
        stack.append((ri, ci + 1, remaining, rem, acc))
    return sols


def _decoration_degrees(m: MultiIndex) -> dict[str, int]:
    # The count of m per decoration; the lowering flow keeps each one.
    out: dict[str, int] = {}
    for (a, _), c in m.items():
        out[a] = out.get(a, 0) + c
    return out


def transition_gf(k: MultiIndex, b: MultiIndex) -> UPolynomial:
    """The (k, b) coefficient of the lowering generating function: the walk
    of `transport_walk` capped at b, at the drop weight(k) - weight(b), read
    at b's code; {} when no array exists, with no walk when k and b differ
    in degree on some decoration."""
    r = k.weight() - b.weight()
    if r < 0 or _decoration_degrees(k) != _decoration_degrees(b):
        return {}
    layout = _column_layout(k)
    if any(key not in layout.offsets for key, _ in b.items()):
        return {}
    code, totals = layout.code(b), _walk(k, layout, b, r)
    return walk_term(k, layout, code, totals[code])[1] if code in totals else {}
