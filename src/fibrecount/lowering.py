"""The index-lowering derivation and its expansion coefficients.

``apply_lowering`` sends each monomial x^m to sum over fertile entries of
m_j^a * x^(m - e_j^a + e_{j-1}^a); entries at j = -1 are annihilated.  It
splices each target from the monomial's canonical entry tuple.
Iterating r times from x^k expands as sum over lowering multi-indices l of
order r of C[k,l] * x^(k - l + left_shift(l)), where the plain coefficients
C and the factorial-normalized D = C * target! each satisfy their own
one-step recursion.  Each route keeps per-k level tables on plain tuples
of counts over the extension keys of k (`_levels`, level r read from
level r - 1, up to the last nonempty level, which the largest drop
bounds), builds a `MultiIndex` only at the output, and keeps no memo
across calls: `c_coefficient` and `d_coefficient_recursive` each read
their own route's table for k.  One converter, `_level_rows`, turns only
the level asked for into rows (l, target, value) of canonical entry
tuples, the target read off the tuple of l with no `apply_shift`.
`lower` prints those tuples (`multiindex.entries_text`) with no
`MultiIndex` built; `c_coefficient_level` and `d_coefficient_level` make
both into multi-indices (`_level_terms`), and the refined coproduct legs,
which have no use for l, only the target (`_level_targets`).
The generating function in an auxiliary variable u factorizes over the
entries of k, and its (k, b) coefficient is a sum over transport arrays;
for reachable pairs it collapses to the single monomial
u^|l| / |l|! * C[k,l].  `transport_walk` walks the transport arrays of k
once, in integers, for every target, keyed by its code in a packed column
layout; `coefficient_gf` decodes that walk, and `transition_gf`
enumerates the arrays of one pair.  The oracle compares the routes in the
walk's codes (`target_steps` gives the code of the target of any l).

Polynomials here are plain dicts monomial -> coefficient with no zero
values stored; u-polynomials are dicts degree -> Fraction.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

from .multiindex import MultiIndex, PackedLayout, apply_shift

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


def _extension_keys(k: MultiIndex) -> list[tuple[str, int]]:
    # A nonzero C forces l_j^a <= k_j^a + l_{j+1}^a, so the support of l is
    # confined to 0 <= j <= (largest index of k for that decoration).
    keys = []
    for a in k.decorations():
        top = k.max_index(a)
        keys.extend((a, j) for j in range(0, top + 1))
    return keys


def _levels(k: MultiIndex, max_order: int, start: int, step) -> list[dict]:
    """Levels 0..max_order of one route's recursion on dense lowerings:
    tuples of counts over `_extension_keys(k)`, mapped to nonzero values.
    The list ends at the last nonempty level, which is at most the largest
    drop sum (j + 1) * k_j^a, so an order past it costs nothing; `_level`
    reads any order.

    Level r extends each entry of level r - 1 by one unit at key i and adds
    prior * step(l, i, t) to the new l, where t = k_i - l_i + l_{up(i)} is
    the count of the new target at key i and up(i) the key one index
    higher.  Extending a reachable l can only make that count negative, so
    t < 0 stands for the whole reachability check.
    """
    if max_order < 0:
        raise ValueError("order must be >= 0")
    keys = _extension_keys(k)
    kv = [k.get(*key) for key in keys]
    up = [i + 1 if i + 1 < len(keys) and keys[i + 1][0] == a else None
          for i, (a, _) in enumerate(keys)]
    levels = [{(0,) * len(keys): start}]
    for _ in range(max_order):
        level: dict = {}
        for base, prior in levels[-1].items():
            for i, u in enumerate(up):
                li = base[i] + 1
                t = kv[i] - li + (0 if u is None else base[u])
                if t < 0:
                    continue
                low = base[:i] + (li,) + base[i + 1:]
                level[low] = level.get(low, 0) + prior * step(low, i, t)
        level = {low: v for low, v in level.items() if v}
        if not level:
            break     # every later level is empty too
        levels.append(level)
    return levels


def _level(levels: list[dict], r: int) -> dict:
    # Order r of a `_levels` list, which ends at its last nonempty level.
    return levels[r] if r < len(levels) else {}


def _c_levels(k: MultiIndex, max_order: int) -> list[dict]:
    # C[k,0] = 1; the step at (a,j) is k_j^a - l_j^a + 1 + l_{j+1}^a = t + 1.
    return _levels(k, max_order, 1, lambda low, i, t: t + 1)


def _d_levels(k: MultiIndex, max_order: int) -> list[dict]:
    # D[k,0] = k!; the step at (a,j) is k_{j-1}^a - l_{j-1}^a + l_j^a.
    keys = _extension_keys(k)
    kv = [k.get(a, j - 1) for a, j in keys]

    def step(low, i, t):
        return kv[i] + low[i] - (low[i - 1] if keys[i][1] else 0)
    return _levels(k, max_order, k.symmetry_factor(), step)


def _as_lowering(keys, low: tuple) -> MultiIndex:
    # The multi-index of a dense lowering, counts over `keys` in order.
    return MultiIndex._raw(tuple((key, c) for key, c in zip(keys, low) if c))


def _as_multiindices(k: MultiIndex, levels: list[dict],
                     max_order: int) -> list[dict[MultiIndex, int]]:
    keys = _extension_keys(k)
    return [{_as_lowering(keys, low): v for low, v in _level(levels, r).items()}
            for r in range(max_order + 1)]


def _level_rows(k: MultiIndex, level: dict) -> list[tuple[tuple, tuple, int]]:
    """The rows (l, target, value) of one dense level of k, in the level's
    order, with l and the target as canonical entry tuples ((a, j), c): the
    one converter of dense levels to rows.  The target k - l + left_shift(l)
    is read off the tuple of l: target_j^a = k_j^a - l_j^a + l_{j+1}^a for
    j = -1..max_index(a), where l has no entry at j = -1."""
    keys = _extension_keys(k)
    index = {key: i for i, key in enumerate(keys)}
    pad = len(keys)     # the index of a zero appended to each tuple
    spec = [((a, j), k.get(a, j), index.get((a, j), pad), index.get((a, j + 1), pad))
            for a in k.decorations() for j in range(-1, k.max_index(a) + 1)]
    rows = []
    for low, v in level.items():
        ext = low + (0,)
        rows.append((tuple([(key, c) for key, c in zip(keys, low) if c]),
                     tuple([(key, c) for key, kc, own, up in spec
                            if (c := kc - ext[own] + ext[up])]),
                     v))
    return rows


def _level_targets(k: MultiIndex, level: dict) -> list[tuple[MultiIndex, int]]:
    """The rows (target, value) of one dense level of k (`_level_rows`),
    with no `MultiIndex` built for l."""
    return [(MultiIndex._raw(target), v) for _, target, v in _level_rows(k, level)]


def _level_terms(k: MultiIndex, level: dict) -> list[tuple[MultiIndex, MultiIndex, int]]:
    """The rows (l, target, value) of one dense level of k (`_level_rows`)."""
    return [(MultiIndex._raw(low), MultiIndex._raw(target), v)
            for low, target, v in _level_rows(k, level)]


def _lookup(k: MultiIndex, lowering: MultiIndex, levels_fn) -> int:
    # The level |l| of one route's table for k, read at l; 0 off the support.
    if not lowering.is_lowering():
        raise ValueError("not a lowering multi-index")
    keys = _extension_keys(k)
    if any(key not in keys for key, _ in lowering.items()):
        return 0
    low = tuple(lowering.get(*key) for key in keys)
    r = lowering.degree()
    return _level(levels_fn(k, r), r).get(low, 0)


def c_coefficient_tables(k: MultiIndex, max_order: int) -> list[dict[MultiIndex, int]]:
    """Tables of nonzero C[k,l] for |l| = 0..max_order, by the one-step
    recursion C[k,l] = sum over entries (a,j) of l of
    C[k, l - e_j^a] * (k_j^a - l_j^a + 1 + l_{j+1}^a)."""
    return _as_multiindices(k, _c_levels(k, max_order), max_order)


def d_coefficient_tables(k: MultiIndex, max_order: int) -> list[dict[MultiIndex, int]]:
    """Tables of nonzero D[k,l] for |l| = 0..max_order, by the D route's own
    recursion: D[k,0] = k!, and D[k,l] = sum over entries (a,j) of l of
    D[k, l - e_j^a] * (k_{j-1}^a - l_{j-1}^a + l_j^a)."""
    return _as_multiindices(k, _d_levels(k, max_order), max_order)


def c_coefficient_level(k: MultiIndex, r: int) -> list[tuple[MultiIndex, MultiIndex, int]]:
    """The rows (l, target, C[k,l]) of the C table of k at order r, with
    target = k - l + left_shift(l); only level r is converted."""
    return _level_terms(k, _level(_c_levels(k, r), r))


def d_coefficient_level(k: MultiIndex, r: int) -> list[tuple[MultiIndex, MultiIndex, int]]:
    """The rows (l, target, D[k,l]) of the D route's table of k at order r,
    with target = k - l + left_shift(l); only level r is converted."""
    return _level_terms(k, _level(_d_levels(k, r), r))


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
    arrays n[a, j, s] of k, -1 <= s <= j (see `transport_arrays`), so one
    walk over the arrays of k (`transport_walk`) yields every target b,
    b_s^a = sum_j n[a,j,s].  The u-degree of an array is its drop
    r = sum (j - s) * n[a,j,s] = weight(k) - weight(b), one per target,
    and its weight is k! / prod (n! * (j - s)!^n); the walk's integer total
    at b is r! times the coefficient of u^r, decoded here.
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
    """One walk over the transport arrays of k, as (layout, totals): each
    target b of drop r <= `max_order` (any drop if None) is its code in
    `layout`, the column layout with |k| at every key (a, s),
    -1 <= s <= max_index(a), and totals[code] is the integer
    sum over the arrays of b of r! * k! / prod (n! * (j - s)!^n), which is
    C[k, l] for the l that reaches b.

    The walk goes row by row over the entries of k and, within a row, cell
    by cell over s, on the column counts packed in one int, with a stack
    in place of recursion, and cuts a branch once its drop passes
    `max_order`.
    """
    if max_order is not None and max_order < 0:
        raise ValueError("order must be >= 0")
    # The column counts are a code in the layout of the column box, where no
    # count passes |k|; row (a, j) has a cell, a unit code, per column s <= j.
    columns = [(a, s) for a in k.decorations() for s in range(-1, k.max_index(a) + 1)]
    layout = PackedLayout(MultiIndex._raw(tuple((key, k.degree()) for key in columns)))
    rows = [([1 << layout.offsets[(a, s)] for s in range(-1, j + 1)], j, c)
            for (a, j), c in k.items()]
    kfact = k.symmetry_factor()
    limit = sum((j + 1) * c for (_, j), c in k.items()) if max_order is None else max_order
    totals: dict[int, int] = {}
    # A state: row i, column s, the units of row i left for columns s..j,
    # the drop, the denominator so far and the column counts.
    stack = [(0, -1, rows[0][2] if rows else 0, 0, 1, 0)]
    while stack:
        i, s, left, drop, denom, cols = stack.pop()
        if i == len(rows):
            totals[cols] = totals.get(cols, 0) + math.factorial(drop) * kfact // denom
            continue
        cells, j, _ = rows[i]
        s = max(s, j - (limit - drop))     # a unit further left would pass the limit
        if s == j or not left:     # the diagonal cell takes the rest, at no drop
            rest = rows[i + 1][2] if i + 1 < len(rows) else 0
            stack.append((i + 1, -1, rest, drop, denom * math.factorial(left),
                          cols + left * cells[-1]))
            continue
        gap = j - s
        cell = cells[s + 1]
        step = math.factorial(gap)
        stack.append((i, s + 1, left, drop, denom, cols))
        for n in range(1, min(left, (limit - drop) // gap) + 1):
            stack.append((i, s + 1, left - n, drop + gap * n,
                          denom * math.factorial(n) * step ** n, cols + n * cell))
    return layout, totals


def target_steps(k: MultiIndex, layout: PackedLayout) -> dict[tuple[str, int], int]:
    """For each extension key (a, j) of k, in `_extension_keys` order, the
    change of a target's code in the layout of `transport_walk(k)` per unit
    of l at (a, j), which moves one count from (a, j) down to (a, j - 1):
    the target k - l + left_shift(l) of a reachable l has the code
    layout.code(k) + sum over the keys of l_key * steps[key]."""
    offsets = layout.offsets
    return {(a, j): (1 << offsets[(a, j - 1)]) - (1 << offsets[(a, j)])
            for a, j in _extension_keys(k)}


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


def transition_gf(k: MultiIndex, b: MultiIndex) -> UPolynomial:
    """The (k, b) coefficient of the lowering generating function as a sum
    over transport arrays; {} when no array exists."""
    kfact = k.symmetry_factor()
    out: UPolynomial = {}
    for array in transport_arrays(k, b):
        degree = 0
        denom = 1
        for (_, j, s), v in array.items():
            degree += (j - s) * v
            denom *= math.factorial(v) * math.factorial(j - s) ** v
        out[degree] = out.get(degree, 0) + Fraction(kfact, denom)
    return {d: c for d, c in out.items() if c != 0}
