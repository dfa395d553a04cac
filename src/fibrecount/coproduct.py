"""Coproduct expansion of a profile monomial into forest (x) monomial terms.

A profile k splits as k = k1 + ... + kr + b over multisets of weight -1
parts; each split contributes the prefactor k! / (forest symmetry * b!)
times the r-th lowering iterate of x^b on the right leg.  The right leg can
be expanded three ways that must agree term by term: iterating the lowering
derivation directly, the C-coefficient expansion, or the D-coefficient
expansion divided by the target factorial; the two refined forms read the
targets of level r of the C or D walk of b (`lowering._level_targets`),
walked from b's start in the one `lowering._LevelLayout` of k per call.
The splits are walked on codes in the packed layout of the box of k
(`multiindex.PackedLayout`), one subtraction and one mask test per part,
with b! read off the remainder's code, and come out in print order, so
`coproduct_stream` yields the expansion one forest at a time.  b fixes the
order, weight(b) + 1, and a forest fixes b, so each (forest, monomial)
term is one product, and the splits that share b share its leg: keyed by
b's code, b decoded once, its targets coded in k's column layout, sorted
there and read once per call, as text by one reader for `coproduct`'s
command and as multi-indices for `coproduct()`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .multiindex import MultiIndex, PackedLayout, entry_label, iter_profile_parts
from .lowering import (_c_levels, _d_levels, _level, _level_targets, _LevelLayout,
                       lowering_power)

Forest = tuple  # ((MultiIndex, multiplicity), ...) sorted by sort_key

FOREST_SIGMA_MODES = ("mult-times-sigma", "sigma-only", "mult-only")
DECOMPOSITION_MODES = ("multiset", "ordered")
FORMS = ("raw-dbar", "refined-C", "refined-D")


def forest_symmetry(forest: Forest, mode: str = "mult-times-sigma") -> int:
    """Symmetry factor of a forest of profile monomials.

    mult-times-sigma: product of multiplicity factorials times each factor's
    own symmetry factor (counted with multiplicity); sigma-only and
    mult-only keep just one of the two ingredients.
    """
    if mode not in FOREST_SIGMA_MODES:
        raise ValueError(f"unknown forest sigma mode {mode!r}")
    out = 1
    for part, mult in forest:
        if mode in ("mult-times-sigma", "mult-only"):
            out *= math.factorial(mult)
        if mode in ("mult-times-sigma", "sigma-only"):
            out *= part.symmetry_factor() ** mult
    return out


@dataclass(frozen=True)
class RawTerm:
    forest: Forest
    remainder: MultiIndex
    order: int
    prefactor: Fraction


def _forest_splits(k: MultiIndex, layout: PackedLayout) -> Iterator[tuple[Forest, int]]:
    """All multisets of weight -1 parts fitting componentwise inside k,
    with the code of the leftover remainder in `layout`, k's packed layout
    (`PackedLayout(k)`); includes the empty forest.

    The parts are tried in sort order, each one's multiplicities upward and
    a forest before its extensions, so the forests come sorted by their
    (part sort key, multiplicity) tuples: the print order.  The walk runs on
    codes, so a part's inclusion in what is left, with the subtraction it
    guards, is one subtraction and one mask test; no remainder is decoded.
    """
    cands = iter_profile_parts(k)
    guard = layout.guard
    codes = [layout.code(part) for part in cands]
    acc: list[tuple[MultiIndex, int]] = []

    def rec(start: int, left: int):
        # left = guard + code of the remainder; every guard bit stays set
        # exactly while each subtraction stays in the box.
        yield tuple(acc), left - guard
        for i in range(start, len(cands)):
            part, code = cands[i], codes[i]
            mult = 0
            left_i = left - code
            while left_i & guard == guard:
                mult += 1
                acc.append((part, mult))
                yield from rec(i + 1, left_i)
                acc.pop()
                left_i -= code

    yield from rec(0, guard + layout.code(k))


def _splits(k: MultiIndex, decomposition: str, forest_sigma: str):
    """(layout, splits): k's packed layout and the forest splits of k in
    print order, as (forest, remainder code, order, num, den) with the
    prefactor num / den in lowest terms and b! read off the code.  The
    arguments are checked here, before the first split is made."""
    if k.weight() != -1:
        raise ValueError("weight must be -1")
    if decomposition not in DECOMPOSITION_MODES:
        raise ValueError(f"unknown decomposition mode {decomposition!r}")
    forest_symmetry((), forest_sigma)
    k_fact = k.symmetry_factor()
    layout = PackedLayout(k)

    def walk():
        for forest, code in _forest_splits(k, layout):
            order = sum(mult for _, mult in forest)
            num = k_fact
            if decomposition == "ordered":     # times the orderings of the parts
                num = num * math.factorial(order) // math.prod(
                    math.factorial(mult) for _, mult in forest)
            den = forest_symmetry(forest, forest_sigma) * layout.symmetry_factor(code)
            g = math.gcd(num, den)
            yield forest, code, order, num // g, den // g
    return layout, walk()


def coproduct_raw(k: MultiIndex, decomposition: str = "multiset",
                  forest_sigma: str = "mult-times-sigma") -> list[RawTerm]:
    """Forest splits with their prefactors, before right-leg expansion,
    in print order."""
    layout, splits = _splits(k, decomposition, forest_sigma)
    return [RawTerm(forest, layout.decode(code), order, Fraction(num, den))
            for forest, code, order, num, den in splits]


def _right_leg(b: MultiIndex, r: int, form: str, layout: _LevelLayout
               ) -> dict[int, int | Fraction]:
    """The r-th lowering iterate of x^b by one form, as target code in
    `layout.columns` -> coefficient, for b <= `layout.k`: raw-dbar iterates
    on multi-indices and codes the targets; the refined forms walk b's C or
    D levels in `layout` from b's start."""
    if form == "raw-dbar":
        code = layout.columns.code
        return {code(target): c for target, c in lowering_power(b, r).items()}
    if form == "refined-C":
        return _level_targets(*_level(_c_levels(b, r, layout), r))
    if form == "refined-D":
        factor = layout.columns.symmetry_factor
        return {code: Fraction(d, factor(code))
                for code, d in _level_targets(*_level(_d_levels(b, r, layout), r)).items()}
    raise ValueError(f"unknown coproduct form {form!r}")


def coproduct_stream(k: MultiIndex, form: str = "raw-dbar",
                     decomposition: str = "multiset",
                     forest_sigma: str = "mult-times-sigma", text: bool = False):
    """The tensor expansion one forest at a time, in print order: per split,
    (forest, num, den, leg) with the prefactor num / den in lowest terms and
    the remainder's right leg as rows (monomial, num, den) sorted by
    monomial; a term's coefficient is the product of the two ratios.  The
    monomial is the text if `text`, read by one reader per call, else the
    `MultiIndex`.  The arguments are checked before the first split is made.

    Legs are keyed by remainder code: each distinct remainder is decoded
    once, and its leg, coded in the column layout of one `_LevelLayout(k)`
    per call, is sorted and converted once."""
    if form not in FORMS:
        raise ValueError(f"unknown coproduct form {form!r}")
    layout, splits = _splits(k, decomposition, forest_sigma)
    levels = _LevelLayout(k)
    columns = levels.columns
    if text:
        read = columns.reader(entry_label)
        monomial = lambda code: ",".join(read(code)) or "0"
    else:
        monomial = columns.decode
    legs: dict[int, list] = {}

    def walk():
        for forest, code, order, num, den in splits:
            leg = legs.get(code)
            if leg is None:
                right = _right_leg(layout.decode(code), order, form, levels)
                leg = legs[code] = [(monomial(t), right[t].numerator, right[t].denominator)
                                    for t in sorted(right, key=columns.sort_key)]
            yield forest, num, den, leg
    return walk()


def coproduct(k: MultiIndex, form: str = "raw-dbar",
              decomposition: str = "multiset",
              forest_sigma: str = "mult-times-sigma",
              ) -> dict[tuple[Forest, MultiIndex], Fraction]:
    """Full tensor expansion: (forest, right monomial) -> coefficient, read
    off `coproduct_stream`.

    The three forms expand the right leg by different routes and must
    produce identical results.  A forest fixes its remainder, so each key
    receives one term, and no coefficient is 0.  Every coefficient is a
    Fraction.
    """
    return {(forest, mono): Fraction(num * n, den * d)
            for forest, num, den, leg in coproduct_stream(k, form, decomposition, forest_sigma)
            for mono, n, d in leg}
