"""Coproduct expansion of a profile monomial into forest (x) monomial terms.

A profile k splits as k = k1 + ... + kr + b over multisets of weight -1
parts; each split contributes the prefactor k! / (forest symmetry * b!)
times the r-th lowering iterate of x^b on the right leg.  The right leg can
be expanded three ways that must agree term by term: iterating the lowering
derivation directly, the C-coefficient expansion, or the D-coefficient
expansion divided by the target factorial; the two refined forms read
one level of the C or D table of b as (target, value) rows
(`lowering._level_targets`: the rows of `c_coefficient_level` and
`d_coefficient_level` with no `MultiIndex` built for l).  Splits that
share a remainder b share its right leg, which `coproduct` expands once
per call; b fixes the order, weight(b) + 1, and a forest fixes b, so
each (forest, monomial) term is one product, with no sum.  The splits
are walked on codes in the one packed layout (`multiindex.PackedLayout`)
of the box of k, so testing and removing a part costs one subtraction
and one mask test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .multiindex import MultiIndex, PackedLayout, iter_profile_parts
from .lowering import _c_levels, _d_levels, _level, _level_targets, lowering_power

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


def _forest_splits(k: MultiIndex) -> Iterator[tuple[Forest, MultiIndex]]:
    """All multisets of weight -1 parts fitting componentwise inside k,
    with the leftover remainder; includes the empty forest.

    The walk runs on codes in k's packed layout (`PackedLayout`), so a
    part's inclusion in what is left, with the subtraction it guards, is
    one subtraction and one mask test; one remainder is decoded per split.
    """
    cands = iter_profile_parts(k)
    layout = PackedLayout(k)
    guard = layout.guard
    codes = [layout.code(part) for part in cands]
    acc: list[tuple[MultiIndex, int]] = []

    def rec(start: int, left: int):
        # left = guard + code of the remainder; every guard bit stays set
        # exactly while each subtraction stays in the box.
        yield tuple(acc), layout.decode(left - guard)
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


def coproduct_raw(k: MultiIndex, decomposition: str = "multiset",
                  forest_sigma: str = "mult-times-sigma") -> list[RawTerm]:
    """Forest splits with their prefactors, before right-leg expansion."""
    if k.weight() != -1:
        raise ValueError("weight must be -1")
    if decomposition not in DECOMPOSITION_MODES:
        raise ValueError(f"unknown decomposition mode {decomposition!r}")
    k_fact = k.symmetry_factor()
    out = []
    for forest, remainder in _forest_splits(k):
        order = sum(mult for _, mult in forest)
        pre = Fraction(k_fact, forest_symmetry(forest, forest_sigma)
                       * remainder.symmetry_factor())
        if decomposition == "ordered":
            scale = math.factorial(order)
            for _, mult in forest:
                scale //= math.factorial(mult)
            pre *= scale
        out.append(RawTerm(forest=forest, remainder=remainder,
                           order=order, prefactor=pre))
    out.sort(key=lambda t: (tuple(p.sort_key() + (m,) for p, m in t.forest),
                            t.remainder.sort_key()))
    return out


def _right_leg(b: MultiIndex, r: int, form: str) -> dict[MultiIndex, int | Fraction]:
    if form == "raw-dbar":
        return lowering_power(b, r)
    if form == "refined-C":
        return dict(_level_targets(b, _level(_c_levels(b, r), r)))
    if form == "refined-D":
        return {t: Fraction(d, t.symmetry_factor())
                for t, d in _level_targets(b, _level(_d_levels(b, r), r))}
    raise ValueError(f"unknown coproduct form {form!r}")


def coproduct(k: MultiIndex, form: str = "raw-dbar",
              decomposition: str = "multiset",
              forest_sigma: str = "mult-times-sigma",
              ) -> dict[tuple[Forest, MultiIndex], Fraction]:
    """Full tensor expansion: (forest, right monomial) -> coefficient.

    The three forms expand the right leg by different routes and must
    produce identical results.  Each distinct remainder b is expanded once
    per call; it fixes the order, weight(b) + 1.  A forest fixes its
    remainder, so each key receives one term, and no coefficient is 0.
    Every coefficient is a Fraction, as every prefactor is.
    """
    if form not in FORMS:
        raise ValueError(f"unknown coproduct form {form!r}")
    out: dict[tuple[Forest, MultiIndex], Fraction] = {}
    legs: dict[MultiIndex, dict[MultiIndex, int | Fraction]] = {}
    for term in coproduct_raw(k, decomposition, forest_sigma):
        leg = legs.get(term.remainder)
        if leg is None:
            leg = legs[term.remainder] = _right_leg(term.remainder, term.order, form)
        forest, pre = term.forest, term.prefactor
        for mono, coeff in leg.items():
            out[(forest, mono)] = pre * coeff
    return out
