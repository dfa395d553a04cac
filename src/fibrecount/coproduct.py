"""Coproduct expansion of a profile monomial into forest (x) monomial terms.

A profile k splits as k = k1 + ... + kr + b over multisets of weight -1
parts; each split contributes the prefactor k! / (forest symmetry * b!)
times the r-th lowering iterate of x^b on the right leg.  The right leg can
be expanded three ways that must agree term by term: iterating the lowering
derivation directly, the C-coefficient expansion, or the D-coefficient
expansion divided by the target factorial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .multiindex import MultiIndex, apply_shift, iter_profile_parts
from .lowering import (_extension_keys, c_coefficient_tables,
                       d_coefficient_recursive, lowering_power)

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
    with the leftover remainder; includes the empty forest."""
    cands = iter_profile_parts(k)
    acc: list[tuple[MultiIndex, int]] = []

    def rec(start: int, remaining: MultiIndex):
        yield tuple(acc), remaining
        for i in range(start, len(cands)):
            part = cands[i]
            mult = 0
            left = remaining
            while left.includes(part):
                left = left - part
                mult += 1
                acc.append((part, mult))
                yield from rec(i + 1, left)
                acc.pop()

    yield from rec(0, k)


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


def _lowerings_of_order(b: MultiIndex, r: int) -> list[MultiIndex]:
    """Lowering multi-indices of order r supported where b can absorb them."""
    keys = _extension_keys(b)
    out: list[MultiIndex] = []

    def rec(i: int, budget: int, acc: list) -> None:
        if budget == 0:
            out.append(MultiIndex(dict(acc)))
            return
        if i == len(keys):
            return
        rec(i + 1, budget, acc)
        for c in range(1, budget + 1):
            acc.append((keys[i], c))
            rec(i + 1, budget - c, acc)
            acc.pop()

    rec(0, r, [])
    return out


def _right_leg(b: MultiIndex, r: int, form: str) -> dict[MultiIndex, Fraction]:
    if form == "raw-dbar":
        return lowering_power(b, r)
    if form == "refined-C":
        return {apply_shift(b, low): Fraction(c)
                for low, c in c_coefficient_tables(b, r)[r].items()}
    if form == "refined-D":
        out: dict[MultiIndex, Fraction] = {}
        for low in _lowerings_of_order(b, r):
            target = apply_shift(b, low)
            if target is None:
                continue
            d = d_coefficient_recursive(b, low)
            if d:
                out[target] = out.get(target, 0) + Fraction(d, target.symmetry_factor())
        return out
    raise ValueError(f"unknown coproduct form {form!r}")


def coproduct(k: MultiIndex, form: str = "raw-dbar",
              decomposition: str = "multiset",
              forest_sigma: str = "mult-times-sigma",
              ) -> dict[tuple[Forest, MultiIndex], Fraction]:
    """Full tensor expansion: (forest, right monomial) -> coefficient.

    The three forms expand the right leg by different routes and must
    produce identical results.
    """
    if form not in FORMS:
        raise ValueError(f"unknown coproduct form {form!r}")
    out: dict[tuple[Forest, MultiIndex], Fraction] = {}
    for term in coproduct_raw(k, decomposition, forest_sigma):
        for mono, coeff in _right_leg(term.remainder, term.order, form).items():
            key = (term.forest, mono)
            out[key] = out.get(key, 0) + term.prefactor * coeff
    return {key: c for key, c in out.items() if c != 0}
