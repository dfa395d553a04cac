"""Symmetry-weighted and labelled fibre counts, closed form and recursion.

For a profile k of degree n (weight -1 throughout):

    W = (n-1)! / prod_{a,j} k_j^a! * (j+1)!^(k_j^a)     fibre mass sum 1/aut
    L = n! * W                                          labelled tree count
    J = symmetry_factor(k) * W                          integer fibre mass

The recursion decomposes a profile at one fertile entry into ordered tuples
of weight -1 branch profiles; it must reproduce the closed form exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .multiindex import MultiIndex, cached_profile_parts, unit
from .series import TruncatedSeries, solve_fixpoint


@dataclass(frozen=True)
class WeightedCounts:
    L: int
    W: Fraction
    J: int


def prescribed_fertility_count(fertilities: Sequence[int]) -> int:
    """Rooted labelled trees on n vertices where vertex i has exactly
    fertilities[i] children: (n-1)! / prod(r_i!)."""
    n = len(fertilities)
    if n < 1:
        raise ValueError("need at least one vertex")
    if any(r < 0 for r in fertilities):
        raise ValueError("fertilities must be >= 0")
    if sum(fertilities) != n - 1:
        raise ValueError("fertility sum violation: must total n - 1")
    out = math.factorial(n - 1)
    for r in fertilities:
        out //= math.factorial(r)
    return out


def _require_profile(k: MultiIndex) -> None:
    if k.weight() != -1:
        raise ValueError("weight must be -1")


def weighted_counts(k: MultiIndex) -> WeightedCounts:
    """Closed-form L, W, J for a weight -1 profile."""
    _require_profile(k)
    n = k.degree()
    denom = 1
    for (_, j), c in k.items():
        denom *= math.factorial(c) * math.factorial(j + 1) ** c
    w = Fraction(math.factorial(n - 1), denom)
    labelled = math.factorial(n) * w
    mass = k.symmetry_factor() * w
    if labelled.denominator != 1 or mass.denominator != 1:
        raise ArithmeticError(f"non-integral count for {k}")
    return WeightedCounts(L=int(labelled), W=w, J=int(mass))


def _compositions(target: MultiIndex, parts: int) -> Iterator[tuple[MultiIndex, ...]]:
    """Ordered tuples of `parts` weight -1 profiles summing to target."""
    if target.weight() != -parts or target.degree() < parts:
        return
    if parts == 0:
        if target.degree() == 0:
            yield ()
        return
    if parts == 1:
        yield (target,)
        return
    for first in cached_profile_parts(target):
        rest = target - first
        for tail in _compositions(rest, parts - 1):
            yield (first,) + tail


# A plain dict: a functools.cache wrapper would add a frame per recursion level.
_W_MEMO: dict[MultiIndex, Fraction] = {}


def weighted_counts_recursive(k: MultiIndex) -> Fraction:
    """W by decomposing at each fertile entry; memoized."""
    _require_profile(k)
    cached = _W_MEMO.get(k)
    if cached is not None:
        return cached
    total = Fraction(0)
    for (a, j), _ in k.items():
        target = k - unit(a, j)
        branch_sum = Fraction(0)
        for combo in _compositions(target, j + 1):
            prod = Fraction(1)
            for part in combo:
                prod *= weighted_counts_recursive(part)
            branch_sum += prod
        total += Fraction(1, math.factorial(j + 1)) * branch_sum
    _W_MEMO[k] = total
    return total


def functional_rhs(series: TruncatedSeries, alphabet: Iterable[str]) -> TruncatedSeries:
    """One application of T |-> sum_{a,j} u_{a,j} T^(j+1) / (j+1)!.

    Only j <= max_degree - 2 can contribute at or below the bound, since the
    j term has minimum total degree j + 2.
    """
    bound = series.max_degree
    top_power = max(bound - 1, 0)
    powers = [TruncatedSeries.one(bound)]
    for _ in range(top_power):
        powers.append(powers[-1] * series)
    out = TruncatedSeries.zero(bound)
    for a in sorted(set(alphabet)):
        for j in range(-1, bound - 1):
            term = TruncatedSeries.variable(a, j, bound) * powers[j + 1]
            out = out + term * Fraction(1, math.factorial(j + 1))
    return out


def weighted_series(alphabet: Iterable[str], max_degree: int) -> TruncatedSeries:
    """Unique zero-constant-term solution of the weighted fixpoint equation,
    truncated at max_degree.  Its coefficients are the W values."""
    return solve_fixpoint(functional_rhs, alphabet, max_degree)
