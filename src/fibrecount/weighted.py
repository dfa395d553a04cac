"""Symmetry-weighted and labelled fibre counts, closed form and recursion.

For a profile k of degree n (weight -1 throughout):

    W = (n-1)! / prod_{a,j} k_j^a! * (j+1)!^(k_j^a)     fibre mass sum 1/aut
    L = n! * W                                          labelled tree count
    J = symmetry_factor(k) * W                          integer fibre mass

The recursion decomposes a profile at one fertile entry (a, j) into
multisets of j + 1 weight -1 branch profiles, the same multisets the F
recursion sums: one walk of `multiindex.branch_multisets` fills F and W
of every part (`ordinary._branch_counts`), or of every profile up to a
degree (`ordinary.fill_counts`).  It runs bottom-up over the
parts of the profile, so it never recurses.  Extracting the
coefficient from T = sum u_{a,j} T^(j+1) / (j+1)! sums over ordered
tuples; a multiset {p^(m_p)} has (j+1)! / prod m_p! orderings, so it
contributes prod_p W(p)^(m_p) / m_p! (the exponential formula).  The
recursion must reproduce the closed form exactly.

`weighted_series` solves T = sum u_{a,j} T^(j+1) / (j+1)!, the F equation
with p_1 alone (`series.solve_graded`), for L = d! W at degree d: a
product weighs its degree split (e, d - e) by C(d, e), and a root, one of
d labels, multiplies by d before the exact division by (j+1)!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .multiindex import MultiIndex
from .ordinary import _branch_counts
from .series import TruncatedSeries, attach_roots, solve_series


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


def weighted_counts(k: MultiIndex) -> WeightedCounts:
    """Closed-form L, W, J for a weight -1 profile."""
    if k.weight() != -1:
        raise ValueError("weight must be -1")
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


def weighted_counts_recursive(k: MultiIndex) -> Fraction:
    """W as the sum over fertile entries and branch multisets of
    prod W(part)^mult / mult!, evaluated bottom-up over the weight -1
    parts of k; memoized with F."""
    return _branch_counts(k)[1]


def functional_rhs(series: TruncatedSeries, alphabet: Iterable[str]) -> TruncatedSeries:
    """One application of T |-> sum_{a,j} u_{a,j} T^(j+1) / (j+1)!."""
    bound = series.max_degree
    ladder = [TruncatedSeries.one(bound)]
    for m in range(1, bound):
        ladder.append(ladder[-1] * series * Fraction(1, m))
    return attach_roots(ladder, alphabet, bound)


def weighted_series(alphabet: Iterable[str], max_degree: int) -> TruncatedSeries:
    """Unique zero-constant-term solution of the weighted fixpoint equation,
    truncated at max_degree.  Its coefficients are the W values."""
    return solve_series(alphabet, max_degree, True)
