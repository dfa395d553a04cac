"""Plain fibre counts, multiset branch series, and the cycle-index route.

F counts the fibre of a profile exactly, by two independent routes.

`ordinary_count`, the route `count` uses, and `ordinary_series` are one
solve (`series.solve_graded`) of the cycle-index equation
T = sum_{a,j} u_{a,j} Z_{j+1}(T(u), T(u^2), ...) at two truncations:
`ordinary_count` truncates it to the box {m <= k} and reads off the
coefficient of x^k, `ordinary_series` truncates it at a total degree.
Neither recurses.  `functional_rhs` evaluates the right-hand side on a
TruncatedSeries, the check that the series solves its equation.

`ordinary_count_recursive` chooses a fertile entry and distributes the
remaining profile over an unordered multiset of branch profiles;
multiset multiplicity enters through

    mlt(r, m) = C(r + m - 1, m)   for r >= 1,   delta_{0,m}  for r = 0,

the number of size-m multisets from r objects.  It walks the branch
multisets of `multiindex.branch_multisets` bottom-up over the parts of the
profile, so it never recurses either.  The W recursion
(`weighted.weighted_counts_recursive`) sums the same multisets, so one
walk fills one memo of (F, W) pairs per part, and each route reads its
half; the two folds share the multisets and nothing else.  For one
profile the walk covers only its parts; `fill_counts` walks every profile
up to a degree at once, and the oracle and the Euler product below call
it once each.  The oracle checks both routes against brute force (the
tree records of `trees.fibre_statistics`), and the Euler product reads
the recursion, so that its F does not come from the cycle-index
equation.

The branch-multiset series H_m admits two independent computations that
must agree: coefficient extraction from the Euler-type product over all
profiles, and evaluation of the multiset cycle index at power-substituted
copies of the F series.  The product multiplies in one factor
(1 - z u^p)^(-F_p) per profile p, in place, on per-(z, degree) dicts of
integer coefficients over monomials packed in one layout
(`multiindex.PackedLayout`), and builds the H_m series once at the end.
The cycle-index route solves F once for Z_0..Z_m.

The cycle index obeys Z_0 = 1, m Z_m = sum_{r=1..m} p_r Z_{m-r} (Polya;
Flajolet and Sedgewick, Analytic Combinatorics I.2, MSET), so Z_0..Z_m
cost m(m+1)/2 products and no partition of m is formed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence

from .multiindex import (MultiIndex, PackedLayout, branch_multisets,
                         enumerate_profiles, profile_box,
                         profile_branch_multisets)
from .series import TruncatedSeries, attach_roots, solve_graded, solve_series


def mlt(r: int, m: int) -> int:
    """Multisets of size m drawn from r distinguishable objects."""
    if r < 0 or m < 0:
        raise ValueError("arguments must be >= 0")
    if r == 0:
        return 1 if m == 0 else 0
    return math.comb(r + m - 1, m)


def ordinary_count(k: MultiIndex) -> int:
    """Number of trees with profile k: the coefficient of x^k in the
    cycle-index fixpoint truncated to the box {m <= k}, solved degree by
    degree."""
    if k.weight() != -1:
        raise ValueError("weight must be -1")
    layout = PackedLayout(k)
    return solve_graded(layout, k.degree(), False)[-1].get(layout.code(k), 0)


# (F, W) of every profile met so far.  A call fills it bottom-up over the
# parts of k, each from branches already in it, so nothing recurses.
_COUNTS: dict[MultiIndex, tuple[int, Fraction]] = {}


def _fill(walk) -> None:
    # Each multiset adds prod mlt(F(branch), mult) to F and
    # prod W(branch)^mult / mult! to W; neither sum reads the other.
    for part, multisets in walk:
        f, num, den = 0, 0, 1
        for multiset in multisets:
            pf, pn, pd = 1, 1, 1
            for branch, mult in multiset:
                bf, bw = _COUNTS[branch]
                pf *= mlt(bf, mult)
                pn *= bw.numerator ** mult
                pd *= bw.denominator ** mult * math.factorial(mult)
            f += pf
            # W as num / den in ints, reduced once per part.
            lcm = math.lcm(den, pd)
            num, den = num * (lcm // den) + pn * (lcm // pd), lcm
        _COUNTS[part] = (f, Fraction(num, den))


def _branch_counts(k: MultiIndex) -> tuple[int, Fraction]:
    """(F, W) of the profile k by the branch-multiset recursion, from one
    walk of `branch_multisets` over the weight -1 parts of k only."""
    if k.weight() != -1:
        raise ValueError("weight must be -1")
    if k not in _COUNTS:
        _fill(branch_multisets(k, _COUNTS))
    return _COUNTS[k]


def fill_counts(alphabet: Iterable[str], max_degree: int) -> None:
    """(F, W) of every profile of degree <= max_degree over the alphabet,
    by the same recursion as `_branch_counts`, from one walk over all of
    them (`profile_branch_multisets`); profiles already known are kept."""
    _fill(profile_branch_multisets(alphabet, max_degree, _COUNTS))


def ordinary_count_recursive(k: MultiIndex) -> int:
    """Number of trees with profile k, by the branch-multiset recursion,
    evaluated bottom-up over the weight -1 parts of k."""
    return _branch_counts(k)[0]


def cycle_index_set(m: int, power_values: Sequence) -> list:
    """Multiset cycle indices [Z_0, ..., Z_m] at p_r = power_values[r-1],
    by Z_0 = 1 and k Z_k = sum_{r=1..k} p_r Z_{k-r}.

    Works for any commutative values supporting + and * with Fractions.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if len(power_values) < m:
        raise ValueError("need power values p_1..p_m")
    zs: list = [Fraction(1)]
    for k in range(1, m + 1):
        total = power_values[0] * zs[k - 1]
        for r in range(2, k + 1):
            total = total + power_values[r - 1] * zs[k - r]
        zs.append(total * Fraction(1, k))
    return zs


def functional_rhs(series: TruncatedSeries, alphabet: Iterable[str]) -> TruncatedSeries:
    """One application of F |-> sum_{a,j} u_{a,j} Z_{j+1}(F(u^[1]),...,F(u^[j+1]))."""
    bound = series.max_degree
    top = max(bound - 1, 0)
    p = [series.substitute_powers(r) for r in range(1, top + 1)]
    return attach_roots(cycle_index_set(top, p), alphabet, bound)


def ordinary_series(alphabet: Iterable[str], max_degree: int) -> TruncatedSeries:
    """Unique zero-constant-term solution of the cycle-index fixpoint
    equation; its coefficients are the F values."""
    return solve_series(alphabet, max_degree, False)


# -- the z-graded product route for H_m --------------------------------------

@cache
def _euler_product_z(alph: tuple[str, ...],
                     max_degree: int) -> tuple[TruncatedSeries, ...]:
    # z^m carries only monomials of degree >= m, so z^0..z^max_degree
    # are all the coefficients below the bound.  prod[z][d] holds the
    # degree-d terms of the coefficient of z to the power z, as integer
    # coefficients over codes in the box with the bound at every key that
    # a profile of degree <= bound can use; a monomial within the bound
    # has no count above it, so the box cuts no term.
    bound = max_degree
    fill_counts(alph, bound)
    layout = PackedLayout(profile_box(alph, bound))
    prod = [[{} for _ in range(bound + 1)] for _ in range(bound + 1)]
    prod[0][0][0] = 1
    for part in enumerate_profiles(alph, bound):
        f = ordinary_count_recursive(part)
        if f == 0:
            continue
        # Times (1 - z u^part)^(-f) = sum_i mlt(f, i) z^i u^(i part), in
        # place: z from the top down, so each z reads only the lower
        # z - i, not yet multiplied.
        size, code = part.degree(), layout.code(part)
        terms = [(i, i * size, i * code, mlt(f, i)) for i in range(1, bound // size + 1)]
        for z in range(bound, 0, -1):
            row = prod[z]
            for d in range(bound, z - 1, -1):
                out = row[d]
                for i, grow, shift, c in terms:
                    if i > z or grow > d - (z - i):
                        break     # lower z - i has no term of degree below z - i
                    for s, v in prod[z - i][d - grow].items():
                        u = s + shift
                        out[u] = out.get(u, 0) + c * v
    return tuple(TruncatedSeries._trusted(bound, {layout.decode(code): Fraction(v)
                                                  for level in row
                                                  for code, v in level.items()})
                 for row in prod)


def h_series_product(alphabet: Iterable[str], m: int,
                     max_degree: int) -> TruncatedSeries:
    """H_m as the z^m coefficient of prod over profiles of
    (1 - z u^part)^(-F_part), each factor expanded via mlt."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m > max_degree:
        return TruncatedSeries.zero(max_degree)
    return _euler_product_z(tuple(sorted(set(alphabet))), max_degree)[m]


def _h_series_cycles(alphabet: Iterable[str], m: int,
                     max_degree: int) -> list[TruncatedSeries]:
    """[H_0, ..., H_m] as Z_0..Z_m evaluated at power-substituted copies
    of the F series, from one solve of F."""
    f_series = ordinary_series(alphabet, max_degree)
    p = [f_series.substitute_powers(r) for r in range(1, m + 1)]
    zs = cycle_index_set(m, p)
    zs[0] = TruncatedSeries.one(max_degree)
    return zs


def h_series_cycle(alphabet: Iterable[str], m: int,
                   max_degree: int) -> TruncatedSeries:
    """H_m as Z_m evaluated at power-substituted copies of the F series."""
    return _h_series_cycles(alphabet, m, max_degree)[m]
