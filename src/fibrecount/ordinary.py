"""Plain fibre counts, multiset branch series, and the cycle-index route.

F counts the fibre of a profile exactly.  The recursion chooses a fertile
entry and distributes the remaining profile over an unordered multiset of
branch profiles; multiset multiplicity enters through

    mlt(r, m) = C(r + m - 1, m)   for r >= 1,   delta_{0,m}  for r = 0,

the number of size-m multisets from r objects.  The branch-multiset series
H_m admits two independent computations that must agree: coefficient
extraction from the Euler-type product over all profiles, and evaluation of
the multiset cycle index at power-substituted copies of the F series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Sequence

from .multiindex import MultiIndex, cached_profile_parts, enumerate_profiles, unit
from .series import TruncatedSeries, solve_fixpoint


def mlt(r: int, m: int) -> int:
    """Multisets of size m drawn from r distinguishable objects."""
    if r < 0 or m < 0:
        raise ValueError("arguments must be >= 0")
    if r == 0:
        return 1 if m == 0 else 0
    return math.comb(r + m - 1, m)


# A plain dict: a functools.cache wrapper would add a frame per recursion level.
_F_MEMO: dict[MultiIndex, int] = {}


def ordinary_count(k: MultiIndex) -> int:
    """Number of trees with profile k, by the branch-multiset recursion."""
    if k.weight() != -1:
        raise ValueError("weight must be -1")
    cached = _F_MEMO.get(k)
    if cached is not None:
        return cached
    total = 0
    for (a, j), _ in k.items():
        target = k - unit(a, j)
        for assignment in _multiset_assignments(target, j + 1):
            prod = 1
            for part, mult in assignment:
                prod *= mlt(ordinary_count(part), mult)
                if prod == 0:
                    break
            total += prod
    _F_MEMO[k] = total
    return total


def _multiset_assignments(target: MultiIndex,
                          size: int) -> Iterator[tuple[tuple[MultiIndex, int], ...]]:
    """Multisets of weight -1 profiles, `size` in total with multiplicity,
    summing to target; yielded as (part, multiplicity) tuples."""
    cands = cached_profile_parts(target)

    def rec(start: int, remaining: MultiIndex, slots: int):
        if slots == 0:
            if remaining.degree() == 0:
                yield ()
            return
        if remaining.weight() != -slots or remaining.degree() < slots:
            return
        for i in range(start, len(cands)):
            part = cands[i]
            mult = 1
            left = remaining
            while mult <= slots and left.includes(part):
                left = left - part
                for tail in rec(i + 1, left, slots - mult):
                    yield ((part, mult),) + tail
                mult += 1

    yield from rec(0, target, size)


def partitions(m: int) -> list[tuple[tuple[int, int], ...]]:
    """Integer partitions of m in multiplicity notation ((r, m_r), ...)
    with parts ascending, in lexicographic generation order."""
    if m < 0:
        raise ValueError("m must be >= 0")
    out: list[tuple[tuple[int, int], ...]] = []

    def rec(remaining: int, smallest: int, acc: list[int]) -> None:
        if remaining == 0:
            runs = []
            for part in acc:
                if runs and runs[-1][0] == part:
                    runs[-1][1] += 1
                else:
                    runs.append([part, 1])
            out.append(tuple((r, c) for r, c in runs))
            return
        for part in range(smallest, remaining + 1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(m, 1, [])
    return out


def cycle_index_set(m: int, power_values: Sequence) -> object:
    """Multiset cycle index Z_m evaluated at p_r = power_values[r-1].

    Z_m = sum over partitions of m of prod p_r^(m_r) / (r^(m_r) m_r!).
    Works for any commutative values supporting + and * with Fractions;
    m = 0 gives Fraction(1).
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if len(power_values) < m:
        raise ValueError("need power values p_1..p_m")
    total = None
    for lam in partitions(m):
        z = 1
        for r, mult in lam:
            z *= r ** mult * math.factorial(mult)
        term = Fraction(1, z)
        for r, mult in lam:
            for _ in range(mult):
                term = power_values[r - 1] * term
        total = term if total is None else total + term
    return Fraction(1) if total is None else total


def functional_rhs(series: TruncatedSeries, alphabet: Iterable[str]) -> TruncatedSeries:
    """One application of F |-> sum_{a,j} u_{a,j} Z_{j+1}(F(u^[1]),...,F(u^[j+1]))."""
    bound = series.max_degree
    top = max(bound - 1, 0)
    p = [series.substitute_powers(r) for r in range(1, top + 1)]
    out = TruncatedSeries.zero(bound)
    for a in sorted(set(alphabet)):
        for j in range(-1, bound - 1):
            zval = cycle_index_set(j + 1, p)
            out = out + TruncatedSeries.variable(a, j, bound) * zval
    return out


def ordinary_series(alphabet: Iterable[str], max_degree: int) -> TruncatedSeries:
    """Unique zero-constant-term solution of the cycle-index fixpoint
    equation; its coefficients are the F values."""
    return solve_fixpoint(functional_rhs, alphabet, max_degree)


# -- the z-graded product route for H_m --------------------------------------

def _zpoly_mul(left: list[TruncatedSeries], right: list[TruncatedSeries],
               max_z: int) -> list[TruncatedSeries]:
    bound = left[0].max_degree
    out = [TruncatedSeries.zero(bound) for _ in range(max_z + 1)]
    for i, ci in enumerate(left):
        if i > max_z:
            break
        if not ci:
            continue
        for jz in range(min(len(right) - 1, max_z - i) + 1):
            if right[jz]:
                out[i + jz] = out[i + jz] + ci * right[jz]
    return out


@cache
def _euler_product_z(alph: tuple[str, ...],
                     max_degree: int) -> tuple[TruncatedSeries, ...]:
    # z^m carries only monomials of degree >= m, so z^0..z^max_degree
    # are all the coefficients below the bound.
    bound = max_degree
    prod = [TruncatedSeries.one(bound)] + [TruncatedSeries.zero(bound)] * bound
    for part in enumerate_profiles(alph, bound):
        f = ordinary_count(part)
        if f == 0:
            continue
        factor = [TruncatedSeries(bound, {part.scale(i): Fraction(mlt(f, i))})
                  for i in range(bound // part.degree() + 1)]
        prod = _zpoly_mul(prod, factor, bound)
    return tuple(prod)


def h_series_product(alphabet: Iterable[str], m: int,
                     max_degree: int) -> TruncatedSeries:
    """H_m as the z^m coefficient of prod over profiles of
    (1 - z u^part)^(-F_part), each factor expanded via mlt."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m > max_degree:
        return TruncatedSeries.zero(max_degree)
    return _euler_product_z(tuple(sorted(set(alphabet))), max_degree)[m]


def h_series_cycle(alphabet: Iterable[str], m: int,
                   max_degree: int) -> TruncatedSeries:
    """H_m as Z_m evaluated at power-substituted copies of the F series."""
    f_series = ordinary_series(alphabet, max_degree)
    p = [f_series.substitute_powers(r) for r in range(1, m + 1)]
    return TruncatedSeries.one(max_degree) * cycle_index_set(m, p)

