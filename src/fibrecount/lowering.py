"""The index-lowering derivation and its expansion coefficients.

``apply_lowering`` sends each monomial x^m to sum over fertile entries of
m_j^a * x^(m - e_j^a + e_{j-1}^a); entries at j = -1 are annihilated.
Iterating r times from x^k expands as sum over lowering multi-indices l of
order r of C[k,l] * x^(k - l + left_shift(l)), where the plain coefficients
C and the factorial-normalized D = C * target! each satisfy their own
one-step recursion.  The generating function in an auxiliary variable u
factorizes over the entries of k, and its (k, b) coefficient is a sum over
transport arrays; for reachable pairs it collapses to the single monomial
u^|l| / |l|! * C[k,l].

Polynomials here are plain dicts monomial -> coefficient with no zero
values stored; u-polynomials are dicts degree -> Fraction.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache

from .multiindex import MultiIndex, apply_shift, unit

Polynomial = dict  # MultiIndex -> int | Fraction
UPolynomial = dict  # int degree -> Fraction


def apply_lowering(poly: Polynomial) -> Polynomial:
    """One application of the lowering derivation to a polynomial."""
    out: Polynomial = {}
    for mono, coeff in poly.items():
        for (a, j), c in mono.items():
            if j < 0:
                continue
            target = apply_shift(mono, unit(a, j))
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


def c_coefficient_tables(k: MultiIndex, max_order: int) -> list[dict[MultiIndex, int]]:
    """Tables of nonzero C[k,l] for |l| = 0..max_order, by the one-step
    recursion C[k,l] = sum over entries (a,j) of l of
    C[k, l - e_j^a] * (k_j^a - l_j^a + 1 + l_{j+1}^a)."""
    if max_order < 0:
        raise ValueError("order must be >= 0")
    keys = _extension_keys(k)
    levels: list[dict[MultiIndex, int]] = [{MultiIndex(): 1}]
    for _ in range(max_order):
        prev = levels[-1]
        candidates: dict[MultiIndex, None] = {}
        for base in prev:
            for a, j in keys:
                candidates.setdefault(base + unit(a, j), None)
        level: dict[MultiIndex, int] = {}
        for low in candidates:
            if apply_shift(k, low) is None:
                continue
            value = 0
            for (a, j), lj in low.items():
                prior = prev.get(low - unit(a, j), 0)
                if prior:
                    value += prior * (k.get(a, j) - lj + 1 + low.get(a, j + 1))
            if value:
                level[low] = value
        levels.append(level)
    return levels


@cache
def c_coefficient(k: MultiIndex, lowering: MultiIndex) -> int:
    """Single C[k,l] by the memoized recursion; 0 off the valid range."""
    if not lowering.is_lowering():
        raise ValueError("not a lowering multi-index")
    if apply_shift(k, lowering) is None:
        return 0
    if not lowering:
        return 1
    total = 0
    for (a, j), lj in lowering.items():
        prior = c_coefficient(k, lowering - unit(a, j))
        if prior:
            total += prior * (k.get(a, j) - lj + 1 + lowering.get(a, j + 1))
    return total


def d_coefficient(k: MultiIndex, lowering: MultiIndex) -> int:
    """D[k,l] = C[k,l] * (k - l + left_shift(l))!, or 0 when unreachable."""
    target = apply_shift(k, lowering)
    if target is None:
        return 0
    return c_coefficient(k, lowering) * target.symmetry_factor()


@cache
def d_coefficient_recursive(k: MultiIndex, lowering: MultiIndex) -> int:
    """D[k,l] by its own recursion, independent of the C route:
    D[k,0] = k!, and D[k,l] = sum over entries (a,j) of l of
    D[k, l - e_j^a] * (k_{j-1}^a - l_{j-1}^a + l_j^a)."""
    if not lowering.is_lowering():
        raise ValueError("not a lowering multi-index")
    if apply_shift(k, lowering) is None:
        return 0
    if not lowering:
        return k.symmetry_factor()
    total = 0
    for (a, j), lj in lowering.items():
        prior = d_coefficient_recursive(k, lowering - unit(a, j))
        if prior:
            total += prior * (k.get(a, j - 1) - lowering.get(a, j - 1) + lj)
    return total


def _upoly_mul(left: UPolynomial, right: UPolynomial) -> UPolynomial:
    out: UPolynomial = {}
    for d1, c1 in left.items():
        for d2, c2 in right.items():
            d = d1 + d2
            out[d] = out.get(d, 0) + c1 * c2
    return {d: c for d, c in out.items() if c != 0}


def coefficient_gf(k: MultiIndex) -> dict[MultiIndex, UPolynomial]:
    """Exponential generating function of the lowering iterates of x^k,
    collected by target monomial: expands the factorized product

        prod over entries (a,j) of (sum_{m=0}^{j+1} u^m/m! x_{j-m}^a)^(k_j^a)

    and returns target -> u-polynomial."""
    state: dict[MultiIndex, UPolynomial] = {MultiIndex(): {0: Fraction(1)}}
    for (a, j), count in k.items():
        factor = [(unit(a, j - m), m, Fraction(1, math.factorial(m)))
                  for m in range(j + 2)]
        for _ in range(count):
            nxt: dict[MultiIndex, UPolynomial] = {}
            for mono, upoly in state.items():
                for step, m, coeff in factor:
                    key = mono + step
                    bucket = nxt.setdefault(key, {})
                    for d, c in upoly.items():
                        bucket[d + m] = bucket.get(d + m, 0) + c * coeff
            state = nxt
    return {mono: up for mono, up in state.items() if any(c for c in up.values())}


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
    col_order = [s for s, _ in cols]
    col_rem = {s: c for s, c in cols}
    sols: list[dict] = []
    acc: dict = {}

    def fill_row(ri: int) -> None:
        if ri == len(rows):
            if all(v == 0 for v in col_rem.values()):
                sols.append(dict(acc))
            return
        j, count = rows[ri]
        allowed = [s for s in col_order if s <= j]

        def distribute(ci: int, remaining: int) -> None:
            if ci == len(allowed):
                if remaining == 0:
                    fill_row(ri + 1)
                return
            s = allowed[ci]
            top = min(remaining, col_rem[s])
            for c in range(top + 1):
                if c:
                    col_rem[s] -= c
                    acc[(j, s)] = c
                distribute(ci + 1, remaining - c)
                if c:
                    col_rem[s] += c
                    del acc[(j, s)]

        distribute(0, count)

    fill_row(0)
    return sols


def transition_gf(k: MultiIndex, b: MultiIndex) -> UPolynomial:
    """The (k, b) coefficient of the lowering generating function as a sum
    over transport arrays; {} when no array exists."""
    kfact = 1
    for (_, j), c in k.items():
        kfact *= math.factorial(c)
    out: UPolynomial = {}
    for array in transport_arrays(k, b):
        degree = 0
        denom = 1
        for (_, j, s), v in array.items():
            degree += (j - s) * v
            denom *= math.factorial(v) * math.factorial(j - s) ** v
        out[degree] = out.get(degree, 0) + Fraction(kfact, denom)
    return {d: c for d, c in out.items() if c != 0}
