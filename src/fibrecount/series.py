"""Exact truncated power series in the variables u_{a,j}.

Monomials are MultiIndex values (exponent of u_{a,j} = count at (a, j)),
coefficients are Fractions or ints, and every operation truncates eagerly
at the series' fixed total-degree bound.

Multiplication packs monomials into ints for the length of one product
(packed exponent vectors, Monagan and Pearce, CASC 2007): every key
(a, j) occurring in either operand gets a bit field of width
``bound.bit_length()``, so multiplying two monomials is one int addition.
No count in a formed product exceeds the bound, so no field overflows.
Coefficients are scaled to integers over each operand's common
denominator and divided once per result term; the surviving codes are
decoded back to MultiIndex keys at the result.

Both fixpoint equations read T = sum_{a,j} u_{a,j} X_{j+1} over a ladder
X_0 = 1, X_1, ... built from T (T^m/m! for W, the cycle index Z_m for F).
`attach_roots` is that shared root step: it shifts each term of X_{j+1}
by the unit e_j^a, with no series product.

`solve_fixpoint` fixes one degree at a time: the degree-d coefficients of
the right-hand side depend only on the coefficients below degree d, so
sweep d evaluates it once at bound d (van der Hoeven, "Relax, but don't be
too lazy", JSC 2002).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Sequence, Union

from .multiindex import MultiIndex, unit

Scalar = Union[int, Fraction]


class TruncatedSeries:
    """Sparse exact series truncated at a total degree bound."""

    __slots__ = ("max_degree", "_terms")

    def __init__(self, max_degree: int, terms=None):
        if max_degree < 0:
            raise ValueError("degree bound must be >= 0")
        self.max_degree = max_degree
        clean: dict[MultiIndex, Scalar] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mono, coeff in items:
                if coeff == 0 or mono.degree() > max_degree:
                    continue
                clean[mono] = clean.get(mono, 0) + coeff
        self._terms = {m: c for m, c in clean.items() if c != 0}

    @classmethod
    def _trusted(cls, max_degree: int, terms: dict) -> "TruncatedSeries":
        # For results whose terms are already nonzero and within the bound.
        self = object.__new__(cls)
        self.max_degree = max_degree
        self._terms = terms
        return self

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, max_degree: int) -> "TruncatedSeries":
        return cls(max_degree)

    @classmethod
    def one(cls, max_degree: int) -> "TruncatedSeries":
        return cls(max_degree, {MultiIndex(): Fraction(1)})

    @classmethod
    def variable(cls, decoration: str, j: int, max_degree: int) -> "TruncatedSeries":
        return cls(max_degree, {MultiIndex({(decoration, j): 1}): Fraction(1)})

    # -- queries ----------------------------------------------------------

    def coefficient(self, mono: MultiIndex) -> Scalar:
        return self._terms.get(mono, Fraction(0))

    def monomials(self) -> list[MultiIndex]:
        return sorted(self._terms, key=MultiIndex.sort_key)

    def sorted_terms(self) -> list[tuple[MultiIndex, Scalar]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TruncatedSeries)
                and self.max_degree == other.max_degree
                and self._terms == other._terms)

    def __repr__(self) -> str:
        inside = " + ".join(f"{c}*{m}" for m, c in self.sorted_terms()[:6])
        extra = "" if len(self._terms) <= 6 else f" + ... ({len(self._terms)} terms)"
        return f"TruncatedSeries<={self.max_degree}({inside or '0'}{extra})"

    # -- arithmetic -----------------------------------------------------

    def _check_bound(self, other: "TruncatedSeries") -> None:
        if self.max_degree != other.max_degree:
            raise ValueError("degree bounds differ")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_bound(other)
        out = dict(self._terms)
        for mono, c in other._terms.items():
            out[mono] = out.get(mono, 0) + c
        return TruncatedSeries._trusted(
            self.max_degree, {m: c for m, c in out.items() if c})

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_bound(other)
        out = dict(self._terms)
        for mono, c in other._terms.items():
            out[mono] = out.get(mono, 0) - c
        return TruncatedSeries._trusted(
            self.max_degree, {m: c for m, c in out.items() if c})

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_bound(other)
            return _packed_product(self._terms, other._terms, self.max_degree)
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return TruncatedSeries(self.max_degree)
            return TruncatedSeries._trusted(
                self.max_degree, {m: c * other for m, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        out = TruncatedSeries.one(self.max_degree)
        for _ in range(exponent):
            out = out * self
        return out

    def substitute_powers(self, r: int) -> "TruncatedSeries":
        """Replace each variable u_{a,j} by its r-th power (monomial
        exponents scale by r); terms pushed past the bound are dropped."""
        if r < 1:
            raise ValueError("power substitution needs r >= 1")
        bound = self.max_degree
        out: dict[MultiIndex, Scalar] = {}
        for mono, c in self._terms.items():
            scaled = mono.scale(r)
            if scaled.degree() <= bound:
                out[scaled] = c
        return TruncatedSeries(bound, out)


def _pack(terms: dict, shift: dict, bound: int) -> tuple[int, list[list[tuple[int, int]]]]:
    """The common denominator of `terms`, and per degree the (code, numerator)
    pairs of its monomials over that denominator."""
    den = math.lcm(*{c.denominator for c in terms.values()})
    by_degree: list[list[tuple[int, int]]] = [[] for _ in range(bound + 1)]
    for mono, c in terms.items():
        code = 0
        for key, count in mono.items():
            code += count << shift[key]
        by_degree[mono.degree()].append((code, c.numerator * (den // c.denominator)))
    return den, by_degree


def _packed_product(left: dict, right: dict, bound: int) -> TruncatedSeries:
    keys = sorted({key for terms in (left, right)
                   for mono in terms for key, _ in mono.items()})
    width = bound.bit_length()
    shift = {key: i * width for i, key in enumerate(keys)}
    lden, lgroups = _pack(left, shift, bound)
    rden, rgroups = _pack(right, shift, bound)
    # upto[r]: the right terms of degree <= r.
    upto: list[list[tuple[int, int]]] = []
    for group in rgroups:
        upto.append((upto[-1] if upto else []) + group)
    acc: dict[int, int] = {}
    get = acc.get
    for d1, group in enumerate(lgroups):
        partners = upto[bound - d1]
        for code1, n1 in group:
            for code2, n2 in partners:
                code = code1 + code2
                acc[code] = get(code, 0) + n1 * n2
    den = lden * rden
    mask = (1 << width) - 1
    out: dict[MultiIndex, Scalar] = {}
    for code, num in acc.items():
        if not num:
            continue
        entries = []
        for key in keys:
            count = code & mask
            if count:
                entries.append((key, count))
            code >>= width
            if not code:
                break
        out[MultiIndex._raw(tuple(entries))] = Fraction(num, den)
    return TruncatedSeries._trusted(bound, out)


def attach_roots(ladder: Sequence, alphabet: Iterable[str],
                 bound: int) -> TruncatedSeries:
    """sum over letters a and j >= -1 of u_{a,j} * ladder[j + 1], truncated
    at `bound`.  ladder[0] is taken as 1, so the j = -1 term is u_{a,-1}."""
    letters = sorted(set(alphabet))
    out: dict[MultiIndex, Scalar] = {}
    for m in range(bound):
        # A root adds one to the degree, so only terms below the bound count.
        terms = ([(mono, c) for mono, c in ladder[m]._terms.items()
                  if mono.degree() < bound] if m else [(MultiIndex(), Fraction(1))])
        for a in letters:
            root = unit(a, m - 1)
            for mono, c in terms:
                shifted = mono + root
                out[shifted] = out.get(shifted, 0) + c
    return TruncatedSeries._trusted(bound, {k: c for k, c in out.items() if c})


def solve_fixpoint(rhs: Callable[[TruncatedSeries, tuple[str, ...]], TruncatedSeries],
                   alphabet: Iterable[str], max_degree: int) -> TruncatedSeries:
    """The unique zero-constant-term solution of T = rhs(T, alphabet),
    truncated at max_degree."""
    if max_degree < 1:
        raise ValueError("degree bound must be >= 1")
    return _solve_fixpoint(rhs, tuple(sorted(set(alphabet))), max_degree)


@cache
def _solve_fixpoint(rhs, alph: tuple[str, ...], max_degree: int) -> TruncatedSeries:
    # Every term of rhs carries a factor u_{a,j}, so the coefficients of
    # rhs(T) at degree d need only those of T below d: sweep d, at bound
    # d, fixes degree d for good.
    out = TruncatedSeries.zero(0)
    for d in range(1, max_degree + 1):
        out = rhs(TruncatedSeries(d, out._terms), alph)
    return out
