"""Exact truncated power series in the variables u_{a,j}.

Monomials are MultiIndex values (exponent of u_{a,j} = count at (a, j)),
coefficients are Fractions or ints, and every operation truncates eagerly
at the series' fixed total-degree bound.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Union

from .multiindex import MultiIndex

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
        return TruncatedSeries(self.max_degree, out)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_bound(other)
        out = dict(self._terms)
        for mono, c in other._terms.items():
            out[mono] = out.get(mono, 0) - c
        return TruncatedSeries(self.max_degree, out)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_bound(other)
            bound = self.max_degree
            left = sorted(self._terms.items(), key=lambda kv: kv[0].degree())
            right = sorted(other._terms.items(), key=lambda kv: kv[0].degree())
            if not left or not right:
                return TruncatedSeries(bound)
            min_right = right[0][0].degree()
            out: dict[MultiIndex, Scalar] = {}
            for m1, c1 in left:
                d1 = m1.degree()
                if d1 + min_right > bound:
                    break
                for m2, c2 in right:
                    if d1 + m2.degree() > bound:
                        break
                    key = m1 + m2
                    out[key] = out.get(key, 0) + c1 * c2
            return TruncatedSeries(bound, out)
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return TruncatedSeries(self.max_degree)
            return TruncatedSeries(
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


def solve_fixpoint(rhs: Callable[[TruncatedSeries, tuple[str, ...]], TruncatedSeries],
                   alphabet: Iterable[str], max_degree: int) -> TruncatedSeries:
    """The unique zero-constant-term solution of T = rhs(T, alphabet),
    truncated at max_degree."""
    if max_degree < 1:
        raise ValueError("degree bound must be >= 1")
    return _solve_fixpoint(rhs, tuple(sorted(set(alphabet))), max_degree)


@cache
def _solve_fixpoint(rhs, alph: tuple[str, ...], max_degree: int) -> TruncatedSeries:
    out = TruncatedSeries.zero(max_degree)
    # Degree d coefficients stabilize after d iterations.
    for _ in range(max_degree):
        out = rhs(out, alph)
    return out
