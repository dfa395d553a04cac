"""Exact truncated power series in the variables u_{a,j}.

Monomials are MultiIndex values (exponent of u_{a,j} = count at (a, j)),
coefficients are Fractions or ints, and every operation truncates eagerly
at the series' fixed total-degree bound.

Multiplication packs monomials into ints for the length of one product,
in the one packed layout (`multiindex.PackedLayout`) of the box with the
bound at every key (a, j) of either operand, so multiplying two monomials
is one int addition.  No count in a formed product exceeds the bound, so
every product code stays in the box.  Coefficients are scaled to
integers over each operand's common denominator and divided once per
result term; the surviving codes are decoded back to MultiIndex keys at
the result.

Both fixpoint equations read T = sum_{a,j} u_{a,j} X_{j+1} over a ladder
X_0 = 1, X_1, ... built from T (T^m/m! for W, the cycle index Z_m for F).
`attach_roots` is that shared root step: it shifts each term of X_{j+1}
by the unit e_j^a, with no series product.  With the packed product it
evaluates the right-hand sides, the routes the solutions are checked by.

`solve_graded` solves both equations one degree at a time, on per-degree
dicts of integer coefficients over monomials packed in one layout
(`multiindex.PackedLayout`): the degree-d coefficients of T need only
those below d (van der Hoeven, "Relax, but don't be too lazy", JSC 2002).
W solves the F equation with every p_r, r >= 2, set to zero, for L = d! W.
`series_rows` is the one converter of that solve to rows in print order:
it sorts each degree's codes and reads each one's labels through the
solve's layout, so the `series` command prints with no `MultiIndex` or
`Fraction` built per term, and `solve_series` builds its
`TruncatedSeries` from the same rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, TypeVar, Union

from .multiindex import MultiIndex, PackedLayout, profile_box, unit

Scalar = Union[int, Fraction]
T = TypeVar("T")


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
        return self + other * -1

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


def _pack(terms: dict, layout, bound: int) -> tuple[int, list[list[tuple[int, int]]]]:
    """The common denominator of `terms`, and per degree the (code, numerator)
    pairs of its monomials over that denominator."""
    den = math.lcm(*{c.denominator for c in terms.values()})
    by_degree: list[list[tuple[int, int]]] = [[] for _ in range(bound + 1)]
    for mono, c in terms.items():
        by_degree[mono.degree()].append((layout.code(mono),
                                         c.numerator * (den // c.denominator)))
    return den, by_degree


def _packed_product(left: dict, right: dict, bound: int) -> TruncatedSeries:
    keys = sorted({key for terms in (left, right) for mono in terms for key, _ in mono.items()})
    layout = PackedLayout(MultiIndex._raw(tuple((key, bound) for key in keys)))
    lden, lgroups = _pack(left, layout, bound)
    rden, rgroups = _pack(right, layout, bound)
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
    return TruncatedSeries._trusted(bound, {layout.decode(code): Fraction(num, den)
                                            for code, num in acc.items() if num})


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


def solve_graded(layout: PackedLayout, degree: int, labelled: bool) -> list[dict[int, int]]:
    """Degrees 0..degree of the solution T of the cycle-index equation
    T = sum_{a,j} u_{a,j} Z_{j+1}(T(u), T(u^2), ...) truncated to the box
    {m <= box} of `layout`, each as a dict code -> coefficient in it.
    Every coefficient is >= 0, so the truncation is exact.  With
    `labelled`, every p_r, r >= 2, is zero: T is W, held as L = d! W."""
    if degree < 1:
        raise ValueError("degree bound must be >= 1")
    box, offsets, guard = layout.box, layout.offsets, layout.guard
    top = max(1, max(j for (_, j), _ in box.items()) + 1)     # a leaf still needs p_1
    powers = 1 if labelled else top
    slack = [0] + [layout.slack(r) for r in range(1, powers + 1)]
    roots = [(1 << offsets[(a, j)], j + 1) for (a, j), _ in box.items()]
    fact = [math.factorial(m) for m in range(top + 1)]
    # p[r][d]: the degree-d part of p_r = T(u^r); p[1] is T itself.
    # y[m][d]: the degree-d part of m! Z_m(p_1, p_2, ...), times d! if labelled.
    p = [None] + [[{} for _ in range(degree + 1)] for _ in range(powers)]
    y = [[{0: 1}] + [{} for _ in range(degree)]] + [[{} for _ in range(degree + 1)]
                                                    for _ in range(top)]
    for d in range(1, degree + 1):
        # The degree d - 1 of the ladder, by m! Z_m = sum_r
        # (m-1)!/(m-r)! p_r (m-r)! Z_{m-r}; the r = m term reads Y_0 = 1,
        # and (m-r)! Z_{m-r} has no term below degree m - r.  Labelled
        # factors of degrees e and d - 1 - e weigh C(d - 1, e), and a
        # labelled root takes one of d labels.
        for m in range(1, top + 1):
            out = y[m][d - 1]
            if m <= powers:
                for code, v in p[m][d - 1].items():
                    out[code] = fact[m - 1] * v
            for r in range(1, min(m, powers + 1)):
                scale, lower = fact[m - 1] // fact[m - r], y[m - r]
                for e in range(1, (d - 1 - (m - r)) // r + 1):
                    weight = scale * math.comb(d - 1, e) if labelled else scale
                    left, right = p[r][r * e], lower[d - 1 - r * e]
                    for s, v in left.items():
                        for t, w in right.items():
                            u = s + t
                            if not (u + slack[1]) & guard:
                                out[u] = out.get(u, 0) + weight * v * w
        lift = d if labelled else 1
        level = p[1][d]
        for step, m in roots:
            for code, v in y[m][d - 1].items():
                u = code + step
                if not (u + slack[1]) & guard:
                    q, rem = divmod(lift * v, fact[m])
                    if rem:
                        raise ArithmeticError(f"non-integral coefficient in the box {box}")
                    level[u] = level.get(u, 0) + q
        for r in range(2, min(powers, degree // d) + 1):
            p[r][r * d] = {code * r: v for code, v in level.items()
                           if not (code + slack[r]) & guard}
    return p[1]


def series_rows(alphabet: Iterable[str], max_degree: int, labelled: bool,
                label: Callable[[tuple[str, int], int], T]
                ) -> Iterator[tuple[tuple[T, ...], int, int]]:
    """F, or W if labelled, to total degree n = max_degree, as rows
    (labels, num, den) made one at a time in print order: by degree, and
    within a degree in the order of the monomials' entry tuples.  labels
    holds label(key, c) for each entry (key, c) of the monomial in key
    order, each made once per call (`PackedLayout.reader`); num/den is the
    coefficient in lowest terms, L / d! at degree d if labelled, else F / 1.
    The one converter of the graded solve to rows: the solve runs before
    the first row.  Profiles of degree <= n have j <= n - 2 and no count
    above n, so the box with n at every such key cuts no term.
    """
    layout = PackedLayout(profile_box(alphabet, max_degree))
    levels = solve_graded(layout, max_degree, labelled)
    read, sort_key = layout.reader(label), layout.sort_key

    def rows():
        fact = 1
        for d, level in enumerate(levels):
            fact *= d or 1
            for code in sorted(level, key=sort_key):
                v = level[code]
                if labelled:
                    g = math.gcd(v, fact)
                    yield read(code), v // g, fact // g
                else:
                    yield read(code), v, 1
    return rows()


def solve_series(alphabet: Iterable[str], max_degree: int,
                 labelled: bool) -> TruncatedSeries:
    """F, or W if labelled, to total degree max_degree, from the rows of
    `series_rows`."""
    rows = series_rows(alphabet, max_degree, labelled, lambda key, c: (key, c))
    return TruncatedSeries._trusted(max_degree, {
        MultiIndex._raw(entries): Fraction(num, den) if labelled else num
        for entries, num, den in rows})
