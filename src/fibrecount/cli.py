"""fibrecount command line: exact counts, series, shift coefficients, coproduct.

Exit codes: 0 success, 1 oracle mismatch, 2 parse error, 3 domain error,
4 cap exceeded.  All output is deterministic: reports are sorted by
canonical keys, so repeated runs are byte-identical.  The oracle accepts
``--jobs`` and echoes it in its JSON report, but always runs sequentially.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .multiindex import (MultiIndex, ParseError, apply_shift,
                         enumerate_multiindices, enumerate_profiles,
                         find_shift, is_valid_decoration)
from .trees import fibres_of_degree, labelled_fertility_counts
from .weighted import (prescribed_fertility_count, weighted_counts,
                       weighted_counts_recursive, weighted_series)
from .ordinary import (h_series_cycle, h_series_product, ordinary_count,
                       ordinary_series)
from .lowering import (apply_lowering, c_coefficient_tables, d_coefficient,
                       d_coefficient_recursive, transition_gf)
from .coproduct import (DECOMPOSITION_MODES, FOREST_SIGMA_MODES, FORMS,
                        coproduct)

SERIES_DEGREE_CAP = 12
ORACLE_N_CAP = 8
ORACLE_ALPHABET_CAP = 2
ALPHABET_CAP = 16


class CapExceeded(Exception):
    """A configured hard cap would be exceeded; refuse rather than thrash."""


def _frac_str(value) -> str:
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _frac_json(value) -> dict:
    f = Fraction(value)
    return {"num": f.numerator, "den": f.denominator}


def _upoly_str(upoly: dict) -> str:
    if not upoly:
        return "0"
    bits = []
    for d in sorted(upoly):
        c = Fraction(upoly[d])
        if d == 0:
            bits.append(_frac_str(c))
            continue
        base = "u" if d == 1 else f"u^{d}"
        if c == 1:
            bits.append(base)
        elif c.denominator == 1:
            bits.append(f"{c.numerator}*{base}")
        elif c.numerator == 1:
            bits.append(f"{base}/{c.denominator}")
        else:
            bits.append(f"{c.numerator}*{base}/{c.denominator}")
    return " + ".join(bits)


def _forest_str(forest) -> str:
    if not forest:
        return "1"
    bits = []
    for part, mult in forest:
        piece = f"[{part}]"
        if mult > 1:
            piece += f"^{mult}"
        bits.append(piece)
    return " * ".join(bits)


def _poly_str(poly: dict) -> str:
    if not poly:
        return "0"
    return ";".join(f"{mono}:{_frac_str(c)}"
                    for mono, c in sorted(poly.items(),
                                          key=lambda kv: kv[0].sort_key()))


def _parse_alphabet(text: str) -> tuple[str, ...]:
    names = text.split(",") if text else []
    if not names:
        raise ParseError("alphabet must be nonempty")
    seen = []
    for name in names:
        if not is_valid_decoration(name):
            raise ParseError(f"bad decoration name {name!r}")
        if name in seen:
            raise ParseError(f"duplicate decoration {name!r}")
        seen.append(name)
    if len(seen) > ALPHABET_CAP:
        raise CapExceeded(f"alphabet exceeds {ALPHABET_CAP} decorations")
    return tuple(sorted(seen))


# -- subcommands --------------------------------------------------------------

def cmd_count(args) -> int:
    k = MultiIndex.parse(args.k)
    counts = weighted_counts(k)
    fibre_size = ordinary_count(k)
    if args.format == "json":
        print(json.dumps({"k": str(k), "F": fibre_size,
                          "W": _frac_json(counts.W),
                          "J": counts.J, "L": counts.L}))
    else:
        print(f"k = {k}")
        print(f"degree = {k.degree()}")
        print(f"weight = {k.weight()}")
        print(f"F = {fibre_size}")
        print(f"W = {_frac_str(counts.W)}")
        print(f"J = {counts.J}")
        print(f"L = {counts.L}")
    return 0


def cmd_series(args) -> int:
    alphabet = _parse_alphabet(args.alphabet)
    if args.max_degree > SERIES_DEGREE_CAP and not args.force:
        raise CapExceeded(
            f"degree {args.max_degree} exceeds cap {SERIES_DEGREE_CAP}"
            " (use --force to override)")
    if args.mode == "weighted":
        series = weighted_series(alphabet, args.max_degree)
    else:
        series = ordinary_series(alphabet, args.max_degree)
    terms = series.sorted_terms()
    if args.format == "json":
        coeffs = []
        for mono, c in terms:
            value = _frac_json(c) if args.mode == "weighted" else int(Fraction(c))
            coeffs.append({"k": str(mono), "value": value})
        print(json.dumps({"mode": args.mode, "alphabet": list(alphabet),
                          "max_degree": args.max_degree,
                          "coefficients": coeffs}))
    else:
        for mono, c in terms:
            print(f"{mono} -> {_frac_str(c)}")
    return 0


def cmd_lower(args) -> int:
    k = MultiIndex.parse(args.k)
    table = c_coefficient_tables(k, args.r)[args.r]
    rows = sorted(table.items(), key=lambda kv: kv[0].sort_key())
    if args.format == "json":
        print(json.dumps({"k": str(k), "r": args.r, "terms": [
            {"l": str(low), "C": c, "target": str(apply_shift(k, low))}
            for low, c in rows]}))
    else:
        for low, c in rows:
            print(f"l = {low}, C = {c}, target = {apply_shift(k, low)}")
    return 0


def cmd_transition(args) -> int:
    k = MultiIndex.parse(args.k)
    b = MultiIndex.parse(args.b)
    upoly = transition_gf(k, b)
    low = find_shift(k, b)
    if args.format == "json":
        print(json.dumps({"k": str(k), "b": str(b),
                          "l": None if low is None else str(low),
                          "terms": [{"degree": d, **_frac_json(c)}
                                    for d, c in sorted(upoly.items())]}))
    else:
        print(_upoly_str(upoly))
    return 0


def cmd_coproduct(args) -> int:
    k = MultiIndex.parse(args.k)
    expansion = coproduct(k, args.form, args.decomposition, args.forest_sigma)
    items = sorted(expansion.items(),
                   key=lambda kv: (tuple(p.sort_key() + (m,) for p, m in kv[0][0]),
                                   kv[0][1].sort_key()))
    if args.format == "json":
        print(json.dumps({
            "k": str(k), "form": args.form,
            "decomposition": args.decomposition,
            "forest_sigma": args.forest_sigma,
            "terms": [{"forest": [{"k": str(p), "mult": m} for p, m in forest],
                       "right": str(mono), **_frac_json(c)}
                      for (forest, mono), c in items]}))
    else:
        for (forest, mono), c in items:
            print(f"{_forest_str(forest)} (x) {mono} : {_frac_str(c)}")
    return 0


# -- oracle runner -------------------------------------------------------------

def run_oracle(max_n: int, alphabet: Iterable[str],
               w_formula: Optional[Callable] = None,
               c_tables_fn: Optional[Callable] = None) -> dict:
    """Cross-check every module against brute-force tree enumeration.

    Returns a report dict with keys "checks" (name, cases, mismatches,
    sorted by name), "first_mismatch" and "result".  The injectable
    w_formula / c_tables_fn hooks exist so tests can verify that a
    corrupted formula is actually caught; production callers leave them
    at None.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if w_formula is None:
        w_formula = lambda k: weighted_counts(k).W
    if c_tables_fn is None:
        c_tables_fn = c_coefficient_tables
    alph = tuple(sorted(set(alphabet)))
    profiles = enumerate_profiles(alph, max_n)
    fibres: dict[MultiIndex, tuple] = {}
    tree_totals: dict[int, int] = {}
    for n in range(1, max_n + 1):
        groups = fibres_of_degree(n, alph)
        fibres.update(groups)
        tree_totals[n] = sum(len(v) for v in groups.values())

    checks: list[tuple[str, int, list[str]]] = []

    # Weighted counts: closed form and recursion against the fibre sum.
    def weighted_case(k):
        bad = []
        brute = sum(Fraction(1, t.automorphism_order()) for t in fibres.get(k, ()))
        closed = w_formula(k)
        rec = weighted_counts_recursive(k)
        if closed != brute:
            bad.append(f"quantity=weighted-closed k={k} "
                       f"expected={_frac_str(brute)} got={_frac_str(closed)}")
        if rec != brute:
            bad.append(f"quantity=weighted-recursive k={k} "
                       f"expected={_frac_str(brute)} got={_frac_str(rec)}")
        return bad
    checks.append(("weighted-threeway", len(profiles),
                   [m for k in profiles for m in weighted_case(k)]))

    # Labelled count identity L = n! * W against the brute fibre sum.
    def labelled_case(k):
        brute = sum(Fraction(1, t.automorphism_order()) for t in fibres.get(k, ()))
        expected = math.factorial(k.degree()) * brute
        got = weighted_counts(k).L
        if got != expected:
            return [f"quantity=labelled-identity k={k} "
                    f"expected={_frac_str(expected)} got={got}"]
        return []
    checks.append(("labelled-identity", len(profiles),
                   [m for k in profiles for m in labelled_case(k)]))

    # Prescribed fertility formula against exhaustive labelled enumeration.
    prufer_bad: list[str] = []
    prufer_cases = 0
    for n in range(1, min(max_n, 5) + 1):
        histogram = labelled_fertility_counts(n)
        for fert in _compositions_of(n - 1, n):
            prufer_cases += 1
            expected = histogram.get(fert, 0)
            got = prescribed_fertility_count(fert)
            if got != expected:
                prufer_bad.append(f"quantity=prufer-prescribed k={list(fert)} "
                                  f"expected={expected} got={got}")
    checks.append(("prufer-prescribed", prufer_cases, prufer_bad))

    # Integer fibre mass: J against the sum of expansion coefficients.
    def mass_case(k):
        sigma = k.symmetry_factor()
        brute = sum(Fraction(sigma, t.automorphism_order())
                    for t in fibres.get(k, ()))
        got = weighted_counts(k).J
        if brute.denominator != 1 or got != brute:
            return [f"quantity=mass-integrality k={k} "
                    f"expected={_frac_str(brute)} got={got}"]
        return []
    checks.append(("mass-integrality", len(profiles),
                   [m for k in profiles for m in mass_case(k)]))

    # Plain counts: recursion against fibre sizes, then totals per degree.
    def ordinary_case(k):
        expected = len(fibres.get(k, ()))
        got = ordinary_count(k)
        if got != expected:
            return [f"quantity=ordinary-count k={k} "
                    f"expected={expected} got={got}"]
        return []
    checks.append(("ordinary-count", len(profiles),
                   [m for k in profiles for m in ordinary_case(k)]))

    totals_bad = []
    for n in range(1, max_n + 1):
        got = sum(ordinary_count(k) for k in profiles if k.degree() == n)
        if got != tree_totals[n]:
            totals_bad.append(f"quantity=ordinary-totals k=degree:{n} "
                              f"expected={tree_totals[n]} got={got}")
    checks.append(("ordinary-totals", max_n, totals_bad))

    # Series solutions against per-profile counts, including stray monomials.
    ns = min(max_n, 6)
    series_bad: list[str] = []
    w_series = weighted_series(alph, ns)
    f_series = ordinary_series(alph, ns)
    small = [k for k in profiles if k.degree() <= ns]
    small_set = set(small)
    for k in small:
        expected_w = w_formula(k)
        got_w = w_series.coefficient(k)
        if got_w != expected_w:
            series_bad.append(f"quantity=series-weighted k={k} "
                              f"expected={_frac_str(expected_w)} got={_frac_str(got_w)}")
        expected_f = ordinary_count(k)
        got_f = f_series.coefficient(k)
        if got_f != expected_f:
            series_bad.append(f"quantity=series-ordinary k={k} "
                              f"expected={expected_f} got={_frac_str(got_f)}")
    for series, label in ((w_series, "weighted"), (f_series, "ordinary")):
        for mono in series.monomials():
            if mono not in small_set:
                series_bad.append(f"quantity=series-stray-{label} k={mono} "
                                  f"expected=absent got={_frac_str(series.coefficient(mono))}")
    checks.append(("series-coefficients", 2 * len(small) + 2, series_bad))

    # Branch-multiset series: product route against the cycle-index route.
    nh = min(max_n, 5)
    h_bad = []
    for m in range(0, min(max_n, 3) + 1):
        via_product = h_series_product(alph, m, nh)
        via_cycle = h_series_cycle(alph, m, nh)
        if via_product != via_cycle:
            h_bad.append(f"quantity=h-series-dual k=m:{m} "
                         f"expected={_poly_str(dict(via_product.sorted_terms()))} "
                         f"got={_poly_str(dict(via_cycle.sorted_terms()))}")
    checks.append(("h-series-dual", min(max_n, 3) + 1, h_bad))

    # Lowering: C tables against iterated lowering and transition GFs.
    lower_r = 3
    lower_ks = enumerate_multiindices(alph, min(max_n, 4), 3)

    def lowering_case(k):
        bad = []
        tables = c_tables_fn(k, lower_r)
        poly = {k: 1}
        for r in range(1, lower_r + 1):
            poly = apply_lowering(poly)
            expanded = {apply_shift(k, low): c for low, c in tables[r].items()}
            if expanded != poly:
                bad.append(f"quantity=lowering-C k={k} r={r} "
                           f"expected={_poly_str(poly)} got={_poly_str(expanded)}")
                break
        for r in range(0, lower_r + 1):
            for low, c in tables[r].items():
                via_c = d_coefficient(k, low)
                via_d = d_coefficient_recursive(k, low)
                if via_c != via_d:
                    bad.append(f"quantity=lowering-D k={k} l={low} "
                               f"expected={via_c} got={via_d}")
                target = apply_shift(k, low)
                upoly = transition_gf(k, target)
                want = {r: Fraction(c, math.factorial(r))}
                if upoly != want:
                    bad.append(f"quantity=lowering-transition k={k} b={target} "
                               f"expected={_upoly_str(want)} got={_upoly_str(upoly)}")
        return bad
    checks.append(("lowering-threeway", len(lower_ks),
                   [m for k in lower_ks for m in lowering_case(k)]))

    # Coproduct: the three right-leg expansions, in both decomposition modes.
    co_ks = [k for k in profiles if k.degree() <= min(max_n, 4)]

    def coproduct_case(k):
        bad = []
        for mode in DECOMPOSITION_MODES:
            base = coproduct(k, "raw-dbar", mode)
            for form in ("refined-C", "refined-D"):
                other = coproduct(k, form, mode)
                if other != base:
                    bad.append(f"quantity=coproduct-{form}-{mode} k={k} "
                               f"expected={len(base)}terms got={len(other)}terms")
        return bad
    checks.append(("coproduct-forms", len(co_ks),
                   [m for k in co_ks for m in coproduct_case(k)]))

    first_mismatch = None
    for name, cases, bad in checks:
        if bad and first_mismatch is None:
            first_mismatch = bad[0]
    return {
        "checks": [{"name": name, "cases": cases, "mismatches": bad}
                   for name, cases, bad in sorted(checks)],
        "first_mismatch": first_mismatch,
        "result": "pass" if first_mismatch is None else "fail",
    }


def report_lines(report: dict) -> list[str]:
    lines = []
    for check in report["checks"]:
        if check["mismatches"]:
            status = f"fail ({len(check['mismatches'])} mismatches)"
        else:
            status = "pass"
        lines.append(f"check {check['name']}: {status} ({check['cases']} cases)")
    if report["first_mismatch"] is not None:
        lines.append(f"mismatch: {report['first_mismatch']}")
    lines.append(f"RESULT: {report['result'].upper()}")
    return lines


def _compositions_of(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions_of(total - head, parts - 1):
            yield (head,) + tail


def cmd_oracle(args) -> int:
    alphabet = _parse_alphabet(args.alphabet)
    if not args.force:
        if args.max_n > ORACLE_N_CAP:
            raise CapExceeded(f"max-n {args.max_n} exceeds cap {ORACLE_N_CAP}"
                              " (use --force to override)")
        if len(alphabet) > ORACLE_ALPHABET_CAP:
            raise CapExceeded(
                f"oracle alphabet exceeds {ORACLE_ALPHABET_CAP} decorations"
                " (use --force to override)")
    report = run_oracle(args.max_n, alphabet)
    if args.format == "json":
        payload = {"max_n": args.max_n, "alphabet": list(alphabet),
                   "jobs": args.jobs, "checks": report["checks"],
                   "first_mismatch": report["first_mismatch"],
                   "result": report["result"]}
        print(json.dumps(payload))
    else:
        print(f"oracle max_n={args.max_n} alphabet={','.join(alphabet)}")
        for line in report_lines(report):
            print(line)
    return 0 if report["result"] == "pass" else 1


# -- entry point ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibrecount",
        description="Exact fibre counts of the decoration-fertility profile map.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("count", help="F, W, J, L for one profile")
    p.add_argument("k", help="profile, e.g. a:1=1,a:0=1,a:-1=2")
    add_format(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("series", help="solve a counting series by fixpoint iteration")
    p.add_argument("mode", choices=("weighted", "ordinary"))
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--alphabet", default="a")
    p.add_argument("--force", action="store_true",
                   help="lift the degree cap")
    add_format(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("lower", help="C coefficients of the r-th lowering iterate")
    p.add_argument("k")
    p.add_argument("r", type=int)
    add_format(p)
    p.set_defaults(func=cmd_lower)

    p = sub.add_parser("transition", help="u-polynomial between two monomials")
    p.add_argument("k")
    p.add_argument("b")
    add_format(p)
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("coproduct", help="tensor expansion of a profile monomial")
    p.add_argument("k")
    p.add_argument("form", choices=FORMS, nargs="?", default="raw-dbar")
    p.add_argument("--decomposition", choices=DECOMPOSITION_MODES,
                   default="multiset")
    p.add_argument("--forest-sigma", choices=FOREST_SIGMA_MODES,
                   default="mult-times-sigma")
    add_format(p)
    p.set_defaults(func=cmd_coproduct)

    p = sub.add_parser("oracle", help="cross-check all modules against brute force")
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--alphabet", default="a,b")
    p.add_argument("--jobs", type=int, default=1,
                   help="echoed in the JSON report; the oracle runs sequentially")
    p.add_argument("--force", action="store_true",
                   help="lift the size caps")
    add_format(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
