"""fibrecount command line: exact counts, series, shift coefficients, coproduct.

Exit codes: 0 success, 1 oracle mismatch, 2 parse error, 3 domain error,
4 cap exceeded, 5 internal error.  All output is deterministic: reports are
sorted by canonical keys, so repeated runs are byte-identical.  The oracle
accepts ``--jobs`` (an integer >= 1) and echoes it in its JSON report, but
always runs sequentially.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import operator
import os
import sys
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Optional

from .multiindex import (MultiIndex, ParseError, entries_text, enumerate_multiindices,
                         enumerate_profiles, find_shift, is_valid_decoration)
from .trees import fibre_statistics, labelled_fertility_counts
from .weighted import (prescribed_fertility_count, weighted_counts,
                       weighted_counts_recursive, weighted_series)
from .ordinary import (_h_series_cycles, fill_counts, h_series_product,
                       ordinary_count, ordinary_count_recursive, ordinary_series)
from .lowering import (_c_levels, _d_levels, _level, _level_rows, apply_lowering,
                       c_coefficient_tables, transition_gf, transport_walk, walk_term)
from .coproduct import (DECOMPOSITION_MODES, FOREST_SIGMA_MODES, FORMS,
                        coproduct)

SERIES_DEGREE_CAP = 12
ORACLE_N_CAP = 8
ORACLE_ALPHABET_CAP = 2
ALPHABET_CAP = 16


class CapExceeded(Exception):
    """A configured hard cap would be exceeded; refuse rather than thrash."""


def _frac_str(value) -> str:
    return str(Fraction(value))


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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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

@contextlib.contextmanager
def _unlimited_digits():
    """Lift Python's int-to-str digit limit (3.11+) for the block."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)


def cmd_count(args) -> int:
    k = MultiIndex.parse(args.k)
    counts = weighted_counts(k)
    fibre_size = ordinary_count(k)
    # The whole report is rendered before any of it is written.
    with _unlimited_digits():
        if args.format == "json":
            report = json.dumps({"k": str(k), "F": fibre_size,
                                 "W": _frac_json(counts.W),
                                 "J": counts.J, "L": counts.L})
        else:
            report = "\n".join((f"k = {k}", f"degree = {k.degree()}",
                                 f"weight = {k.weight()}", f"F = {fibre_size}",
                                 f"W = {_frac_str(counts.W)}", f"J = {counts.J}",
                                 f"L = {counts.L}"))
    print(report)
    return 0


def cmd_series(args) -> int:
    alphabet = _parse_alphabet(args.alphabet)
    if args.max_degree > SERIES_DEGREE_CAP and not args.force:
        raise CapExceeded(
            f"degree {args.max_degree} exceeds cap {SERIES_DEGREE_CAP}"
            " (use --force to override)")
    solve = weighted_series if args.mode == "weighted" else ordinary_series
    terms = solve(alphabet, args.max_degree).sorted_terms()
    if args.format == "json":
        value = _frac_json if args.mode == "weighted" else int
        coeffs = [{"k": str(mono), "value": value(c)} for mono, c in terms]
        print(json.dumps({"mode": args.mode, "alphabet": list(alphabet),
                          "max_degree": args.max_degree,
                          "coefficients": coeffs}))
    else:
        for mono, c in terms:
            print(f"{mono} -> {_frac_str(c)}")
    return 0


def cmd_lower(args) -> int:
    k = MultiIndex.parse(args.k)
    # Every l of one level has degree r, so the entry tuples of l sort as
    # their multi-indices' sort keys do; the rows print with no MultiIndex.
    rows = sorted(_level_rows(*_level(_c_levels(k, args.r), args.r)),
                  key=operator.itemgetter(0))
    if args.format == "json":
        print(json.dumps({"k": str(k), "r": args.r, "terms": [
            {"l": entries_text(low), "C": c, "target": entries_text(target)}
            for low, target, c in rows]}))
    else:
        for low, target, c in rows:
            print(f"l = {entries_text(low)}, C = {c}, target = {entries_text(target)}")
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
    # Terms sort by (forest, right monomial); forests and right monomials
    # are each shared by many terms, so each forest's key and text, and each
    # monomial's text, are built once.  Every coefficient is a Fraction,
    # which prints as it is.
    groups: dict = {}
    texts: dict = {}
    for (forest, mono), c in expansion.items():
        groups.setdefault(forest, []).append((mono, c))
        if mono not in texts:
            texts[mono] = str(mono)
    ordered = sorted(groups.items(),
                     key=lambda kv: tuple(p.sort_key() + (m,) for p, m in kv[0]))
    for _, terms in ordered:
        terms.sort(key=lambda term: term[0].sort_key())
    if args.format == "json":
        rows = []
        for forest, terms in ordered:
            parts = [{"k": str(p), "mult": m} for p, m in forest]
            rows.extend({"forest": parts, "right": texts[mono],
                         "num": c.numerator, "den": c.denominator}
                        for mono, c in terms)
        print(json.dumps({
            "k": str(k), "form": args.form,
            "decomposition": args.decomposition,
            "forest_sigma": args.forest_sigma,
            "terms": rows}))
    else:
        lines = []
        for forest, terms in ordered:
            left = _forest_str(forest)
            lines.extend(f"{left} (x) {texts[mono]} : {c}" for mono, c in terms)
        print("\n".join(lines))
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
    # Brute force: each fibre's trees counted by automorphism order.  The
    # fibre sizes and the fibre masses sum 1/aut, read by three checks, sum
    # over the distinct orders.
    stats = fibre_statistics(max_n, alph)
    sizes = {k: sum(tally.values()) for k, tally in stats.items()}
    masses = {k: sum(Fraction(m, aut) for aut, m in stats.get(k, {}).items())
              for k in profiles}
    tree_totals = dict.fromkeys(range(1, max_n + 1), 0)
    for k, size in sizes.items():
        tree_totals[k.degree()] += size
    # F and W of every profile by the recursion, in one walk.
    fill_counts(alph, max_n)

    checks: list[tuple[str, int, list[str]]] = []

    # Weighted counts: closed form and recursion against the fibre sum.
    def weighted_case(k):
        bad = []
        brute = masses[k]
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
        expected = math.factorial(k.degree()) * masses[k]
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
        for fert in itertools.product(range(n), repeat=n):
            if sum(fert) != n - 1:
                continue
            prufer_cases += 1
            expected = histogram.get(fert, 0)
            got = prescribed_fertility_count(fert)
            if got != expected:
                prufer_bad.append(f"quantity=prufer-prescribed k={list(fert)} "
                                  f"expected={expected} got={got}")
    checks.append(("prufer-prescribed", prufer_cases, prufer_bad))

    # Integer fibre mass: J against the sum of expansion coefficients.
    def mass_case(k):
        brute = k.symmetry_factor() * masses[k]
        got = weighted_counts(k).J
        if brute.denominator != 1 or got != brute:
            return [f"quantity=mass-integrality k={k} "
                    f"expected={_frac_str(brute)} got={got}"]
        return []
    checks.append(("mass-integrality", len(profiles),
                   [m for k in profiles for m in mass_case(k)]))

    # Plain counts: the box solve and the recursion against fibre sizes,
    # then the box solve's totals per degree.
    counts = {k: ordinary_count(k) for k in profiles}
    counts_recursive = {k: ordinary_count_recursive(k) for k in profiles}

    def ordinary_case(k):
        bad = []
        expected = sizes.get(k, 0)
        for label, got in (("ordinary-count", counts[k]),
                           ("ordinary-count-recursive", counts_recursive[k])):
            if got != expected:
                bad.append(f"quantity={label} k={k} "
                           f"expected={expected} got={got}")
        return bad
    checks.append(("ordinary-count", len(profiles),
                   [m for k in profiles for m in ordinary_case(k)]))

    totals_bad = []
    for n in range(1, max_n + 1):
        got = sum(counts[k] for k in profiles if k.degree() == n)
        if got != tree_totals[n]:
            totals_bad.append(f"quantity=ordinary-totals k=degree:{n} "
                              f"expected={tree_totals[n]} got={got}")
    checks.append(("ordinary-totals", max_n, totals_bad))

    # Series solutions against per-profile counts, including stray monomials;
    # F against the recursion, as the box counts share the series' solver.
    ns = min(max_n, 6)
    small = [k for k in profiles if k.degree() <= ns]
    small_set = set(small)
    routes = (("weighted", weighted_series(alph, ns), w_formula),
              ("ordinary", ordinary_series(alph, ns), counts_recursive.get))
    series_bad = [f"quantity=series-{label} k={k} expected={_frac_str(want(k))} "
                  f"got={_frac_str(series.coefficient(k))}"
                  for k in small for label, series, want in routes
                  if series.coefficient(k) != want(k)]
    for label, series, _ in routes:
        for mono in series.monomials():
            if mono not in small_set:
                series_bad.append(f"quantity=series-stray-{label} k={mono} "
                                  f"expected=absent got={_frac_str(series.coefficient(mono))}")
    checks.append(("series-coefficients", 2 * len(small) + 2, series_bad))

    # Branch-multiset series: product route against the cycle-index route.
    nh, mh = min(max_n, 5), min(max_n, 3)
    h_bad = []
    for m, via_cycle in enumerate(_h_series_cycles(alph, mh, nh)):
        via_product = h_series_product(alph, m, nh)
        if via_product != via_cycle:
            h_bad.append(f"quantity=h-series-dual k=m:{m} "
                         f"expected={_poly_str(dict(via_product.sorted_terms()))} "
                         f"got={_poly_str(dict(via_cycle.sorted_terms()))}")
    checks.append(("h-series-dual", mh + 1, h_bad))

    # Lowering: C tables against iterated lowering, the D route's own levels
    # (same support, D = C * target!) and the transport-array walk of k,
    # stray targets included.  All three meet in the walk's codes: the
    # level layout of k reads the target code of any l off its state, and
    # a MultiIndex is built only for a mismatch message.
    lower_r = 3
    lower_ks = enumerate_multiindices(alph, min(max_n, 4), 3)

    def lowering_case(k):
        bad = []
        tables = c_tables_fn(k, lower_r)
        layout, totals = transport_walk(k, lower_r)
        states, d_levels = _d_levels(k, lower_r)

        def c_target(low):
            state = states.state(low)     # None when a target count of l is negative
            return None if state is None else states.target_code(state)
        rows = [[(low, c_target(low), c) for low, c in table.items()] for table in tables]

        poly = {k: 1}
        for r in range(0, lower_r + 1):
            lost = [(low, c) for low, code, c in rows[r] if code is None]
            if lost:
                bad.append(f"quantity=lowering-C k={k} r={r} l={lost[0][0]} "
                           f"expected=0 got={lost[0][1]}")
                break
            if not r:
                continue
            poly = apply_lowering(poly)
            expanded = {code: c for _, code, c in rows[r]}
            if expanded != {layout.code(m): c for m, c in poly.items()}:
                got = {layout.decode(code): c for code, c in expanded.items()}
                bad.append(f"quantity=lowering-C k={k} r={r} "
                           f"expected={_poly_str(poly)} got={_poly_str(got)}")
                break

        def walked(code):
            return walk_term(k, layout, code, totals[code])[1] if code in totals else {}
        reached = set()
        for r, d_level in itertools.zip_longest(range(lower_r + 1), d_levels, fillvalue={}):
            c_codes = {code for _, code, _ in rows[r]}
            d_codes = {}
            for state, d in d_level.items():
                code = states.target_code(state)
                d_codes[code] = d
                if code not in c_codes:
                    bad.append(f"quantity=lowering-D k={k} l={states.lowering(state)} "
                               f"expected=0 got={d}")
            for low, code, c in rows[r]:
                if code is None:
                    continue
                reached.add(code)
                via_c = c * layout.symmetry_factor(code)
                via_d = d_codes.get(code, 0)
                if via_c != via_d:
                    bad.append(f"quantity=lowering-D k={k} l={low} "
                               f"expected={via_c} got={via_d}")
                # The walk's u-degree at a target is its drop |l|.
                if totals.get(code) != c or low.degree() != r:
                    want = {r: Fraction(c, math.factorial(r))}
                    bad.append(f"quantity=lowering-transition k={k} b={layout.decode(code)} "
                               f"expected={_upoly_str(want)} got={_upoly_str(walked(code))}")
        for code in totals:
            if code not in reached:
                bad.append(f"quantity=lowering-transition k={k} b={layout.decode(code)} "
                           f"expected=0 got={_upoly_str(walked(code))}")
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

@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="fibrecount",
        description="Exact fibre counts of the decoration-fertility profile map.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("count", help="F, W, J, L for one profile")
    p.add_argument("k", help="profile, e.g. a:1=1,a:0=1,a:-1=2")
    add_format(p)

    p = sub.add_parser("series", help="solve a counting series by fixpoint iteration")
    p.add_argument("mode", choices=("weighted", "ordinary"))
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--alphabet", default="a")
    p.add_argument("--force", action="store_true",
                   help="lift the degree cap")
    add_format(p)

    p = sub.add_parser("lower", help="C coefficients of the r-th lowering iterate")
    p.add_argument("k")
    p.add_argument("r", type=int)
    add_format(p)

    p = sub.add_parser("transition", help="u-polynomial between two monomials")
    p.add_argument("k")
    p.add_argument("b")
    add_format(p)

    p = sub.add_parser("coproduct", help="tensor expansion of a profile monomial")
    p.add_argument("k")
    p.add_argument("form", choices=FORMS, nargs="?", default="raw-dbar")
    p.add_argument("--decomposition", choices=DECOMPOSITION_MODES,
                   default="multiset")
    p.add_argument("--forest-sigma", choices=FOREST_SIGMA_MODES,
                   default="mult-times-sigma")
    add_format(p)

    p = sub.add_parser("oracle", help="cross-check all modules against brute force")
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--alphabet", default="a,b")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="echoed in the JSON report; the oracle runs sequentially")
    p.add_argument("--force", action="store_true",
                   help="lift the size caps")
    add_format(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # Anything else is a fault of the program, never an oracle verdict.
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        detail = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {detail} (at "
              f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno})",
              file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
