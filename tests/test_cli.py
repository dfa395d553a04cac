import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fibrecount import cli
from fibrecount.cli import main, run_oracle
from fibrecount.coproduct import DECOMPOSITION_MODES, FOREST_SIGMA_MODES, FORMS
from fibrecount.lowering import c_coefficient_level, c_coefficient_tables
from fibrecount.multiindex import (MultiIndex, apply_shift, enumerate_multiindices,
                                   enumerate_profiles)
from fibrecount.ordinary import ordinary_series
from fibrecount.series import TruncatedSeries
from fibrecount.weighted import weighted_counts, weighted_series


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- count ---------------------------------------------------------------------

def test_count_text(capsys):
    code, out, _ = run(capsys, "count", "a:1=1,a:0=1,a:-1=2")
    assert code == 0
    assert out == ("k = a:-1=2,a:0=1,a:1=1\n"
                   "degree = 4\n"
                   "weight = -1\n"
                   "F = 2\n"
                   "W = 3/2\n"
                   "J = 3\n"
                   "L = 36\n")


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "a:1=1,a:-1=2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"k": "a:-1=2,a:1=1", "F": 1,
                       "W": {"num": 1, "den": 2}, "J": 1, "L": 3}


# -- series --------------------------------------------------------------------

def test_series_text(capsys):
    code, out, _ = run(capsys, "series", "weighted", "--max-degree", "3")
    assert code == 0
    assert out == ("a:-1=1 -> 1\n"
                   "a:-1=1,a:0=1 -> 1\n"
                   "a:-1=1,a:0=2 -> 1\n"
                   "a:-1=2,a:1=1 -> 1/2\n")


def test_series_json_ordinary(capsys):
    code, out, _ = run(capsys, "series", "ordinary", "--max-degree", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "ordinary"
    assert payload["alphabet"] == ["a"]
    assert payload["max_degree"] == 3
    values = {c["k"]: c["value"] for c in payload["coefficients"]}
    assert values == {"a:-1=1": 1, "a:-1=1,a:0=1": 1,
                      "a:-1=1,a:0=2": 1, "a:-1=2,a:1=1": 1}


# -- lower / transition ----------------------------------------------------------

def test_lower_text(capsys):
    code, out, _ = run(capsys, "lower", "a:0=2", "1")
    assert code == 0
    assert out == "l = a:0=1, C = 2, target = a:-1=1,a:0=1\n"


def test_lower_json(capsys):
    code, out, _ = run(capsys, "lower", "a:1=1", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"k": "a:1=1", "r": 2, "terms": [
        {"l": "a:0=1,a:1=1", "C": 1, "target": "a:-1=1"}]}


def _lower_reference(k, r):
    # The rows of the C level, sorted as multi-indices and printed with str.
    return sorted(c_coefficient_level(k, r), key=lambda row: row[0].sort_key())


def test_lower_prints_the_c_level_rows(capsys):
    # Every k of degree <= 4 with j <= 3 on a,b, the empty one included, at
    # each order up to 4 and one past the largest drop sum (j + 1) * k_j.
    for k in enumerate_multiindices(("a", "b"), 4, 3):
        top = sum((j + 1) * c for (_, j), c in k.items())
        for r in sorted({0, 1, 2, 3, 4, top + 1}):
            rows = _lower_reference(k, r)
            code, out, _ = run(capsys, "lower", str(k), str(r))
            assert code == 0
            assert out == "".join(f"l = {low}, C = {c}, target = {target}\n"
                                  for low, target, c in rows), (k, r)
            code, out, _ = run(capsys, "lower", str(k), str(r), "--format", "json")
            assert code == 0
            assert json.loads(out) == {"k": str(k), "r": r, "terms": [
                {"l": str(low), "C": c, "target": str(target)}
                for low, target, c in rows]}, (k, r)


def test_lower_past_the_largest_drop_is_empty_at_once(capsys):
    # The largest drop of a:0=2 is 2; the C levels stop at the first empty
    # one, so an order far past it builds nothing.
    start = time.perf_counter()
    code, out, _ = run(capsys, "lower", "a:0=2", "100000000000")
    assert (code, out) == (0, "")
    code, out, _ = run(capsys, "lower", "a:0=2", "100000000000", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"k": "a:0=2", "r": 100000000000, "terms": []}
    # Past sys.maxsize too.
    for r in (sys.maxsize, sys.maxsize + 1):
        code, out, _ = run(capsys, "lower", "a:-1=1,a:0=1", str(r))
        assert (code, out) == (0, "")
        code, out, _ = run(capsys, "lower", "a:-1=1,a:0=1", str(r), "--format", "json")
        assert code == 0
        assert json.loads(out) == {"k": "a:-1=1,a:0=1", "r": r, "terms": []}
    assert time.perf_counter() - start < 1


def _stdout(*argv):
    # One in-process run, for Hypothesis, which takes no function-scoped
    # fixture such as capsys.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


LOWER_KEYS = [(a, j) for a in "ab" for j in range(-1, 4)]


@st.composite
def small_monomials(draw):
    counts = draw(st.lists(st.integers(0, 2), min_size=len(LOWER_KEYS),
                           max_size=len(LOWER_KEYS)))
    return MultiIndex(zip(LOWER_KEYS, counts))


@settings(max_examples=80, deadline=None)
@given(small_monomials(), st.integers(0, 6))
@example(MultiIndex.parse("a:1=2"), 2)
def test_lower_json_rows_are_the_text_lines_in_l_order(k, r):
    # The rows come in the order of their l entry tuples, where a key with a
    # nonzero count sorts before the same key at zero: in `lower a:1=2 2`,
    # l = a:0=1,a:1=1 comes before l = a:1=2.
    text = _stdout("lower", str(k), str(r))
    terms = json.loads(_stdout("lower", str(k), str(r), "--format", "json"))["terms"]
    assert [f"l = {t['l']}, C = {t['C']}, target = {t['target']}" for t in terms] \
        == text.splitlines()
    lows = [MultiIndex.parse(t["l"]).items() for t in terms]
    assert all(a < b for a, b in zip(lows, lows[1:])), (k, r)


def _parsed(text):
    # A printed monomial parses back and prints as it was printed.
    m = MultiIndex.parse(text)
    assert str(m) == text
    return m


def _decoration_degrees(m, times=1):
    out = {}
    for (a, _), c in m.items():
        out[a] = out.get(a, 0) + c * times
    return out


@settings(max_examples=60, deadline=None)
@given(small_monomials(), st.integers(0, 6))
@example(MultiIndex.parse("a:0=255"), 2)
@example(MultiIndex(), 0)
def test_lower_rows_parse_back(k, r):
    # Every printed l and target, in text and in JSON, parses back: the
    # target is the shift of l, and C is the C level's value at l.
    c_level = {low: (target, c) for low, target, c in c_coefficient_level(k, r)}
    lines = _stdout("lower", str(k), str(r)).splitlines()
    terms = json.loads(_stdout("lower", str(k), str(r), "--format", "json"))["terms"]
    assert len(lines) == len(terms) == len(c_level)
    for line, term in zip(lines, terms):
        low_text, c_text, target_text = line.split(", ")
        rows = ((low_text.removeprefix("l = "), int(c_text.removeprefix("C = ")),
                 target_text.removeprefix("target = ")),
                (term["l"], term["C"], term["target"]))
        for low, c, target in rows:
            low, target = _parsed(low), _parsed(target)
            assert target == apply_shift(k, low) and c_level[low] == (target, c), (k, r)


CO_PROFILES = enumerate_profiles(("a", "b"), 6)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CO_PROFILES))
@example(MultiIndex.parse("a:-1=1"))
@example(MultiIndex.parse("a:-1=4,a:0=3,a:1=3"))
def test_coproduct_rows_parse_back(k):
    # Every printed forest part and right monomial, in each form, in text
    # and in JSON, parses back: each part has weight -1, and per decoration
    # the parts' degrees times their multiplicities and the right
    # monomial's degree add up to k's.
    for form in FORMS:
        rows = []
        for line in _stdout("coproduct", str(k), form).splitlines():
            left, rest = line.split(" (x) ")
            parts = [] if left == "1" else [
                (text[1:-1], 1) if text.endswith("]") else
                (text[1:text.index("]")], int(text[text.index("]^") + 2:]))
                for text in left.split(" * ")]
            rows.append((parts, rest.split(" : ")[0]))
        payload = json.loads(_stdout("coproduct", str(k), form, "--format", "json"))
        assert len(payload["terms"]) == len(rows)
        rows += [([(p["k"], p["mult"]) for p in t["forest"]], t["right"])
                 for t in payload["terms"]]
        for parts, right in rows:
            total = _decoration_degrees(_parsed(right))
            for text, mult in parts:
                part = _parsed(text)
                assert part.weight() == -1 and mult >= 1, (k, form)
                for a, c in _decoration_degrees(part, mult).items():
                    total[a] = total.get(a, 0) + c
            assert total == _decoration_degrees(k), (k, form)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CO_PROFILES), st.sampled_from(FORMS),
       st.sampled_from(DECOMPOSITION_MODES), st.sampled_from(FOREST_SIGMA_MODES))
def test_coproduct_json_rows_are_the_text_lines(k, form, mode, sigma):
    argv = ("coproduct", str(k), form, "--decomposition", mode, "--forest-sigma", sigma)
    text = _stdout(*argv)
    payload = json.loads(_stdout(*argv, "--format", "json"))
    assert payload["k"] == str(k) and payload["form"] == form
    lines = []
    for t in payload["terms"]:
        left = " * ".join(f"[{p['k']}]" + (f"^{p['mult']}" if p["mult"] > 1 else "")
                          for p in t["forest"]) or "1"
        value = str(Fraction(t["num"], t["den"]))
        assert value == (f"{t['num']}" if t["den"] == 1 else f"{t['num']}/{t['den']}")
        lines.append(f"{left} (x) {t['right']} : {value}")
    assert lines == text.splitlines()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True),
       st.integers(1, 6), st.sampled_from(("ordinary", "weighted")))
@example(["b", "a"], 6, "weighted")
def test_series_json_coefficients_are_the_text_lines_in_order(letters, degree, mode):
    # The JSON coefficients print as the text lines, in strictly rising
    # (degree, entries) order, with the values of the library series.
    argv = ("series", mode, "--max-degree", str(degree), "--alphabet", ",".join(letters))
    text = _stdout(*argv)
    payload = json.loads(_stdout(*argv, "--format", "json"))
    alphabet = sorted(letters)
    assert list(payload) == ["mode", "alphabet", "max_degree", "coefficients"]
    assert (payload["mode"], payload["alphabet"], payload["max_degree"]) \
        == (mode, alphabet, degree)
    coeffs = payload["coefficients"]
    if mode == "weighted":
        values = [Fraction(c["value"]["num"], c["value"]["den"]) for c in coeffs]
        assert [(v.numerator, v.denominator) for v in values] \
            == [(c["value"]["num"], c["value"]["den"]) for c in coeffs]
    else:
        values = [c["value"] for c in coeffs]
        assert all(type(v) is int for v in values)
    assert [f"{c['k']} -> {v}" for c, v in zip(coeffs, values)] == text.splitlines()
    keys = [MultiIndex.parse(c["k"]).sort_key() for c in coeffs]
    assert all(a < b for a, b in zip(keys, keys[1:])), argv
    solve = weighted_series if mode == "weighted" else ordinary_series
    assert {MultiIndex.parse(c["k"]): v for c, v in zip(coeffs, values)} \
        == dict(solve(tuple(alphabet), degree).sorted_terms())


def test_transition_text(capsys):
    code, out, _ = run(capsys, "transition", "a:1=1", "a:-1=1")
    assert code == 0
    assert out == "u^2/2\n"


def test_transition_unreachable(capsys):
    code, out, _ = run(capsys, "transition", "a:-1=1", "a:0=1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"k": "a:-1=1", "b": "a:0=1", "l": None, "terms": []}


TRANSITION_KEYS = [(a, j) for a in "ab" for j in range(-1, 4)]


def _monomials(keys):
    # Degree <= 4 over the given keys.
    return st.lists(st.sampled_from(keys), max_size=4).map(
        lambda drawn: MultiIndex([(key, 1) for key in drawn]))


@st.composite
def transition_pairs(draw):
    # k on a,b, and b either a target of k or any monomial, which may be
    # unreachable or carry a key k lacks.
    k = draw(_monomials(TRANSITION_KEYS))
    b = apply_shift(k, draw(_monomials([key for key in TRANSITION_KEYS if key[1] >= 0])))
    if b is None or draw(st.booleans()):
        b = draw(_monomials(TRANSITION_KEYS + [("c", -1), ("c", 0)]))
    return k, b


def _term_text(term):
    value, d = Fraction(term["num"], term["den"]), term["degree"]
    if d == 0:
        return str(value)
    return ("" if value.numerator == 1 else f"{value.numerator}*") \
        + ("u" if d == 1 else f"u^{d}") \
        + ("" if value.denominator == 1 else f"/{value.denominator}")


@settings(max_examples=150, deadline=None)
@given(transition_pairs())
@example((MultiIndex.parse("a:0=1"), MultiIndex.parse("a:3=1")))
@example((MultiIndex.parse("a:0=1,b:0=1"), MultiIndex.parse("a:-1=1,a:0=1")))
def test_transition_json_terms_are_the_text_line(pair):
    # Every pair exits 0; the JSON terms print as the text line, and l is
    # null exactly when no term is left.
    k, b = pair
    text = _stdout("transition", str(k), str(b))
    payload = json.loads(_stdout("transition", str(k), str(b), "--format", "json"))
    assert (payload["k"], payload["b"]) == (str(k), str(b))
    assert (" + ".join(map(_term_text, payload["terms"])) or "0") + "\n" == text
    assert (payload["l"] is None) == (not payload["terms"]), pair


@pytest.mark.parametrize("entries", [45, 200])
def test_transition_on_many_distinct_entries(capsys, entries):
    # One transport array, the identity, found at any number of cells.
    k = ",".join(f"a:{j}=1" for j in range(entries))
    code, out, _ = run(capsys, "transition", k, k)
    assert code == 0
    assert out == "1\n"


# -- coproduct ---------------------------------------------------------------------

def test_coproduct_text(capsys):
    code, out, _ = run(capsys, "coproduct", "a:-1=2,a:1=1")
    assert code == 0
    assert out == ("1 (x) a:-1=2,a:1=1 : 1\n"
                   "[a:-1=1] (x) a:-1=1,a:0=1 : 2\n"
                   "[a:-1=1]^2 (x) a:-1=1 : 1\n")


@pytest.mark.parametrize("form", ["refined-C", "refined-D"])
def test_coproduct_forms_match_default(capsys, form):
    _, base, _ = run(capsys, "coproduct", "b:-1=2,b:1=1")
    _, other, _ = run(capsys, "coproduct", "b:-1=2,b:1=1", form)
    assert other == base


# -- golden outputs ----------------------------------------------------------------

GOLDEN_K = "a:-1=5,a:1=1,a:2=1,b:0=1,b:1=1"     # a degree-9 profile
IDENTITY_200 = ",".join(f"a:{j}=1" for j in range(200))

# SHA-256 of stdout, recorded before `lower` and the refined right legs read
# their targets off the dense level tables, and before both series ran on
# the graded solver.
GOLDEN = [
    (("series", "ordinary", "--max-degree", "10", "--alphabet", "a,b"),
     "a85c88a863737ae703fce053e0bd108542c3eac60884d3ddcb6e9085c4928ce6"),
    (("series", "ordinary", "--max-degree", "10", "--alphabet", "a,b", "--format", "json"),
     "3140663d3458519cc049c0c0c6c58a4c4b420f4bb2bb89342980ca336fffc7f9"),
    (("series", "weighted", "--max-degree", "10", "--alphabet", "a,b"),
     "923de0155f1ca2fa682e3e8503bc43d7863928582f36e1904f1a54308cc92581"),
    (("series", "weighted", "--max-degree", "10", "--alphabet", "a,b", "--format", "json"),
     "b789d5deb33251700609e54fb2485fd74a01981c507ba6f2c9286c97d864100a"),
    (("series", "ordinary", "--max-degree", "12", "--alphabet", "a,b"),
     "1ac7c2a87423773f18041957ebf99ac0621a28b9275b239f986f65a20af2c57a"),
    (("series", "weighted", "--max-degree", "7", "--alphabet", "a,b,c", "--format", "json"),
     "42e91fb7692a57feb0edf2c3e358bd1b275f8fae0cb5f908115a777a56103a4b"),
    (("lower", "a:3=2,a:1=1,b:2=1,a:-1=1,b:0=2", "4"),
     "8a2e95cf52a7f29ea39e07de0041e5384294075d291a021a2fc871d7a365f707"),
    (("lower", "a:3=2,a:1=1,b:2=1,a:-1=1,b:0=2", "4", "--format", "json"),
     "828dc8a9f8d9201f0424905ed625612937bf566b362bf946ae6e73b7337721e4"),
    (("lower", "a:4=1,a:2=2,a:0=1,b:3=1,b:1=2,b:-1=1", "12"),
     "f661ddcce9cacd10e011a2db767522c664a94fcc898274e5eefe8498c5fef40e"),
    (("lower", "a:4=1,a:2=2,a:0=1,b:3=1,b:1=2,b:-1=1", "12", "--format", "json"),
     "7f3a3a9791f268855b515f75e840bf49f44bbe99292b361cc101bb5dfb433677"),
    # Recorded before the level walk moved onto packed (target, l) states:
    # |k| = 2^8 - 1 fills the count bits of a field and 2^8 widens it.
    (("lower", "a:0=255", "2"),
     "6355c47acc848c3c31fe84dc1a2d5b613fa1871b8750af6b7906524be2a80250"),
    (("lower", "a:0=256", "2"),
     "dcf702d0cca4932b0b22fe20760296901f26ba36ccf3aa4e9c88696d7d54dc08"),
] + [
    (("coproduct", GOLDEN_K, form, "--decomposition", mode), digest)
    for form in ("raw-dbar", "refined-C", "refined-D")
    for mode, digest in (
        ("multiset", "0c7a6956eb72d81fc98bf84ac10b2fc11c9f61f4da00022400196e5efecd53e1"),
        ("ordered", "d60acafdb31b4e32cf94852341741ca057a969103573df0d562ac3d0ee1dcd0e"))
] + [
    (("coproduct", GOLDEN_K, form, "--decomposition", mode, "--format", "json"), digest)
    for form, mode, digest in (
        ("raw-dbar", "multiset", "07df5e1b9ccd9783d3a9e89ee523a941dc110a7de5d348b72028c0f1feb7abf0"),
        ("raw-dbar", "ordered", "865eb512a46a223c2eab30e65675af5d7852733db3369fc26eb9964a820ab05b"),
        ("refined-C", "multiset", "e04e55fb9ddfe3ae1ed25343dc9f612fb1b1665782b910a88efcaa237713a541"),
        ("refined-C", "ordered", "84183905cd103a2f1a239f6ec51e4ca4767cc0a63f1417612a957c96b5fd9616"),
        ("refined-D", "multiset", "c2033db75e6b06c12c3463fcc52e7f65216413ed8799a0e0e417f9979c20b559"),
        ("refined-D", "ordered", "87c901a56ede669ca69079d99cf3bef3bb008569e721c463e1e2850151357d69"))
] + [
    # Recorded before `lower` and `coproduct` printed each row as it is
    # made: the two other forest symmetry modes, the empty `terms` list and
    # a one-term expansion.
    (("coproduct", GOLDEN_K, "--forest-sigma", "sigma-only"),
     "128d9a148742e0c93f49cfaba59088602ac0de208e4dca1ddb1b879137f14f45"),
    (("coproduct", GOLDEN_K, "--forest-sigma", "mult-only"),
     "8d3e0ab26f6031e78c7183a0d0a9dd36244fb055aa32ea637374fa31f809f80b"),
    (("coproduct", GOLDEN_K, "--forest-sigma", "sigma-only", "--format", "json"),
     "5f9a217a95ea3f7fa44accf45e81d809a0a13a2bdc63897ffb340af535dc2dcf"),
    (("coproduct", GOLDEN_K, "--forest-sigma", "mult-only", "--format", "json"),
     "9728bbc859f953522e203e9c90a3cecdbbae17e3c2e77013d6fba8f88fd50b19"),
    (("lower", "a:0=2", "5", "--format", "json"),
     "e8f333d45885477f87300af035fc5f671f0430ad247ea2dd6b96e64a8cb8b0b2"),
    (("coproduct", "a:-1=1", "--format", "json"),
     "7a8e9395b4f31eec1de41eb5bad98a4b460f37cbae8cb02d22a9f6d45d309c98"),
] + [
    # Recorded before every packed path moved onto `multiindex.PackedLayout`:
    # F by the box-truncated solve, the transport-array walk and the fibre
    # grouping of the oracle, and the packed series product of its H_m check.
    (("count", "a:-1=3,a:1=1,b:0=1,b:1=1"),
     "234c006180a6946aa6841f40823cca058f07f94dd46343aa0fec58c4889c0b66"),
    (("count", "a:-1=3,a:0=4,a:3=1,b:-1=1,b:0=1"),
     "0913f8c2552a0f942b82909ac1e1a6048ed5bbc4b6017d6ea7a93118fdbc71ea"),
    (("count", "a:-1=4,a:0=2,a:1=1,b:-1=2,b:0=4,b:4=1"),
     "18eafbd8caf31c7a573bcc03c5fd9795e952abaa50807f2990f2d9aa49d33dbb"),
    (("count", "a:-1=1,a:0=1000"),
     "c3d4cc9d411669e02da9c0dc2a2d3b9b97e70268440b37f8dd3ecaae8da1d18f"),
    (("transition", "a:-1=1,a:0=3,b:0=5,b:3=3", "a:-1=2,a:0=2,b:-1=3,b:0=2,b:2=2,b:3=1"),
     "be66aaf04bc31273afd4389a86dad2eee4742fa91fa684c9d41e5bb842271dd9"),
    (("transition", "a:-1=1,a:0=1,a:2=3,a:3=2,a:4=1,b:-1=1,b:1=2,b:3=2,b:4=1",
      "a:-1=2,a:1=1,a:2=2,a:3=2,b:-1=1,b:1=2,b:3=2,b:4=2"),
     "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (("oracle", "--max-n", "6", "--alphabet", "a,b"),
     "5ad803b8a8784303e3f0faa8ded0f274e3977480229b974315e5cddf6cc353dc"),
    (("oracle", "--max-n", "6", "--alphabet", "a,b", "--format", "json"),
     "0157165a7face58d002c64729d4110d7548d1e2f99433cd0b412405c0fbfe346"),
    # Recorded before the Euler product moved onto packed integer codes and
    # F and W onto one branch-multiset walk; the oracle-check benchmark job.
    (("oracle", "--max-n", "8", "--alphabet", "a,b"),
     "9b8a335d96062553abc64ffb949fe4cbc70ff3cec66b2b43c5f8d56153282d36"),
    # Recorded before the lowering check moved onto the walk's codes.
    (("oracle", "--max-n", "8", "--alphabet", "a,b", "--format", "json"),
     "99187f6afe514222c7fd212b2e28939f68a34d4e6a4d7f4d8ac513df31eb6cdd"),
    # Recorded before the brute force moved onto tree records and F and W
    # onto one walk over all profiles.
    (("oracle", "--max-n", "9", "--alphabet", "a,b", "--force"),
     "20bb59e6858698fa39c2618aeb6be320f3452d5051b60ed47fb26b93b1711eba"),
    (("oracle", "--max-n", "5", "--alphabet", "a,b,c", "--force"),
     "889ab84cfade8cdb31d87b3600b090b3c37eec9341b27c9af18cd9c525079d3b"),
] + [
    # Recorded before `transition` moved onto the transport walk capped at
    # b: a key of b above k's largest index, a decoration k lacks, equal
    # degree with a per-decoration mismatch, and the identity on 200 entries.
    (("transition", k, b, *fmt), digest)
    for k, b, text, json_digest in (
        ("a:0=1", "a:5=1", "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
         "185acbf78e53ae9c19133f7543aa644cbb65c36dfc9ff6ad226041840052acc1"),
        ("a:0=1", "c:0=1", "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
         "5ade68b378bc06a9d80ed22bb82be26b220c886936717a1f22e25206e7ebf837"),
        ("a:0=1,b:0=1", "a:-1=1,a:0=1",
         "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
         "6374cb3c6672e6261e70b925f318928774852629815c26ef3af86b2c05fc6915"),
        (IDENTITY_200, IDENTITY_200,
         "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
         "dd29861adc3980a90e22839b6f42c69f7f30f8a5c278316b4365165fc4106d93"))
    for fmt, digest in (((), text), (("--format", "json"), json_digest))
] + [
    # Recorded before `series` printed straight from the packed solve: the
    # field width of the box is 4 bits at degree 7 and 5 bits at degree 8.
    (("series", mode, "--max-degree", degree, "--alphabet", "a,b", *fmt), digest)
    for mode, degree, fmt, digest in (
        ("ordinary", "7", (), "71b27f4a3f58b73601d15cad88ce708ec8505c07cea7dc15579f9916db8b7ab3"),
        ("ordinary", "7", ("--format", "json"),
         "274c8a6f9df9e541db1eb6394b00782385a12e39501abda25757a9dc5abecdaf"),
        ("ordinary", "8", (), "cc8a18cce9849770c1b97d815ba6b4c10707693b5f73d5db51bbfad85685bc47"),
        ("ordinary", "8", ("--format", "json"),
         "65f6c24407ed20a41aba4cf119b8a36bf742357495765a3e670617f29d46065e"),
        ("weighted", "7", (), "30c38f8590027bf53a3505002f94d1a43237d76a1a289431ec3a2f8e94084307"),
        ("weighted", "7", ("--format", "json"),
         "e3eea16291b554c732736ba814d53f92ccf58848d0f58fdf9f9421ba43071570"),
        ("weighted", "8", (), "065a897c1dcbbac51cc64c313329edc63ba4ec40231d81259c1cd006de64452a"),
        ("weighted", "8", ("--format", "json"),
         "a0d3a9084daace22dd98eaf5f181d322e4f18f5d3b33c1a98b5f83d66e5995a9"),
        # The series-solve benchmark job.
        ("weighted", "9", (), "cd78d8163d35debcfa45feaa65e3f4508cff5db4363bfdfd422da68452254758"),
        ("weighted", "9", ("--format", "json"),
         "69424fcfb0e9ba94eba1b048a9e184c5c36d60b58255d389947ea320eb0dd789"))
] + [
    # One term, the leaf.
    (("series", "ordinary", "--max-degree", "1", "--alphabet", "a"),
     "3e3411441b0c01c6e9b39ab7229455df24c698035d7e312c45d3b84344591de6"),
    (("series", "ordinary", "--max-degree", "1", "--alphabet", "a", "--format", "json"),
     "760e8c1cd9812be33f75a47c5d01df495ca02eabd6732a83c7f7d920a5e3620f"),
    (("series", "weighted", "--max-degree", "1", "--alphabet", "a", "--format", "json"),
     "b577536a82847b45a552cd30c7781063e48d9e2c8bab133be72350fecde61579"),
] + [
    # Recorded before the level states moved onto two `PackedLayout`s: a
    # decoration (a) with no extension key, and the empty monomial.
    (("lower", "a:-1=2,b:1=1,b:2=2", "3"),
     "2006397dd012a937c534f8c737c40e23347d90fa18c5f170ab2e873c324ba707"),
    (("lower", "a:-1=2,b:1=1,b:2=2", "3", "--format", "json"),
     "52f635822db20f5933f90b6c4f3c48f57e9bc3170df4d48e6e27c271a547013f"),
    (("lower", "0", "0"), "7bf16246a546af2db79a0a49d275fc8967064d7dc3d4f6b06e95bd1ceb5089ea"),
    (("lower", "0", "0", "--format", "json"),
     "e735cc0a2892e4a3319de66416ccd320f45560232b2c167783e0e6119db0f2f3"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=["_".join(a) for a, _ in GOLDEN])
def test_golden_output(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- oracle ------------------------------------------------------------------------

def test_oracle_small(capsys):
    code, out, _ = run(capsys, "oracle", "--max-n", "3", "--alphabet", "a")
    assert code == 0
    assert out.endswith("RESULT: PASS\n")
    assert out.count("check ") == 10
    assert "fail" not in out


def test_oracle_jobs_do_not_change_output(capsys):
    _, seq, _ = run(capsys, "oracle", "--max-n", "3")
    _, par, _ = run(capsys, "oracle", "--max-n", "3", "--jobs", "3")
    assert seq.replace("\n", "|") != ""
    assert seq == par


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_oracle_rejects_bad_jobs(capsys, jobs):
    # Rejected while parsing, before any oracle work starts.
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--max-n", "1", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_oracle_json(capsys):
    code, out, _ = run(capsys, "oracle", "--max-n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "pass"
    assert payload["first_mismatch"] is None
    assert [c["name"] for c in payload["checks"]] == sorted(
        c["name"] for c in payload["checks"])


@pytest.mark.parametrize("name, label", [
    ("ordinary_count", "ordinary-count"),
    ("ordinary_count_recursive", "ordinary-count-recursive"),
    ("weighted_counts_recursive", "weighted-recursive")])
def test_oracle_detects_each_wrong_count_route(capsys, monkeypatch, name, label):
    # Either F route, or the W recursion, off by one on a single profile
    # fails the oracle, under that route's own label.
    route = getattr(cli, name)
    wrong = MultiIndex.parse("a:-1=2,a:1=1")
    right = route(wrong)
    monkeypatch.setattr(cli, name, lambda k: route(k) + (k == wrong))
    code, out, _ = run(capsys, "oracle", "--max-n", "3", "--alphabet", "a")
    assert code == 1
    assert (f"mismatch: quantity={label} k={wrong} expected={cli._frac_str(right)} "
            f"got={cli._frac_str(right + 1)}\n") in out


@pytest.mark.parametrize("name, label, expected", [
    ("ordinary_series", "series-ordinary", "expected=1 got=2"),
    ("weighted_series", "series-weighted", "expected=1/2 got=3/2")])
def test_oracle_detects_wrong_series(capsys, monkeypatch, name, label, expected):
    # Either series with one coefficient off by one fails the oracle, under
    # that series' own label.
    route = getattr(cli, name)
    wrong = MultiIndex.parse("a:-1=2,a:1=1")
    monkeypatch.setattr(cli, name, lambda alphabet, max_degree: (
        route(alphabet, max_degree) + TruncatedSeries(max_degree, {wrong: 1})))
    code, out, _ = run(capsys, "oracle", "--max-n", "3", "--alphabet", "a")
    assert code == 1
    assert f"mismatch: quantity={label} k={wrong} {expected}\n" in out


@pytest.mark.parametrize("low, expected", [
    ("a:0=1,a:1=1", 1),    # an entry of the support
    ("a:0=2", 0)])         # an entry off the C table's support
def test_oracle_detects_wrong_d_table(capsys, monkeypatch, low, expected):
    # The D route's levels off by one at one order-2 state fail the oracle
    # as lowering-D.  The state is the sum of l's units on the start; off
    # the support, the target count at a:0 is -2 and its field borrows.
    levels = cli._d_levels
    k, low = MultiIndex.parse("a:1=1"), MultiIndex.parse(low)

    def wrong(kk, max_order):
        layout, out = levels(kk, max_order)
        out = list(out)
        if kk == k:
            state = layout.start + sum(c * layout.units[key] for key, c in low.items())
            out[2][state] = out[2].get(state, 0) + 1
        return layout, iter(out)
    monkeypatch.setattr(cli, "_d_levels", wrong)
    code, out, _ = run(capsys, "oracle", "--max-n", "3", "--alphabet", "a")
    assert code == 1
    assert (f"mismatch: quantity=lowering-D k={k} l={low} "
            f"expected={expected} got={expected + 1}\n") in out


@pytest.mark.parametrize("target, total, expected", [
    ("a:0=1", 2, "expected=u got=2*u"),         # off by one
    ("a:-1=2", 1, "expected=0 got=u^3/6")],     # a stray target, at its drop 3
    ids=["off-by-one", "stray"])
def test_oracle_detects_wrong_transition_walk(capsys, monkeypatch, target, total, expected):
    # A transport-array walk of k wrong on one target fails the oracle as
    # lowering-transition.
    walk = cli.transport_walk
    k, target = MultiIndex.parse("a:1=1"), MultiIndex.parse(target)

    def wrong(kk, max_order=None):
        layout, totals = walk(kk, max_order)
        if kk == k:
            totals[layout.code(target)] = total
        return layout, totals
    monkeypatch.setattr(cli, "transport_walk", wrong)
    code, out, _ = run(capsys, "oracle", "--max-n", "3", "--alphabet", "a")
    assert code == 1
    assert f"mismatch: quantity=lowering-transition k={k} b={target} {expected}\n" in out


@pytest.mark.parametrize("fault", ["drop-tree", "change-aut"])
def test_oracle_brute_force_catches_a_fault(capsys, monkeypatch, fault):
    # The fibre of k holds a(a,a(a)) with aut 1 and a(a(a,a)) with aut 2.
    # Dropping the second tree changes F and W; making its aut 1 changes W.
    statistics = cli.fibre_statistics
    k = MultiIndex.parse("a:-1=2,a:0=1,a:1=1")

    def wrong(max_n, alphabet):
        stats = statistics(max_n, alphabet)
        assert stats[k] == {1: 1, 2: 1}
        stats[k] = {1: 1} if fault == "drop-tree" else {1: 2}
        return stats
    monkeypatch.setattr(cli, "fibre_statistics", wrong)
    report = run_oracle(4, ("a", "b"))
    failed = {c["name"] for c in report["checks"] if c["mismatches"]}
    assert ("ordinary-count" in failed) == (fault == "drop-tree")
    assert failed & {"weighted-threeway", "mass-integrality"}
    code, out, _ = run(capsys, "oracle", "--max-n", "4", "--alphabet", "a,b")
    assert code == 1
    assert out.endswith("RESULT: FAIL\n")


@pytest.mark.parametrize("low", [
    "a:0=2",     # a negative target count at a:0
    "a:2=1"])    # a key off the extension keys of k
def test_oracle_reports_an_unreachable_c_entry(low):
    # A C table entry whose target k - l + left_shift(l) has a negative
    # count is a lowering-C mismatch, with no target decoded for it.
    k, low = MultiIndex.parse("a:0=1"), MultiIndex.parse(low)

    def wrong(kk, max_order):
        tables = c_coefficient_tables(kk, max_order)
        if kk == k:
            tables[low.degree()][low] = 1
        return tables
    report = run_oracle(3, ("a",), c_tables_fn=wrong)
    assert report["result"] == "fail"
    assert report["first_mismatch"] == (
        f"quantity=lowering-C k={k} r={low.degree()} l={low} expected=0 got=1")


def test_oracle_detects_corrupted_formula():
    # a deliberately wrong closed form must be flagged, not silently accepted
    def bad(k):
        return weighted_counts(k).W * k.degree()
    report = run_oracle(3, ("a",), w_formula=bad)
    assert report["result"] == "fail"
    assert "weighted-closed" in report["first_mismatch"]


# -- errors and caps -----------------------------------------------------------------

def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "count", "garbage")
    assert code == 2
    assert err.startswith("error:")


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "count", "a:0=1")
    assert code == 3
    assert "weight" in err


def test_series_cap(capsys):
    code, _, err = run(capsys, "series", "weighted", "--max-degree", "13")
    assert code == 4
    assert "--force" in err


def test_series_cap_override(capsys):
    code, out, _ = run(capsys, "series", "weighted", "--max-degree", "13",
                       "--force", "--alphabet", "a")
    assert code == 0
    assert out


def test_oracle_caps(capsys):
    code, _, err = run(capsys, "oracle", "--max-n", "9")
    assert code == 4
    code, _, err = run(capsys, "oracle", "--alphabet", "a,b,c")
    assert code == 4
    code, out, _ = run(capsys, "oracle", "--max-n", "2",
                       "--alphabet", "a,b,c", "--force")
    assert code == 0


def test_duplicate_alphabet_rejected(capsys):
    code, _, err = run(capsys, "series", "weighted", "--max-degree", "2",
                       "--alphabet", "a,a")
    assert code == 2


@pytest.mark.parametrize("exc", [RecursionError("maximum recursion depth exceeded"),
                                 ArithmeticError("non-integral\ncount"),
                                 AssertionError()])
def test_internal_error_exit_code(capsys, monkeypatch, exc):
    def broken(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_count", broken)
    code, out, err = run(capsys, "count", "a:-1=1")
    assert code == 5
    assert out == ""
    assert err.startswith(f"error: internal error: {type(exc).__name__}")
    assert err.count("\n") == 1
    assert "Traceback" not in err


# -- streamed output -----------------------------------------------------------------

class _Discard(io.TextIOBase):
    """A stdout that drops what it is given."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize("argv,bound", [
    # Traced peaks: about 4 MB with the whole output held, 1 MB streamed.
    (("lower", "a:0=2,a:1=2,a:2=2,a:3=2,a:4=2,b:0=2,b:1=2,b:2=2", "10"), 2_500_000),
    # 7,593 rows: about 5 MB held, 1.5 MB streamed.
    (("coproduct", "a:-1=9,a:0=3,a:1=4,a:2=2"), 3_000_000),
])
def test_printed_rows_are_not_held(argv, bound):
    with contextlib.redirect_stdout(_Discard()):
        tracemalloc.start()
        try:
            assert main(list(argv)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < bound, peak


@pytest.mark.parametrize("argv", [
    ("lower", "a:0=2,a:1=2,a:2=2,a:3=2,a:4=2,b:2=2,b:3=1,b:4=1", "12"),
    ("coproduct", "a:-1=9,a:0=3,a:1=4,a:2=2"),
    # 12,542 lines, 456 kB.
    ("series", "ordinary", "--max-degree", "12", "--alphabet", "a,b"),
])
def test_closed_stdout_pipe_exits_141_quietly(argv):
    # Each prints hundreds of kB, far more than a pipe holds, so the
    # command is still writing when its reader goes.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen([sys.executable, "-m", "fibrecount", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""


# -- exit codes ----------------------------------------------------------------------

CLI_KEYS = [(a, j) for a in "ab" for j in range(-1, 3)]


@st.composite
def cli_argvs(draw):
    # Small inputs of every command, valid or not; counts on both sides of
    # a field-width boundary.
    monomials = st.one_of(
        st.dictionaries(st.sampled_from(CLI_KEYS), st.sampled_from((1, 2, 3, 4, 7, 8)),
                        max_size=3).map(lambda d: str(MultiIndex(d))),
        st.sampled_from(CO_PROFILES).map(str))
    command = draw(st.sampled_from(("lower", "transition", "coproduct", "series",
                                    "count", "oracle")))
    if command == "count":
        argv = [command, draw(monomials)]
    elif command == "oracle":
        # The oracle runs only up to max_n 3; past a cap it exits first.
        runs = st.tuples(st.integers(-1, 3), st.sampled_from(("a", "a,b"))).map(
            lambda run: ["--max-n", str(run[0]), "--alphabet", run[1]])
        argv = [command] + draw(st.one_of(runs, st.just(["--max-n", "9"]),
                                          st.just(["--alphabet", "a,b,c"])))
    elif command == "lower":
        orders = st.one_of(st.integers(-1, 6), st.just(2 ** 63))
        argv = [command, draw(monomials), str(draw(orders))]
    elif command == "transition":
        argv = [command, draw(monomials), draw(monomials)]
    elif command == "coproduct":
        argv = [command, draw(monomials), draw(st.sampled_from(FORMS))]
    else:
        argv = [command, draw(st.sampled_from(("ordinary", "weighted"))),
                "--max-degree", str(draw(st.integers(-1, 5))),
                "--alphabet", draw(st.sampled_from(("a", "a,b")))]
    return argv + draw(st.sampled_from(([], ["--format", "json"])))


@settings(max_examples=120, deadline=None)
@given(cli_argvs())
@example(["lower", "0", "0"])
@example(["transition", "0", "0"])
@example(["coproduct", "0"])
@example(["lower", "a:-1=2,b:-1=1", "2"])
@example(["coproduct", "a:-1=1,b:-1=1", "refined-C"])
@example(["lower", "a:0=7,a:1=8", "3", "--format", "json"])
@example(["transition", "a:0=15,a:1=16", "a:-1=16,a:0=15"])
@example(["coproduct", "a:-1=4,a:0=3,a:1=3", "refined-D"])
@example(["series", "weighted", "--max-degree", "13"])
@example(["lower", "a:-1=1,a:0=1", str(2 ** 63)])
@example(["count", "0"])
@example(["count", "a:-1=8,a:1=7", "--format", "json"])
@example(["oracle", "--max-n", "0", "--alphabet", "a"])
@example(["oracle", "--max-n", "3", "--alphabet", "a,b"])
@example(["oracle", "--max-n", "9"])
@example(["oracle", "--alphabet", "a,b,c"])
def test_cli_exits_with_a_documented_code(argv):
    # An answer (0), bad text (2), a bad value (3) or a cap (4); never an
    # oracle mismatch (1) or an internal error (5).  Every input here
    # parses, and only a negative order, a degree or max_n below 1, a
    # weight other than -1 or a size past a cap has no answer.
    with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(_Discard()):
        code = main(argv)
    command = argv[0]
    if command == "lower":
        expected = 0 if int(argv[2]) >= 0 else 3
    elif command in ("coproduct", "count"):
        expected = 0 if MultiIndex.parse(argv[1]).weight() == -1 else 3
    elif command == "oracle":
        max_n = int(argv[argv.index("--max-n") + 1]) if "--max-n" in argv else 5
        expected = 4 if max_n > 8 or "a,b,c" in argv else 0 if max_n >= 1 else 3
    elif command == "series":
        expected = 4 if int(argv[3]) > 12 else 0 if int(argv[3]) >= 1 else 3
    else:
        expected = 0
    assert code == expected, argv


# -- module entry point ----------------------------------------------------------------

def test_python_dash_m_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "fibrecount", "count", "a:-1=1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "F = 1" in proc.stdout


def test_count_deep_chain():
    # A 601-vertex chain recurses once per vertex at the default recursion
    # limit; a memo that costs an extra frame per level breaks it.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-m", "fibrecount", "count", "a:-1=1,a:0=600"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "F = 1\n" in proc.stdout


def test_count_thousand_vertex_chain():
    # Past the default recursion limit: the F count must not recurse.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-m", "fibrecount", "count", "a:-1=1,a:0=1000"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "F = 1\n" in proc.stdout


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_count_long_chain_prints_counts_in_full(fmt):
    # J = 2000! and L = 2001! run past Python's default int-to-str digit
    # limit; they are exact answers and print in full.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-m", "fibrecount", "count", "a:-1=1,a:0=2000", "--format", fmt],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    with cli._unlimited_digits():
        want = math.factorial(2001)
        if fmt == "json":
            assert json.loads(proc.stdout)["L"] == want
        else:
            assert proc.stdout.endswith(f"L = {want}\n")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no int-to-str digit limit is in force")
def test_count_parse_keeps_digit_limit(capsys):
    # Input text keeps Python's digit limit: an oversized count is a
    # domain error, and the limit is back in place after a count.
    before = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "count", "a:-1=1,a:0=" + "1" * 5000)
    assert code == 3 and out == ""
    assert "limit" in err
    assert run(capsys, "count", "a:-1=1,a:0=2000")[0] == 0
    assert sys.get_int_max_str_digits() == before
