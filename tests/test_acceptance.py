"""End-to-end acceptance checks.

Each test prints one `criterion N: PASS/FAIL` line; run them with

    pytest tests/test_acceptance.py -v -s

They are heavier than the unit tests (brute-force enumeration up to
seven vertices on a two-letter alphabet) but finish in a few minutes.
"""

import math
import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from fibrecount.cli import run_oracle
from fibrecount.coproduct import DECOMPOSITION_MODES, coproduct
from fibrecount.lowering import (apply_lowering, c_coefficient_tables,
                                 d_coefficient, d_coefficient_recursive,
                                 transition_gf)
from fibrecount.multiindex import (MultiIndex, apply_shift,
                                   enumerate_multiindices, enumerate_profiles,
                                   unit)
from fibrecount.ordinary import functional_rhs as ordinary_rhs
from fibrecount.ordinary import (h_series_cycle, h_series_product,
                                 ordinary_count, ordinary_series)
from fibrecount.trees import (fibre_expansion, fibres_of_degree,
                              labelled_fertility_counts)
from fibrecount.weighted import functional_rhs as weighted_rhs
from fibrecount.weighted import (prescribed_fertility_count, weighted_counts,
                                 weighted_counts_recursive, weighted_series)

MAX_N = 7
ALPHABETS = (("a",), ("a", "b"))


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {description}")
        raise
    print(f"criterion {num}: PASS - {description}")


@pytest.fixture(scope="module")
def fibre_data():
    data = {}
    for alphabet in ALPHABETS:
        groups = {}
        for n in range(1, MAX_N + 1):
            groups.update(fibres_of_degree(n, alphabet))
        data[alphabet] = groups
    return data


def brute_w(fibre):
    return sum(Fraction(1, t.automorphism_order()) for t in fibre)


def test_criterion_1_weighted_threeway(fibre_data):
    with criterion(1, "weighted count: closed form, recursion and brute force "
                      f"agree on every profile up to degree {MAX_N}"):
        for alphabet in ALPHABETS:
            for k in enumerate_profiles(alphabet, MAX_N):
                expected = brute_w(fibre_data[alphabet].get(k, ()))
                assert weighted_counts(k).W == expected, k
                assert weighted_counts_recursive(k) == expected, k


def test_criterion_2_labelled_counts(fibre_data):
    with criterion(2, "labelled count L = n! W and the prescribed-fertility "
                      "formula match exhaustive labelled enumeration"):
        for alphabet in ALPHABETS:
            for k in enumerate_profiles(alphabet, MAX_N):
                expected = math.factorial(k.degree()) * brute_w(
                    fibre_data[alphabet].get(k, ()))
                assert weighted_counts(k).L == expected, k
        for n in range(1, 7):
            histogram = labelled_fertility_counts(n)
            for fert in _compositions(n - 1, n):
                assert prescribed_fertility_count(fert) == histogram.get(fert, 0)
            assert sum(histogram.values()) == n ** (n - 1)


def test_criterion_3_integer_mass(fibre_data):
    with criterion(3, "J is integral and equals the sum of fibre expansion "
                      "coefficients on every profile"):
        for alphabet in ALPHABETS:
            for k in enumerate_profiles(alphabet, MAX_N):
                j = weighted_counts(k).J
                assert isinstance(j, int), k
                expansion = fibre_expansion(k)
                assert sum(expansion.values()) == j, k
                assert set(expansion) == set(fibre_data[alphabet].get(k, ()))


def test_criterion_4_fibre_sizes(fibre_data):
    with criterion(4, "F equals the exact fibre size and per-degree totals "
                      "reproduce the tree counts"):
        known_totals = {("a",): [1, 1, 2, 4, 9, 20, 48],
                        ("a", "b"): [2, 4, 14, 52, 214, 916, 4116]}
        for alphabet in ALPHABETS:
            profiles = enumerate_profiles(alphabet, MAX_N)
            for k in profiles:
                assert ordinary_count(k) == len(fibre_data[alphabet].get(k, ())), k
            for n, total in enumerate(known_totals[alphabet], start=1):
                got = sum(ordinary_count(k) for k in profiles if k.degree() == n)
                assert got == total, (alphabet, n)


def test_criterion_5_series_solutions():
    with criterion(5, "both fixpoint series solve their functional equation "
                      "and carry exactly the per-profile coefficients"):
        for alphabet in ALPHABETS:
            profiles = set(enumerate_profiles(alphabet, MAX_N))
            ws = weighted_series(alphabet, MAX_N)
            os_ = ordinary_series(alphabet, MAX_N)
            assert weighted_rhs(ws, alphabet) == ws
            assert ordinary_rhs(os_, alphabet) == os_
            assert set(ws.monomials()) == profiles
            assert set(os_.monomials()) <= profiles
            for k in profiles:
                assert ws.coefficient(k) == weighted_counts(k).W, k
                assert os_.coefficient(k) == ordinary_count(k), k


def test_criterion_6_multiset_series_duality():
    with criterion(6, "multiset series: Euler-product and cycle-index routes "
                      f"agree for sizes up to 5 at degree {MAX_N}"):
        for alphabet in ALPHABETS:
            for m in (5, 4, 3, 2, 1, 0):
                assert h_series_product(alphabet, m, MAX_N) == \
                    h_series_cycle(alphabet, m, MAX_N), (alphabet, m)


def test_criterion_7_lowering_threeway():
    with criterion(7, "shift coefficients: recursion, iterated derivation, "
                      "factorial transport and transitions agree on the "
                      "two-letter grid (degree <= 6, index <= 4, order <= 4)"):
        for k in enumerate_multiindices(("a", "b"), 6, 4):
            tables = c_coefficient_tables(k, 4)
            poly = {k: 1}
            for r in range(1, 5):
                poly = apply_lowering(poly)
                expanded = {apply_shift(k, low): c for low, c in tables[r].items()}
                assert expanded == poly, (k, r)
            for r in range(5):
                for low, c in tables[r].items():
                    assert d_coefficient(k, low) == d_coefficient_recursive(k, low), (k, low)
                    target = apply_shift(k, low)
                    assert transition_gf(k, target) == \
                        {r: Fraction(c, math.factorial(r))}, (k, low)


def test_criterion_8_coproduct_forms():
    with criterion(8, "coproduct right legs: raw derivation, C-refined and "
                      "D-refined forms agree in both decomposition modes"):
        for k in enumerate_profiles(("a", "b"), 5):
            for mode in DECOMPOSITION_MODES:
                base = coproduct(k, "raw-dbar", mode)
                assert coproduct(k, "refined-C", mode) == base, (k, mode)
                assert coproduct(k, "refined-D", mode) == base, (k, mode)


def test_criterion_9_cli_determinism():
    with criterion(9, "CLI oracle passes at max-n 6 and its output is "
                      "byte-identical across repeats and --jobs values"):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        cmd = [sys.executable, "-m", "fibrecount", "oracle", "--max-n", "6"]
        runs = [subprocess.run(cmd, capture_output=True, text=True, env=env),
                subprocess.run(cmd, capture_output=True, text=True, env=env),
                subprocess.run(cmd + ["--jobs", "2"], capture_output=True,
                               text=True, env=env)]
        for proc in runs:
            assert proc.returncode == 0, proc.stderr
            assert "RESULT: PASS" in proc.stdout
        assert runs[0].stdout == runs[1].stdout == runs[2].stdout


def test_criterion_10_negative_controls():
    with criterion(10, "the oracle detects corrupted formulas: wrong "
                       "factorial, dropped symmetry divisor, dropped "
                       "recursion offset"):
        clean = run_oracle(3, ("a",))
        assert clean["result"] == "pass"

        def wrong_factorial(k):     # (n-1)! miswritten as n!
            return weighted_counts(k).W * k.degree()
        report = run_oracle(3, ("a",), w_formula=wrong_factorial)
        assert report["result"] == "fail"
        assert "weighted-closed" in report["first_mismatch"]

        def dropped_divisor(k):     # forgets to divide by k!
            return weighted_counts(k).W * k.symmetry_factor()
        report = run_oracle(3, ("a",), w_formula=dropped_divisor)
        assert report["result"] == "fail"
        assert "weighted-closed" in report["first_mismatch"]

        report = run_oracle(2, ("a",), c_tables_fn=_c_tables_missing_offset)
        assert report["result"] == "fail"
        assert "lowering-C" in report["first_mismatch"]

        # direct witness: the corrupted recursion really differs
        k = MultiIndex.parse("a:0=2")
        good = c_coefficient_tables(k, 1)[1]
        bad = _c_tables_missing_offset(k, 1)[1]
        assert good == {MultiIndex.parse("a:0=1"): 2}
        assert bad != good


def _c_tables_missing_offset(k, max_order):
    """The C recursion with the +1 in its multiplier dropped."""
    real = c_coefficient_tables(k, max_order)
    out = [dict(real[0])]
    for r in range(1, max_order + 1):
        level = {}
        for low in real[r]:
            total = 0
            for (a, j), cnt in low.items():
                if cnt < 1:
                    continue
                prev = out[r - 1].get(low - unit(a, j))
                if prev is None:
                    continue
                total += prev * (k.get(a, j) - cnt + low.get(a, j + 1))
            if total:
                level[low] = total
        out.append(level)
    return out


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail
