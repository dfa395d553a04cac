import hashlib
import json
import math
import os
import subprocess
import sys
import time

import pytest

from fibrecount import cli
from fibrecount.cli import main, run_oracle
from fibrecount.lowering import c_coefficient_level, c_coefficient_tables
from fibrecount.multiindex import MultiIndex, enumerate_multiindices
from fibrecount.series import TruncatedSeries
from fibrecount.weighted import weighted_counts


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
    assert time.perf_counter() - start < 1


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
