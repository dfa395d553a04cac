import json
import os
import subprocess
import sys

import pytest

from fibrecount.cli import main, run_oracle
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


def test_oracle_json(capsys):
    code, out, _ = run(capsys, "oracle", "--max-n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "pass"
    assert payload["first_mismatch"] is None
    assert [c["name"] for c in payload["checks"]] == sorted(
        c["name"] for c in payload["checks"])


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
