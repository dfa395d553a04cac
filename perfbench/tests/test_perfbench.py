"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import probe  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_generator_is_deterministic():
    for name in workloads.WHY:
        first = json.dumps(workloads.jobs(name, 7))
        assert json.dumps(workloads.jobs(name, 7)) == first
    assert workloads.jobs("profile-queries", 7) != workloads.jobs("profile-queries", 8)


def test_every_drawable_job_has_a_reference():
    references = json.loads(run.REFERENCES.read_text())
    keys = {workloads.job_key(job) for job in workloads.all_jobs()}
    assert keys == set(references)
    for seed in range(20):
        for job in workloads.jobs("profile-queries", seed):
            assert references[workloads.job_key(job)]["code"] == job["expect"]


def test_profile_queries_mix():
    jobs = workloads.jobs("profile-queries", 3)
    assert len(jobs) >= 200
    kinds = {job["kind"] for job in jobs}
    assert {"count", "deep-count", "lower", "transition", "transition-unreachable",
            "coproduct", "invalid-2", "invalid-3"} <= kinds


def test_self_times_on_a_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c
    # [2, 3]; b directly holds aggregated leaf calls totalling 1.5 s, and
    # the root holds some totalling 0.5 s.
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0),
             ("c", 2.0, 3.0, 1), ("b", 5.0, 9.0, 0)]
    aggregates = [("leaf", 3, 6, 1.5, 1.5), ("leaf", 0, 2, 0.5, 0.5)]
    got = self_times(spans, aggregates)
    assert got == {"root": 10 - 3 - 4 - 0.5, "a": 3 - 1, "c": 1.0,
                   "b": 4 - 1.5, "leaf": 2.0}
    assert sum(got.values()) == 10.0


def test_normalize_scales_by_the_speed_around_the_interval():
    ref = probe.REFERENCE_CHUNK_S
    # Chunks at half the reference time (a host twice as fast) up to t = 10,
    # then at twice the reference time.
    samples = [(t * 0.1, ref / 2 if t < 100 else ref * 2) for t in range(200)]
    assert probe.normalize(3.0, samples, 2.0, 5.0) == 6.0
    assert probe.normalize(3.0, samples, 14.0, 17.0) == 1.5
    # An interval with no sample inside it takes those within MARGIN_S.
    assert probe.speed(samples, 2.01, 2.02) == 2.0
    # Across the change, each sample in the window counts once.
    window = [c for t, c in samples if 9.0 - probe.MARGIN_S <= t <= 11.0 + probe.MARGIN_S]
    assert probe.speed(samples, 9.0, 11.0) == sum(ref / c for c in window) / len(window)


def test_speed_probe_takes_its_time_out_of_the_job():
    import signal
    import fibrecount.cli as cli
    before = signal.getsignal(signal.SIGALRM)
    speed_probe = probe.SpeedProbe(period=0.002)
    speed_probe.install()
    try:
        plain = session.run_job(cli.main, ["series", "ordinary", "--max-degree", "5"],
                                speed_probe)
    finally:
        speed_probe.uninstall()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    code, out, err, start, end, seconds, cpu = plain
    assert code == 0 and len(speed_probe.samples) > 3
    inside = sum(c for t, c in speed_probe.samples if start <= t <= end)
    assert inside > 0 and seconds <= end - start - inside
    again = session.run_job(cli.main, ["series", "ordinary", "--max-degree", "5"])
    assert again[:3] == plain[:3]


def test_harrell_davis_percentile():
    import math
    assert run.beta_cdf(1, 1, 0.25) == 0.25
    assert abs(run.beta_cdf(0.5, 0.5, 0.3) - 2 / math.pi * math.asin(math.sqrt(0.3))) < 1e-12
    assert abs(run.beta_cdf(2, 3, 0.4) - 0.5248) < 1e-12
    assert run.percentile([7.0], 95) == 7.0
    assert abs(run.percentile([3.0, 1.0, 2.0], 50) - 2.0) < 1e-12
    grid = [i / 1000 for i in range(1001)]
    assert abs(run.percentile(grid, 50) - 0.5) < 1e-9
    assert abs(run.percentile(grid, 95) - 0.95) < 1e-3
    # A gap next to the median moves the estimate part of the way only.
    low, high = [1.0] * 50 + [2.0] * 51, [1.0] * 51 + [2.0] * 50
    assert 1.4 < run.percentile(high, 50) < run.percentile(low, 50) < 1.6


def test_corrupted_output_counts_as_failed():
    import fibrecount.cli as cli
    references = json.loads(run.REFERENCES.read_text())
    job = next(j for j in workloads.jobs("profile-queries", 1) if j["kind"] == "coproduct")
    code, out, err, *times = session.run_job(cli.main, job["argv"])
    good = session.summarize(code, out, err, *times)
    assert run.check_job(job, good, references) is None
    corrupted = out[:-2] + ("0" if out[-2] != "0" else "1") + out[-1]
    bad = session.summarize(code, corrupted, err, *times)
    assert run.check_job(job, bad, references) == "stdout differs from the reference"
    wrong_code = dict(good, code=1)
    traceback = dict(good, traceback=True)
    assert run.failures([job] * 4, [good, bad, wrong_code, traceback], references) == [
        (job["argv"], "stdout differs from the reference"),
        (job["argv"], "exit code 1, expected 0"),
        (job["argv"], "printed a traceback")]


def test_invalid_input_passes_only_with_its_documented_code():
    import fibrecount.cli as cli
    references = json.loads(run.REFERENCES.read_text())
    for job in workloads.jobs("profile-queries", 2):
        if job["kind"].startswith("invalid"):
            outcome = session.summarize(*session.run_job(cli.main, job["argv"]))
            assert run.check_job(job, outcome, references) is None
            assert run.check_job(job, dict(outcome, code=0), references) is not None


def test_oracle_must_report_pass():
    references = json.loads(run.REFERENCES.read_text())
    job = workloads.jobs("oracle-check", 0)[0]
    ref = references[workloads.job_key(job)]
    outcome = {"code": 0, "sha256": ref["sha256"], "traceback": False,
               "last_line": "RESULT: FAIL", "seconds": 1.0, "cpu": 1.0}
    assert run.check_job(job, outcome, references) == "oracle reported 'RESULT: FAIL'"


def _bindings():
    import importlib
    out = {}
    for name in ("fibrecount",) + tuple(f"fibrecount.{m}" for m in (
            "multiindex", "series", "weighted", "ordinary", "trees",
            "lowering", "coproduct", "cli")):
        module = importlib.import_module(name)
        out[name] = dict(vars(module))
        for attr, value in vars(module).items():
            if isinstance(value, type):
                out[f"{name}.{attr}"] = dict(vars(value))
    return out


def test_traced_run_restores_every_attribute():
    import fibrecount.cli as cli
    from fibrecount.multiindex import MultiIndex
    before = _bindings()
    add = MultiIndex.__add__
    tracer = Tracer()
    tracer.install()
    try:
        assert MultiIndex.__add__ is not add
        for argv in (["count", "a:-1=2,a:0=1,a:1=1"], ["coproduct", "a:-1=2,a:1=1", "refined-D"],
                     ["series", "ordinary", "--max-degree", "4"], ["oracle", "--max-n", "3"]):
            session.run_job(cli.main, argv)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    metrics = tracer.metrics()
    assert metrics["ordinary.count.calls"] > 0 and metrics["series.mul.calls"] > 0
    # The layers' self times add up to the time of the jobs.
    roots = sum(end - start for name, start, end, parent in tracer.spans if parent == -1)
    total = sum(self_times(tracer.spans, tracer._aggregate_rows()).values())
    assert abs(total - roots) < 1e-6 * max(1.0, roots)


def test_tracing_keeps_deep_recursion_outcome():
    # A wrapper frame per recursive ordinary_count call would double the
    # stack depth and turn this count into a RecursionError.
    job = {"kind": "deep-count", "argv": ["count", "a:-1=1,a:0=600"], "expect": 0}
    plain = run.run_session([job], trace=False)["jobs"][0]
    traced = run.run_session([job], trace=True)["jobs"][0]
    assert plain["code"] == 0 and not plain["traceback"]
    assert {k: traced[k] for k in ("code", "sha256", "traceback")} == \
        {k: plain[k] for k in ("code", "sha256", "traceback")}


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "series-solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    from tracer import METRICS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(METRICS)
