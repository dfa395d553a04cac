"""The fibrecount benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of `workloads.py` as one client in a closed loop: jobs run
one after another, and at most one job process exists at a time.  It checks
every job's output against ``references.json`` and prints one line per
metric, then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the workload is run in passes, each a fresh job process
(or one per job, for the cold-CLI workloads), for about ``--seconds``; see
`end_to_end` for how the passes combine into the end-to-end metrics.  Every
time among them is given in reference seconds (see probe.py): the time
measured, scaled by the host's speed at that moment.  With ``--trace 1`` it
makes one untraced pass and one traced pass in a single process (see
tracer.py), and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import probe
import workloads
from tracer import METRICS as LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench-out"
REFERENCES = HERE / "references.json"

SETUP_SAMPLES = 5
# Probe chunks timed around each set-up sample, in the parent before the
# spawn and in the child after the import.
SETUP_CHUNKS = 3
# A run stops starting passes once another one would end past this many
# seconds, which keeps it well inside the 180 s a run may take.
RUN_BUDGET_S = 140.0
CHILD_TIMEOUT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list, stdin: bytes) -> tuple:
    """Run one child to completion: (stdout, stderr, exit code, rusage)."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as err:
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            try:
                proc.stdin.write(stdin)
                proc.stdin.close()
            except BrokenPipeError:
                pass
            out = proc.stdout.read()
            proc.stdout.close()
        finally:
            watchdog.cancel()
        # wait4 reaps the child and returns its own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return out, err.read().decode(errors="replace"), proc.returncode, usage


def measure_setup() -> tuple:
    """(seconds, reference seconds) from spawning a fresh interpreter to
    the end of ``import fibrecount.cli``; perf_counter is CLOCK_MONOTONIC,
    shared by parent and child.  The speed is that of probe chunks timed
    just before the spawn and just after the import."""
    code = ("import time, fibrecount.cli; t = time.perf_counter(); import sys; "
            f"sys.path.insert(0, {str(HERE)!r}); import probe; "
            f"print(repr(t), *(probe.time_chunk() for _ in range({SETUP_CHUNKS})))")
    chunks = [probe.time_chunk() for _ in range(SETUP_CHUNKS)]
    start = time.perf_counter()
    out, err, rc, _ = run_child([sys.executable, "-c", code], b"")
    if rc != 0:
        raise RuntimeError(f"import fibrecount.cli failed:\n{err}")
    imported, *after = map(float, out.split())
    chunks += after
    seconds = imported - start
    return seconds, seconds * sum(probe.REFERENCE_CHUNK_S / c for c in chunks) / len(chunks)


def run_session(jobs: list, trace: bool, spans: Path | None = None) -> dict:
    """One session.py process over `jobs`; its reply plus cpu_s and rss_mb.

    Untraced sessions run the speed probe; each job then also gets
    ``ref_seconds`` and ``ref_cpu``, its latency and CPU time in reference
    seconds, and the reply ``ref_other_cpu``, the process's CPU time
    outside its jobs (start-up, import) in reference seconds."""
    request = {"jobs": [job["argv"] for job in jobs], "trace": trace,
               "spans": str(spans) if spans else None}
    out, err, rc, usage = run_child([sys.executable, str(HERE / "session.py")],
                                    json.dumps(request).encode())
    if rc != 0:
        raise RuntimeError(f"session exited with {rc}:\n{err}")
    reply = json.loads(out)
    if Path(reply["src"]).resolve().parent.parent != ROOT / "src":
        raise RuntimeError(f"fibrecount imported from {reply['src']}, not from {ROOT / 'src'}")
    reply["cpu_s"] = usage.ru_utime + usage.ru_stime
    reply["rss_mb"] = usage.ru_maxrss / 1024
    if not trace:
        samples = reply["probe"]["samples"]
        reply["cpu_s"] -= reply["probe"]["paused_cpu_s"]
        for job in reply["jobs"]:
            job["ref_seconds"] = probe.normalize(job["seconds"], samples, job["start"], job["end"])
            job["ref_cpu"] = probe.normalize(job["cpu"], samples, job["start"], job["end"])
        other = reply["cpu_s"] - sum(job["cpu"] for job in reply["jobs"])
        reply["ref_other_cpu"] = probe.normalize(other, samples, samples[0][0], samples[-1][0])
    return reply


def untraced_pass(workload: str, jobs: list) -> list:
    """One pass over the job list: one process for a warm workload, one
    process per job for a cold one.  Returns the session replies."""
    groups = [jobs] if workloads.WARM[workload] else [[job] for job in jobs]
    return [run_session(group, trace=False) for group in groups]


def check_job(job: dict, outcome: dict, references: dict) -> str | None:
    """Why the job's outcome is wrong, or None if it passes."""
    ref = references[workloads.job_key(job)]
    if outcome["traceback"]:
        return "printed a traceback"
    if outcome["code"] != job["expect"] or outcome["code"] != ref["code"]:
        return f"exit code {outcome['code']}, expected {job['expect']}"
    if outcome["sha256"] != ref["sha256"]:
        return "stdout differs from the reference"
    if job["kind"] == "oracle" and outcome["last_line"] != "RESULT: PASS":
        return f"oracle reported {outcome['last_line']!r}"
    return None


def failures(jobs: list, outcomes: list, references: dict) -> list:
    """(argv, reason) for every job whose outcome fails the check."""
    bad = []
    for job, outcome in zip(jobs, outcomes, strict=True):
        reason = check_job(job, outcome, references)
        if reason is not None:
            bad.append((job["argv"], reason))
    return bad


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def percentile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile: a mean of the sorted
    values in which the i-th of n weighs the Beta((n+1)p, (n+1)(1-p))
    probability of [(i-1)/n, i/n], p = q/100.  It weighs the neighbours of
    the nominal rank too, so a gap between two values next to that rank
    moves it less than it moves a single order statistic."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q / 100, (n + 1) * (1 - q / 100)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], ordered))


def end_to_end(workload: str, seed: int, seconds: float, references: dict) -> tuple:
    """Passes over the workload until another would end after `seconds`;
    pass i runs ``workloads.jobs(workload, seed, i)``, the same jobs in
    another order.

    The host is shared, and its speed swings by up to 2x within seconds,
    so every time is taken in reference seconds (probe.py), and each job's
    latency and CPU time, and each process's CPU time outside its jobs
    (start-up and import), is the median over the passes.  run_s and cpu_s
    sum these; the latency percentiles are taken over them.  setup_s is the
    median of samples taken before every pass.
    """
    setup, passes, lists = [], [], []
    measure_setup()  # compiles the bytecode caches of a fresh checkout
    start = time.perf_counter()
    while True:
        setup.extend(measure_setup() for _ in range(SETUP_SAMPLES))
        lists.append(workloads.jobs(workload, seed, len(passes)))
        passes.append(untraced_pass(workload, lists[-1]))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > min(seconds, RUN_BUDGET_S):
            break
    jobs = lists[0]
    outcomes = [[j for reply in p for j in reply["jobs"]] for p in passes]
    bad = [f for js, out in zip(lists, outcomes) for f in failures(js, out, references)]

    def by_slot(rows_by_pass):
        """Per job slot, the median over the passes; each pass gives
        (slot, value) pairs.  A process counts under its first job."""
        rows = [[v for _, v in sorted(pairs, key=lambda pair: pair[0])]
                for pairs in rows_by_pass]
        return [statistics.median(col) for col in zip(*rows)]

    def by_job(key):
        return by_slot([[(j["slot"], o[key]) for j, o in zip(js, out)]
                        for js, out in zip(lists, outcomes)])

    latency = by_job("ref_seconds")
    other_cpu = by_slot([[(j["slot"], r["ref_other_cpu"]) for j, r in zip(js, p)]
                         for js, p in zip(lists, passes)])
    values = {
        "setup_s": statistics.median(ref for _, ref in setup),
        "run_s": sum(latency),
        "cpu_s": sum(by_job("ref_cpu")) + sum(other_cpu),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p) for p in passes),
        "job_p50_ms": 1000 * percentile(latency, 50),
        "job_p95_ms": 1000 * percentile(latency, 95),
    }
    raw_s = ", ".join(f"{sum(o['seconds'] for o in out):.3f}" for out in outcomes)
    ref_s = ", ".join(f"{sum(o['ref_seconds'] for o in out):.3f}" for out in outcomes)
    notes = [f"passes: {len(passes)} of {len(jobs)} jobs each; run_s per pass {ref_s} "
             f"reference s, {raw_s} s as measured",
             f"setup_s as measured: {statistics.median(s for s, _ in setup):.6g} s",
             f"fail_share: {len(bad) / (len(jobs) * len(passes)):.4f} ratio"]
    if len(jobs) < 200:
        notes.append(f"job_p50_ms, job_p95_ms: {len(jobs)} jobs per pass, fewer than "
                     "10 beyond p95, so they weigh single job times, not a tail")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, len(jobs) * len(passes), bad, notes


def per_layer(workload: str, seed: int, jobs: list, references: dict) -> tuple:
    plain = untraced_pass(workload, jobs)
    plain_s = sum(j["seconds"] for reply in plain for j in reply["jobs"])
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-{seed}.json"
    traced = run_session(jobs, trace=True, spans=spans)
    bad = failures(jobs, [j for reply in plain for j in reply["jobs"]], references)
    bad += [(argv, "traced: " + why) for argv, why in failures(jobs, traced["jobs"], references)]
    values = dict(traced["layers"], **{"trace.overhead_s": traced["run_s"] - plain_s})
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
    idle = [name for name, _ in LAYER_METRICS
            if values[name] == 0 and not name.startswith(("runtime.", "trace."))]
    notes = [f"spans: {spans.relative_to(ROOT)}",
             f"untraced run_s {plain_s:.3f} s, traced run_s {traced['run_s']:.3f} s"]
    if idle:
        notes.append("not exercised by this workload (reported as 0): " + ", ".join(idle))
    return metrics, 2 * len(jobs), bad, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fibrecount" / "cli.py").is_file():
        print(f"error: no fibrecount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    references = json.loads(REFERENCES.read_text())
    jobs = workloads.jobs(args.workload, args.seed)
    missing = [workloads.job_key(j) for j in jobs if workloads.job_key(j) not in references]
    if missing:
        print(f"error: no reference output for {missing[0]!r}; run "
              "perfbench/record_references.py at a trusted commit", file=sys.stderr)
        return 2

    if args.trace:
        metrics, attempted, bad, notes = per_layer(args.workload, args.seed, jobs, references)
    else:
        metrics, attempted, bad, notes = end_to_end(args.workload, args.seed, args.seconds,
                                                    references)

    print(f"workload {args.workload} seed {args.seed}: {workloads.WHY[args.workload]}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(note)
    for job_argv, reason in bad[:10]:
        print(f"FAILED {' '.join(job_argv)}: {reason}")
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": len(bad),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
