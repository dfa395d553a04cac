"""Run fibrecount CLI jobs in one interpreter and report on each.

Usage: ``PYTHONPATH=src python3 perfbench/session.py < request.json``

The request is one JSON object ``{"jobs": [argv, ...], "trace": bool,
"spans": path or null}``.  Each argv goes through
``fibrecount.cli.main`` in turn, with stdout and stderr captured, exactly as
a CLI call would run it.  The reply, one JSON object on stdout, holds the
time at which ``import fibrecount.cli`` ended, the wall time of the jobs,
and per job its exit code, start and end, latency, CPU time, stdout digest
and last line, and whether it printed a traceback.  With ``trace`` set, the
layers are traced (see tracer.py) and the reply also holds the per-layer
metrics.  Without it, a `probe.SpeedProbe` runs from before the import to
the end; the reply holds its samples, and the latencies and CPU times leave
out the time its handler took.

Digests are taken after the last job, outside the timed region.
"""

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback


def run_job(main, argv: list, probe=None) -> tuple:
    """(exit code, stdout, stderr, start, end, seconds, CPU seconds) of one
    ``main(argv)`` call; seconds and CPU seconds leave out `probe`'s
    handler."""
    out, err = io.StringIO(), io.StringIO()
    paused = (probe.paused_s, probe.paused_cpu_s) if probe else (0.0, 0.0)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            # What the interpreter would do with an uncaught exception.
            traceback.print_exc()
            code = 1
        end = time.perf_counter()
        cpu = time.process_time() - cpu
    seconds = end - start
    if probe:
        seconds -= probe.paused_s - paused[0]
        cpu -= probe.paused_cpu_s - paused[1]
    if code is None:
        code = 0
    elif not isinstance(code, int):
        code = 1
    return code, out.getvalue(), err.getvalue(), start, end, seconds, cpu


def summarize(code: int, stdout: str, stderr: str, start: float, end: float,
              seconds: float, cpu: float) -> dict:
    lines = stdout.splitlines()
    return {"code": code,
            "start": start,
            "end": end,
            "seconds": seconds,
            "cpu": cpu,
            "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            "last_line": lines[-1] if lines else "",
            "traceback": "Traceback (most recent call last)" in stderr}


def main() -> int:
    request = json.load(sys.stdin)
    probe = None
    if not request["trace"]:
        from probe import SpeedProbe
        probe = SpeedProbe()
        probe.install()
    import fibrecount.cli as cli
    imported = time.perf_counter()
    tracer = None
    if request["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    raw = []
    try:
        for argv in request["jobs"]:
            raw.append(run_job(cli.main, argv, probe))
    finally:
        if tracer is not None:
            tracer.uninstall()
        if probe is not None:
            probe.uninstall()
    jobs = [summarize(*r) for r in raw]
    reply = {"imported": imported, "run_s": sum(job["seconds"] for job in jobs),
             "src": cli.__file__, "jobs": jobs}
    if probe is not None:
        reply["probe"] = {"samples": probe.samples, "paused_s": probe.paused_s,
                          "paused_cpu_s": probe.paused_cpu_s}
    if tracer is not None:
        reply["layers"] = tracer.metrics()
        if request.get("spans"):
            tracer.write(request["spans"])
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
