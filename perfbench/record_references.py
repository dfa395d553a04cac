"""Record the reference output of every job the benchmark can run.

Usage, from the root of a checkout at a commit whose outputs are trusted::

    python3 perfbench/record_references.py

Writes ``perfbench/references.json``: job key -> exit code and SHA-256 of
stdout.  Stops without writing if a job ends with another exit code than
the one the generator documents for it, or prints a traceback.
"""

import json
import sys

import workloads
from run import REFERENCES, run_session


def main() -> int:
    jobs = workloads.all_jobs()
    cold = [j for j in jobs if j["kind"] in ("series", "oracle")]
    warm = [j for j in jobs if j["kind"] not in ("series", "oracle")]
    outcomes = [run_session([job], trace=False)["jobs"][0] for job in cold]
    outcomes += run_session(warm, trace=False)["jobs"]
    references = {}
    for job, outcome in zip(cold + warm, outcomes):
        if outcome["code"] != job["expect"] or outcome["traceback"]:
            print(f"error: {' '.join(job['argv'])} exited with {outcome['code']}",
                  file=sys.stderr)
            return 1
        references[workloads.job_key(job)] = {"code": outcome["code"],
                                              "sha256": outcome["sha256"]}
    lines = [f"{json.dumps(key)}: {json.dumps(references[key])}" for key in sorted(references)]
    REFERENCES.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(references)} references in {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
