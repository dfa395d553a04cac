"""Seeded job lists for the fibrecount benchmark.

Stdlib only; this module never imports fibrecount.  The program under test
receives nothing but the argv lists built here.

A job is a dict ``{"kind", "argv", "expect", "slot"}``: ``argv`` is the
CLI argument list (without the program name), ``expect`` the documented
exit code the job must end with, and ``slot`` its place in the workload's
unshuffled job list, the same for every seed and pass.

`profile-queries` runs a fixed catalogue of jobs, generated once from
`CATALOGUE_SEED`, so that every job has a reference output recorded in
``references.json``.  The seed, and the pass within a run, choose how the
kinds interleave; the jobs of one kind keep their catalogue order.
"""

from __future__ import annotations

import random

ALPHABET = ("a", "b")
CATALOGUE_SEED = 20260517

WHY = {
    "series-solve": (
        "cold CLI series solves: the fixpoint solvers spend their time "
        "in series multiplication, MultiIndex addition and Fraction, "
        "while trees, lowering and F counts are idle"),
    "profile-queries": (
        "a warm session of count, lower, transition and coproduct jobs "
        "that reuse the module memos, with the heavy-tailed latency of "
        "the count recursion"),
    "oracle-check": (
        "the cold oracle at its cap: the only brute-force tree and full "
        "profile enumeration, filling every cache and holding the "
        "largest heap"),
}

# Warm workloads run all jobs of a pass in one process; cold ones start a
# fresh process per job, as a CLI user would.
WARM = {"series-solve": False, "profile-queries": True, "oracle-check": False}

SERIES_JOBS = (
    ("series", "ordinary", "--max-degree", "7", "--alphabet", "a,b"),
    ("series", "weighted", "--max-degree", "9", "--alphabet", "a,b"),
    ("series", "ordinary", "--max-degree", "10", "--alphabet", "a"),
)
ORACLE_JOB = ("oracle", "--max-n", "8", "--alphabet", "a,b")

# The profile-queries catalogue: jobs per kind and size.
COUNT_PER_DEGREE = {6: 6, 7: 6, 8: 6, 9: 7, 10: 7, 11: 7, 12: 7, 13: 7, 14: 7}
# One chain of a random degree in each band.
DEEP_STRATA = ((100, 130), (180, 210), (260, 290), (370, 400))
LOWER_PER_ORDER = {2: 9, 3: 9, 4: 9, 5: 9, 6: 8, 7: 8, 8: 8}
TRANSITION_REACHABLE = 50
TRANSITION_UNREACHABLE = 10
COPRODUCT_PER_DEGREE = {7: 14, 8: 13, 9: 13}
INVALID_PER_CODE = {2: 6, 3: 6}

FORMS = ("raw-dbar", "refined-C", "refined-D")


def format_multiindex(entries: dict) -> str:
    """Canonical text of ``{(decoration, j): count}``, zero counts dropped."""
    items = sorted((key, c) for key, c in entries.items() if c)
    if not items:
        return "0"
    return ",".join(f"{a}:{j}={c}" for (a, j), c in items)


def random_tree_profile(rng: random.Random, n: int) -> dict:
    """Profile of a random recursive tree on n vertices, decorated at random."""
    children = [0] * n
    for v in range(1, n):
        children[rng.randrange(v)] += 1
    out: dict = {}
    for c in children:
        key = (rng.choice(ALPHABET), c - 1)
        out[key] = out.get(key, 0) + 1
    return out


def random_monomial(rng: random.Random, degree: int, top: int = 4) -> dict:
    """A multi-index of the given degree with indices in -1..top."""
    out: dict = {}
    for _ in range(degree):
        key = (rng.choice(ALPHABET), rng.randint(-1, top))
        out[key] = out.get(key, 0) + 1
    return out


def shift(k: dict, lowering: dict) -> dict | None:
    """``k - l + left_shift(l)``, or None on a negative component."""
    out = dict(k)
    for (a, j), c in lowering.items():
        out[(a, j)] = out.get((a, j), 0) - c
        out[(a, j - 1)] = out.get((a, j - 1), 0) + c
    if any(c < 0 for c in out.values()):
        return None
    return {key: c for key, c in out.items() if c}


def random_lowering(rng: random.Random, k: dict) -> dict:
    """A random lowering l that k can absorb: l is built one unit at a time,
    each unit at an index j >= 0 where the shifted monomial stays nonnegative."""
    order = rng.randint(1, 6)
    low: dict = {}
    for _ in range(order):
        options = sorted(key for key in {**k, **low}
                         if key[1] >= 0 and shift(k, {**low, key: low.get(key, 0) + 1}))
        if not options:
            break
        key = rng.choice(options)
        low[key] = low.get(key, 0) + 1
    return low


def _count_job(k: dict, kind: str = "count") -> dict:
    return {"kind": kind, "argv": ["count", format_multiindex(k)], "expect": 0}


def _deep_path(rng: random.Random, lo: int, hi: int, branch: bool) -> dict:
    """A chain of a:0 vertices of random degree in lo..hi; with `branch`,
    one of its inner vertices is decorated b instead."""
    n = rng.randint(lo, hi)
    if branch:
        return _count_job({("a", -1): 1, ("a", 0): n - 2, ("b", 0): 1}, "deep-count")
    return _count_job({("a", -1): 1, ("a", 0): n - 1}, "deep-count")


def _invalid(rng: random.Random, code: int, i: int) -> dict:
    k = format_multiindex(random_tree_profile(rng, rng.randint(3, 8)))
    if code == 2:
        argv = [
            ["count", k.replace("-1", "-2", 1)],
            ["count", k + "," + k.split(",")[0]],
            ["count", k.rstrip("0123456789")],
            ["coproduct", "1" + k],
            ["lower", k, "two"],
            ["transition", k, k.replace(":", "=", 1)],
        ][i % 6]
    else:
        # A parsable monomial whose weight is not -1: the extra c entry
        # moves the weight of k by j != 0, and a:0=n has weight 0.
        extra = f"c:{rng.choice((-1, 1, 2, 3))}=1"
        argv = [
            ["count", k + "," + extra],
            ["coproduct", k + "," + extra],
            ["count", f"a:0={rng.randint(2, 6)}"],
        ][i % 3]
    return {"kind": f"invalid-{code}", "argv": argv, "expect": code}


def catalogue() -> list[dict]:
    """The profile-queries jobs, kind by kind, each kind from small to large.

    Built from CATALOGUE_SEED alone, so it is the same on every call.
    """
    rng = random.Random(CATALOGUE_SEED)
    out = []
    for d, n in COUNT_PER_DEGREE.items():
        out.extend(_count_job(random_tree_profile(rng, d)) for _ in range(n))
    # Only the shortest chain carries the b vertex: at 400 vertices that
    # shape alone takes several times as long as the plain chain.
    out.extend(_deep_path(rng, lo, hi, i == 0) for i, (lo, hi) in enumerate(DEEP_STRATA))
    for r, n in LOWER_PER_ORDER.items():
        ks = [random_monomial(rng, rng.randint(8, 14)) for _ in range(n)]
        out.extend({"kind": "lower", "argv": ["lower", format_multiindex(k), str(r)],
                    "expect": 0} for k in ks)
    for _ in range(TRANSITION_REACHABLE):
        k = random_monomial(rng, rng.randint(8, 14))
        b = shift(k, random_lowering(rng, k))
        out.append({"kind": "transition",
                    "argv": ["transition", format_multiindex(k), format_multiindex(b)],
                    "expect": 0})
    for _ in range(TRANSITION_UNREACHABLE):
        k = random_monomial(rng, rng.randint(8, 14))
        b = shift(k, random_lowering(rng, k))
        # Lowering keeps the degree of each decoration, so moving one unit
        # of b to the other decoration makes b unreachable from k.
        (a, j) = rng.choice(sorted(b))
        other = (ALPHABET[1 - ALPHABET.index(a)], j)
        b[(a, j)] -= 1
        b[other] = b.get(other, 0) + 1
        out.append({"kind": "transition-unreachable",
                    "argv": ["transition", format_multiindex(k), format_multiindex(b)],
                    "expect": 0})
    for d, n in COPRODUCT_PER_DEGREE.items():
        ks = [random_tree_profile(rng, d) for _ in range(n)]
        out.extend({"kind": "coproduct",
                    "argv": ["coproduct", format_multiindex(k), FORMS[i % 3]],
                    "expect": 0} for i, k in enumerate(ks))
    for code, n in INVALID_PER_CODE.items():
        out.extend(_invalid(rng, code, i) for i in range(n))
    return out


def _base(workload: str) -> list[dict]:
    if workload == "series-solve":
        out = [{"kind": "series", "argv": list(argv), "expect": 0} for argv in SERIES_JOBS]
    elif workload == "oracle-check":
        out = [{"kind": "oracle", "argv": list(ORACLE_JOB), "expect": 0}]
    elif workload == "profile-queries":
        out = catalogue()
    else:
        raise KeyError(f"unknown workload {workload!r}")
    return [dict(job, slot=i) for i, job in enumerate(out)]


def jobs(workload: str, seed: int, rep: int = 0) -> list[dict]:
    """The job list of one workload for one seed and pass `rep`.

    The seed and `rep` shuffle the order of the kinds, and the jobs of each
    kind fill that kind's places in their catalogue order.  Jobs of one
    kind share memo entries, so a job's latency depends on which jobs of
    its kind ran before it; keeping their order makes that the same for
    every seed, while the kinds interleave differently.
    """
    base = _base(workload)
    rng = random.Random(f"{workload}/{seed}/{rep}")
    kinds = [job["kind"] for job in base]
    rng.shuffle(kinds)
    queues: dict[str, list[dict]] = {}
    for job in reversed(base):
        queues.setdefault(job["kind"], []).append(job)
    return [queues[kind].pop() for kind in kinds]


def job_key(job: dict) -> str:
    """The key under which a job's reference output is recorded."""
    return " ".join(job["argv"])


def all_jobs() -> list[dict]:
    """Every job of every workload, each once."""
    seen: dict[str, dict] = {}
    for workload in WHY:
        for job in _base(workload):
            seen.setdefault(job_key(job), job)
    return list(seen.values())
