"""Per-layer tracing of fibrecount, installed from outside the package.

`Tracer.install` replaces the public functions of each layer module with
timing wrappers, everywhere the function object is bound: in its own
module, in every fibrecount module that imported it by name, and on its
class for methods.  `Tracer.uninstall` puts every original back.  Nothing
under ``src/`` is edited.

Two kinds of wrapper:

* span wrappers record one span ``(name, start, end, parent)`` per call,
  where parent is the index of the enclosing recorded span or -1;
* aggregate wrappers, for functions called 10^5 to 10^6 times per run,
  record per ``(name, parent)`` only the call count, the time of the calls
  made directly inside that parent, and their total self time.  An
  aggregated function calls no span-wrapped function.

A span's self time is its duration minus the time its child spans and
directly nested aggregated calls cover (`self_times`).

Every wrapper raises the recursion limit by one for the duration of its
call, so the frame it adds does not count against the program: a
recursion that completes untraced also completes traced, and one that
fails untraced fails traced.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("multiindex", "series", "weighted", "ordinary", "trees",
          "lowering", "coproduct", "cli")

SPAN, AGGREGATE = "span", "aggregate"

# Count hooks: hook(counts, args, kwargs, result, parent_name).


def _none_results(counts, args, kwargs, result, parent):
    if result is None:
        counts["multiindex.apply_shift.none"] += 1


def _enumerate_size(counts, args, kwargs, result, parent):
    if parent == "multiindex.enumerate_profiles":
        counts["multiindex.enumerate_profiles.candidates"] += len(result)


def _profiles_kept(counts, args, kwargs, result, parent):
    counts["multiindex.enumerate_profiles.kept"] += len(result)


def _mul_terms(counts, args, kwargs, result, parent):
    if result is NotImplemented:
        return
    left, right = args
    pairs = len(left._terms)
    if hasattr(right, "_terms"):
        pairs *= len(right._terms)
    counts["series.mul.pairs"] += pairs
    counts["series.mul.out_terms"] += len(result._terms)


def _sized(metric):
    def hook(counts, args, kwargs, result, parent):
        counts[metric] += len(result)
    return hook


def _c_table_entries(counts, args, kwargs, result, parent):
    counts["lowering.c_tables.entries"] += sum(len(level) for level in result)


def _coproduct_name(args, kwargs):
    form = args[1] if len(args) > 1 else kwargs.get("form", "raw-dbar")
    return f"coproduct.{form}"


# (metric name, module, attribute path, kind, count hook, count distinct
# arguments).  The name may be a function of the call's arguments.
TARGETS = (
    ("multiindex.add", "multiindex", "MultiIndex.__add__", AGGREGATE, None, False),
    ("multiindex.sub", "multiindex", "MultiIndex.__sub__", AGGREGATE, None, False),
    ("multiindex.includes", "multiindex", "MultiIndex.includes", AGGREGATE, None, False),
    ("multiindex.apply_shift", "multiindex", "apply_shift", AGGREGATE, _none_results, False),
    ("multiindex.find_shift", "multiindex", "find_shift", SPAN, None, False),
    ("multiindex.enumerate", "multiindex", "enumerate_multiindices", SPAN, _enumerate_size, False),
    ("multiindex.enumerate_profiles", "multiindex", "enumerate_profiles", SPAN, _profiles_kept, False),
    ("multiindex.profile_parts", "multiindex", "iter_profile_parts", AGGREGATE, None, False),
    ("series.mul", "series", "TruncatedSeries.__mul__", SPAN, _mul_terms, False),
    ("series.add", "series", "TruncatedSeries.__add__", SPAN, None, False),
    ("weighted.closed", "weighted", "weighted_counts", SPAN, None, False),
    ("weighted.recursive", "weighted", "weighted_counts_recursive", AGGREGATE, None, True),
    ("weighted.rhs", "weighted", "functional_rhs", SPAN, None, False),
    ("ordinary.count", "ordinary", "ordinary_count", AGGREGATE, None, True),
    ("ordinary.rhs", "ordinary", "functional_rhs", SPAN, None, False),
    ("ordinary.cycle_index", "ordinary", "cycle_index_set", SPAN, None, False),
    ("ordinary.h_product", "ordinary", "h_series_product", SPAN, None, False),
    ("ordinary.h_cycle", "ordinary", "h_series_cycle", SPAN, None, False),
    ("trees.fibres", "trees", "fibres_of_degree", SPAN, None, False),
    ("trees.build", "trees", "DecoratedTree.__init__", AGGREGATE, None, False),
    ("trees.aut", "trees", "DecoratedTree.automorphism_order", AGGREGATE, None, False),
    ("lowering.c_tables", "lowering", "c_coefficient_tables", SPAN, _c_table_entries, False),
    ("lowering.apply_lowering", "lowering", "apply_lowering", SPAN,
     _sized("lowering.apply_lowering.out_terms"), False),
    ("lowering.c_coefficient", "lowering", "c_coefficient", AGGREGATE, None, True),
    ("lowering.d_recursive", "lowering", "d_coefficient_recursive", AGGREGATE, None, True),
    ("lowering.transition", "lowering", "transition_gf", SPAN, None, False),
    ("lowering.transport", "lowering", "transport_arrays", SPAN,
     _sized("lowering.transport.arrays"), False),
    ("coproduct.raw", "coproduct", "coproduct_raw", SPAN, _sized("coproduct.raw.splits"), False),
    (_coproduct_name, "coproduct", "coproduct", SPAN, _sized("coproduct.terms"), False),
    ("cli.oracle", "cli", "run_oracle", SPAN, None, False),
    ("cli", "cli", "main", SPAN, None, False),
)

# The per-layer metrics the benchmark reports, in order.
METRICS = (
    ("multiindex.add.calls", "count"),
    ("multiindex.sub.calls", "count"),
    ("multiindex.apply_shift.calls", "count"),
    ("multiindex.apply_shift.none_ratio", "ratio"),
    ("multiindex.enumerate.self_s", "s"),
    ("multiindex.enumerate_profiles.kept_ratio", "ratio"),
    ("multiindex.self_s", "s"),
    ("series.mul.calls", "count"),
    ("series.mul.self_s", "s"),
    ("series.mul.pairs", "count"),
    ("series.mul.out_terms", "count"),
    ("series.add.self_s", "s"),
    ("weighted.rhs.calls", "count"),
    ("weighted.rhs.self_s", "s"),
    ("weighted.recursive.calls", "count"),
    ("weighted.recursive.distinct", "count"),
    ("weighted.recursive.self_s", "s"),
    ("weighted.closed.self_s", "s"),
    ("ordinary.count.calls", "count"),
    ("ordinary.count.distinct", "count"),
    ("ordinary.count.self_s", "s"),
    ("ordinary.rhs.calls", "count"),
    ("ordinary.rhs.self_s", "s"),
    ("ordinary.cycle_index.self_s", "s"),
    ("ordinary.h_product.self_s", "s"),
    ("ordinary.h_cycle.self_s", "s"),
    ("trees.fibres.self_s", "s"),
    ("trees.built", "count"),
    ("trees.aut.calls", "count"),
    ("trees.aut.self_s", "s"),
    ("lowering.c_tables.calls", "count"),
    ("lowering.c_tables.entries", "count"),
    ("lowering.c_tables.self_s", "s"),
    ("lowering.apply_lowering.out_terms", "count"),
    ("lowering.apply_lowering.self_s", "s"),
    ("lowering.c_coefficient.calls", "count"),
    ("lowering.c_coefficient.distinct", "count"),
    ("lowering.d_recursive.calls", "count"),
    ("lowering.d_recursive.distinct", "count"),
    ("lowering.d_recursive.self_s", "s"),
    ("lowering.transition.self_s", "s"),
    ("lowering.transport.calls", "count"),
    ("lowering.transport.arrays", "count"),
    ("lowering.transport.self_s", "s"),
    ("coproduct.raw.splits", "count"),
    ("coproduct.raw.self_s", "s"),
    ("coproduct.raw-dbar.self_s", "s"),
    ("coproduct.refined-C.self_s", "s"),
    ("coproduct.refined-D.self_s", "s"),
    ("coproduct.terms", "count"),
    ("cli.self_s", "s"),
    ("cli.oracle.self_s", "s"),
    ("runtime.gc.collections", "count"),
    ("runtime.gc_s", "s"),
    ("trace.overhead_s", "s"),
)


def self_times(spans, aggregates) -> dict[str, float]:
    """Self seconds per name.

    spans: sequence of ``(name, start, end, parent)``, parent an index into
    spans or -1.  aggregates: sequence of ``(name, parent, calls, direct_s,
    self_s)``, where direct_s is the time of the calls made directly inside
    the parent span and self_s their total self time.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    for _, parent, _, direct_s, _ in aggregates:
        if parent >= 0:
            covered[parent] += direct_s
    out: dict[str, float] = {}
    for (name, start, end, _), cover in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (end - start) - cover
    for name, _, _, _, self_s in aggregates:
        out[name] = out.get(name, 0.0) + self_s
    return out


def _resolve(owner, path: str):
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


class Tracer:
    """Wraps the layers of one fibrecount process; see the module doc."""

    def __init__(self):
        self.spans: list = []
        self.aggregates: dict = {}
        self.counts: Counter = Counter()
        self.seen: dict = {}
        self.gc_collections = 0
        self.gc_s = 0.0
        self._gc_start = 0.0
        # One frame per active wrapped call: [span index or -1 for an
        # aggregated call, seconds covered by direct children, index of
        # the nearest recorded span, name].
        self._stack = [[-1, 0.0, -1, None]]
        self._patches: list = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, hook, distinct):
        spans, stack, counts = self.spans, self._stack, self.counts
        seen = self.seen.setdefault(name, set()) if distinct else None
        get_limit, set_limit = sys.getrecursionlimit, sys.setrecursionlimit
        named = callable(name)

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if named else name
            if seen is not None:
                seen.add(args)
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0, index, label]
            stack.append(frame)
            limit = get_limit()
            set_limit(limit + 1)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                set_limit(limit)
                stack.pop()
                parent[1] += end - start
                spans[index] = (label, start, end, parent[2])
            if hook is not None:
                hook(counts, args, kwargs, result, parent[3])
            return result
        return wrapper

    def _aggregate_wrapper(self, name, fn, hook, distinct):
        stack, aggregates, counts = self._stack, self.aggregates, self.counts
        seen = self.seen.setdefault(name, set()) if distinct else None
        get_limit, set_limit = sys.getrecursionlimit, sys.setrecursionlimit

        def wrapper(*args, **kwargs):
            if seen is not None:
                seen.add(args)
            parent = stack[-1]
            frame = [-1, 0.0, parent[2], name]
            stack.append(frame)
            limit = get_limit()
            set_limit(limit + 1)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                set_limit(limit)
                stack.pop()
                parent[1] += elapsed
                key = (name, parent[2])
                entry = aggregates.get(key)
                if entry is None:
                    entry = aggregates[key] = [0, 0.0, 0.0]
                entry[0] += 1
                if parent[0] >= 0:
                    entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if hook is not None:
                hook(counts, args, kwargs, result, parent[3])
            return result
        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever fibrecount binds it."""
        modules = [importlib.import_module("fibrecount")]
        modules += [importlib.import_module(f"fibrecount.{m}") for m in LAYERS]
        owners = list(modules)
        for module in modules:
            owners.extend(v for v in vars(module).values()
                          if isinstance(v, type) and v.__module__.startswith("fibrecount"))
        for name, module, path, kind, hook, distinct in TARGETS:
            original = _resolve(importlib.import_module(f"fibrecount.{module}"), path)
            make = self._span_wrapper if kind == SPAN else self._aggregate_wrapper
            wrapper = make(name, original, hook, distinct)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Put back every attribute `install` replaced."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def _aggregate_rows(self) -> list:
        return [(name, parent, calls, direct_s, self_s)
                for (name, parent), (calls, direct_s, self_s) in self.aggregates.items()]

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of METRICS but trace.overhead_s, which
        needs an untraced run to compare with."""
        rows = self._aggregate_rows()
        selfs = self_times(self.spans, rows)
        calls: dict[str, int] = {}
        for span in self.spans:
            calls[span[0]] = calls.get(span[0], 0) + 1
        for name, _, n, _, _ in rows:
            calls[name] = calls.get(name, 0) + n
        counts = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "multiindex.apply_shift.none_ratio": ratio(
                counts["multiindex.apply_shift.none"], calls.get("multiindex.apply_shift", 0)),
            "multiindex.enumerate_profiles.kept_ratio": ratio(
                counts["multiindex.enumerate_profiles.kept"],
                counts["multiindex.enumerate_profiles.candidates"]),
            "multiindex.self_s": sum(s for n, s in selfs.items()
                                     if n.startswith("multiindex.")),
            "trees.built": calls.get("trees.build", 0),
            "runtime.gc.collections": self.gc_collections,
            "runtime.gc_s": self.gc_s,
        }
        for name, _ in METRICS:
            if name in values or name == "trace.overhead_s":
                continue
            base, _, what = name.rpartition(".")
            if what == "calls":
                values[name] = calls.get(base, 0)
            elif what == "self_s":
                values[name] = selfs.get(base, 0.0)
            elif what == "distinct":
                values[name] = len(self.seen.get(base, ()))
            else:
                values[name] = counts[name]
        return values

    def write(self, path: str) -> None:
        """Write the spans and aggregates as one JSON object."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "aggregates": self._aggregate_rows()}, fh)
