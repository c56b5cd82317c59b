"""Traced in-process run of the uclab CLI, for the benchmark's per-layer numbers.

The tracer wraps public functions of the uclab modules from outside: it
replaces each module attribute that refers to a target function (in the
defining module and in every module that imported the name), records one
span per call and a few work counters, and restores every attribute when
the run ends.  No source file of the program changes.  Work counts are
taken from what the program does: the arguments and results of wrapped
calls, and the candidate arrays uclab.families builds (see CountingNumpy).

Spans stay in memory: [name, start, end, parent index].  A span's self time
is its duration minus the part of it that its child spans cover.  The self
times of all spans plus an explicit `unattributed` remainder add up to the
traced wall time of `uclab.cli.main`.

The process pool is forced serial (`parallel_map` runs with one job), so no
span is lost in a worker; the traced wall time therefore differs from the
untraced `wall_s` by the pool's effect as well as by the tracing overhead.

Run as a script, it repeats the traced run for a number of seconds and
writes the per-layer metrics of every repeat, the captured reports, the
index of the repeat with the median traced wall time and that repeat's
spans to a JSON file:

    python3 bench/tracer.py --seconds 10 --out trace.json -- lemma certify --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import statistics
import sys
import time
import uuid
from collections import defaultdict
from dataclasses import dataclass

LAYERS = (
    "cli",
    "reportio",
    "scalars",
    "setdist",
    "families",
    "measures",
    "coupling",
    "counterexample",
)

HANDLERS = ("scalar", "lemma", "families", "theorem2", "counterexample", "coupling", "all")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_worst_coupling(counters, result, args, kwargs):
    if _arg(args, kwargs, 0, "mu").size() > 1:
        counters["coupling.multi_atom_solves"] += 1
        counters["coupling.repaired_solves"] += bool(result.repaired)


def _count_restarts(counters, result, args, kwargs):
    counters["measures.local_search_min.restarts"] += result.restarts


def _count_union_entries(counters, result, args, kwargs):
    counters["setdist.union_of_independent.entries"] += 1 << _arg(args, kwargs, 0, "d1").n


def _count_found(found):
    def hook(counters, result, args, kwargs):
        counters["families.families_found"] += found(result)

    return hook


class CountingNumpy:
    """Stands in for `np` in uclab.families: every attribute is numpy's,
    but `arange` also adds the size of the array it builds to
    `families.codes_scanned`.  The enumeration builds its candidate
    membership codes with `np.arange` and nothing else there calls it, so
    the counter is the number of candidates the program really made."""

    def __init__(self, numpy, counters):
        self._numpy = numpy
        self._counters = counters

    def __getattr__(self, name):
        return getattr(self._numpy, name)

    def arange(self, *args, **kwargs):
        codes = self._numpy.arange(*args, **kwargs)
        self._counters["families.codes_scanned"] += codes.size
        return codes


# (module, attribute, span name, counter hook); "Class.method" wraps a method
TARGETS = (
    *(("uclab.cli", f"cmd_{h}", f"cli.{h}", None) for h in HANDLERS),
    ("uclab.reportio", "emit_report", "reportio.emit_report", None),
    *(
        ("uclab.scalars", f, f"scalars.{f}", None)
        for f in (
            "binary_entropy",
            "union_prob",
            "entropy_ratio_bound",
            "entropy_square_ratio",
            "entropy_square_gap",
            "d3_entropy_of_square",
            "d3_s_entropy",
        )
    ),
    ("uclab.setdist", "ExplicitSetDistribution.from_mapping", "setdist.from_mapping", None),
    ("uclab.setdist", "ExplicitSetDistribution.marginals", "setdist.marginals", None),
    ("uclab.setdist", "ExplicitSetDistribution.entropy", "setdist.entropy", None),
    ("uclab.setdist", "union_of_independent", "setdist.union_of_independent", _count_union_entries),
    ("uclab.setdist", "union_entropy_check", "setdist.union_entropy_check", None),
    ("uclab.setdist", "expand_mixture", "setdist.expand_mixture", None),
    ("uclab.setdist", "product_bernoulli", "setdist.product_bernoulli", None),
    ("uclab.setdist", "load_distribution", "setdist.load", None),
    ("uclab.setdist", "load_mixture", "setdist.load", None),
    (
        "uclab.families",
        "verify_frequency_threshold",
        "families.verify_frequency_threshold",
        _count_found(lambda rep: rep.families_checked + rep.degenerate_excluded),
    ),
    ("uclab.families", "count_union_closed", "families.count_union_closed", _count_found(int)),
    ("uclab.measures", "two_atom_min_scan", "measures.two_atom_min_scan", None),
    ("uclab.measures", "local_search_min", "measures.local_search_min", _count_restarts),
    ("uclab.measures", "objective", "measures.objective", None),
    ("uclab.measures", "lemma_certificate", "measures.lemma_certificate", None),
    ("uclab.coupling", "linprog", "coupling.linprog", None),
    (
        "uclab.coupling",
        "worst_coupling_value",
        "coupling.worst_coupling_value",
        _count_worst_coupling,
    ),
    ("uclab.coupling", "improved_slack", "coupling.improved_slack", None),
    ("uclab.coupling", "delta_search", "coupling.delta_search", None),
    ("uclab.counterexample", "bounds_report", "counterexample.bounds_report", None),
    ("uclab.counterexample", "exact_small_n_check", "counterexample.exact_small_n_check", None),
)

# per-layer metrics reported from every traced run, beside the per-span
# self times and call counts that layer_metrics derives
COUNTERS = (
    "measures.parallel_map.items",
    "measures.local_search_min.restarts",
    "setdist.union_of_independent.entries",
    "families.codes_scanned",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class Tracer:
    """Spans and counters of one traced run; all spans share `run_id`."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list = []
        self.counters = defaultdict(int)
        self._stack: list = []

    def wrap(self, name, fn, hook=None):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, result, args, kwargs)
            return result

        return traced


def self_times(spans) -> list:
    """Duration of each span minus the union of its children's intervals
    (clipped to the span), so overlapping children are not counted twice."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            cs, ce = max(spans[c][1], start), min(spans[c][2], end)
            if ce <= cs:
                continue
            if hi is None or cs > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = cs, ce
            else:
                hi = max(hi, ce)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


class Patches:
    """Replaces module, dict and class attributes and puts every original back."""

    def __init__(self):
        self._saved: list = []

    def set_attr(self, owner, key, value):
        self._saved.append((owner, key, owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)))
        setattr(owner, key, value)

    def set_item(self, mapping, key, value):
        self._saved.append((mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


def _uclab_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "uclab" or name.startswith("uclab.")]


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every target, force the process pool serial and count the
    candidate codes that uclab.families builds."""
    modules = _uclab_modules()
    cli = sys.modules["uclab.cli"]
    wrapped: dict = {}
    for module_name, attr, span_name, hook in TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                patches.set_attr(cls, meth, classmethod(tracer.wrap(span_name, raw.__func__, hook)))
            else:
                patches.set_attr(cls, meth, tracer.wrap(span_name, raw, hook))
            continue
        original = getattr(owner, attr)
        wrapped[id(original)] = (original, tracer.wrap(span_name, original, hook))

    measures = sys.modules["uclab.measures"]
    parallel_map = measures.parallel_map
    counters = tracer.counters

    def serial_map(fn, items, jobs):
        items = list(items)
        counters["measures.parallel_map.items"] += len(items)
        return parallel_map(fn, items, 1)

    wrapped[id(parallel_map)] = (parallel_map, tracer.wrap("measures.parallel_map", serial_map))

    for module in modules:
        for key, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                patches.set_attr(module, key, hit[1])
    for key, value in list(cli._HANDLERS.items()):
        hit = wrapped.get(id(value))
        if hit is not None and hit[0] is value:
            patches.set_item(cli._HANDLERS, key, hit[1])
    families = sys.modules["uclab.families"]
    patches.set_attr(families, "np", CountingNumpy(families.np, counters))


@dataclass
class TracedRun:
    """Outcome of one traced `uclab.cli.main(argv)` call."""

    exit_code: int
    stdout: str
    stderr: str
    wall_s: float
    tracer: Tracer


def traced_main(argv) -> TracedRun:
    """Run `uclab.cli.main(argv)` in this process with every target wrapped,
    capturing the report; all wrapped attributes are restored afterwards."""
    cli = importlib.import_module("uclab.cli")
    tracer = Tracer()
    patches = Patches()
    out, err = io.StringIO(), io.StringIO()
    try:
        install(tracer, patches)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            wall = time.perf_counter() - start
    finally:
        patches.restore()
    return TracedRun(code, out.getvalue(), err.getvalue(), wall, tracer)


def layer_metrics(run: TracedRun) -> dict:
    """Per-layer metrics of one traced run (see bench/README.md)."""
    spans = run.tracer.spans
    selfs = self_times(spans)
    by_name = defaultdict(lambda: [0, 0.0])
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, selfs):
        entry = by_name[span[0]]
        entry[0] += 1
        entry[1] += own
        by_layer[span[0].split(".")[0]] += own
    counters = run.tracer.counters

    def calls(name):
        return by_name[name][0] if name in by_name else 0

    def self_s(name):
        return by_name[name][1] if name in by_name else 0.0

    metrics = {
        "trace.wall_s": run.wall_s,
        "trace.unattributed_s": run.wall_s - sum(selfs),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = by_layer[layer]
    for h in HANDLERS:
        metrics[f"cli.{h}.self_s"] = self_s(f"cli.{h}")
    metrics["reportio.emit_report.self_s"] = self_s("reportio.emit_report")
    metrics["reportio.report_bytes"] = len(run.stdout.encode())
    metrics["scalars.binary_entropy.calls"] = calls("scalars.binary_entropy")
    for name in ("coupling.linprog", "coupling.worst_coupling_value"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    multi = counters["coupling.multi_atom_solves"]
    metrics["coupling.repaired_ratio"] = counters["coupling.repaired_solves"] / multi if multi else 0.0
    metrics["coupling.delta_search.self_s"] = self_s("coupling.delta_search")
    metrics["coupling.improved_slack.calls"] = calls("coupling.improved_slack")
    for name in ("measures.two_atom_min_scan", "measures.local_search_min", "measures.objective"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    metrics["measures.parallel_map.calls"] = calls("measures.parallel_map")
    for name in ("from_mapping", "marginals", "union_of_independent", "expand_mixture", "entropy", "load"):
        metrics[f"setdist.{name}.self_s"] = self_s(f"setdist.{name}")
    metrics["families.verify_frequency_threshold.self_s"] = self_s("families.verify_frequency_threshold")
    metrics["families.count_union_closed.self_s"] = self_s("families.count_union_closed")
    scanned = counters["families.codes_scanned"]
    metrics["families.useful_ratio"] = counters["families.families_found"] / scanned if scanned else 0.0
    metrics["counterexample.bounds_report.self_s"] = self_s("counterexample.bounds_report")
    for name in COUNTERS:
        metrics[name] = counters[name]
    return metrics


def median_run(runs) -> int:
    """Index of the repeat whose traced wall time is the median (the lower
    of the two middle ones for an even count).  Its per-layer metrics are
    reported together, so they add up to its own `trace.wall_s`."""
    order = sorted(range(len(runs)), key=lambda i: runs[i]["metrics"]["trace.wall_s"])
    return order[(len(order) - 1) // 2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True, help="JSON file for metrics, reports and spans")
    ap.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    start = time.perf_counter()
    importlib.import_module("uclab.cli")
    import_s = time.perf_counter() - start
    runs = []
    spans = []
    while True:
        run = traced_main(cli_argv)
        spans.append({"run_id": run.tracer.run_id, "spans": run.tracer.spans})
        runs.append(
            {
                "run_id": run.tracer.run_id,
                "exit_code": run.exit_code,
                "report": run.stdout,
                "stderr": run.stderr,
                "metrics": layer_metrics(run),
            }
        )
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["metrics"]["trace.wall_s"] for r in runs)
        if elapsed + typical > args.seconds:
            break
    median = median_run(runs)
    record = {
        "argv": cli_argv,
        "import_s": import_s,
        "runs": runs,
        "median_run": median,
        "spans": spans[median],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
