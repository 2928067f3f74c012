"""Span tracer for the traced run, and the per-layer metrics built from its spans.

``Tracer.install`` wraps every public function of the spinpulse layers (the
callables other than classes in a module's ``__all__`` that the module
defines itself, plain or decorated, e.g. by ``functools.lru_cache``) and puts
the wrapper in every spinpulse namespace that holds the function, so calls
from one layer into another are traced as well as the benchmark's own calls.
It records which functions it wrapped; a function the per-layer metrics
need but that was not wrapped makes the traced run fail.
``Tracer.uninstall`` puts the originals back.  The untraced run never
imports this module.

A span is ``[name, start_ns, end_ns, parent, info]``; ``parent`` indexes
the enclosing span, or is -1.  Each operation opens a root span
``bench.<workload>``, so the spans of one operation share that ancestor.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("su2", "sequence", "dsl", "errors", "simulator", "analysis", "cli")

# Per-layer metrics: name, unit, better, the workload they are measured on,
# and the end-to-end metrics on that workload they should move.
PER_LAYER = (
    ("simulator.rabi_trace.busy_s", "s", "lower", "nutation", "ops_per_s, op_p50_ms"),
    ("simulator.node_samples", "count", "lower", "nutation", "ops_per_s, op_p50_ms"),
    ("simulator.ns_per_node_sample", "ns", "lower", "nutation", "ops_per_s, op_p50_ms"),
    ("simulator.propagate.calls", "count", "lower", "program_check", "ops_per_s (guard)"),
    ("simulator.propagate.busy_s", "s", "lower", "program_check", "ops_per_s (guard)"),
    ("simulator.echo_train.calls", "count", "lower", "echo_fit", "op_p50_ms"),
    ("simulator.echo_train.busy_s", "s", "lower", "echo_fit", "op_p50_ms"),
    ("simulator.self_s", "s", "lower", "echo_fit", "op_p50_ms"),
    ("errors.ensemble_nodes.calls", "count", "lower", "echo_fit", "op_p50_ms"),
    ("errors.ensemble_nodes.busy_s", "s", "lower", "echo_fit", "op_p50_ms"),
    ("errors.nodes_generated", "count", "lower", "echo_fit", "op_p50_ms"),
    ("errors.ensemble_nodes.distinct_ratio", "ratio", "higher", "echo_fit", "op_p50_ms"),
    ("analysis.estimate_rotation_error.busy_s", "s", "lower", "echo_fit",
     "ops_per_s; maybe peak_rss_mb, setup_s"),
    ("analysis.self_s", "s", "lower", "echo_fit", "ops_per_s; maybe peak_rss_mb, setup_s"),
    ("analysis.echo_train_per_fit", "count", "lower", "echo_fit",
     "ops_per_s; maybe peak_rss_mb, setup_s"),
    ("analysis.bb1_fidelity.calls", "count", "lower", "program_check", "ops_per_s"),
    ("analysis.scan_order.busy_s", "s", "lower", "program_check", "ops_per_s"),
    ("su2.rotation.calls", "count", "lower", "program_check", "ops_per_s"),
    ("su2.busy_s", "s", "lower", "program_check", "ops_per_s"),
    ("dsl.parse_program.busy_s", "s", "lower", "program_check", "op_p50_ms"),
    ("dsl.format_program.busy_s", "s", "lower", "program_check", "op_p50_ms"),
    ("dsl.bytes_parsed", "bytes", "lower", "program_check", "op_p50_ms"),
    ("sequence.busy_s", "s", "lower", "program_check", "ops_per_s"),
    ("cli.main.calls", "count", "lower", "program_check", "op_p50_ms, setup_s"),
    ("cli.self_s", "s", "lower", "program_check", "op_p50_ms, setup_s"),
    ("cli.artifact_bytes", "bytes", "lower", "program_check", "op_p50_ms, setup_s"),
)

# Units of metrics that must repeat exactly for a given seed.
EXACT_UNITS = ("count", "bytes", "ratio")

# What a wrapper records about a call, for the counts that need it.
_INFO = {
    "errors.ensemble_nodes": lambda args, kwargs, result: (
        len(result), repr(args[0] if args else kwargs["spec"])),
    "simulator.rabi_trace": lambda args, kwargs, result: len(result.samples),
    "dsl.parse_program": lambda args, kwargs, result: len(
        (args[0] if args else kwargs["text"]).encode()),
}

# Functions the per-layer metrics are computed from; each must be wrapped.
REQUIRED = tuple(sorted({m[0].rsplit(".", 1)[0] for m in PER_LAYER if m[0].count(".") == 2}
                        | set(_INFO)))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.wrapped: set[str] = set()

    def _wrap(self, name, fn):
        spans, stack, clock, info = self.spans, self._stack, time.perf_counter_ns, _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[4] = info(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        package = importlib.import_module("spinpulse")
        modules = {layer: importlib.import_module(f"spinpulse.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if (not callable(fn) or inspect.isclass(fn)
                        or getattr(fn, "__module__", None) != module.__name__):
                    continue
                self.wrapped.add(f"{layer}.{attr}")
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapper)
                            self._patches.append((ns, key, fn))

    def uninstall(self):
        while self._patches:
            ns, key, fn = self._patches.pop()
            setattr(ns, key, fn)

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def write(self, path, meta):
        """Write the spans, column by column, to a gzipped JSON sidecar."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(meta, names=names, columns=["name", "start_ns", "end_ns", "parent"],
                   spans=[[index[s[0]], s[1], s[2], s[3]] for s in self.spans])
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(spans, lo, hi, artifact_bytes):
    """Every per-layer metric computable from ``spans[lo:hi]``.

    Self time is a span's duration minus its direct children's.  A busy time
    counts only the outermost span of the function or layer, so nested calls
    are not counted twice.
    """
    dur = {i: spans[i][2] - spans[i][1] for i in range(lo, hi)}
    child = defaultdict(int)
    for i in range(lo, hi):
        if spans[i][3] >= lo:
            child[spans[i][3]] += dur[i]

    def ancestors(i):
        p = spans[i][3]
        while p >= lo:
            yield spans[p][0]
            p = spans[p][3]

    calls, busy_fn = defaultdict(int), defaultdict(int)
    busy_layer, self_layer = defaultdict(int), defaultdict(int)
    for i in range(lo, hi):
        name = spans[i][0]
        layer = _layer(name)
        up = list(ancestors(i))
        calls[name] += 1
        if name not in up:
            busy_fn[name] += dur[i]
        if all(_layer(a) != layer for a in up):
            busy_layer[layer] += dur[i]
        self_layer[layer] += dur[i] - child[i]

    nodes_of = {}
    for i in range(lo, hi):
        if spans[i][0] == "errors.ensemble_nodes":
            nodes_of[spans[i][3]] = spans[i][4][0]
    node_samples = sum(
        spans[i][4] * nodes_of.get(i, 0) for i in range(lo, hi)
        if spans[i][0] == "simulator.rabi_trace"
    )
    keys = [spans[i][4][1] for i in range(lo, hi) if spans[i][0] == "errors.ensemble_nodes"]
    fits = calls["analysis.estimate_rotation_error"]
    trains_in_fits = sum(
        1 for i in range(lo, hi)
        if spans[i][0] == "simulator.echo_train"
        and "analysis.estimate_rotation_error" in ancestors(i)
    )
    s = 1e-9
    return {
        "simulator.rabi_trace.busy_s": busy_fn["simulator.rabi_trace"] * s,
        "simulator.node_samples": node_samples,
        "simulator.ns_per_node_sample": (
            busy_fn["simulator.rabi_trace"] / node_samples if node_samples else 0.0),
        "simulator.propagate.calls": calls["simulator.propagate"],
        "simulator.propagate.busy_s": busy_fn["simulator.propagate"] * s,
        "simulator.echo_train.calls": calls["simulator.echo_train"],
        "simulator.echo_train.busy_s": busy_fn["simulator.echo_train"] * s,
        "simulator.self_s": self_layer["simulator"] * s,
        "errors.ensemble_nodes.calls": calls["errors.ensemble_nodes"],
        "errors.ensemble_nodes.busy_s": busy_fn["errors.ensemble_nodes"] * s,
        "errors.nodes_generated": sum(spans[i][4][0] for i in range(lo, hi)
                                      if spans[i][0] == "errors.ensemble_nodes"),
        "errors.ensemble_nodes.distinct_ratio": len(set(keys)) / len(keys) if keys else 0.0,
        "analysis.estimate_rotation_error.busy_s":
            busy_fn["analysis.estimate_rotation_error"] * s,
        "analysis.self_s": self_layer["analysis"] * s,
        "analysis.echo_train_per_fit": trains_in_fits / fits if fits else 0.0,
        "analysis.bb1_fidelity.calls": calls["analysis.bb1_fidelity"],
        "analysis.scan_order.busy_s": busy_fn["analysis.scan_order"] * s,
        "su2.rotation.calls": calls["su2.rotation"],
        "su2.busy_s": busy_layer["su2"] * s,
        "dsl.parse_program.busy_s": busy_fn["dsl.parse_program"] * s,
        "dsl.format_program.busy_s": busy_fn["dsl.format_program"] * s,
        "dsl.bytes_parsed": sum(spans[i][4] for i in range(lo, hi)
                                if spans[i][0] == "dsl.parse_program"),
        "sequence.busy_s": busy_layer["sequence"] * s,
        "cli.main.calls": calls["cli.main"],
        "cli.self_s": self_layer["cli"] * s,
        "cli.artifact_bytes": artifact_bytes,
    }
