"""One benchmark process: runs a workload and prints its raw results as JSON.

``run.py`` starts this in a fresh interpreter with ``PYTHONPATH=src`` and
one thread per numeric library, in one of three modes:

* ``setup``  - import spinpulse and run the workload's first operation cold;
               the parent times the whole process.
* ``timed``  - untraced, closed-loop run of the workload's seeded stream,
               whole blocks at a time, for ``--seconds``, sampling the host
               speed (``calib.py``) as it goes.
* ``traced`` - rounds of the fixed profile batch of every workload under the
               span tracer, each per-layer metric taken on the workload it
               belongs to, plus an untraced pass of the named workload to
               measure the tracing overhead; repeats until ``--seconds``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

import calib
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ORACLE_TOL = 1e-9


class Tally:
    """Attempted and failed operations, and a digest of the outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    def fail(self, message):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def op(self, w, inp, tracer=None):
        """Run one operation; return ((start_ns, end_ns), prepared input, output or
        None, error or None)."""
        prepared = w.prepare(inp)
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                out = w.run(prepared)
            else:
                with tracer.span(f"bench.{w.name}"):
                    out = w.run(prepared)
            error = None
        except Exception as exc:  # a raising operation is counted, and the run goes on
            out, error = None, "raised " + traceback.format_exception_only(exc)[-1].strip()
        span = (t0, time.perf_counter_ns())
        if error is None:
            try:
                error = w.check(prepared, out)
            except Exception as exc:
                error = "check raised " + traceback.format_exception_only(exc)[-1].strip()
        self.attempted += 1
        if error:
            self.fail(f"{w.name}: {error}")
        return span, prepared, out, error

    def add_digest(self, w, out):
        if out is not None:
            self.digest.update(repr([float(x) for x in w.numbers(out)]).encode())
            self.digest_ops += 1

    def oracle(self, first):
        """Once per run: compare one passing CPMG train with the brute-force oracle."""
        if first is None:
            return None
        try:
            miss = workloads.EchoFit.oracle_miss(ROOT, *first)
        except (ImportError, OSError) as exc:
            self.fail(f"echo_fit: echo_train_oracle unavailable: {exc}")
            return None
        if not miss <= ORACLE_TOL:
            self.fail(f"echo_fit: CPMG train differs from echo_train_oracle by {miss:.3g}")
        return miss

    def summary(self):
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.failures,
                "digest": self.digest.hexdigest(), "digest_ops": self.digest_ops}


def setup(w, seed):
    tally = Tally()
    tally.op(w, w.setup_input(seed))
    return {"error": tally.failures[0] if tally.failed else None}


def warm(w, seed):
    # Lazy imports and first-call costs are paid by setup_s, not by the timed ops.
    if w.warmup:
        inp = w.prepare(w.setup_input(seed))
        w.run(inp)


def timed(w, seed, seconds, cap):
    tally = Tally()
    warm(w, seed)
    spans, blocks, first = [], 0, None
    stream = w.blocks(seed)
    deadline = time.perf_counter() + seconds
    with calib.Sampler() as sampler:
        while True:
            for inp in next(stream):
                span, prepared, out, error = tally.op(w, inp)
                spans.append(span)
                if not blocks:
                    tally.add_digest(w, out)
                if first is None and error is None:
                    first = (prepared, out)
                if cap and len(spans) >= cap:
                    break
            blocks += 1
            if (cap and len(spans) >= cap) or time.perf_counter() >= deadline:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    miss = tally.oracle(first) if w.name == "echo_fit" else None
    return dict(tally.summary(), op_spans_ns=spans, blocks=blocks, samples=sampler.samples,
                peak_rss_mb=peak_rss_mb, oracle_miss=miss)


def traced(target, seed, seconds, cap, workdir, sidecar):
    import spans

    tracer = spans.Tracer()
    tally = Tally()
    ws = {name: workloads.make(name, workdir) for name in workloads.NAMES}
    batches = {}
    for name, w in ws.items():
        stream = w.blocks("profile", seed)
        batch = [inp for _ in range(w.PROFILE_BLOCKS) for inp in next(stream)]
        batches[name] = batch[:cap] if cap else batch
        warm(w, seed)
    rounds, overhead, first = [], [], None
    deadline = time.perf_counter() + seconds
    while not rounds or (not cap and time.perf_counter() < deadline):
        row = {}
        for name, w in ws.items():
            batch = batches[name]
            if name == target:
                untraced_ns = 0
                for inp in batch:
                    t0, t1 = tally.op(w, inp)[0]
                    untraced_ns += t1 - t0
            lo, traced_ns, artifact_bytes = len(tracer.spans), 0, 0
            tracer.install()
            try:
                for inp in batch:
                    (t0, t1), prepared, out, error = tally.op(w, inp, tracer)
                    traced_ns += t1 - t0
                    if out is not None:
                        artifact_bytes += out.get("artifact_bytes", 0)
                    if not rounds:
                        tally.add_digest(w, out)
                    if name == "echo_fit" and first is None and error is None:
                        first = (prepared, out)
            finally:
                tracer.uninstall()
            values = spans.layer_metrics(tracer.spans, lo, len(tracer.spans), artifact_bytes)
            row.update({m[0]: values[m[0]] for m in spans.PER_LAYER if m[3] == name})
            if name == target:
                overhead.append({"untraced_ops_per_s": len(batch) / untraced_ns * 1e9,
                                 "traced_ops_per_s": len(batch) / traced_ns * 1e9})
        rounds.append(row)
    unsteady = [m[0] for m in spans.PER_LAYER
                if m[1] in spans.EXACT_UNITS and len({r[m[0]] for r in rounds}) > 1]
    if unsteady:
        tally.fail("exact counts differ between rounds: " + ", ".join(unsteady))
    # One more check: the tracer saw every function the per-layer metrics need,
    # and no per-layer metric came out zero.
    tally.attempted += 1
    unwrapped = [n for n in spans.REQUIRED if n not in tracer.wrapped]
    zero = [m[0] for m in spans.PER_LAYER if not rounds[0][m[0]]]
    if unwrapped or zero:
        tally.fail(f"tracer did not wrap {unwrapped}; per-layer metrics zero: {zero}")
    miss = tally.oracle(first)
    tracer.write(sidecar, {"workload": target, "seed": seed, "rounds": len(rounds)})
    return dict(tally.summary(), rounds=rounds, overhead=overhead,
                batch_ops={k: len(v) for k, v in batches.items()},
                spans=len(tracer.spans), oracle_miss=miss)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0, help="stop after this many operations (smoke)")
    ap.add_argument("--sidecar", default=None, help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    workdir = os.path.join(ROOT, ".perfbench", f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.mode == "traced":
            result = traced(args.workload, args.seed, args.seconds, args.ops, workdir, args.sidecar)
        else:
            w = workloads.make(args.workload, workdir)
            if args.mode == "setup":
                result = setup(w, args.seed)
            else:
                result = timed(w, args.seed, args.seconds, args.ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(result))
    return 1 if args.mode == "setup" and result["error"] else 0


if __name__ == "__main__":
    sys.exit(main())
