"""spinpulse benchmark: end-to-end metrics (untraced) or per-layer metrics (traced).

Run from the repository root:

    python3 perfbench/run.py --workload nutation --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload echo_fit --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

Every operation's output is checked against an independent reference and a
miss is counted, not fatal.  Timings are reported at a reference host speed,
measured by a fixed loop sampled during the run (``calib.py``), with the wall
times beside them.  A human-readable report goes to stdout; its last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Provenance, per-metric distributions, failures and the traced
run's spans go to sidecar files under ``.perfbench/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("nutation", "echo_fit", "program_check")

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Fresh interpreters timed per run for setup_s; the report gives their median.
SETUP_REPS = {"nutation": 11, "echo_fit": 9, "program_check": 15}
CHILD_TIMEOUT_S = 170
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(*args, ok_codes=(0,)):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout} s: {' '.join(cmd[2:])}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in ok_codes or not lines:
        raise BenchError(f"worker {' '.join(cmd[2:])} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _stats(values):
    v = sorted(values)
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    return {"n": len(v), "min": v[0], "q1": q[0], "median": statistics.median(v), "q3": q[2],
            "max": v[-1]}


def _compile():
    """Write the .pyc files before set-up is timed, as an installed package has them."""
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import workloads, spinpulse.cli", HERE],
                   cwd=ROOT, env=_env(), check=True, timeout=CHILD_TIMEOUT_S)


def _setup(workload, seed, reps):
    """Seconds from spawning a fresh interpreter to the end of its first
    operation: wall times, and the same at the reference host speed."""
    times, scaled, errors = [], [], []
    for _ in range(reps):
        before = calib.measure()
        t0 = time.perf_counter()
        res = _worker("--mode", "setup", "--workload", workload, "--seed", seed, ok_codes=(0, 1))
        times.append(time.perf_counter() - t0)
        scaled.append(calib.scale(times[-1], before, calib.measure()))
        if res["error"]:
            errors.append(f"{workload} setup op: {res['error']}")
    return times, scaled, errors


def _provenance(seed, child):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "spinpulse")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "numpy": child.get("numpy"),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "git_commit": commit, "source_sha256": src.hexdigest(), "seed": seed,
            "platform": platform.platform()}


def untraced(workload, seed, seconds, ops=0, setup_reps=None):
    reps = setup_reps or SETUP_REPS[workload]
    _compile()
    # Half the set-up runs go before the timed run and half after, so their
    # median spans the whole run rather than one moment of it.
    setup_times, setup_scaled, setup_errors = _setup(workload, seed, reps // 2)
    res = _worker("--mode", "timed", "--workload", workload, "--seed", seed,
                  "--seconds", seconds, "--ops", ops)
    more_times, more_scaled, more_errors = _setup(workload, seed, reps - reps // 2)
    setup_times += more_times
    setup_scaled += more_scaled
    setup_errors += more_errors
    wall_ms = [(t1 - t0) / 1e6 for t0, t1 in res["op_spans_ns"]]
    lat_ms = calib.scale_all(res["op_spans_ns"], res["samples"])
    cal = [s for _, s in res["samples"]]
    attempted = res["attempted"] + reps
    failed = res["failed"] + len(setup_errors)
    # The gated timings are at the reference host speed (calib.py); the wall
    # times they come from are reported beside them.
    metrics = {
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "op_p50_ms": statistics.median(lat_ms),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    wall = {
        "ops_per_s": len(wall_ms) / (sum(wall_ms) / 1e3),
        "op_p50_ms": statistics.median(wall_ms),
        "setup_s": statistics.median(setup_times),
    }
    p90 = statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0]
    beyond = sum(1 for x in lat_ms if x > p90)
    report = {
        "workload": workload, "trace": 0, "seconds": seconds,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END},
        "op_p90_ms": {"value": p90, "unit": "ms", "beyond": beyond,
                      "reported": beyond >= TAIL_SAMPLES},
        "error_rate": failed / attempted,
        "wall": wall,
        "distributions": {"op_ms": _stats(lat_ms), "setup_s": _stats(setup_scaled),
                          "wall_op_ms": _stats(wall_ms), "wall_setup_s": _stats(setup_times),
                          "calibration_s": _stats(cal)},
        "ops": len(lat_ms), "blocks": res["blocks"], "setup_reps": reps,
        "latencies_ms": lat_ms, "wall_latencies_ms": wall_ms,
        "op_spans_ns": res["op_spans_ns"], "calibration_samples": res["samples"],
        "attempted": attempted, "failed": failed,
        "failures": setup_errors + res["failures"],
        "output_digest": {"sha256": res["digest"], "ops": res["digest_ops"]},
        "oracle_miss": res["oracle_miss"],
        "provenance": _provenance(seed, res),
    }
    return report


def traced(workload, seed, seconds, ops=0):
    import spans

    sidecar = os.path.join(OUT, f"{workload}-seed{seed}-spans.json.gz")
    res = _worker("--mode", "traced", "--workload", workload, "--seed", seed,
                  "--seconds", seconds, "--ops", ops, "--sidecar", sidecar)
    rounds = res["rounds"]
    metrics, distributions = {}, {}
    for name, unit, _better, _on, _moves in spans.PER_LAYER:
        values = [r[name] for r in rounds]
        exact = unit in spans.EXACT_UNITS
        metrics[name] = {"value": values[0] if exact else statistics.median(values), "unit": unit}
        distributions[name] = _stats(values)
    untraced_ops = statistics.median(o["untraced_ops_per_s"] for o in res["overhead"])
    traced_ops = statistics.median(o["traced_ops_per_s"] for o in res["overhead"])
    return {
        "workload": workload, "trace": 1, "seconds": seconds,
        "metrics": metrics, "distributions": distributions, "rounds": len(rounds),
        "batch_ops": res["batch_ops"], "spans": res["spans"], "spans_file": os.path.relpath(sidecar, ROOT),
        "tracing_overhead": {"untraced_ops_per_s": untraced_ops, "traced_ops_per_s": traced_ops,
                             "gap": 1.0 - traced_ops / untraced_ops},
        "error_rate": res["failed"] / res["attempted"],
        "attempted": res["attempted"], "failed": res["failed"], "failures": res["failures"],
        "output_digest": {"sha256": res["digest"], "ops": res["digest_ops"]},
        "oracle_miss": res["oracle_miss"],
        "provenance": _provenance(seed, res),
    }


def _print_report(rep):
    w, p = rep["workload"], rep["provenance"]
    print(f"spinpulse benchmark: workload {w}, seed {p['seed']}, trace {rep['trace']}")
    print(f"  python {p['python']}, numpy {p['numpy']}, nproc {p['nproc']}, "
          f"commit {p['git_commit'] or 'n/a'}, source {p['source_sha256'][:12]}")
    if rep["trace"] == 0:
        d = rep["distributions"]
        m = {k: v["value"] for k, v in rep["metrics"].items()}
        wall = rep["wall"]
        print(f"  times at the reference host speed (calib.py); wall times in brackets; "
              f"calibration loop median {1e3 * d['calibration_s']['median']:.4g} ms, "
              f"reference {1e3 * calib.REFERENCE_S:.4g} ms")
        print(f"  ops_per_s    {m['ops_per_s']:.6g} 1/s  [{wall['ops_per_s']:.6g}]  "
              f"({rep['ops']} ops, closed loop, 1 client)")
        print(f"  op_p50_ms    {m['op_p50_ms']:.6g} ms  [{wall['op_p50_ms']:.6g}]  "
              f"(n={d['op_ms']['n']}, q1 {d['op_ms']['q1']:.6g}, q3 {d['op_ms']['q3']:.6g}, "
              f"min {d['op_ms']['min']:.6g})")
        p90 = rep["op_p90_ms"]
        if p90["reported"]:
            print(f"  op_p90_ms    {p90['value']:.6g} ms  (n={d['op_ms']['n']}, "
                  f"{p90['beyond']} beyond)")
        else:
            print(f"  op_p90_ms    not reported: {p90['beyond']} samples beyond p90, "
                  f"needs {TAIL_SAMPLES}")
        print(f"  error_rate   {rep['error_rate']:.6g}  ({rep['failed']}/{rep['attempted']})")
        print(f"  setup_s      {m['setup_s']:.6g} s  [{wall['setup_s']:.6g}]  (median of "
              f"{d['setup_s']['n']} fresh interpreters, min {d['setup_s']['min']:.6g})")
        print(f"  peak_rss_mb  {m['peak_rss_mb']:.6g} MB")
    else:
        import spans

        for name, unit, _better, on, moves in spans.PER_LAYER:
            print(f"  {name:42s} {rep['metrics'][name]['value']:<14.6g} {unit:6s} "
                  f"on {on} -> {moves}")
        o = rep["tracing_overhead"]
        print(f"  tracing overhead on {w}: {o['untraced_ops_per_s']:.6g} -> "
              f"{o['traced_ops_per_s']:.6g} ops/s ({100 * o['gap']:.3g}% slower), "
              f"{rep['rounds']} rounds, {rep['spans']} spans")
        print(f"  error_rate   {rep['error_rate']:.6g}  ({rep['failed']}/{rep['attempted']})")
    for failure in rep["failures"]:
        print(f"  FAILED {failure}")
    print(f"  output digest {rep['output_digest']['sha256'][:16]} "
          f"over {rep['output_digest']['ops']} ops (information only)")


def _save(rep):
    path = os.path.join(OUT, f"{rep['workload']}-seed{rep['provenance']['seed']}"
                             f"-trace{rep['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rep, fh, indent=1)
    return path


def smoke():
    """One operation per workload through every path, so the harness cannot rot."""
    ok = True
    for w in WORKLOADS:
        rep = untraced(w, 1, 0, ops=1, setup_reps=1)
        print(f"smoke {w}: {rep['attempted']} ops, {rep['failed']} failed, "
              f"metrics {sorted(rep['metrics'])}")
        for failure in rep["failures"]:
            print(f"  FAILED {failure}")
        ok &= rep["failed"] == 0
    # The traced run itself fails if a per-layer metric is zero or its function unwrapped.
    rep = traced("nutation", 1, 0, ops=1)
    print(f"smoke traced: {rep['attempted']} ops and checks, {rep['failed']} failed")
    ok &= rep["failed"] == 0
    for failure in rep["failures"]:
        print(f"  FAILED {failure}")
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one operation per workload through every path; exit 0 if all pass")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if not os.path.isfile(os.path.join(ROOT, "src", "spinpulse", "__init__.py")):
        print(f"error: no spinpulse package under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.smoke:
            return smoke()
        if args.trace:
            rep = traced(args.workload, args.seed, args.seconds)
        else:
            rep = untraced(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_report(rep)
    print(f"  sidecar {os.path.relpath(_save(rep), ROOT)}")
    print(json.dumps({
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": rep["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
