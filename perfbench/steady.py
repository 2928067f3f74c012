"""Steadiness check for the benchmark: two sets of runs over ten seeds on every
workload in BENCHMARK.json, compared with the bounds there.

    python3 perfbench/steady.py

For each workload and end-to-end metric it prints, per set, the median and
the spread (q3 - q1) / median over seeds 1-10, with quartiles from
``statistics.quantiles(values, n=4)``.  It fails if a spread is above the
metric's bound (setup_s included) or if a metric's second-set median is worse
than the first by more than the bound, and flags a spread above a third of
the bound.  Every run must have no failed operation.  Then the traced run is
made twice with seed 1, and every exact count (units count, bytes, ratio)
must agree between the two.  A summary goes to ``.perfbench/steady.json``.
Exits 1 if any check fails.  It takes about 45 minutes on two vCPUs.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402

SEEDS = range(1, 11)
SETS = 2


def _bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _worse(metric, first, second):
    """How much worse the second median is than the first, as a share of the first."""
    change = (second - first) / first
    return -change if metric["better"] == "higher" else change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    problems = []
    declared = {(m["name"], m["unit"]) for m in bench["end_to_end"]}
    if declared != set(run.END_TO_END):
        problems.append(f"BENCHMARK.json end_to_end {sorted(declared)} != run.py {run.END_TO_END}")
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if declared != [m[:3] for m in spans.PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")

    seconds = bench["run_seconds"]
    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for _ in range(SETS):
            results = [_bench(workload, seed, seconds, 0) for seed in SEEDS]
            for seed, res in zip(SEEDS, results):
                if not res["correct"] or res["failed"]:
                    problems.append(f"{workload} seed {seed}: {res['failed']}/"
                                    f"{res['attempted']} operations failed")
            sets.append({m["name"]: [r["metrics"][m["name"]]["value"] for r in results]
                         for m in bench["end_to_end"]})
        rows = {}
        for m in bench["end_to_end"]:
            row = {"bound": m["bound"], "sets": []}
            flag = ""
            for values in (st[m["name"]] for st in sets):
                q1, _, q3 = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                spread = (q3 - q1) / median
                row["sets"].append({"values": values, "median": median, "q1": q1, "q3": q3,
                                    "spread": spread})
                if spread > m["bound"]:
                    problems.append(f"{workload} {m['name']}: spread {spread:.3f} > bound "
                                    f"{m['bound']}")
                    flag += f"  spread {spread:.4f} OVER BOUND"
                elif spread > m["bound"] / 3:
                    flag += f"  spread {spread:.4f} above bound/3"
                else:
                    flag += f"  spread {spread:.4f}"
            medians = [st["median"] for st in row["sets"]]
            worse = _worse(m, *medians)
            if worse > m["bound"]:
                problems.append(f"{workload} {m['name']}: second median worse by {worse:.3f}")
            flag += f"  second median {100 * worse:+.1f}% worse"
            print(f"{workload:14s} {m['name']:12s} median {medians[0]:<12.6g} (bound "
                  f"{m['bound']}){flag}", flush=True)
            rows[m["name"]] = row
        summary[workload] = rows

    seed = 1
    pair = [_bench(bench["workloads"][0]["name"], seed, seconds, 1) for _ in range(2)]
    exact = [m[0] for m in spans.PER_LAYER if m[1] in spans.EXACT_UNITS]
    differ = [n for n in exact
              if pair[0]["metrics"][n]["value"] != pair[1]["metrics"][n]["value"]]
    if differ or not all(p["correct"] for p in pair):
        problems.append(f"traced runs disagree on exact counts {differ} or failed")
    summary["traced_exact_counts"] = {n: pair[0]["metrics"][n]["value"] for n in exact}
    print(f"traced twice (seed {seed}): {len(exact)} exact counts "
          f"{'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")

    summary["problems"] = problems
    os.makedirs(run.OUT, exist_ok=True)
    with open(os.path.join(run.OUT, "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    for p in problems:
        print(f"PROBLEM {p}")
    print("steady: " + ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
