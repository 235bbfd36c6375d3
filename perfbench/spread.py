"""Run-to-run spread of the end-to-end metrics, and the benchmark trajectory.

    python3 perfbench/spread.py --runs 10 [--workload check-mix ...]
    python3 perfbench/spread.py --runs 10 --traced 3 --record "label of this commit"
    python3 perfbench/spread.py --runs 0 --traced 3    # traced runs only

Runs run.py once per seed (seeds 1..runs) for each workload and prints, per
end-to-end metric, the median, the quartiles and the spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, next to a third of the metric's bound.  ``--traced N``
also makes traced runs at seeds 1..N and checks that the exact counts are
the same at every seed (run.py checks them too, across runs and seeds).
``--record`` appends the figures, with the machine they were measured on, to
perfbench/BENCH_trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import DETERMINISTIC  # perfbench/ is the script's directory

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "BENCH_trajectory.json"


def measure(workload, seeds, seconds, trace=0):
    """{metric: [value per seed]}; exits if a run fails its gates."""
    values = {}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            sys.exit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "runs": len(values)}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--traced", type=int, default=0, metavar="N")
    p.add_argument("--record", metavar="LABEL")
    args = p.parse_args(argv)

    figures, layers = {}, {}
    for workload in args.workload or names:
        values = measure(workload, range(1, args.runs + 1), spec["run_seconds"])
        figures[workload] = {}
        print(workload)
        for name, vs in values.items():
            s = summarize(vs)
            figures[workload][name] = s
            print(f"  {name:<16} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
                  f"(a third of the bound: {bounds[name] / 3:.4f})")
        if args.traced:
            traced = measure(workload, range(1, args.traced + 1), spec["run_seconds"], 1)
            counts = {k: vs for k, vs in traced.items() if k.endswith(DETERMINISTIC)}
            differ = sorted(k for k, vs in counts.items() if len(set(vs)) > 1)
            print(f"  traced at seeds 1..{args.traced}: {len(counts)} exact counts, "
                  f"{'differing: ' + ', '.join(differ) if differ else 'all the same'}")
            layers[workload] = {
                "counts_same_at_seeds": f"1..{args.traced}" if not differ else differ,
                "seed_1": {k: vs[0] for k, vs in traced.items() if vs[0]},
            }
            if differ:
                return 1
    if args.record:
        entries = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        entries.append({
            "label": args.record,
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "cpu": platform.processor() or platform.machine()},
            "run_seconds": spec["run_seconds"],
            **({"seeds": f"1..{args.runs}", "end_to_end": figures} if args.runs else {}),
            **({"per_layer": layers} if layers else {}),
        })
        TRAJECTORY.write_text(json.dumps(entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
