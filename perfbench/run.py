"""weakid benchmark: one workload per invocation, untraced or traced.

    python3 perfbench/run.py --workload verify-d5 --seed 1 --seconds 25 --trace 0

The workloads and why each was chosen are described in
perfbench/workloads.py; the metrics, their units and bounds are declared in
BENCHMARK.json.  Every measured iteration runs in a fresh single-threaded
child process (perfbench/worker.py) with the package's default worker
count, so no cache of the package is carried from one iteration to the next.

--trace 0  repeats the iteration until --seconds have passed and reports the
           end-to-end metrics, each the median over the run.
--trace 1  alternates untraced and traced iterations of the same input until
           --seconds have passed and reports the per-layer metrics of the
           traced iteration of median wall time, and the tracing overhead:
           the median, over adjacent untraced/traced pairs, of the traced
           wall time minus the untraced one.  Neither half of a pair runs
           the reference slices of --trace 0, whose interruptions would
           count against the untraced half.

The speed of the machine the benchmark was built on drifts by tens of
percent within seconds, so the gated time, wall_ref, is counted in slices
of a fixed reference computation run alongside the calls (perfbench/
pace.py) rather than in seconds.  The times in seconds are printed next to
it (wall_s, cpu_s and, for check-mix, the query latencies) but not gated;
the query latencies are per-layer metrics of the traced run, since
BENCHMARK.json gives every workload the same end-to-end metrics and only
check-mix makes more than one call per iteration.  setup_s, the median of
the run's child starts, is in seconds.

check-mix also sends each oversized probe of workloads.probes to the CLI in
a child process of its own, under a deadline and an address-space cap.  A
probe passes when it exits 2 in time; misses are reported apart from the
gated queries, as the per-layer metrics cli.probe.misses and cli.probe.ms.

Every output is checked (workloads.py).  The counts that must repeat
exactly are compared across the iterations of a run and, through
perfbench/.state/, across runs and seeds of the same sources; any
difference is a determinism failure.

The report lists each metric with its unit; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when every gate and determinism check passed, 1 when one failed
and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans  # perfbench/ is the script's directory, first on sys.path
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
STATE_DIR = HERE / ".state"

SETUP_SAMPLES = 9          # import-only children per run, besides the iterations
TAIL_BEYOND = 10           # samples beyond the reported tail percentile
RUN_LIMIT_S = 165          # a run must end within 180 s
PROBE_DEADLINE_S = 2.0
PROBE_MEMORY_BYTES = 1 << 30


class ChildFailed(Exception):
    pass


def _child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("WEAKID_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(args, timeout):
    """Run worker.py with args; its JSON result plus setup_s, the time from
    spawning it until weakid was imported."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=_child_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"worker {' '.join(args)} exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"worker {' '.join(args)} exited {proc.returncode}: "
                          + " | ".join(tail))
    result = json.loads(lines[-1])
    result["setup_s"] = result["imported_at"] - t0
    return result


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (PROBE_MEMORY_BYTES, PROBE_MEMORY_BYTES))


def _probe(mode, text):
    """(passed, ms): passed when the CLI exits 2 within the deadline; a miss
    counts the whole deadline at least."""
    t0 = time.perf_counter()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "weakid.cli", "check", "--mode", mode, f"--expr={text}"],
            env=_child_env(), cwd=ROOT, capture_output=True, timeout=PROBE_DEADLINE_S,
            preexec_fn=_limit_memory).returncode
    except subprocess.TimeoutExpired:
        code = None
    ms = (time.perf_counter() - t0) * 1000
    if code == 2:
        return True, ms
    return False, max(ms, PROBE_DEADLINE_S * 1000)


def _tail(values):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, or the maximum when there are too few samples."""
    xs = sorted(values)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def _source_key():
    h = hashlib.sha256()
    for path in sorted((SRC / "weakid").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _compare_with_earlier_runs(workload, counts):
    """Determinism problems of counts against earlier runs of the same sources;
    records the counts not seen before."""
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / f"counts-{_source_key()}.json"
    state = json.loads(path.read_text()) if path.exists() else {}
    seen = state.setdefault(workload, {})
    problems = [f"{k} = {v}, an earlier run had {seen[k]}"
                for k, v in sorted(counts.items()) if k in seen and seen[k] != v]
    for k, v in counts.items():
        seen.setdefault(k, v)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


def _declared(kind):
    """[(name, unit)] of the BENCHMARK.json metrics of one kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def _deterministic_counts(result):
    counts = dict(result["counts"])
    counts.update({k: v for k, v in result.get("layers", {}).items()
                   if k.endswith(spans.DETERMINISTIC)})
    return counts


def _queries(results):
    """Per-query latencies in ms pooled over the iterations, and the closed-loop
    rate of the median iteration."""
    lat = [op["ms"] for r in results for op in r["ops"]]
    rate = statistics.median(len(r["ops"]) / r["wall_s"] for r in results)
    return lat, rate


def run(workload, seed, seconds, traced):
    start = time.perf_counter()
    problems = []
    probe_list = workloads.probes(seed) if workload == "check-mix" else []
    deadline = start + RUN_LIMIT_S - len(probe_list) * (PROBE_DEADLINE_S + 1)

    setup, results = [], []
    modes = ("plain", "traced") if traced else ("paced",)
    try:
        for _ in range(SETUP_SAMPLES):
            setup.append(_spawn(["setup"], deadline - time.perf_counter())["setup_s"])
        t0 = time.perf_counter()
        while True:
            for mode in modes:
                results.append(_spawn([workload, str(seed), mode],
                                      deadline - time.perf_counter()))
            now = time.perf_counter()
            if now - t0 >= seconds or now + results[-1]["wall_s"] * 2 * len(modes) > deadline:
                break
    except ChildFailed as exc:
        problems.append(str(exc))
    plain = [r for r in results if "layers" not in r]
    traced_runs = [r for r in results if "layers" in r]

    ops = [op for r in results for op in r["ops"]]
    attempted = len(ops) + (1 if problems else 0)
    failed = sum(not op["ok"] for op in ops) + (1 if problems else 0)
    for op in ops:
        if not op["ok"]:
            problems.append(op["why"])

    counts = [_deterministic_counts(r) for r in (traced_runs if traced else plain)]
    for i, c in enumerate(counts[1:], start=1):
        if c != counts[0]:
            problems.append(f"determinism: iteration {i} counts {c} != {counts[0]}")
    if counts:
        problems += [f"determinism: {p}" for p in
                     _compare_with_earlier_runs(workload, counts[0])]

    probe_results = [_probe(mode, text) for mode, text in probe_list]
    misses = sum(not ok for ok, _ in probe_results)

    complete = bool(plain) and (bool(traced_runs) or not traced)
    metrics, notes, printed = {}, {}, []
    if complete:
        lat, rate = _queries(plain)
        tail, pct = _tail(lat)
        many = len(plain[0]["ops"]) > 1
    if complete and traced:
        by_wall = sorted(traced_runs, key=lambda r: r["wall_s"])
        shown = by_wall[(len(by_wall) - 1) // 2]
        pairs = list(zip(plain, traced_runs))
        metrics.update(shown["layers"])
        metrics["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in pairs)
        metrics["trace.pairs"] = len(pairs)
        metrics["cli.query_p50_ms"] = statistics.median(lat) if many else 0.0
        metrics["cli.query_tail_ms"] = tail if many else 0.0
        metrics["cli.queries_per_s"] = rate if many else 0.0
        metrics["cli.probe.misses"] = misses
        metrics["cli.probe.ms"] = statistics.median(
            [ms for _, ms in probe_results]) if probe_results else 0.0
        notes = {"trace.overhead_s": f"median over {len(pairs)} untraced/traced pairs"}
        if many:
            notes["cli.query_p50_ms"] = f"{len(lat)} queries of {len(plain)} untraced iterations"
            notes["cli.query_tail_ms"] = (f"p{pct:.2f} of {len(lat)} queries, "
                                          f"{min(TAIL_BEYOND, len(lat) - 1)} beyond it")
    elif complete:
        n = len(plain)
        setup_all = setup + [r["setup_s"] for r in results]
        metrics = {
            "setup_s": statistics.median(setup_all),
            "wall_ref": statistics.median(r["wall_ref"] for r in plain),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        notes = {
            "setup_s": f"median of {len(setup_all)} child starts",
            "wall_ref": f"reference slices, median of {n} iterations "
                        f"({statistics.median(r['slices'] for r in plain):.0f} slices each)",
            "peak_rss_mb": f"VmHWM, median of {n} iterations",
        }
        printed = [
            ("wall_s", statistics.median(r["wall_s"] for r in plain), "s",
             f"median of {n} iterations, reference slices taken off"),
            ("cpu_s", statistics.median(r["cpu_s"] for r in plain), "s",
             "process and its children, likewise"),
            ("rss_growth_mb", statistics.median(r["rss_growth_mb"] for r in plain), "MiB",
             "peak RSS above the RSS after the import; the check-mix seed moves it"),
        ]
        if many:
            printed += [
                ("query_p50_ms", statistics.median(lat), "ms", f"{len(lat)} queries"),
                ("query_tail_ms", tail, "ms",
                 f"p{pct:.2f} of {len(lat)} queries, {min(TAIL_BEYOND, len(lat) - 1)} beyond it"),
                ("queries_per_s", rate, "1/s", "closed loop, one client, median iteration"),
            ]

    print(f"workload {workload}  seed {seed}  trace {int(traced)}  "
          f"iterations {len(results)}  elapsed {time.perf_counter() - start:.1f} s")
    kind = "per_layer" if traced else "end_to_end"
    declared = _declared(kind)
    if complete:
        missing = [name for name, _ in declared if name not in metrics]
        if missing:
            raise SystemExit(f"metrics not measured: {missing}")
        metrics = {name: metrics[name] for name, _ in declared}
        for name, unit in declared:
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:<40} {metrics[name]:>14.6g} {unit}{note}")
        for name, value, unit, note in printed:
            print(f"  {name:<40} {value:>14.6g} {unit}  ({note}; printed, not gated)")
    if traced and complete:
        _print_shares(metrics, shown["wall_s"])
        print(f"  {len(traced_runs)} traced and {len(plain)} untraced iterations")
    print(f"  fail_ratio {failed / max(attempted, 1):.6g}  "
          f"({failed} of {attempted} gated operations)")
    if probe_list:
        print(f"  probes: {misses} of {len(probe_list)} missed exit 2 within "
              f"{PROBE_DEADLINE_S} s; with them the failed share is "
              f"{(failed + misses) / (attempted + len(probe_list)):.6g}")
    for p in problems[:20]:
        print(f"  FAIL {p}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared if name in metrics},
    }))
    return 0 if correct else 1


def _print_shares(metrics, wall):
    print(f"  self time by layer, share of the traced iteration ({wall:.3f} s):")
    for module in spans.MODULES:
        t = metrics[f"{module}.self_s"]
        if t:
            print(f"    {module:<10} {t:10.3f} s  {100 * t / wall:5.1f} %")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.RUNNERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "weakid" / "__init__.py").is_file():
        print(f"error: no weakid sources under {SRC}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
