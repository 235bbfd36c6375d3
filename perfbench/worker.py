"""One iteration of one workload, in a fresh process; run.py starts it.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py <workload> <seed> <paced|plain|traced>

Prints one JSON line: when weakid finished importing (``time.perf_counter``
is the system-wide monotonic clock, so the parent can subtract its spawn
time) and, for an iteration, the gate outcome of each measured call and its
time.  A paced iteration runs under a ``pace.Pacer`` and gives each call's
time both in seconds (the reference slices taken off) and in reference
slices (``refs``); a plain one runs with neither pacer nor spans, as the
untraced half of a traced run's pairs; a traced one adds the per-layer
metrics.  The peak RSS is given whole and above the RSS right after the
import.
"""

import sys
import time

import weakid  # noqa: F401  (the set-up being measured)
from weakid import cli, expr, freealg, jordan, linalg, matrep, repthy, series, tideal  # noqa: F401

IMPORTED_AT = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402

import pace  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _cpu_s():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _memory_mb(field):
    """VmHWM (peak) or VmRSS (current) of this process in MiB.  ru_maxrss is
    not used: across fork and exec it keeps the parent's peak, so a child
    started by a larger parent reports the parent's size."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no {field} in /proc/self/status")


def main(argv):
    out = {"imported_at": IMPORTED_AT}
    if argv != ["setup"]:
        workload, seed, mode = argv[0], int(argv[1]), argv[2]
        run = workloads.RUNNERS[workload]
        tracer = pacer = None
        if mode == "traced":
            tracer = spans.Tracer()
            spans.instrument(tracer)
        elif mode == "paced":
            pacer = pace.Pacer()
        rss0 = _memory_mb("VmRSS")
        if pacer:
            pacer.start()
        c0, w0 = _cpu_s(), time.perf_counter()
        ops, counts = run(seed)
        cpu, w1 = _cpu_s() - c0, time.perf_counter()
        if pacer:
            pacer.stop()
        marks = pacer.marks if pacer else []
        for op in ops:
            t0, t1 = op.pop("t0"), op.pop("t1")
            op["ms"] = (t1 - t0 - pace.busy(marks, t0, t1)) * 1000
            if pacer:
                op["refs"] = pace.refs(marks, t0, t1)
        out["wall_s"] = sum(op["ms"] for op in ops) / 1000
        out["cpu_s"] = cpu - pace.busy(marks, w0, w1)
        if pacer:
            out["wall_ref"] = sum(op["refs"] for op in ops)
            out["slices"] = len(marks)
        out["rss_mb"] = _memory_mb("VmHWM")
        out["rss_growth_mb"] = out["rss_mb"] - rss0
        out["ops"] = ops
        out["counts"] = counts
        if tracer is not None:
            out["layers"] = spans.layer_metrics(tracer)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
