"""Time the Sym(n) decomposition layer: the proper component Gamma_n, its
weak identities and the decomposition of the quotient.

Each degree runs in fresh child processes, so every cache starts cold, as
in one iteration of a benchmark.  One child runs the calls of
``verify_degree(n, proper=True, with_decomposition=True)`` that this layer
owns, one at a time and with their parts timed:

- ``freealg.proper_span`` (``span_s``): the family build (``family_s``) and
  its elimination (``span_eliminate_s``);
- ``tideal.proper_kernel`` (``kernel_s``): the evaluation table
  (``eval_table_s``), the evaluation rows of the RREF rows of Gamma_n
  (``kernel_rows_s``), their ``left_kernel`` (``left_kernel_s``) and the
  rest of ``weak_identities_within`` (``recombine_s``: the RREF rows, the
  recombination and its elimination);
- ``repthy.decompose_quotient`` (``decompose_s``): the stability checks
  (``stable_s``) and the traces (``trace_s``).

Another child times ``verify_degree(n, proper=True,
with_decomposition=True)`` end to end (``verify_s``, with the report's
``proper_ms`` and ``decompose_ms``).  Prints one JSON object.  Run from
the repository root:

    PYTHONPATH=src python bench/bench_decompose.py [--degrees 4,5,6]
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import subprocess
import sys
import time

# timed part -> the module and function whose calls it sums
PARTS = {
    "family_s": ("freealg", "proper_family"),
    "span_eliminate_s": ("freealg", "echelonize"),
    "eval_table_s": ("tideal", "eval_table"),
    "kernel_rows_s": ("matrep", "poly_eval_row"),
    "left_kernel_s": ("matrep", "left_kernel"),
    "within_s": ("tideal", "weak_identities_within"),
    "stable_s": ("repthy", "_check_stable"),
    "trace_s": ("repthy", "_trace"),
}


def _time_calls(module, name, totals):
    """Rebind module.name to a wrapper that adds each call's wall time to
    totals[name]."""
    fn = getattr(module, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[name] = totals.get(name, 0.0) + time.perf_counter() - t0

    setattr(module, name, timed)


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def layers(n):
    """The stages of the decomposition layer at degree n, the consequence
    side untouched."""
    from weakid import freealg, repthy, tideal

    totals = {}
    for module, name in PARTS.values():
        _time_calls(importlib.import_module(f"weakid.{module}"), name, totals)
    gamma, span_s = _timed(freealg.proper_span, n)
    kernel, kernel_s = _timed(tideal.proper_kernel, n)
    dec, decompose_s = _timed(repthy.decompose_quotient, gamma, kernel, n)
    out = {"span_s": span_s, "kernel_s": kernel_s, "decompose_s": decompose_s}
    for part, (_, name) in PARTS.items():
        out[part] = totals.get(name, 0.0)
    out["recombine_s"] = (out.pop("within_s") - out["kernel_rows_s"]
                          - out["left_kernel_s"])
    out = {key: round(v, 6) for key, v in out.items()}
    out.update(members=len(freealg.proper_family(n)), dim=gamma.dim,
               kernel_dim=kernel.dim,
               decomposition={",".join(map(str, lam)): m
                              for lam, m in dec.items()})
    return out


def verify(n):
    from weakid import tideal

    t0 = time.perf_counter()
    report = tideal.verify_degree(n, proper=True, with_decomposition=True)
    return {"verify_s": round(time.perf_counter() - t0, 6),
            "proper_ms": report.timings_ms["proper_ms"],
            "decompose_ms": report.timings_ms["decompose_ms"],
            "equal": report.equal}


def _child(kind, n):
    """Run kind(n) in a fresh interpreter and return its JSON output."""
    out = subprocess.run([sys.executable, __file__, "--child", kind, str(n)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--degrees", default="4,5,6",
                   help="comma-separated degrees, 4-7 (default 4,5,6)")
    p.add_argument("--child", nargs=2, metavar=("KIND", "N"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        kind, n = args.child
        print(json.dumps({"layers": layers, "verify": verify}[kind](int(n))))
        return 0
    degrees = [int(d) for d in args.degrees.split(",") if d.strip()]
    result = {str(n): {**_child("layers", n), **_child("verify", n)}
              for n in degrees}
    print(json.dumps({"python": platform.python_version(), "degrees": result},
                     indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
