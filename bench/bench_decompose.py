"""Time the Sym(n) decomposition layer: the proper component Gamma_n, its
weak identities and the decomposition of the quotient.

Each degree runs in fresh child processes, so every cache starts cold, as
in one iteration of a benchmark.  One child runs the calls of
``verify_degree(n, proper=True, with_decomposition=True)`` that this layer
owns, one at a time and with their parts timed:

- ``freealg.proper_span`` (``span_s``): the family build (``family_s``) and
  its elimination (``span_eliminate_s``);
- ``tideal.proper_kernel`` (``kernel_s``): the evaluation rows of the
  multilinear words at x1 = E11 (``e11_rows_s``: ``matrep.proper_rows``),
  the evaluation rows of the RREF rows of Gamma_n (``kernel_rows_s``: the
  ``poly_eval_row`` calls over the E11 rows), their
  ``left_kernel`` (``left_kernel_s``: the augmented elimination, whose
  id-block rows are the basis) and the rest of ``weak_identities_within``
  (``recombine_s``: the RREF rows, the ``poly_eval_row`` calls that combine
  them by the kernel rows, and the elimination of the combinations);
- the first read of the kernel's RREF (``kernel_rref_s``: ``Subspace.rows``
  divides each stored row by its pivot entry), timed apart so that the
  traces below, which read it, are not charged for it (the checks reduce
  the stored rows and read no RREF);
- ``repthy.decompose_quotient`` (``decompose_s``): the stability checks
  (``stable_s``), the check that the kernel lies in Gamma_n
  (``contained_s``) and the traces (``trace_s``).

Another child times ``verify_degree(n, proper=True,
with_decomposition=True)`` end to end (``verify_s``, with the report's
``proper_ms`` and ``decompose_ms``, and the process's ``max_rss_mb``).
Prints one JSON object.  Run from the repository root:

    PYTHONPATH=src python bench/bench_decompose.py [--degrees 4,5,6]
"""

from __future__ import annotations

import importlib
import resource
import sys
import time

import harness

# timed part -> the module and function whose calls it sums
PARTS = {
    "family_s": ("freealg", "proper_family"),
    "span_eliminate_s": ("freealg", "echelonize"),
    "e11_rows_s": ("tideal", "proper_rows"),
    "left_kernel_s": ("matrep", "left_kernel"),
    "within_s": ("tideal", "weak_identities_within"),
    "stable_s": ("repthy", "_check_stable"),
    "contained_s": ("repthy", "_check_contained"),
    "trace_s": ("repthy", "_trace"),
}


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def layers(n):
    """The stages of the decomposition layer at degree n, the consequence
    side untouched."""
    from weakid import freealg, matrep, repthy, tideal

    totals = {}
    for module, name in PARTS.values():
        harness.time_calls(importlib.import_module(f"weakid.{module}"), name,
                           totals)
    gamma, span_s = _timed(freealg.proper_span, n)
    # proper_kernel reads this cached span: the calls that combine its RREF
    # rows belong to recombine_s, the others evaluate them
    harness.time_calls(matrep, "poly_eval_row", totals,
                       when=lambda _coeffs, rows: rows is not gamma.rows)
    kernel, kernel_s = _timed(tideal.proper_kernel, n)
    _, kernel_rref_s = _timed(getattr, kernel, "rows")
    dec, decompose_s = _timed(repthy.decompose_quotient, gamma, kernel, n)
    out = {"span_s": span_s, "kernel_s": kernel_s,
           "kernel_rref_s": kernel_rref_s, "decompose_s": decompose_s,
           "kernel_rows_s": totals.get("poly_eval_row", 0.0)}
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
            "equal": report.equal,
            "max_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


if __name__ == "__main__":
    sys.exit(harness.main(__file__, __doc__,
                          {"layers": layers, "verify": verify}))
