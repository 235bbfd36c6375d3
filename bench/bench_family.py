"""Time the consequence family and its elimination, the layers of
``tideal._consequences``.

Each degree runs in fresh child processes, so every cache starts cold, as
in one iteration of a benchmark.  One child builds ``consequences_span`` one
degree down (``prepare_s``), then the kernel bound, cold (``bound_s``: one
walk of the multilinear words and its rank mod 2), then runs
``tideal._consequences`` at the degree itself with its parts timed: the
family build (``family_s``; of it, ``moves_s`` for the one-letter moves,
the multiples and circle expansions, and ``base_s`` for the relabelled unit
specializations), the unit specializations themselves, over both their
calls, the certification's and the base's (``specializations_s``), the
certification of the unit specializations by ``is_weak_identity``
(``certify_s``) and the elimination (``eliminate_s``).
It also counts the members, the base, the left multiples and the circle
expansions.  A second child counts the rows the elimination reads before
``stop_dim`` (``read``) and how many of them reduce to zero (``zero``),
apart from the timings, which the counting would weigh on.  Another child
times ``verify_degree(n)`` end to end (``verify_s``, with the report's own
``timings_ms`` and the process's ``max_rss_mb``).  Prints one JSON
object.  Run from the repository root:

    PYTHONPATH=src python bench/bench_family.py [--degrees 4,5,6]
"""

from __future__ import annotations

import resource
import sys
import time

import harness

# timed part -> the tideal functions whose calls it sums
PARTS = {
    "family_s": ("consequence_family",),
    "moves_s": ("_moves",),
    "base_s": ("_base",),
    "specializations_s": ("_specializations",),
    "certify_s": ("is_weak_identity",),
    "eliminate_s": ("echelonize",),
}


def layers(n):
    """The parts of ``_consequences`` at degree n, the degrees below built
    first and untimed by part."""
    from weakid import tideal

    gens = tideal.default_generators()
    t0 = time.perf_counter()
    if n > 1:
        tideal.consequences_span(gens, n - 1)
    prepare_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    tideal._kernel_bound(n)
    bound_s = time.perf_counter() - t0
    totals = {}
    for names in PARTS.values():
        for name in names:
            harness.time_calls(tideal, name, totals)
    t0 = time.perf_counter()
    span, certified = tideal._consequences(gens, n)
    out = {"prepare_s": prepare_s, "bound_s": bound_s,
           "consequences_s": time.perf_counter() - t0}
    for part, names in PARTS.items():
        out[part] = sum(totals.get(name, 0.0) for name in names)
    out = {key: round(v, 6) for key, v in out.items()}
    below = tideal.consequences_span(gens, n - 1).dim if n > 1 else 0
    out.update(members=len(tideal.consequence_family(gens, n)),
               base=len(tideal._base(gens, n)), left=n * below,
               expanded=n * (n - 1) // 2 * below,
               dim=span.dim, certified=certified)
    return out


def elimination(n):
    """The rows the degree-n elimination reads (``read``) and those that
    reduce to zero (``zero``), counted at each ``Subspace._add`` while
    ``tideal.echelonize`` runs; the degrees below are built uncounted."""
    from weakid import linalg, tideal

    gens = tideal.default_generators()
    if n > 1:
        tideal.consequences_span(gens, n - 1)
    counts = {"read": 0, "zero": 0}
    add = linalg.Subspace._add

    def counted(space, v):
        dim = space.dim
        add(space, v)
        counts["read"] += 1
        counts["zero"] += space.dim == dim

    echelonize = tideal.echelonize

    def counting(*args, **kwargs):
        linalg.Subspace._add = counted
        try:
            return echelonize(*args, **kwargs)
        finally:
            linalg.Subspace._add = add

    tideal.echelonize = counting
    tideal._consequences(gens, n)
    return counts


def verify(n):
    from weakid import tideal

    t0 = time.perf_counter()
    report = tideal.verify_degree(n)
    return {"verify_s": round(time.perf_counter() - t0, 6),
            "timings_ms": report.timings_ms, "equal": report.equal,
            "max_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


if __name__ == "__main__":
    sys.exit(harness.main(__file__, __doc__,
                          {"layers": layers, "elimination": elimination,
                           "verify": verify}))
