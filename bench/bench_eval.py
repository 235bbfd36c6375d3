"""Time the generic evaluation rows and the kernel dimension, the first
layers of every proof step, and the Hilbert series' evaluation rows and
ranks.

Calls ``matrep.eval_rows`` on the multilinear words of each requested
degree, and ``matrep.proper_rows`` at x1 = E11 (what ``proper_image_rank``
reads) on the word universes of the Hilbert series to degree 7 (the
two-variable commutator families of every bidegree of total degree at most
7), each on the words alone, as the package calls them (each walk chooses
its own key width), and prints one JSON object with the best wall time of
five walks per universe (``s``) and the rows' nonzeros (``nnz``).  Each degree also gets
the best time of five ``linalg.rank_mod2`` calls on its walk's rows as the
walk returns them, what ``tideal._kernel_bound`` ranks (``rank_mod2_s``),
and of five uncached ``tideal.pn_kernel_dim`` calls, the exact kernel
dimension from GL(3) weight spaces (``kernel_dim_s``).
``hilbert_s`` is the best of five cold ``series.image_dims(n)`` at n = 7
and 9, every cache of the package cleared before each.  ``check`` times
what ``weakid check`` does to a fixed list of ``CHECKS`` expressions of
degree 4 to 6: the best of five passes of ``expr.parse_poly`` over the list
(``parse_s``), and of ``matrep.weak_identity_witness`` over the parsed
polynomials (``witness_s``, the generic coordinates of each).  Run from the
repository root:

    PYTHONPATH=src python bench/bench_eval.py [--degrees 4,5,6]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

from weakid import freealg, matrep, series, tideal
from weakid.expr import parse_poly
from weakid.freealg import multilinear_words, two_var_commutator_family
from weakid.linalg import rank_mod2
from weakid.matrep import eval_rows, proper_rows, weak_identity_witness

HILBERT_MAX = 7  # highest total degree of the Hilbert bidegrees timed
HILBERT_COLD = (7, 9)  # orders of the cold image_dims timed
REPEAT = 5  # timed builds per universe; the best is kept

# check-style expressions: generator instances at Jordan arguments, outer
# multiples, commutator products and the degree-6 two-variable relations.
CHECKS = (
    "S4(o(x1,x5),x2,x3,x4)",
    "S4(o(x1,o(x2,x3)),x4,x5,x6)",
    "S4(x^2,y,x3,x4)",
    "x5*S4(x1,x2,x3,x4)*x6",
    "[[o(x1,x5),x2],[x3,x4]]",
    "[[x1,x2],[x3,o(x4,x5)]]*x6",
    "x5*[[x,y],[x3,x4]]",
    "[x1,x2]*[x3,x4]*[x5,x6]",
    "[x1,x2,x3]*[x4,x5] - 1/2*[x4,x5]*[x1,x2,x3]",
    "o([x1,x2],[x3,x4])",
    "[[y,x,x,x],[y,x]]",
    "[[y,x,y],[y,x,x]] + 4*[y,x]^3",
)


def _best(fn, arg):
    """(result, best wall time of REPEAT calls of fn(arg))."""
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        out = fn(arg)
        best = min(best, time.perf_counter() - t0)
    return out, round(best, 6)


def _record(build, words):
    rows, s = _best(build, words)
    return {"words": len(words), "nnz": sum(len(r) for r in rows), "s": s}


def _record_with_kernel(n):
    words = multilinear_words(n)
    out = _record(eval_rows, words)
    out["rank_mod2"], out["rank_mod2_s"] = _best(rank_mod2, eval_rows(words))
    out["kernel_dim"], out["kernel_dim_s"] = _best(
        tideal.pn_kernel_dim.__wrapped__, n)
    return out


def hilbert_universes(n_max):
    """Sorted word tuples of the commutator family of each bidegree (dx, dy)
    with dx, dy >= 1 and dx + dy <= n_max, keyed "dx,dy"."""
    out = {}
    for total in range(2, n_max + 1):
        for dx in range(1, total):
            family = two_var_commutator_family(dx, total - dx)
            out[f"{dx},{total - dx}"] = tuple(sorted(
                {w for f in family for w in f.terms}))
    return out


def _cold_image_dims(n):
    """series.image_dims(n) after clearing every cache it can reach."""
    for module in (freealg, matrep, series):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    return series.image_dims(n)


def _parse_all(exprs):
    return [parse_poly(e) for e in exprs]


def _witness_all(polys):
    return [weak_identity_witness(f) for f in polys]


def check_section():
    """Best pass times of parse_poly and weak_identity_witness over CHECKS."""
    polys, parse_s = _best(_parse_all, CHECKS)
    witnesses, witness_s = _best(_witness_all, polys)
    return {"expressions": len(CHECKS),
            "degrees": sorted({f.degree() for f in polys}),
            "identities": sum(w is None for w in witnesses),
            "parse_s": parse_s, "witness_s": witness_s}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--degrees", default="4,5,6",
                   help="comma-separated multilinear degrees (default 4,5,6)")
    args = p.parse_args(argv)
    degrees = [int(d) for d in args.degrees.split(",") if d.strip()]

    multilinear = {str(n): _record_with_kernel(n) for n in degrees}
    hilbert = {key: _record(proper_rows, words)
               for key, words in hilbert_universes(HILBERT_MAX).items()}
    hilbert_s = {str(n): _best(_cold_image_dims, n)[1] for n in HILBERT_COLD}
    print(json.dumps({
        "python": platform.python_version(),
        "repeat": REPEAT,
        "multilinear": multilinear,
        "hilbert": {"max": HILBERT_MAX,
                    "bidegrees": hilbert,
                    "total_s": round(sum(r["s"] for r in hilbert.values()), 6)},
        "hilbert_s": hilbert_s,
        "check": check_section(),
    }, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
