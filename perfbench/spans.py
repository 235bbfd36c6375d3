"""Per-layer spans for the traced run of the benchmark.

The spans come from the benchmark alone: ``instrument`` wraps public
functions of the weakid modules at their module boundary and rebinds every
module attribute that refers to the same function object, so calls made
through imported names (``tideal.echelonize``, ``matrep.echelonize``,
``freealg.echelonize``, ...) are seen as well.  No file of the package is
changed.

A span's self time is its duration minus the part of that interval covered
by its child spans.  Counting the sizes of a result happens after the span
has closed and is excluded from the parent's self time too, so it shows up
only in the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

MODULES = ("matrep", "linalg", "tideal", "freealg", "jordan", "repthy",
           "series", "expr", "cli")


class Tracer:
    """Span recorder: call counts, self time and summed result sizes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []   # one [time covered by child spans] per open span
        self.calls = {}    # span name -> calls
        self.self_s = {}   # span name -> self time in seconds
        self.counts = {}   # "<span>.<count>" -> summed (max_* : largest) value

    def call(self, name, fn, args, kwargs, count=None):
        clock = self.clock
        covered = [0.0]
        self._stack.append(covered)
        start = clock()
        end = None
        try:
            result = fn(*args, **kwargs)
            end = clock()
            if count is not None:
                self._add(name, count(args, result))
            return result
        finally:
            if end is None:
                end = clock()
            self._stack.pop()
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start - covered[0])
            if self._stack:
                self._stack[-1][0] += clock() - start

    def _add(self, name, values):
        for key, v in values.items():
            metric = f"{name}.{key}"
            if key.startswith("max_"):
                self.counts[metric] = max(self.counts.get(metric, v), v)
            else:
                self.counts[metric] = self.counts.get(metric, 0) + v


# -- sizes of results, counted after a span closes ----------------------------


def _stored_rows(space):
    """Integer rows held by a Subspace, read without finalizing it (reading
    ``rows`` would run the back-substitution early and change the work)."""
    return getattr(space, "_rows", {}).values()


def _count_echelonize(args, space):
    rows = list(_stored_rows(space))
    bits = [abs(v).bit_length() for r in rows for v in r.values()]
    return {"rows_in": len(args[0]), "dim": space.dim,
            "nnz": sum(len(r) for r in rows), "max_bits": max(bits, default=0)}


def _count_rank(args, _result):
    return {"rows_in": len(args[0])}


def _count_family(_args, family):
    return {"members": len(family)}


def _count_eval_rows(args, rows):
    return {"words": len(args[0]), "nnz": sum(len(r) for r in rows)}


def _count_verify(_args, report):
    return {"containment_ms": report.timings_ms.get("containment_ms", 0.0)}


# span name -> (function that sizes its result, the count names it returns)
TARGETS = {
    "tideal.verify_degree": (_count_verify, ("containment_ms",)),
    "tideal.consequence_family": (_count_family, ("members",)),
    "tideal.consequences_span": (None, ()),
    "tideal.is_consequence": (None, ()),
    "tideal.proper_kernel": (None, ()),
    "linalg.echelonize": (_count_echelonize, ("rows_in", "dim", "nnz", "max_bits")),
    "linalg.rank": (_count_rank, ("rows_in",)),
    "linalg.left_kernel": (None, ()),
    "linalg.Subspace.rows": (None, ()),
    "matrep.eval_rows": (_count_eval_rows, ("words", "nnz")),
    "matrep.image_rank": (None, ()),
    "matrep.is_weak_identity": (None, ()),
    "matrep.weak_identity_witness": (None, ()),
    "freealg.proper_span": (None, ()),
    "repthy.decompose_quotient": (None, ()),
    "expr.parse_poly": (None, ()),
    "jordan.sj_multilinear_span": (None, ()),
    "series.image_dims": (None, ()),
    "cli.main": (None, ()),
}

# Targets whose first argument is a row or word list that gets counted; a
# generator there would be consumed by the call before it could be counted.
_SIZED_FIRST = {"linalg.echelonize", "linalg.rank", "matrep.eval_rows"}

# Counts that must repeat exactly across runs and seeds of one workload.
DETERMINISTIC = (".members", ".dim", ".rows_in", ".words", ".nnz")


def _wrap(tracer, name, fn, count):
    sized = name in _SIZED_FIRST

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if sized and not hasattr(args[0], "__len__"):
            args = (list(args[0]),) + args[1:]
        return tracer.call(name, fn, args, kwargs, count)
    return wrapper


def instrument(tracer):
    """Route every target through tracer, in every weakid module that binds it."""
    for module in MODULES:
        importlib.import_module(f"weakid.{module}")
    modules = [m for n, m in list(sys.modules.items())
               if n == "weakid" or n.startswith("weakid.")]
    for name, (count, _keys) in TARGETS.items():
        modname, attr = name.split(".", 1)
        module = sys.modules[f"weakid.{modname}"]
        if "." in attr:  # a property of a class
            cls_name, prop = attr.split(".")
            cls = getattr(module, cls_name)
            fget = cls.__dict__[prop].fget
            setattr(cls, prop, property(_wrap(tracer, name, fget, count)))
            continue
        fn = getattr(module, attr)
        wrapped = _wrap(tracer, name, fn, count)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, wrapped)


def layer_metrics(tracer):
    """Per-layer metrics of one traced run; a span never entered reads 0."""
    out = {}
    for name, (_count, keys) in TARGETS.items():
        out[f"{name}.calls"] = tracer.calls.get(name, 0)
        out[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
        for key in keys:
            out[f"{name}.{key}"] = tracer.counts.get(f"{name}.{key}", 0)
    for module in MODULES:
        out[f"{module}.self_s"] = sum(
            t for n, t in tracer.self_s.items() if n.split(".", 1)[0] == module)
    return out
