"""The weak T-ideal engine.

A set of multilinear generators spans, inside the multilinear component of
degree n, the space of all a * f(u_1, ..., u_k) * b where f is a generator,
the u_j are multilinear Jordan elements on disjoint variable blocks (or the
unit), and a, b are words over the remaining variables.  Restricting the u_j
to multilinear blocks is lossless in characteristic 0: expanding a general
Jordan substitution multihomogeneously, only the per-block multilinear parts
can contribute to the multilinear component.

``verify_degree`` compares that span with the kernel of the generic
symmetric-matrix evaluation.  Equality is certified by two one-sided checks:
every member of the spanning family evaluates to zero, and the dimensions
agree.  The first check is the only containment pass: the evaluation is
linear and every vector of the span is an exact rational combination of
family members, so a certified family puts the whole span (and every
subspace of it, such as its proper part) inside the kernel, and the
elimination may stop once it reaches the kernel dimension.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations, product
from math import factorial

from .freealg import (NcPoly, coeff_vector, linearize,
                      multilinear_words, proper_basis, proper_span,
                      standard_poly, substitute, word_index)
from .jordan import sj_multilinear_span
from .linalg import echelonize, rank, subspace_intersect
from .matrep import eval_table, poly_eval_row

__all__ = [
    "metabelian",
    "default_generators",
    "consequence_family",
    "consequences_span",
    "is_consequence",
    "verify_degree",
    "pn_kernel_dim",
    "proper_kernel",
    "DegreeReport",
]

# Highest degree the consequence engine accepts: degree 7 already takes about
# 90 minutes, and the slot-label enumeration alone grows like 6^n.
_MAX_DEGREE = 7


def metabelian():
    """[[x1, x2], [x3, x4]]."""
    x = NcPoly.variable
    from .freealg import comm

    return comm(comm(x(1), x(2)), comm(x(3), x(4)))


@lru_cache(maxsize=None)
def default_generators():
    return (standard_poly(4), metabelian())


def _arity(f):
    support = f.support()
    k = max(support)
    if support != set(range(1, k + 1)) or not f.is_multilinear():
        raise ValueError("generators must be multilinear in x1..xk")
    return k


@lru_cache(maxsize=None)
def _slot_symmetries(f, k):
    """Slot permutations under which f is invariant up to a nonzero scalar."""
    target = f.normalized()
    group = []
    for perm in permutations(range(1, k + 1)):
        g = substitute(f, {i: NcPoly.variable(perm[i - 1]) for i in range(1, k + 1)})
        if g.normalized() == target:
            group.append(perm)
    return tuple(group)


@lru_cache(maxsize=None)
def _unit_kills_slot(f, k, slot):
    subs = {i: NcPoly.variable(i) for i in range(1, k + 1)}
    subs[slot] = NcPoly.one()
    return substitute(f, subs).is_zero()


def _slot_assignments(n, k, needs_block, sym_group):
    """Distributions of {1..n} into (left word | k slot blocks | right word),
    one representative per orbit of the slot-symmetry group."""
    for labels in product(range(k + 2), repeat=n):
        blocks = [[] for _ in range(k)]
        left, right = [], []
        for e, lab in enumerate(labels, start=1):
            if lab == 0:
                left.append(e)
            elif lab == k + 1:
                right.append(e)
            else:
                blocks[lab - 1].append(e)
        if any(needs_block[j] and not blocks[j] for j in range(k)):
            continue
        key = tuple(tuple(b) for b in blocks)
        if len(sym_group) > 1:
            orbit_min = min(tuple(key[p[j] - 1] for j in range(k))
                            for p in sym_group)
            if key != orbit_min:
                continue
        yield left, blocks, right


def consequence_family(gens, n):
    """Spanning family of the degree-n multilinear consequence space,
    deduplicated up to scalar multiples."""
    emitted = {}
    for f in gens:
        k = _arity(f)
        sym_group = _slot_symmetries(f, k)
        needs_block = [_unit_kills_slot(f, k, j) for j in range(1, k + 1)]
        for left, blocks, right in _slot_assignments(n, k, needs_block, sym_group):
            choices = []
            for b in blocks:
                if b:
                    choices.append(sj_multilinear_span(frozenset(b)).basis)
                else:
                    choices.append((NcPoly.one(),))
            for us in product(*choices):
                g = substitute(f, {j + 1: us[j] for j in range(k)})
                if g.is_zero():
                    continue
                for a in permutations(left):
                    ga = NcPoly({a: 1}) * g if a else g
                    for b in permutations(right):
                        gb = ga * NcPoly({b: 1}) if b else ga
                        emitted.setdefault(gb.normalized(), gb)
    return list(emitted.values())


# -- the full multilinear component -------------------------------------------


@lru_cache(maxsize=None)
def pn_kernel_dim(n):
    """Dimension of the weak identities inside the multilinear component."""
    return factorial(n) - rank(eval_table(multilinear_words(n))[1])


@lru_cache(maxsize=None)
def _consequences(gens, n):
    """(span, family_certified): the echelonized consequence space and whether
    every family member was verified to be a weak identity."""
    family = consequence_family(gens, n)
    index, word_rows = eval_table(multilinear_words(n))
    certified = all(not poly_eval_row(g, word_rows, index) for g in family)
    ceiling = pn_kernel_dim(n) if certified else None
    span = echelonize([coeff_vector(g, index) for g in family],
                      stop_dim=ceiling)
    return span, certified


def _norm_gens(gens):
    if gens is None:
        return default_generators()
    return tuple(gens)


def consequences_span(gens, n):
    """Echelonized multilinear consequence space of the generators at degree n,
    in the coordinates of multilinear_words(n)."""
    return _consequences(_norm_gens(gens), n)[0]


def _relabel_multilinear(f):
    support = sorted(f.support())
    subs = {v: NcPoly.variable(i) for i, v in enumerate(support, start=1)}
    return substitute(f, subs), len(support)


def is_consequence(f, gens=None):
    """Membership of f in the weak T-ideal spanned by the generators.

    Multilinear polynomials are tested directly; multihomogeneous ones are
    fully linearized first (an equivalence in characteristic 0).  Total
    degrees above 7 are rejected before linearizing, as in ``verify_degree``.
    """
    gens = _norm_gens(gens)
    if f.is_zero():
        return True
    if f.multidegree() is None:
        raise ValueError("membership is defined for multihomogeneous input")
    if f.degree() > _MAX_DEGREE:
        raise ValueError(f"total degree {f.degree()} is above "
                         f"the supported maximum {_MAX_DEGREE}")
    if f.is_multilinear():
        g, n = _relabel_multilinear(f)
    else:
        g = linearize(f)
        n = len(g.support())
    span = consequences_span(gens, n)
    return span.contains(coeff_vector(g, word_index(multilinear_words(n))))


# -- weak identities inside the proper component -------------------------------


@lru_cache(maxsize=None)
def proper_kernel(n):
    """Word-coordinate subspace of the proper multilinear weak identities."""
    from .matrep import weak_identities_within

    index = word_index(multilinear_words(n))
    return weak_identities_within(proper_basis(n), index)


# -- degree-by-degree verification ---------------------------------------------


@dataclass(frozen=True)
class DegreeReport:
    """Outcome of comparing consequences with weak identities in one degree."""

    degree: int
    dim_p: int
    dim_kernel: int
    dim_consequences: int
    containment: bool
    equal: bool
    timings_ms: dict = field(compare=False)
    mode: str = "full"
    decomposition: tuple | None = None

    def to_json_dict(self, toolkit_version, *, with_timings=True):
        return {
            "degree": self.degree,
            "dim_P": self.dim_p,
            "dim_kernel": self.dim_kernel,
            "dim_consequences": self.dim_consequences,
            "containment": self.containment,
            "equal": self.equal,
            "decomposition": None if self.decomposition is None
            else [list(x) for x in self.decomposition],
            "timings_ms": dict(self.timings_ms) if with_timings else {},
            "toolkit_version": toolkit_version,
        }


def _ms(t0):
    return round((time.perf_counter() - t0) * 1000, 3)


def verify_degree(n, *, generators=None, proper=False, with_decomposition=False):
    """Check, at degree n, that the consequences of the generators fill the
    whole space of weak identities (the main equality, one degree at a time).

    Containment is certified once, by evaluating every member of the
    consequence family.  That also covers every basis vector of the span and
    of its proper part: the evaluation is linear, each span vector is an exact
    rational combination of family members, and the proper part is a subspace
    of the span.  Equality additionally needs the dimensions to match.
    ``proper`` restricts both sides to the proper (commutator-product)
    component.
    """
    if not 4 <= n <= _MAX_DEGREE:
        raise ValueError(f"degrees 4..{_MAX_DEGREE} are supported")
    gens = _norm_gens(generators)
    timings = {}

    t0 = time.perf_counter()
    kdim = pn_kernel_dim(n)
    timings["kernel_ms"] = _ms(t0)

    t0 = time.perf_counter()
    span, containment = _consequences(gens, n)
    timings["consequences_ms"] = _ms(t0)

    if proper:
        t0 = time.perf_counter()
        gamma = proper_span(n)
        dim_kernel = proper_kernel(n).dim
        dim_cons = subspace_intersect(span, gamma).dim
        timings["proper_ms"] = _ms(t0)
        dim_p = gamma.dim
    else:
        dim_kernel = kdim
        dim_cons = span.dim
        dim_p = factorial(n)

    decomposition = None
    if with_decomposition:
        t0 = time.perf_counter()
        from .repthy import decompose_quotient

        dec = decompose_quotient(proper_span(n), proper_kernel(n), n)
        decomposition = tuple((tuple(lam), m) for lam, m in
                              sorted(dec.items(), key=lambda kv: kv[0], reverse=True))
        timings["decompose_ms"] = _ms(t0)

    equal = containment and dim_cons == dim_kernel
    return DegreeReport(
        degree=n,
        dim_p=dim_p,
        dim_kernel=dim_kernel,
        dim_consequences=dim_cons,
        containment=containment,
        equal=equal,
        timings_ms=timings,
        mode="proper" if proper else "full",
        decomposition=decomposition,
    )
