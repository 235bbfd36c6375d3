"""The weak T-ideal engine.

A set of multilinear generators spans, inside the multilinear component of
degree n, the space of all a * f(u_1, ..., u_k) * b where f is a generator,
the u_j are multilinear Jordan elements on disjoint variable blocks (or the
unit), and a, b are words over the remaining variables.  Restricting the u_j
to multilinear blocks is lossless in characteristic 0: expanding a general
Jordan substitution multihomogeneously, only the per-block multilinear parts
can contribute to the multilinear component.  ``consequence_family`` builds
the outer words one letter at a time, by induction on the degree.

``verify_degree`` compares that span with the kernel of the generic
symmetric-matrix evaluation.  Equality is certified by two one-sided checks:
every member of the spanning family evaluates to zero, and the dimensions
agree.  The first check is the only containment pass: the evaluation is
linear and every vector of the span is an exact rational combination of
family members, so a certified family puts the whole span (and every
subspace of it, such as its proper part) inside the kernel, and the
elimination may stop once it reaches the kernel dimension.  The second check
needs only dim kernel <= dim span, so the kernel dimension is bounded from
above by n! minus the evaluation table's rank mod 2 (``_kernel_bound``); a
certified span of that dimension is the whole kernel.  Where the bound is not
reached, the exact rank over Q decides (``verify_degree``).

The pass evaluates only the core members f(u_1, ..., u_k) (``_core``) and
takes the rest of the family (``_multiples``) by induction on the
degree.  Every other member is x_j * r or r * x_j,
where r is a row of the degree-(n - 1) span relabelled onto the letters
other than j.  If the degree-(n - 1) family was certified, r vanishes
at generic symmetric matrices (a linear combination of certified members),
so does its relabelling (a weak identity stays one under any renaming of
its variables), and so do x_j * r and r * x_j, because the evaluation is an
algebra homomorphism: X_j * 0 = 0 * X_j = 0.  So the degree-n family is
certified iff the degree-(n - 1) one was and every core member evaluates to
zero.  The converse half makes the flag exact, not only sound: if some
degree-(n - 1) member does not vanish, neither does some row r, and then
x_n * r does not vanish either, since the generic matrix X_n is invertible
over the field of fractions of the slots.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations, product
from math import factorial

from .freealg import (NcPoly, coeff_vector, linearize, multilinear_words,
                      proper_span, set_partitions, standard_poly, substitute,
                      word_index)
from .jordan import sj_multilinear_span
from .linalg import Subspace, echelonize, intersection_dim, rank, rank_mod2
from .matrep import eval_table, poly_eval_row, weak_identities_within

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
# 3 minutes and 320 MB, and degree 8 has 8! = 40320 multilinear words.
_MAX_DEGREE = 7

# Consequence spans kept, keyed by (generators, degree).  One per degree
# 1.._MAX_DEGREE, all of which the induction visits, and one to spare, so the
# default generators never rebuild a span, while each other presentation a
# caller passes in cannot hold one for good.
_SPANS = 8


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
    """Slot permutations under which f is invariant up to a nonzero scalar.
    Substituting variables for variables relabels the words of f."""
    target = f.normalized()
    group = []
    for perm in permutations(range(1, k + 1)):
        g = NcPoly._raw({tuple(perm[i - 1] for i in w): c
                         for w, c in f.terms.items()})
        if g.normalized() == target:
            group.append(perm)
    return tuple(group)


@lru_cache(maxsize=None)
def _unit_kills_slot(f, k, slot):
    subs = {i: NcPoly.variable(i) for i in range(1, k + 1)}
    subs[slot] = NcPoly.one()
    return substitute(f, subs).is_zero()


@lru_cache(maxsize=None)
def _slot_cosets(sym_group):
    """The left cosets s * G of the slot-symmetry group G in Sym(k), as
    0-based index maps q (a key permuted by q is key[q[0]], key[q[1]], ...)."""
    group = [tuple(j - 1 for j in p) for p in sym_group]
    k = len(group[0])
    seen, cosets = set(), []
    for s in permutations(range(k)):
        if s not in seen:
            coset = tuple(tuple(s[i] for i in p) for p in group)
            seen.update(coset)
            cosets.append(coset)
    return tuple(cosets)


def _labels(key):
    """Slot of each of 1..n under a distribution key."""
    return [s for _, s in sorted((e, s) for s, b in enumerate(key) for e in b)]


def _slot_assignments(n, k, needs_block, sym_group):
    """Distributions of {1..n} into k slot blocks, with a nonempty block in
    every slot the unit kills, one representative per orbit of the
    slot-symmetry group G: the least key of its orbit.  They come in the
    order of their label vectors (slot of 1, ..., slot of n).

    A distribution places the blocks of a set partition of {1..n} into at
    most k blocks, so it is base permuted by some q in Sym(k), where base
    lists the blocks and then the empty slots; base permuted by q and by q'
    lie in one G-orbit exactly when q and q' lie in one left coset of G."""
    needed = sum(needs_block)
    cosets = _slot_cosets(sym_group)
    keys = set()
    for blocks in set_partitions(range(1, n + 1), k):
        if len(blocks) < needed:
            continue  # some slot the unit kills stays empty
        base = blocks + ((),) * (k - len(blocks))
        for coset in cosets:
            key = min(tuple(base[i] for i in q) for q in coset)
            if all(key[j] or not needs_block[j] for j in range(k)):
                keys.add(key)
    return sorted(keys, key=_labels)


def consequence_family(gens, n):
    """Spanning family of the degree-n multilinear consequence space, as
    rows over the columns of ``multilinear_words(n)``: the n * d left
    one-letter multiples of the d RREF rows of the degree-(n - 1) span, then
    the n * d right ones (``_multiples``), then the core f(u_1, ..., u_k)
    whose slot blocks cover {1..n} (``_core``).
    It spans the same space as every a * f(u) * b (module docstring):

    * with a = x_j * a', a * f(u) * b = x_j * (a' * f(u) * b), and
      a' * f(u) * b is a degree-(n - 1) consequence on the other letters;
      the same holds on the right;
    * conversely x_j * c and c * x_j are consequences for every consequence c;
    * at n = 1 no outer part is needed: f is multilinear, so
      f(1, ..., 1) * x_1 = f(x_1, 1, ..., 1) is a core member, and both
      vanish when the unit kills a slot.
    """
    index = word_index(multilinear_words(n))
    left, right = _multiples(gens, n, index)
    return [*left, *right, *(coeff_vector(g, index) for g in _core(gens, n))]


def _multiples(gens, n, index):
    """(left, right): x_j * r and r * x_j, for each letter j of 1..n and each
    RREF row r of ``consequences_span(gens, n - 1)`` relabelled onto the
    letters other than j, as rows over ``index``; none at n = 1.  Each row
    moves through one column map per letter and side, from a degree-(n - 1)
    word w to the column of x_j * w' or w' * x_j, w' the relabelled w; the
    maps are injective, so no two entries of a row meet in one column.

    The left multiples are in echelon form: relabelling 1..n-1 increasingly
    onto the letters other than j, and prefixing j, both keep the
    lexicographic order of words, so each x_j * r keeps the leading column
    of r, and the blocks of different j have disjoint supports."""
    if n == 1:
        return [], []
    words = multilinear_words(n - 1)
    rows = consequences_span(gens, n - 1).rows
    left, right = [], []
    for j in range(1, n + 1):
        relabelled = [tuple(l + (l >= j) for l in w) for w in words]
        to_left = [index[(j,) + w] for w in relabelled]
        to_right = [index[w + (j,)] for w in relabelled]
        left += [{to_left[c]: v for c, v in r.items()} for r in rows]
        right += [{to_right[c]: v for c, v in r.items()} for r in rows]
    return left, right


def _core(gens, n):
    """The nonzero f(u_1, ..., u_k), for each generator f, whose slot blocks
    cover {1..n}: one distribution per orbit of f's slot symmetries, and
    every choice of basis elements of the Jordan spans of the blocks."""
    core = []
    for f in gens:
        k = _arity(f)
        sym_group = _slot_symmetries(f, k)
        needs_block = [_unit_kills_slot(f, k, j) for j in range(1, k + 1)]
        for blocks in _slot_assignments(n, k, needs_block, sym_group):
            choices = [sj_multilinear_span(frozenset(b)).basis if b
                       else (NcPoly.one(),) for b in blocks]
            for us in product(*choices):
                g = substitute(f, {j + 1: us[j] for j in range(k)})
                if not g.is_zero():
                    core.append(g)
    return tuple(core)


# -- the full multilinear component -------------------------------------------


@lru_cache(maxsize=None)
def pn_kernel_dim(n):
    """Dimension of the weak identities inside the multilinear component."""
    return factorial(n) - rank(eval_table(multilinear_words(n))[1])


@lru_cache(maxsize=None)
def _kernel_bound(n):
    """An upper bound on ``pn_kernel_dim(n)``: the evaluation table's rank
    mod 2 is at most its rank over Q (``rank_mod2``)."""
    return factorial(n) - rank_mod2(eval_table(multilinear_words(n))[1])


@lru_cache(maxsize=_SPANS)
def _consequences(gens, n):
    """(span, family_certified): the echelonized consequence space and whether
    every family member is a weak identity.  Only the core members are
    evaluated; the one-letter multiples inherit the degree-(n - 1) flag
    (module docstring).  The k left multiples that open the family enter the
    elimination as ready echelon rows (``_multiples``), so only the right
    multiples and the core are sorted and reduced.  A certified span lies in
    the kernel, so its dimension is at most ``_kernel_bound(n)``, where the
    elimination stops."""
    family = consequence_family(gens, n)
    below, certified = (_consequences(gens, n - 1) if n > 1
                        else (Subspace.zero(), True))
    if not family:
        # nothing to certify, and no evaluation table to build
        return Subspace.zero(), certified
    k = n * below.dim
    word_rows = eval_table(multilinear_words(n))[1]
    certified = certified and all(not poly_eval_row(r, word_rows)
                                  for r in family[2 * k:])
    ceiling = _kernel_bound(n) if certified else None
    return echelonize(family[k:], echelon=family[:k],
                      stop_dim=ceiling), certified


def _norm_gens(gens):
    if gens is None:
        return default_generators()
    return tuple(gens)


def consequences_span(gens, n):
    """Echelonized multilinear consequence space of the generators at degree n,
    in the coordinates of multilinear_words(n).  Degrees outside
    1.._MAX_DEGREE are rejected before any span is built."""
    if not 1 <= n <= _MAX_DEGREE:
        raise ValueError(f"degrees 1..{_MAX_DEGREE} are supported")
    return _consequences(_norm_gens(gens), n)[0]


def is_consequence(f, gens=None):
    """Membership of f in the weak T-ideal spanned by the generators.

    f is fully linearized first (an equivalence in characteristic 0); a
    multilinear f comes back relabelled onto x1..xn in increasing order.  Total
    degrees above 7 are rejected before linearizing, as in ``verify_degree``.
    A nonzero constant is never a consequence: generators are multilinear of
    positive degree, so every consequence has positive degree.
    """
    gens = _norm_gens(gens)
    if f.is_zero():
        return True
    md = f.multidegree()
    if md is None:
        raise ValueError("membership is defined for multihomogeneous input")
    if not md:
        return False
    if f.degree() > _MAX_DEGREE:
        raise ValueError(f"total degree {f.degree()} is above "
                         f"the supported maximum {_MAX_DEGREE}")
    g = linearize(f)
    n = len(g.support())
    span = consequences_span(gens, n)
    return span.contains(coeff_vector(g, word_index(multilinear_words(n))))


# -- weak identities inside the proper component -------------------------------


@lru_cache(maxsize=None)
def proper_kernel(n):
    """Word-coordinate subspace of the proper multilinear weak identities."""
    return weak_identities_within(proper_span(n),
                                  eval_table(multilinear_words(n))[1])


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

    Containment is certified once, on the consequence family, by induction
    on the degree: the one-letter multiples x_j * r and r * x_j of the
    degree-(n - 1) rows vanish because those rows were certified one degree
    down and the evaluation is an algebra homomorphism, so only the core
    members f(u_1, ..., u_k) are evaluated at each degree (module docstring).
    That also covers every basis vector of the span and of its proper part:
    the evaluation is linear, each span vector is an exact rational
    combination of family members, and the proper part is a subspace of the
    span.  Equality additionally needs the dimensions to match.  In the
    full component dim span <= dim kernel <= ``_kernel_bound(n)`` once the
    family is certified, so a span of the bound's dimension closes the
    sandwich and the bound is the kernel dimension; otherwise the kernel
    dimension is the exact rank (``pn_kernel_dim``).
    ``proper`` restricts both sides to the proper (commutator-product)
    component.  The proper consequence dimension is dim span + dim Gamma -
    rank(span rows + Gamma rows): the dimension formula for an intersection,
    exact because the rank is computed in exact arithmetic on bases of both.
    """
    if not 4 <= n <= _MAX_DEGREE:
        raise ValueError(f"degrees 4..{_MAX_DEGREE} are supported")
    gens = _norm_gens(generators)
    timings = {}

    t0 = time.perf_counter()
    bound = _kernel_bound(n)
    timings["kernel_ms"] = _ms(t0)

    t0 = time.perf_counter()
    span, containment = _consequences(gens, n)
    timings["consequences_ms"] = _ms(t0)

    if proper:
        t0 = time.perf_counter()
        gamma = proper_span(n)
        dim_kernel = proper_kernel(n).dim
        dim_cons = intersection_dim(span, gamma)
        timings["proper_ms"] = _ms(t0)
        dim_p = gamma.dim
    else:
        dim_cons = span.dim
        if containment and dim_cons == bound:
            dim_kernel = bound
        else:
            t0 = time.perf_counter()
            dim_kernel = pn_kernel_dim(n)
            timings["kernel_ms"] = round(timings["kernel_ms"] + _ms(t0), 3)
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
        decomposition=decomposition,
    )
