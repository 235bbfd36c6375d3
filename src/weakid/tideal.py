"""The weak T-ideal engine.

A set of multilinear generators spans, inside the multilinear component of
degree n, the space of all a * f(u_1, ..., u_k) * b where f is a generator,
the u_j are multilinear Jordan elements on disjoint variable blocks (or the
unit), and a, b are words over the remaining variables.  Restricting the u_j
to multilinear blocks is lossless in characteristic 0: expanding a general
Jordan substitution multihomogeneously, only the per-block multilinear parts
can contribute to the multilinear component.  A multilinear Jordan element
is a combination of circle trees: a block's letters, each once, joined by
u o v = uv + vu.

``consequence_family`` builds that space from the degree-(n - 1) one by
three one-letter moves, each applied to every RREF row r of the
degree-(n - 1) span relabelled onto the letters other than j, plus a base:

* left and right multiples x_j * r and r * x_j;
* circle expansions r[x_i -> x_i o x_j] for i < j;
* the base: the span of each generator's nonzero unit specializations of
  degree n (some slots set to 1, one letter in each other slot) in every
  relabelling, as RREF rows.  A unit slot deletes its letter from every
  word, so a specialization is built from the generator's words alone, and
  the relabellings are reached by closing the span under the adjacent
  transpositions.

Every member is a consequence: the space is closed under multiplication by
letters, under relabelling, and under x_i -> x_i o x_j, which substitutes a
Jordan element.  Conversely, take a * f(T_1, ..., T_k) * b with each T_s a
circle tree or the unit.  If it has an outer letter, say a = x_j * a', it
is x_j times the degree-(n - 1) consequence a' * f(T_1, ..., T_k) * b on
the other letters: a one-letter multiple (likewise on the right).
Otherwise, if some tree has two leaves, it has two sibling leaves
x_i o x_j, i < j (o is commutative).  Contracting them to the leaf x_i
gives a degree-(n - 1) consequence on the letters other than j, a
combination of relabelled rows r, and the expansion x_i -> x_i o x_j,
which is linear, takes it back to the element; so unordered pairs suffice.
With no outer letter and only single-leaf or unit slots, the element is a
relabelled unit specialization.  At n = 1 an outer letter leaves a scalar,
f(1, ..., 1) * x_1 = f(x_1, 1, ..., 1), again a unit specialization.

``verify_degree`` compares that span with the kernel of the generic
symmetric-matrix evaluation.  Equality is certified by two one-sided checks:
every member of the spanning family evaluates to zero, and the dimensions
agree.  The first check is the only containment pass: the evaluation is
linear and every vector of the span is an exact rational combination of
family members, so a certified family puts the whole span (and every
subspace of it, such as its proper part) inside the kernel, and the
elimination may stop once it reaches the kernel dimension.  The second check
needs only dim kernel <= dim span, so the kernel dimension is bounded from
above by n! minus the evaluation rows' rank mod 2 (``_kernel_bound``); a
certified span of that dimension is the whole kernel.  Where the bound is not
reached, the exact one from GL(3) weight spaces decides (``pn_kernel_dim``).

The pass evaluates only the unit specializations (``_specializations``), by
``is_weak_identity``, and takes the rest of the family by induction on the
degree.  If the degree-(n - 1) family was certified, every row r vanishes at
generic symmetric matrices (a linear combination of certified members), so
does its relabelling, and so does every base row, a combination of
relabelled unit specializations (a weak identity stays one under any
renaming of its variables); so do x_j * r and r * x_j, because
the evaluation is an algebra homomorphism (X_j * 0 = 0 * X_j = 0), and so
does r[x_i -> x_i o x_j], because X_i X_j + X_j X_i is again symmetric.  So
the degree-n family is certified iff the degree-(n - 1) one was and every
unit specialization of degree n evaluates to zero.  The converse half makes
the flag exact, not only sound: if some degree-(n - 1) member does not
vanish, neither does some row r, and then x_n * r does not vanish either,
since the generic matrix X_n is invertible over the field of fractions of
the slots.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial

from .freealg import (NcPoly, coeff_vector, comm, linearize, multilinear_words,
                      perm_sign, proper_span, standard_poly, word_index)
from .linalg import (Subspace, _int_row, echelonize, intersection_dim, rank,
                     rank_mod2)
from .matrep import (eval_rows, is_weak_identity, proper_rows,
                     weak_identities_within)
from .repthy import _swaps, decompose_quotient, sym_dim

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

# Highest degree the consequence engine accepts: degree 7 takes about 2.5 s
# and 85 MB (2-vCPU VM), and degree 8 has 8! = 40320 multilinear words.
_MAX_DEGREE = 7

# Consequence spans, and unit specializations, kept, keyed by (generators,
# degree).  One per degree 1.._MAX_DEGREE, all of which the induction visits,
# and one to spare, so the default generators never rebuild either, while
# each other presentation a caller passes in cannot hold one for good.
_SPANS = 8


def metabelian():
    """[[x1, x2], [x3, x4]]."""
    x = NcPoly.variable
    return comm(comm(x(1), x(2)), comm(x(3), x(4)))


@lru_cache(maxsize=None)
def default_generators():
    return (standard_poly(4), metabelian())


def _arity(f):
    support = f.support()
    k = max(support, default=0)
    if not k or support != set(range(1, k + 1)) or not f.is_multilinear():
        raise ValueError("generators must be multilinear in x1..xk")
    return k


def consequence_family(gens, n):
    """Spanning family of the degree-n multilinear consequence space, as
    rows over the columns of ``multilinear_words(n)``: with d the dimension
    of the degree-(n - 1) span, the n * d left one-letter multiples, the
    n * d right ones, the n(n - 1)/2 * d circle expansions (``_moves``), then
    the base (``_base``).  The module docstring shows that it spans every
    a * f(u_1, ..., u_k) * b."""
    left, right, expanded = _moves(gens, n, word_index(multilinear_words(n)))
    return [*left, *right, *expanded, *_base(gens, n)]


def _moves(gens, n, index):
    """(left, right, expanded): x_j * r, r * x_j, and r[x_i -> x_i o x_j] for
    i < j, for each letter j of 1..n and each RREF row r of
    ``consequences_span(gens, n - 1)`` relabelled onto the letters other than
    j, as rows over ``index``; none at n = 1.  Each row moves through column
    maps from a degree-(n - 1) word w to columns of degree-n words, w' the
    relabelled w: x_j * w' or w' * x_j, and for an expansion both w' with
    x_j inserted just after x_i and w' with x_j inserted just before.  The
    maps are injective, and the two of an expansion have disjoint images
    (x_j follows x_i in one and precedes it in the other), so no two entries
    of a row meet in one column.

    The left multiples are in echelon form: relabelling 1..n-1 increasingly
    onto the letters other than j, and prefixing j, both keep the
    lexicographic order of words, so each x_j * r keeps the leading column
    of r, and the blocks of different j have disjoint supports.  They lead
    the family, so the elimination stores each after one pivot lookup."""
    if n == 1:
        return [], [], []
    words = multilinear_words(n - 1)
    rows = consequences_span(gens, n - 1).rows

    def moved(*maps):
        return [{m[c]: v for m in maps for c, v in r.items()} for r in rows]

    left, right, expanded = [], [], []
    for j in range(1, n + 1):
        relabelled = [tuple(l + (l >= j) for l in w) for w in words]
        left += moved([index[(j,) + w] for w in relabelled])
        right += moved([index[w + (j,)] for w in relabelled])
        for i in range(1, j):
            at = [(w, w.index(i)) for w in relabelled]
            after = [index[w[:p + 1] + (j,) + w[p + 1:]] for w, p in at]
            before = [index[w[:p] + (j,) + w[p:]] for w, p in at]
            expanded += moved(after, before)
    return left, right, expanded


@lru_cache(maxsize=_SPANS)
def _specializations(gens, n):
    """The nonzero unit specializations of degree n: each generator with all
    but n of its slots set to 1 and x_1, ..., x_n in the others, in order.
    Setting a slot to 1 deletes its letter from every word, so each word
    keeps the letters of the kept slots, relabelled 1..n in order, and
    equal words add up.  Built once per (generators, degree), for both the
    certification and the base."""
    out = []
    for f in gens:
        k = _arity(f)
        for kept in combinations(range(1, k + 1), n):
            label = [0] * (k + 1)  # slot -> new letter, 0 for a unit slot
            for i, slot in enumerate(kept, 1):
                label[slot] = i
            relabel = label.__getitem__
            g = NcPoly((tuple(filter(None, map(relabel, w))), c)
                       for w, c in f.terms.items())
            if g:
                out.append(g)
    return tuple(out)


def _base(gens, n):
    """The RREF rows, over the columns of ``multilinear_words(n)``, of the
    Sym(n)-module the unit specializations span: unique, so independent of
    the generators' order or variable names.  For the default generators,
    the span of S4 and the three pairings of [[x1, x2], [x3, x4]] at degree
    4, and nothing elsewhere.  Each vector that raises the dimension is
    pushed through the n - 1 adjacent transpositions, which generate
    Sym(n): those vectors span the space and are mapped into it, so it is
    stable, hence the module.  That is dim * (n - 1) relabellings, not n!
    per specialization."""
    index = word_index(multilinear_words(n))
    todo = [{index[w]: c for w, c in g.terms.items()}
            for g in _specializations(tuple(gens), n)]
    if not todo:
        return []
    swaps = _swaps(n)
    space = Subspace.zero()
    while todo:
        v = todo.pop()
        dim = space.dim
        space._add(_int_row(v))
        if space.dim > dim:
            todo += [{to[c]: x for c, x in v.items()} for to in swaps]
    return list(space.rows)


# -- the full multilinear component -------------------------------------------


def _cocharacter(n):
    """The Sym(n)-multiplicities {partition: m} of P_n/K_n, K the weak
    identities, from GL(3) weight spaces (Drensky, *Free Algebras and
    PI-Algebras*, 2000; Berele, *Homogeneous polynomial identities*, 1982).

    K is stable under linear substitutions, since a combination of symmetric
    matrices is symmetric.  So the degree-n part of F_3/K (F_3 free on x1,
    x2, x3) is a GL(3)-module sum m_lam * W_lam, with the m_lam of P_n/K_n
    for every lam of at most three parts, and P_n/K_n has no other: it
    embeds in the multilinear maps H^n -> M_2, H the symmetric matrices, and
    dim H = 3 (Schur-Weyl).  The weight space of content
    c is spanned by the words of content c, so its dimension d(c) is the
    rank of their evaluation rows, and a permuted c gives the same.  Weyl's
    character formula inverts these: m_lam = sum over s in Sym(3) of
    sgn(s) * d(lam_i - i + s_i), where a weight with a negative part sorts
    to no content and counts 0.  The formula subtracts, so the ranks must
    be exact.
    """
    contents = {}
    for w in product((1, 2, 3), repeat=n):
        contents.setdefault((w.count(1), w.count(2), w.count(3)), []).append(w)
    d = {c: rank(eval_rows(words))
         for c, words in contents.items() if c[0] >= c[1] >= c[2]}
    out = {}
    for lam in d:
        m = 0
        for s in permutations(range(3)):
            weight = (p - i + j for i, (p, j) in enumerate(zip(lam, s)))
            m += perm_sign(s) * d.get(tuple(sorted(weight, reverse=True)), 0)
        if m:
            out[tuple(p for p in lam if p)] = m
    return out


@lru_cache(maxsize=None)
def pn_kernel_dim(n):
    """Dimension of the weak identities inside the multilinear component,
    the exact fallback of ``verify_degree``: n! minus the dimension of
    P_n/K_n, sum m_lam * f^lam over ``_cocharacter(n)``."""
    return factorial(n) - sum(m * sym_dim(lam)
                              for lam, m in _cocharacter(n).items())


@lru_cache(maxsize=None)
def _kernel_bound(n):
    """An upper bound on ``pn_kernel_dim(n)``: the evaluation rows' rank
    mod 2 is at most their rank over Q (``rank_mod2``).  The rows, x1
    diagonal (the kernel of the generic rows, with half the nonzeros;
    ``matrep``), are ranked as one walk returns them."""
    return factorial(n) - rank_mod2(eval_rows(multilinear_words(n)))


@lru_cache(maxsize=_SPANS)
def _consequences(gens, n):
    """(span, family_certified): the echelonized consequence space and whether
    every family member is a weak identity.  Only the unit specializations
    are evaluated; the moves and the base rows inherit the flag
    (module docstring).  The family is eliminated in the order it is built
    (``_moves``, ``_base``).  A certified span lies in the kernel, so its
    dimension is at most ``_kernel_bound(n)``, where the elimination stops.
    From the least generator degree on, the bound is taken before the
    family is built, so the bound's walk and the family are never held
    together.  Below that degree the family is often empty (always for the
    default generators), so no walk is taken there, and a family that is
    not empty is eliminated to the end."""
    certified = ((n == 1 or _consequences(gens, n - 1)[1])
                 and all(map(is_weak_identity, _specializations(gens, n))))
    reached = any(n >= _arity(g) for g in gens)
    ceiling = _kernel_bound(n) if certified and reached else None
    family = consequence_family(gens, n)
    if not family:
        return Subspace.zero(), certified
    return echelonize(family, stop_dim=ceiling), certified


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
    """Word-coordinate subspace of the proper multilinear weak identities,
    from the E11 rows of the multilinear words (``matrep`` docstring)."""
    return weak_identities_within(proper_span(n),
                                  proper_rows(multilinear_words(n)))


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
    down and the evaluation is an algebra homomorphism, and so do the circle
    expansions, so only the unit specializations of the generators are
    evaluated at each degree (module docstring).
    That also covers every basis vector of the span and of its proper part:
    the evaluation is linear, each span vector is an exact rational
    combination of family members, and the proper part is a subspace of the
    span.  Equality additionally needs the dimensions to match.  In the
    full component dim span <= dim kernel <= ``_kernel_bound(n)`` once the
    family is certified, so a span of the bound's dimension closes the
    sandwich and the bound is the kernel dimension; otherwise it is the
    exact one from the GL(3) weight spaces (``pn_kernel_dim``).
    ``proper`` restricts both sides to the proper (commutator-product)
    component.  The proper consequence dimension is dim span + dim Gamma -
    rank(span rows + Gamma rows): the dimension formula for an intersection,
    exact because the rank is computed in exact arithmetic on bases of both.
    The proper kernel (``proper_kernel``, cached) is built where it is
    first read, so its time counts in ``proper_ms``, or else in
    ``decompose_ms``.
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
