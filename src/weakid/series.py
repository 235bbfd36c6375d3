"""Graded dimensions of the two-variable proper algebra modulo weak identities.

The generic evaluation respects the bidegree in (x, y), so per-bidegree
ranks of the commutator-product families give the graded dimensions of the
image, the GL(2) multiplicities fall out of weight-space differences, and
the total series can be compared coefficientwise with the closed form

    1 + t^2 * (1 - t)^-2 * (1 - t^2)^-1.

The closed form expands the two-parameter sum of (l1 - l2 + 1) * t^(2p+q)
with (l1, l2) = (p+q, p), over p > 0, q >= 0 (l1 - l2 + 1 is the dimension
of the irreducible GL(2)-module of (l1, l2)); its second factor is
(1 - t^2)^-1, not another copy of (1 - t)^-1, which the regression tests
pin down.

Only the dominant weights dx >= dy are computed; ``family_dim`` and
``image_dim`` read the mirrored bidegree for dx < dy.  The swap
sigma: x1 <-> x2 is an automorphism of the free algebra that sends
commutator products to commutator products, so it maps the bidegree-(dx, dy)
proper component onto the (dy, dx) one and the two have the same dimension.
The generic evaluation of sigma(f) is that of f with the slots of letters 1
and 2 exchanged (a_1 <-> a_2, b_1 <-> b_2, c_1 <-> c_2), a bijection of
coordinates, so the two components have the same evaluation rank too.  These
are also the only weights ``gl2_decomposition`` reads.

The ranks are read at x1 = E11 (``matrep.proper_image_rank``).  A proper f
is unchanged by x1 -> x1 + t * 1, and a real symmetric X1 is
O (m I + (l - m) E11) O^T with O orthogonal, so for f of x1-degree d,
f(X1, X2) = (l - m)^d * O f(E11, O^T X2 O) O^T: f is a weak identity iff
f(E11, X2) vanishes for generic X2.  The first row still suffices:
P E11 P = E22 = I - E11 for P = [[0, 1], [1, 0]], so
P f(E11, X2) P = (-1)^d f(E11, X2'), where X2' is X2 with a_2 <-> c_2, a
bijection of coordinates.  In total degree n a coordinate's x2-exponents
fix d, so the rank over a family of several bidegrees (``tail_family``) is
the generic one too.  With dx >= dy, E11 takes the letter of the higher
degree.
"""

from __future__ import annotations

from functools import lru_cache

from .freealg import comm, two_var_commutator, two_var_commutator_family
from .linalg import rank
from .matrep import proper_image_rank

__all__ = [
    "closed_form_series",
    "family_dim",
    "image_dim",
    "family_dims",
    "image_dims",
    "intersection_dims",
    "gl2_decomposition",
    "gl2_intersection_decomposition",
    "tail_family",
    "tail_family_spans_image",
    "degree6_relations",
]


def closed_form_series(n_max):
    """Coefficients of 1 + t^2 (1-t)^-2 (1-t^2)^-1 through degree n_max."""
    if n_max < 0:
        raise ValueError("truncation order must be >= 0")
    out = [0] * (n_max + 1)
    out[0] = 1
    for m in range(0, n_max - 1):
        # coefficient of t^m in (1-t)^-2 (1-t^2)^-1
        out[m + 2] += sum(m - 2 * j + 1 for j in range(m // 2 + 1))
    return out


@lru_cache(maxsize=None)
def _family(dx, dy):
    if dx < 1 or dy < 1:
        return ()
    return tuple(two_var_commutator_family(dx, dy))


@lru_cache(maxsize=None)
def family_dim(dx, dy):
    """Dimension of the two-variable proper component of bidegree (dx, dy),
    read from (dy, dx) when dx < dy (the mirror of the module docstring):
    the rank of the family's term dicts, whose columns are the words
    themselves."""
    if dx < dy:
        return family_dim(dy, dx)
    return rank([f.terms for f in _family(dx, dy)])


@lru_cache(maxsize=None)
def image_dim(dx, dy):
    """Rank of the generic evaluation on the bidegree-(dx, dy) component,
    read from (dy, dx) when dx < dy (the mirror of the module docstring),
    at x1 = E11."""
    if dx < dy:
        return image_dim(dy, dx)
    family = _family(dx, dy)
    if not family:
        return 0
    return proper_image_rank(family)


def _total(dim_fn, n):
    if n == 0:
        return 1
    return sum(dim_fn(dx, n - dx) for dx in range(1, n))


def family_dims(n_max):
    return [_total(family_dim, n) for n in range(n_max + 1)]


def image_dims(n_max):
    """Graded dimensions of the two-variable proper algebra modulo the weak
    identities of the symmetric-matrix pair."""
    return [_total(image_dim, n) for n in range(n_max + 1)]


def intersection_dims(n_max):
    """Graded dimensions of the weak identities inside the proper component."""
    return [f - i for f, i in zip(family_dims(n_max), image_dims(n_max))]


def gl2_decomposition(n, dim_fn=family_dim):
    """GL(2) multiplicities from weight-space dimensions: the multiplicity of
    (l1, l2) is dim(l1, l2) - dim(l1 + 1, l2 - 1)."""
    out = {}
    for l2 in range(0, n // 2 + 1):
        l1 = n - l2
        if l1 < l2:
            continue
        m = dim_fn(l1, l2) - (dim_fn(l1 + 1, l2 - 1) if l2 >= 1 else 0)
        if m < 0:
            raise ValueError(f"negative multiplicity for {(l1, l2)}")
        if m:
            out[(l1, l2)] = m
    return out


def gl2_intersection_decomposition(n):
    def diff(dx, dy):
        return family_dim(dx, dy) - image_dim(dx, dy)

    return gl2_decomposition(n, diff)


def tail_family(n):
    """The reduced spanning family ([y,x](ad x)^k(ad y)^l) [y,x]^(q-1) in
    total degree n (k + l + 2q = n, q >= 1)."""
    out = []
    bracket = two_var_commutator(0, 0)
    for q in range(1, n // 2 + 1):
        rest = n - 2 * q
        for k in range(rest + 1):
            l = rest - k
            head = two_var_commutator(k, l)
            out.append(head * bracket ** (q - 1))
    return out


def tail_family_spans_image(n_max):
    """True iff the reduced family has full evaluation rank in every degree."""
    for n in range(2, n_max + 1):
        fam = tail_family(n)
        if proper_image_rank(fam) != _total(image_dim, n):
            return False
    return True


def degree6_relations():
    """The three degree-6 two-variable weak identities:
    [[y,x,x,x],[y,x]],  [y,x,x]^2 + [y,x,x,x][y,x],  [[y,x,y],[y,x,x]] + 4[y,x]^3."""
    w = two_var_commutator
    r1 = comm(w(2, 0), w(0, 0))
    r2 = w(1, 0) * w(1, 0) + w(2, 0) * w(0, 0)
    r3 = comm(w(0, 1), w(1, 0)) + 4 * (w(0, 0) ** 3)
    return r1, r2, r3

