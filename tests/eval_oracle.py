"""Independent evaluation oracle: plain 2x2 tuple arithmetic.

The package evaluates through one prefix-stack walk and ``poly_eval_row``;
the tests check that path against this one, which shares none of its code.
Matrices are ((m11, m12), (m21, m22)) tuples whose entries are numbers
(numeric substitutions) or ``Comm`` polynomials (the generic substitution
x_i -> [[a_i, b_i], [b_i, c_i]], with slots 3*(i-1) + 0/1/2).
"""

import itertools
from fractions import Fraction

from weakid.matrep import BASIS_MATRICES, eval_rows, poly_eval_row


class Comm:
    """Commutative polynomial {sorted tuple of slots: nonzero coefficient}."""

    def __init__(self, terms):
        self.terms = {m: c for m, c in terms.items() if c}

    def __add__(self, other):
        t = dict(self.terms)
        for m, c in other.terms.items():
            t[m] = t.get(m, 0) + c
        return Comm(t)

    def __mul__(self, other):
        if not isinstance(other, Comm):
            return Comm({m: c * other for m, c in self.terms.items()})
        t = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                t[m] = t.get(m, 0) + c1 * c2
        return Comm(t)


def mat_mul(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def mat_add(a, b):
    return tuple(tuple(p + q for p, q in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    return tuple(tuple(v * c for v in row) for row in a)


def mat_transpose(a):
    return ((a[0][0], a[1][0]), (a[0][1], a[1][1]))


MAT_ZERO = ((Fraction(0),) * 2,) * 2
MAT_ONE = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def brute_eval(f, mats, zero=MAT_ZERO, one=MAT_ONE):
    """Value of f at {variable: matrix}; word values are memoised by prefix."""
    memo = {(): one}

    def value(w):
        m = memo.get(w)
        if m is None:
            m = memo[w] = mat_mul(value(w[:-1]), mats[w[-1]])
        return m

    acc = zero
    for w, c in f.terms.items():
        acc = mat_add(acc, mat_scale(c, value(w)))
    return acc


def generic(i):
    a, b, c = (Comm({(3 * (i - 1) + k,): 1}) for k in range(3))
    return ((a, b), (b, c))


def generic_eval(f):
    """Value of f at generic symmetric matrices, entries ``Comm``."""
    z, u = Comm({}), Comm({(): 1})
    return brute_eval(f, {i: generic(i) for i in f.support()},
                      zero=((z, z), (z, z)), one=((u, z), (z, u)))


def coords(mat):
    """{(entry, monomial): value} of a Comm matrix, entries numbered 0..3
    row by row, as ``matrep`` numbers its coordinates."""
    out = {}
    for e, p in enumerate(p for row in mat for p in row):
        for m, c in p.terms.items():
            out[(e, m)] = c
    return out


def generic_coords(f):
    return coords(generic_eval(f))


def package_coords(f):
    """The package's generic coordinates of f, read through the public
    ``eval_rows`` and ``poly_eval_row``."""
    words = sorted(f.terms)
    return poly_eval_row({i: f.terms[w] for i, w in enumerate(words)},
                         eval_rows(words))


def oracle_is_weak_identity(f):
    return not generic_coords(f)


def basis_substitutions(f):
    """(assignment, value) of f at every basis substitution, in
    itertools.product(BASIS_MATRICES) order over the sorted variables."""
    variables = sorted(f.support())
    for combo in itertools.product(BASIS_MATRICES, repeat=len(variables)):
        mats = dict(zip(variables, combo))
        yield mats, brute_eval(f, mats)


def first_failing_basis_substitution(f):
    """The first basis substitution where f does not vanish, or None."""
    for mats, value in basis_substitutions(f):
        if value != MAT_ZERO:
            return mats, value
    return None
