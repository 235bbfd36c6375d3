"""Evaluation of free-algebra elements on generic symmetric 2x2 matrices.

Each variable x_i is sent to [[a_i, b_i], [b_i, c_i]] with fresh commuting
indeterminates, so a polynomial vanishes identically under this generic
substitution iff it vanishes for every substitution of symmetric 2x2
matrices over any commutative Q-algebra.  Over an exact field this makes the
generic test a complete weak-identity test, multilinear or not.

Commutative monomials are sorted tuples of slot ids; slot 3*(i-1)+0/1/2 is
a_i / b_i / c_i.  A word evaluates to a matrix whose entries have integer
coefficients, so its evaluation row is an integer vector.  ``eval_table``
builds those rows once per word universe (a sorted tuple of words), and the
rank, kernel and certification passes read them from there.  The weak
identity test and the witness search read the generic coordinates of the one
polynomial they are given, from the same prefix-stack walk and the same
``poly_eval_row``.  The independent evaluation oracle the tests check all of
this against lives in ``tests/``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .freealg import DictPoly, NcPoly
from .linalg import Subspace, echelonize, left_kernel, rank

__all__ = [
    "CommPoly",
    "SymMat2",
    "eval_rows",
    "eval_table",
    "is_weak_identity",
    "weak_identity_witness",
    "Witness",
    "weak_identity_kernel",
    "image_rank",
    "weak_identities_within",
    "BASIS_MATRICES",
]


def slot_a(i):
    return 3 * (i - 1)


def slot_b(i):
    return 3 * (i - 1) + 1


def slot_c(i):
    return 3 * (i - 1) + 2


class CommPoly(DictPoly):
    """Commutative polynomial over Q in the generic matrix entries."""

    __slots__ = ()

    @classmethod
    def const(cls, c):
        return cls._raw({(): c} if c else {})

    @classmethod
    def variable(cls, slot):
        return cls._raw({(slot,): 1})

    def __mul__(self, other):
        if isinstance(other, CommPoly):
            t = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = tuple(sorted(m1 + m2))
                    s = t.get(m, 0) + c1 * c2
                    if s:
                        t[m] = s
                    else:
                        del t[m]
            return CommPoly._raw(t)
        return self.scale(other)

    def __repr__(self):
        return f"CommPoly({self.terms!r})"


class SymMat2:
    """2x2 matrix with CommPoly entries.

    Generic substitutions are symmetric (e12 == e21); products of symmetric
    matrices need not be, so the type carries all four entries.
    """

    __slots__ = ("e11", "e12", "e21", "e22")

    def __init__(self, e11, e12, e21, e22):
        self.e11, self.e12, self.e21, self.e22 = e11, e12, e21, e22

    @classmethod
    def generic(cls, i):
        """Generic symmetric matrix [[a_i, b_i], [b_i, c_i]] for variable i."""
        a = CommPoly.variable(slot_a(i))
        b = CommPoly.variable(slot_b(i))
        c = CommPoly.variable(slot_c(i))
        return cls(a, b, b, c)

    @classmethod
    def identity(cls):
        one = CommPoly.const(1)
        zero = CommPoly.zero()
        return cls(one, zero, zero, one)

    def __mul__(self, other):
        return SymMat2(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def entries(self):
        return (self.e11, self.e12, self.e21, self.e22)

    def __repr__(self):
        return f"SymMat2{self.entries()!r}"


# -- evaluation coordinate vectors -------------------------------------------


def _coords(mat):
    """Sparse coordinates {(entry, monomial): value} of a SymMat2."""
    out = {}
    for e, p in enumerate(mat.entries()):
        for m, c in p.terms.items():
            out[(e, m)] = c
    return out


def _walk(words):
    """Yield (word, generic value) for each distinct word in sorted order.

    A prefix stack keeps the values of the current word's prefixes, so a set
    of words costs one matrix product per distinct prefix.
    """
    stack = [SymMat2.identity()]
    prev = ()
    for w in sorted(set(words)):
        k = 0
        while k < len(prev) and k < len(w) and prev[k] == w[k]:
            k += 1
        del stack[k + 1:]
        for letter in w[k:]:
            stack.append(stack[-1] * SymMat2.generic(letter))
        yield w, stack[-1]
        prev = w


def eval_rows(words):
    """Coordinate dicts of the generic evaluation of each word."""
    table = {w: _coords(m) for w, m in _walk(words)}
    return [table[w] for w in words]


# Word universes eval_table keeps.  A proof run reads one universe per
# degree, and the Hilbert series reads each bidegree once, so a small bound
# costs no recomputation while keeping long sessions from holding every
# table they ever built.
_TABLES = 8


@lru_cache(maxsize=_TABLES)
def eval_table(words):
    """(index, rows) for a sorted tuple of words: index maps each word to its
    row, and rows are the integer evaluation rows with columns numbered by
    (entry, monomial) in deg-lex order."""
    rows = eval_rows(words)
    keys = set()
    for row in rows:
        keys.update(row)
    ordered = sorted(keys, key=lambda k: (len(k[1]), k[1], k[0]))
    columns = {k: i for i, k in enumerate(ordered)}
    return ({w: i for i, w in enumerate(words)},
            tuple({columns[k]: v for k, v in row.items()} for row in rows))


def poly_eval_row(f, word_rows, index):
    """Evaluation coordinates of f as a combination of word rows.

    The word rows are integral, so f's coefficients are scaled by their
    common denominator, summed as ints and divided once at the end.
    """
    den = lcm(*(c.denominator for c in f.terms.values()))
    acc = {}
    for w, c in f.terms.items():
        c = c.numerator * (den // c.denominator)
        for k, v in word_rows[index[w]].items():
            s = acc.get(k, 0) + c * v
            if s:
                acc[k] = s
            else:
                del acc[k]
    if den != 1:
        acc = {k: Fraction(v, den) for k, v in acc.items()}
    return acc


def _generic_coords(f):
    """Coordinates {(entry, monomial): value} of f at generic symmetric
    matrices, from a walk over f's own words (no shared table grows)."""
    walk = list(_walk(f.terms))
    index = {w: i for i, (w, _) in enumerate(walk)}
    return poly_eval_row(f, [_coords(m) for _, m in walk], index)


# -- weak identity testing ----------------------------------------------------


def is_weak_identity(f):
    """True iff f vanishes under the generic symmetric substitution."""
    return not _generic_coords(f)


# E11, E12 + E21, E22: a basis of the symmetric 2x2 matrices.
BASIS_MATRICES = (
    ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))),
    ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
    ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))),
)


@dataclass(frozen=True)
class Witness:
    """A failing substitution: symmetric matrices and the nonzero value."""

    assignment: dict
    value: tuple

    def lines(self):
        out = []
        for i in sorted(self.assignment):
            out.append(f"x{i} = {_fmt_mat(self.assignment[i])}")
        out.append(f"value = {_fmt_mat(self.value)}")
        return out


def _fmt_mat(rows):
    return "[[" + ", ".join(str(v) for v in rows[0]) + "], [" + \
        ", ".join(str(v) for v in rows[1]) + "]]"


def weak_identity_witness(f):
    """A symmetric substitution where f does not vanish, or None.

    Multilinear input is answered over the basis {E11, E12+E21, E22} per
    variable (a complete test set for multilinear polynomials): the
    substitution x_v = basis[k_v] sends the monomial with slot 3*(v-1)+k_v
    for every v to 1 and every other monomial to 0, so the lexicographically
    first failing basis substitution is the least (slot mod 3 per variable)
    over the nonzero coordinates, and its value is the four entries at that
    monomial.  Other input is substituted into the coordinates at seeded
    small random symmetric matrices (seed 0); a nonvanishing polynomial fails
    on small integers quickly.
    """
    coords = _generic_coords(f)
    if not coords:
        return None
    variables = sorted(f.support())
    if f.is_multilinear():
        choice = min(tuple(s % 3 for s in m) for _, m in coords)
        m = tuple(slot_a(v) + k for v, k in zip(variables, choice))
        e = [coords.get((i, m), 0) for i in range(4)]
        return Witness({v: BASIS_MATRICES[k] for v, k in zip(variables, choice)},
                       ((e[0], e[1]), (e[2], e[3])))
    rng = random.Random(0)
    while True:
        mats, point = {}, {}
        for v in variables:
            a, b, c = (Fraction(rng.randint(-3, 3)) for _ in range(3))
            mats[v] = ((a, b), (b, c))
            point[slot_a(v)], point[slot_b(v)], point[slot_c(v)] = a, b, c
        e = [0] * 4
        for (i, m), c in coords.items():
            for s in m:
                c *= point[s]
            e[i] += c
        if any(e):
            return Witness(mats, ((e[0], e[1]), (e[2], e[3])))


# -- kernels of the evaluation map --------------------------------------------


def _family_rows(family):
    degs = {len(w) for f in family for w in f.terms}
    if len(degs) > 1:
        raise ValueError(f"family mixes total degrees {sorted(degs)}")
    words = tuple(sorted({w for f in family for w in f.terms}))
    index, word_rows = eval_table(words)
    return [poly_eval_row(f, word_rows, index) for f in family]


def weak_identity_kernel(family):
    """Kernel of (coefficients over the family) -> (generic evaluation).

    The result is an RREF subspace in the coordinates of the family list: its
    vectors are exactly the weak identities lying in the span of the family.
    """
    family = list(family)
    if not family:
        return Subspace.zero()
    return left_kernel(_family_rows(family))


def image_rank(family):
    """Rank of the generic evaluation restricted to the span of the family."""
    family = list(family)
    if not family:
        return 0
    return rank(_family_rows(family))


def weak_identities_within(family, index):
    """Word-coordinate subspace of span(family) consisting of weak identities.

    ``index`` maps words to columns; use the full multilinear word universe to
    compare kernels of different families in one ambient space.
    """
    from .freealg import coeff_vector

    family = list(family)
    kern = weak_identity_kernel(family)
    vecs = []
    for row in kern.rows:
        g = NcPoly.zero()
        for i, c in row.items():
            g = g + family[i].scale(c)
        vecs.append(coeff_vector(g, index))
    return echelonize(vecs, presort=False)
