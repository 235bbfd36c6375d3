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
rank, kernel and certification passes read them from there; ``evaluate``
stays the independent path the tests check them against.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .freealg import DictPoly, NcPoly, word_index
from .linalg import Subspace, echelonize, left_kernel, rank

__all__ = [
    "CommPoly",
    "SymMat2",
    "generic_assignment",
    "evaluate",
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

_F0 = Fraction(0)


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

    @classmethod
    def zero(cls):
        z = CommPoly.zero()
        return cls(z, z, z, z)

    @classmethod
    def constant(cls, rows):
        (a, b), (c, d) = rows
        return cls(CommPoly.const(a), CommPoly.const(b),
                   CommPoly.const(c), CommPoly.const(d))

    def __mul__(self, other):
        return SymMat2(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def __add__(self, other):
        return SymMat2(self.e11 + other.e11, self.e12 + other.e12,
                       self.e21 + other.e21, self.e22 + other.e22)

    def __sub__(self, other):
        return SymMat2(self.e11 - other.e11, self.e12 - other.e12,
                       self.e21 - other.e21, self.e22 - other.e22)

    def scale(self, c):
        return SymMat2(self.e11 * c, self.e12 * c, self.e21 * c, self.e22 * c)

    def transpose(self):
        return SymMat2(self.e11, self.e21, self.e12, self.e22)

    def entries(self):
        return (self.e11, self.e12, self.e21, self.e22)

    def is_zero(self):
        return not (self.e11 or self.e12 or self.e21 or self.e22)

    def is_symmetric(self):
        return self.e12 == self.e21

    def __eq__(self, other):
        if isinstance(other, SymMat2):
            return self.entries() == other.entries()
        return NotImplemented

    def __repr__(self):
        return f"SymMat2{self.entries()!r}"


def generic_assignment(variables):
    return {i: SymMat2.generic(i) for i in variables}


def evaluate(f, assignment):
    """Evaluation homomorphism; the unit goes to the identity matrix."""
    acc = SymMat2.zero()
    cache = {(): SymMat2.identity()}

    def word_value(w):
        m = cache.get(w)
        if m is None:
            try:
                m = word_value(w[:-1]) * assignment[w[-1]]
            except KeyError:
                raise KeyError(f"variable x{w[-1]} is not assigned") from None
            cache[w] = m
        return m

    for w, c in f.terms.items():
        acc = acc + word_value(w).scale(c)
    return acc


# -- evaluation coordinate vectors -------------------------------------------


def _coords(mat):
    """Sparse coordinates {(entry, monomial): value} of a SymMat2."""
    out = {}
    for e, p in enumerate(mat.entries()):
        for m, c in p.terms.items():
            out[(e, m)] = c
    return out


def eval_rows(words):
    """Coordinate dicts of the generic evaluation of each word.

    Words are processed in sorted order with a prefix stack, so the table for
    all multilinear words of degree n costs one matrix product per distinct
    prefix.
    """
    order = sorted(set(words))
    rows = []
    stack = [SymMat2.identity()]
    prev = ()
    for w in order:
        k = 0
        while k < len(prev) and k < len(w) and prev[k] == w[k]:
            k += 1
        del stack[k + 1:]
        for letter in w[k:]:
            stack.append(stack[-1] * SymMat2.generic(letter))
        rows.append(_coords(stack[-1]))
        prev = w
    table = dict(zip(order, rows))
    return [table[w] for w in words]


@lru_cache(maxsize=None)
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
    return (word_index(words),
            tuple({columns[k]: v for k, v in row.items()} for row in rows))


def poly_eval_row(f, word_rows, index):
    """Evaluation coordinates of f as a combination of word rows."""
    acc = {}
    for w, c in f.terms.items():
        for k, v in word_rows[index[w]].items():
            s = acc.get(k, _F0) + c * v
            if s:
                acc[k] = s
            else:
                del acc[k]
    return acc


# -- weak identity testing ----------------------------------------------------


def is_weak_identity(f):
    """True iff f vanishes under the generic symmetric substitution."""
    if f.is_zero():
        return True
    return evaluate(f, generic_assignment(f.support())).is_zero()


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


def _numeric_value(f, mats):
    assignment = {i: SymMat2.constant(m) for i, m in mats.items()}
    val = evaluate(f, assignment)
    rows = tuple(tuple(p.terms.get((), _F0) for p in row)
                 for row in ((val.e11, val.e12), (val.e21, val.e22)))
    return rows, val.is_zero()


def weak_identity_witness(f):
    """A symmetric substitution where f does not vanish, or None.

    Multilinear inputs are searched over the basis {E11, E12+E21, E22} per
    variable (a complete test set for multilinear polynomials), so the
    returned witness is the lexicographically first failing basis
    substitution.  Other inputs fall back to seeded small random symmetric
    matrices (seed 0); a nonvanishing polynomial fails on small integers
    quickly.
    """
    if is_weak_identity(f):
        return None
    variables = sorted(f.support())
    if f.is_multilinear() and len(variables) <= 6:
        for combo in itertools.product(range(3), repeat=len(variables)):
            mats = {v: BASIS_MATRICES[c] for v, c in zip(variables, combo)}
            rows, zero = _numeric_value(f, mats)
            if not zero:
                return Witness(mats, rows)
    rng = random.Random(0)
    while True:
        mats = {}
        for v in variables:
            a, b, c = (Fraction(rng.randint(-3, 3)) for _ in range(3))
            mats[v] = ((a, b), (b, c))
        rows, zero = _numeric_value(f, mats)
        if not zero:
            return Witness(mats, rows)


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
