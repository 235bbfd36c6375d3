"""Exact linear algebra over the rationals, on dict vectors.

Every rank, kernel (``left_kernel``), intersection dimension
(``intersection_dim``) and subspace comparison in the toolkit runs through
this module.  All but one go through its one elimination engine:
``rank_mod2`` is only a lower bound on a rank, and reads rows with any
column keys, such as an evaluation walk's.  There is no floating point
anywhere.  A vector is a plain dict {column: number}; a number is an int,
or a ``Fraction`` only where a denominator above 1 appears.  The
elimination engine works on content-normalized integer rows (a scalar
multiple of a row spans the same space, so scale-free integer arithmetic
is both exact and fast), and integer input reaches it without building a
single ``Fraction``.

Row spaces are held in reduced row echelon form as they are built
(Gauss-Jordan), so a row is reduced in one pass over its pivot entries.
RREF is unique for a given row space, so results do not depend on the
order in which vectors are fed in.

A space may be seeded with fixed reducers, an echelon block reduced
within itself and stored as given (``echelonize``).  A new pivot is then
cleared from the built rows only, and the reducers are cleared at the
built pivots once, when the stored rows are first read: the split of F4's
linear algebra into known pivot rows and new rows (Faugere and Lachartre,
PASCO 2010).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "Subspace",
    "echelonize",
    "rank",
    "rank_mod2",
    "left_kernel",
    "intersection_dim",
]


def _strip(row):
    """Divide an integer row by its content and make the leading entry positive."""
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        for c in row:
            row[c] //= g
    return row


def _int_row(vec):
    """Clear denominators: a vector -> a fresh integer dict, copied as it
    stands when every entry is an int.  Its content is left to ``_strip``,
    where every caller ends."""
    if set(map(type, vec.values())) <= {int}:
        return {c: v for c, v in vec.items() if v}
    den = lcm(*(v.denominator for v in vec.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in vec.items() if v}


def _axpy(row, a, b, v):
    """row := a*row - b*v, in place, dropping the entries that cancel."""
    if a != 1:
        for c in row:
            row[c] *= a
    for c, x in v.items():
        y = row.get(c, 0) - b * x
        if y:
            row[c] = y
        else:
            row.pop(c, None)


class Subspace:
    """A vector subspace of Q^N held as a reduced row echelon basis.

    Internally rows are integer vectors, one per pivot, each content-1 with
    a positive lead and zero at every other pivot.  They sit in two dicts,
    pivot column -> row: the fixed reducers (``echelonize``), none for most
    spaces, and the rows ``_add`` builds, kept so as the space is built.  A
    reducer may still meet a built pivot until ``_rows``, the one reader of
    the stored rows, clears it there and merges the dicts.  The merged rows
    are unique for the space, so ``==`` compares them and ``hash`` reads
    the pivots, neither building the RREF.  The ``rows`` property divides
    each by its lead and materializes the usual pivot-is-1 RREF as dicts.
    Once built, instances are conceptually immutable: those reads are
    cached, deterministic normalizations and every query is read-only.
    """

    __slots__ = ("_built", "_fixed", "_rref")

    def __init__(self, rows, fixed=None):
        self._built = rows  # pivot column -> reduced content-1 integer row
        self._fixed = fixed or {}  # pivot column -> reducer, as given
        self._rref = None

    @classmethod
    def zero(cls):
        return cls({})

    @property
    def dim(self):
        return len(self._built) + len(self._fixed)

    @property
    def pivots(self):
        """Pivot columns in increasing order."""
        return tuple(sorted([*self._built, *self._fixed]))

    @property
    def _rows(self):
        """The stored rows, pivot column -> reduced content-1 integer row.
        The first read clears each reducer at the built pivots in one pass,
        in any order: a built row is zero at every other pivot, and its
        entries lie beyond its pivot, hence beyond the reducer's lead, so
        subtracting it moves neither the lead nor another pivot entry."""
        built, fixed = self._built, self._fixed
        if fixed:
            for q, row in fixed.items():
                met = row.keys() & built.keys()
                for p in met:
                    b = built[p]
                    _axpy(row, b[p], row[p], b)  # b[p] > 0 keeps row[q] positive
                if met and row[q] != 1:
                    _strip(row)
            built.update(fixed)
            self._fixed = {}
        return built

    @property
    def rows(self):
        """RREF rows in increasing pivot order: dicts with pivot value 1 and
        keys in increasing column order.  Every caller gets the same cached
        dicts, so they are read-only; they are built from ``_rows``, which
        they leave as it is."""
        if self._rref is None:
            stored = self._rows
            out = []
            for p in sorted(stored):
                piv = stored[p][p]
                out.append({c: Fraction(v, piv) if v % piv else v // piv
                            for c, v in sorted(stored[p].items())})
            self._rref = tuple(out)
        return self._rref

    def _reduce(self, v):
        """Destructively reduce an integer row v against the stored rows and
        strip it; returns v.  One pass over v's entries at the reducer
        pivots, then one over those at the built pivots, each in any order:
        a stored row is zero at every other pivot of its own dict, so
        subtracting it changes no other such entry of v.  A reducer may add
        entries at built pivots, which the second pass takes; a built row is
        zero at every reducer pivot, so it adds none back."""
        for rows in (self._fixed, self._built):
            for p in v.keys() & rows.keys():
                row = rows[p]
                _axpy(v, row[p], v[p], row)  # the entries at p cancel exactly
        return _strip(v)

    def _add(self, v):
        """Insert a (destructible) integer row while the space is built, and
        clear its pivot from every built row; the reducers keep theirs until
        ``_rows`` is read."""
        v = self._reduce(v)
        if not v:
            return
        p = min(v)
        a = v[p]
        rows = self._built
        for q, row in [(q, row) for q, row in rows.items() if p in row]:
            _axpy(row, a, row[p], v)  # a > 0 keeps the lead row[q] positive
            if row[q] != 1:  # a lead of 1 leaves no content to divide out
                _strip(row)
        rows[p] = v

    def contains(self, vec):
        """True iff vec lies in the space.  A member's least column is a
        pivot, so a vector whose least column is not one is told apart at
        once; any other is reduced."""
        v = _int_row(vec)
        if v:
            lead = min(v)
            if lead not in self._built and lead not in self._fixed:
                return False
        return not self._reduce(v)

    def __eq__(self, other):
        if isinstance(other, Subspace):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self):
        return hash(self.pivots)

    def __repr__(self):
        return f"<Subspace dim={self.dim} pivots={self.pivots[:8]}{'...' if self.dim > 8 else ''}>"


def echelonize(vectors, *, stop_dim=None, reducers=()):
    """Reduced row echelon basis of the span of the given vectors.

    The vectors are inserted in the order given, each reduced in one pass
    against the rows before it; a row that meets no earlier pivot is stored
    as it stands.  The span does not depend on the order, but the work
    does: callers pass rows in an order that does not change between runs.
    ``stop_dim`` aborts insertion once that dimension is reached; callers
    use it only when the span is independently known to be capped at
    stop_dim.

    ``reducers`` are integer rows with distinct leads, each content-1 with
    a positive lead and zero at the others' leads.  They are stored as
    given, not copied (the space owns them), and count towards
    ``stop_dim``; the vectors are reduced against them first.
    """
    space = Subspace({}, {min(r): r for r in reducers})
    for v in vectors:
        if stop_dim is not None and space.dim >= stop_dim:
            break
        space._add(_int_row(v))
    return space


def rank(vectors):
    return echelonize(vectors).dim


def rank_mod2(rows):
    """Rank over GF(2) of integer rows, a lower bound on their rank over Q.

    Rows independent mod 2 have a maximal minor that is odd, hence nonzero,
    so they are independent over Q: rank_mod2(rows) <= rank(rows).  Each row
    is a bitset of its odd entries, the columns numbered as first seen (any
    hashable key, a large one no dearer than a small one), reduced by XOR
    against the pivot rows keyed by their highest set bit.
    """
    bits = {}  # column -> its bit
    pivots = {}
    for row in rows:
        v = 0
        for c, x in row.items():
            if x & 1:
                b = bits.get(c)
                if b is None:
                    b = bits[c] = 1 << len(bits)
                v |= b
        while v:
            top = v.bit_length()
            p = pivots.get(top)
            if p is None:
                pivots[top] = v
                break
            v ^= p
    return len(pivots)


def left_kernel(rows):
    """RREF basis of { c : sum_i c_i * rows_i = 0 }, coordinates = row indices.

    Implemented by eliminating rows augmented with an identity block; a row
    whose original part dies leaves its combination recorded in the id block.
    Denominators are cleared from each augmented row as a whole, so the id
    block records combinations of the rows as given.  A stored row that
    leads in the id block has no entry outside it, and it is zero at every
    other pivot: shifted back, these rows are the kernel's reduced rows as
    they stand.
    """
    offset = 1 + max((c for r in rows for c in r), default=-1)
    space = Subspace({})
    for i, r in enumerate(rows):
        space._add(_int_row({**r, offset + i: 1}))
    return Subspace({p - offset: {c - offset: v for c, v in row.items()}
                     for p, row in space._rows.items() if p >= offset})


def intersection_dim(a, b):
    """dim(a ∩ b) = dim a + dim b - dim(a + b), the sum spanned by the stored
    integer rows of both subspaces."""
    return a.dim + b.dim - rank([*a._rows.values(), *b._rows.values()])
