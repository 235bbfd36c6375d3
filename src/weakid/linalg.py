"""Exact linear algebra over the rationals, on dict vectors.

Every rank, kernel (``left_kernel``), intersection dimension
(``intersection_dim``) and subspace comparison in the toolkit runs through
this module.  All but two go through its one elimination engine:
``Subspace.contains_all`` tests many vectors at once against the RREF rows
by subtraction alone, and ``rank_mod2`` is only a lower bound on a rank,
and reads rows with any column keys, such as an evaluation walk's.  There
is no floating point anywhere.  A vector is a plain dict {column: number};
a number is an int, or a ``Fraction`` only where a denominator above 1
appears.  The elimination engine works on content-normalized integer rows
(a scalar multiple of a row spans the same space, so scale-free integer
arithmetic is both exact and fast), and integer input reaches it without
building a single ``Fraction``.

Row spaces are held in reduced row echelon form as they are built
(Gauss-Jordan), so a row is reduced in one pass over its pivot entries.
RREF is unique for a given row space, so results do not depend on the
order in which vectors are fed in.
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
    """Clear denominators: a vector -> a fresh integer dict.  Its content is
    left to ``_strip``, where every caller ends."""
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
    a positive lead and zero at every other pivot; ``_add`` keeps that
    invariant as the space is built.  The ``rows`` property divides each by
    its lead and materializes the usual pivot-is-1 RREF as dicts.  Once
    built, instances are conceptually immutable: that read is a cached,
    deterministic normalization and every query is read-only.
    """

    __slots__ = ("_rows", "_rref")

    def __init__(self, rows):
        self._rows = rows  # pivot column -> reduced content-1 integer row
        self._rref = None

    @classmethod
    def zero(cls):
        return cls({})

    @property
    def dim(self):
        return len(self._rows)

    @property
    def pivots(self):
        """Pivot columns in increasing order."""
        return tuple(sorted(self._rows))

    @property
    def rows(self):
        """RREF rows in increasing pivot order: dicts with pivot value 1 and
        keys in increasing column order.  Every caller gets the same cached
        dicts, so they are read-only; the stored rows are left as they are."""
        if self._rref is None:
            out = []
            for p in sorted(self._rows):
                piv = self._rows[p][p]
                out.append({c: Fraction(v, piv) if v % piv else v // piv
                            for c, v in sorted(self._rows[p].items())})
            self._rref = tuple(out)
        return self._rref

    def _reduce(self, v):
        """Destructively reduce an integer row v against the stored rows and
        strip it; returns v.  One pass over v's pivot entries, in any order:
        a stored row is zero at every other pivot, so subtracting it changes
        no other pivot entry of v, and the result is the same."""
        rows = self._rows
        for p in v.keys() & rows.keys():
            row = rows[p]
            _axpy(v, row[p], v[p], row)  # the entries at p cancel exactly
        return _strip(v)

    def _add(self, v):
        """Insert a (destructible) integer row while the space is built, and
        clear its pivot from every stored row."""
        v = self._reduce(v)
        if not v:
            return
        p = min(v)
        a = v[p]
        rows = self._rows
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
        if v and min(v) not in self._rows:
            return False
        return not self._reduce(v)

    def contains_all(self, vectors):
        """True iff every vector lies in the space, read off the RREF rows
        with no elimination.

        A member v is a combination sum_p c_p * rref_p over the pivots p.
        An RREF row is 1 at its own pivot and 0 at every other pivot, so
        reading that combination at pivot p gives c_p = v[p]: the pivot
        entries fix the only possible combination, and v lies in the space
        iff v - sum_p v[p] * rref_p is zero.  Entries may be int or
        Fraction; explicit zeros are dropped.  Every pivot entry of v is
        subtracted before a non-member is told apart, so a single query,
        likely a non-member, is cheaper through ``contains``, which stops
        when the least column is not a pivot.
        """
        by_pivot = dict(zip(self.pivots, self.rows))
        for v in vectors:
            w = {c: x for c, x in v.items() if x}
            # subtracting rref_p leaves every other pivot entry of w as it is
            for p in by_pivot.keys() & w.keys():
                b = w[p]
                for c, x in by_pivot[p].items():
                    y = w.get(c, 0) - b * x
                    if y:
                        w[c] = y
                    else:
                        del w[c]
            if w:
                return False
        return True

    def __eq__(self, other):
        if isinstance(other, Subspace):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(tuple(tuple(row.items()) for row in self.rows))

    def __repr__(self):
        return f"<Subspace dim={self.dim} pivots={self.pivots[:8]}{'...' if self.dim > 8 else ''}>"


def echelonize(vectors, *, stop_dim=None):
    """Reduced row echelon basis of the span of the given vectors.

    The vectors are inserted in the order given, each reduced in one pass
    against the rows before it; a row that meets no earlier pivot is stored
    as it stands.  The span does not depend on the order, but the work
    does: callers pass rows in an order that does not change between runs.
    ``stop_dim`` aborts insertion once that dimension is reached; callers
    use it only when the span is independently known to be capped at
    stop_dim.
    """
    space = Subspace({})
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
