"""Exact sparse linear algebra over the rationals.

Every rank, kernel and subspace comparison in the toolkit runs through this
module.  There is no floating point anywhere.  A vector is a plain dict
{column: number}; a number is an int, or a ``Fraction`` only where a
denominator above 1 appears.  The elimination engine works on
content-normalized integer rows (a scalar multiple of a row spans the same
space, so scale-free integer arithmetic is both exact and fast), and integer
input reaches it without building a single ``Fraction``.

Row spaces are presented in reduced row echelon form.  RREF is unique for a
given row space, so results do not depend on the order in which vectors are
fed in.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "Subspace",
    "echelonize",
    "rank",
    "left_kernel",
    "subspace_intersect",
]

_STRIP_EVERY = 8  # axpy steps between content reductions of a work vector


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


def _int_row_scaled(vec):
    """(row, den, g): the content-1 integer row den / g * vec, zeros dropped."""
    den = lcm(*(v.denominator for v in vec.values()))
    row = {c: v.numerator * (den // v.denominator) for c, v in vec.items() if v}
    g = gcd(*row.values()) or 1
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    return row, den, g


def _int_row(vec):
    """Clear denominators: a vector -> a fresh content-1 integer dict."""
    return _int_row_scaled(vec)[0]


class _Builder:
    """Forward Gaussian elimination on integer rows, one pivot per column."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}  # pivot column -> integer row dict

    def reduce(self, v):
        """Destructively reduce v against the stored rows; returns v."""
        rows = self.rows
        steps = 0
        while v:
            lead = min(v)
            row = rows.get(lead)
            if row is None:
                break
            a = row[lead]
            b = v.pop(lead)
            # v := a*v - b*row ; the lead entries cancel exactly
            if a != 1:
                for c in v:
                    v[c] *= a
            for c, x in row.items():
                if c == lead:
                    continue
                y = v.get(c, 0) - b * x
                if y:
                    v[c] = y
                else:
                    v.pop(c, None)
            steps += 1
            if steps % _STRIP_EVERY == 0 and v:
                _strip(v)
        return _strip(v) if v else v

    def add(self, v):
        """Insert a (destructible) integer row; True if the dimension grew."""
        v = self.reduce(v)
        if not v:
            return False
        self.rows[min(v)] = v
        return True

    def contains(self, v):
        return not self.reduce(v)


def _back_substitute(rows):
    """Turn forward-echelon rows (pivot -> row) into RREF, in place."""
    pivots = sorted(rows)
    for i in range(len(pivots) - 1, -1, -1):
        p = pivots[i]
        rp = rows[p]
        a = rp[p]
        for q in pivots[:i]:
            rq = rows[q]
            b = rq.get(p)
            if not b:
                continue
            for c in rq:
                rq[c] *= a
            for c, x in rp.items():
                y = rq.get(c, 0) - b * x
                if y:
                    rq[c] = y
                else:
                    rq.pop(c, None)
            _strip(rq)


class Subspace:
    """A vector subspace of Q^N held as a reduced row echelon basis.

    Internally rows are content-1 integer vectors; the ``rows`` property
    materializes the usual pivot-is-1 RREF as dicts.  Instances are
    conceptually immutable: RREF finalization is a cached, deterministic
    normalization and every query is read-only.
    """

    __slots__ = ("_rows", "_finalized", "_rref")

    def __init__(self, rows):
        self._rows = rows  # pivot column -> content-1 integer row
        self._finalized = False
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

    def _finalize(self):
        if not self._finalized:
            _back_substitute(self._rows)
            self._finalized = True

    @property
    def rows(self):
        """RREF rows in increasing pivot order: dicts with pivot value 1 and
        keys in increasing column order.  Every caller gets the same cached
        dicts, so they are read-only."""
        if self._rref is None:
            self._finalize()
            out = []
            for p in sorted(self._rows):
                piv = self._rows[p][p]
                out.append({c: Fraction(v, piv) if v % piv else v // piv
                            for c, v in sorted(self._rows[p].items())})
            self._rref = tuple(out)
        return self._rref

    def contains(self, vec):
        b = _Builder()
        b.rows = self._rows
        return b.contains(_int_row(vec))

    def _canonical(self):
        self._finalize()
        return {p: tuple(sorted(row.items())) for p, row in self._rows.items()}

    def __eq__(self, other):
        if isinstance(other, Subspace):
            return self._canonical() == other._canonical()
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._canonical().items()))

    def __repr__(self):
        return f"<Subspace dim={self.dim} pivots={self.pivots[:8]}{'...' if self.dim > 8 else ''}>"


def echelonize(vectors, *, stop_dim=None, presort=True):
    """Reduced row echelon basis of the span of the given vectors.

    ``stop_dim`` aborts insertion once that dimension is reached; callers use
    it only when the span is independently known to be capped at stop_dim.
    ``presort`` feeds short vectors first, which keeps pivot rows sparse; the
    final RREF does not depend on it.
    """
    rows = [_int_row(v) for v in vectors]
    if presort:
        rows.sort(key=lambda r: (len(r), sorted(r.items())))
    b = _Builder()
    for r in rows:
        if b.add(r) and stop_dim is not None and len(b.rows) >= stop_dim:
            break
    return Subspace(b.rows)


def rank(vectors):
    return echelonize(vectors).dim


def left_kernel(rows):
    """RREF basis of { c : sum_i c_i * rows_i = 0 }, coordinates = row indices.

    Implemented by eliminating rows augmented with an identity block; a row
    whose original part dies leaves its combination recorded in the id block.
    Input rows are scaled to integers for the elimination, so the recorded
    combinations refer to the scaled rows and are mapped back at the end.
    """
    scaled = [_int_row_scaled(r) for r in rows]
    offset = 0
    for r, _, _ in scaled:
        if r:
            offset = max(offset, max(r) + 1)
    b = _Builder()
    for i, (r, _, _) in enumerate(scaled):
        aug = dict(r)
        aug[offset + i] = 1
        b.add(aug)
    kvecs = []
    for p, row in b.rows.items():
        if p >= offset:
            # c_i applies to den_i / g_i * rows_i, so c_i * den_i / g_i
            # applies to rows_i; scaling by the lcm of the g_i keeps it integral
            m = lcm(*(scaled[c - offset][2] for c in row))
            vec = {}
            for c, v in row.items():
                _, den, g = scaled[c - offset]
                vec[c - offset] = v * den * (m // g)
            kvecs.append(vec)
    return echelonize(kvecs, presort=False)


def subspace_intersect(a, b):
    """Zassenhaus: eliminate [u|u] rows for a and [w|0] rows for b; rows whose
    left block vanishes carry a basis of the intersection in the right block.
    Any basis of a and b will do, so the stored integer rows are stacked."""
    offset = 1 + max((c for s in (a, b) for r in s._rows.values() for c in r),
                     default=-1)
    builder = _Builder()
    for r in a._rows.values():
        d = dict(r)
        d.update({c + offset: v for c, v in r.items()})
        builder.add(d)
    for r in b._rows.values():
        builder.add(dict(r))
    vecs = []
    for p, row in builder.rows.items():
        if p >= offset:
            vecs.append({c - offset: v for c, v in row.items()})
    return echelonize(vecs, presort=False)
