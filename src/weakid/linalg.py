"""Exact sparse linear algebra over the rationals.

Every rank, kernel and subspace comparison in the toolkit runs through this
module.  There is no floating point anywhere: vectors carry ``Fraction``
values at the interface, and the elimination engine works on
content-normalized integer rows (a scalar multiple of a row spans the same
space, so scale-free integer arithmetic is both exact and fast).

Row spaces are presented in reduced row echelon form.  RREF is unique for a
given row space, so results do not depend on the order in which vectors are
fed in.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = [
    "SparseVec",
    "Subspace",
    "echelonize",
    "rank",
    "left_kernel",
    "subspace_intersect",
]

_STRIP_EVERY = 8  # axpy steps between content reductions of a work vector


def _as_pairs(entries):
    if isinstance(entries, SparseVec):
        return entries.pairs
    if isinstance(entries, dict):
        return entries.items()
    return entries


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


def _int_row_scaled(entries):
    """(integer row, s) with row = s * entries, s a positive rational."""
    acc = {}
    for c, v in _as_pairs(entries):
        f = Fraction(v)
        if f:
            acc[c] = acc.get(c, Fraction(0)) + f
    acc = {c: f for c, f in acc.items() if f}
    if not acc:
        return {}, Fraction(1)
    den = 1
    for f in acc.values():
        d = f.denominator
        den = den // gcd(den, d) * d
    row = {c: int(f * den) for c, f in acc.items()}
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g != 1:
        for c in row:
            row[c] //= g
    return row, Fraction(den, g)


def _int_row(entries):
    """Clear denominators: rational entries -> content-1 integer dict."""
    return _int_row_scaled(entries)[0]


class SparseVec:
    """Immutable sorted sparse vector with Fraction values."""

    __slots__ = ("pairs",)

    def __init__(self, entries=()):
        if isinstance(entries, SparseVec):
            self.pairs = entries.pairs
            return
        acc = {}
        for c, v in _as_pairs(entries):
            f = Fraction(v)
            if f:
                c = int(c)
                s = acc.get(c, Fraction(0)) + f
                if s:
                    acc[c] = s
                else:
                    del acc[c]
        self.pairs = tuple(sorted(acc.items()))

    def items(self):
        return iter(self.pairs)

    def to_dict(self):
        return dict(self.pairs)

    def get(self, col, default=Fraction(0)):
        for c, v in self.pairs:
            if c == col:
                return v
        return default

    def leading(self):
        """(column, value) of the first nonzero entry, or None."""
        return self.pairs[0] if self.pairs else None

    def __len__(self):
        return len(self.pairs)

    def __bool__(self):
        return bool(self.pairs)

    def __eq__(self, other):
        if isinstance(other, SparseVec):
            return self.pairs == other.pairs
        return NotImplemented

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"SparseVec({list(self.pairs)!r})"


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
    materializes the usual pivot-is-1 rational RREF.  Instances are
    conceptually immutable: RREF finalization is a cached, deterministic
    normalization and every query is read-only.
    """

    __slots__ = ("_rows", "_finalized", "_frac_rows")

    def __init__(self, rows):
        self._rows = rows  # pivot column -> content-1 integer row
        self._finalized = False
        self._frac_rows = None

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
        """RREF rows (pivot value 1) in increasing pivot order."""
        if self._frac_rows is None:
            self._finalize()
            out = []
            for p in sorted(self._rows):
                row = self._rows[p]
                piv = row[p]
                out.append(SparseVec((c, Fraction(v, piv)) for c, v in row.items()))
            self._frac_rows = tuple(out)
        return self._frac_rows

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
    for r, _ in scaled:
        if r:
            offset = max(offset, max(r) + 1)
    b = _Builder()
    for i, (r, _) in enumerate(scaled):
        aug = dict(r)
        aug[offset + i] = 1
        b.add(aug)
    kvecs = []
    for p, row in b.rows.items():
        if p >= offset:
            # c_i applies to s_i * rows_i, so c_i * s_i applies to rows_i
            kvecs.append({c - offset: v * scaled[c - offset][1]
                          for c, v in row.items()})
    return echelonize(kvecs, presort=False)


def subspace_intersect(a, b):
    """Zassenhaus: eliminate [u|u] rows for a and [w|0] rows for b; rows whose
    left block vanishes carry a basis of the intersection in the right block."""
    offset = 0
    for s in (a, b):
        for r in s.rows:
            if r:
                offset = max(offset, r.pairs[-1][0] + 1)
    stacked = []
    for r in a.rows:
        d = r.to_dict()
        d.update({c + offset: v for c, v in r.items()})
        stacked.append(d)
    for r in b.rows:
        stacked.append(r.to_dict())
    builder = _Builder()
    for v in stacked:
        builder.add(_int_row(v))
    vecs = []
    for p, row in builder.rows.items():
        if p >= offset:
            vecs.append({c - offset: v for c, v in row.items()})
    return echelonize(vecs, presort=False)
