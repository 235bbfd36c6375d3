"""Linear-algebra oracles used only by the tests.

None of these is on the verification path: a right-kernel basis built from
the public RREF, a left kernel that eliminates its id-block rows a second
time, a rank mod 2 with one bit per column index, subspace sums and intersections, and an independent modular engine
(ranks over Q recomputed mod large primes; rank mod p can only drop, so
agreement certifies).
"""

import random
from fractions import Fraction

from weakid.linalg import Subspace, _int_row, echelonize, rank


def kernel_basis(rows, ncols):
    """RREF basis of { v in Q^ncols : M v = 0 } for the matrix with the given rows."""
    for r in rows:
        for c, v in r.items():
            if v and c >= ncols:
                raise ValueError(f"row index {c} out of range for {ncols} columns")
    space = echelonize(rows)
    pivot_set = set(space.pivots)
    vecs = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = {free: Fraction(1)}
        for p, row in zip(space.pivots, space.rows):
            val = row.get(free)
            if val:
                v[p] = -val
        vecs.append(v)
    return echelonize(vecs)


def left_kernel_eliminated_twice(rows):
    """The left kernel by two eliminations: the id-block rows of the
    augmented elimination, shifted back and eliminated again by
    ``echelonize``."""
    offset = 1 + max((c for r in rows for c in r), default=-1)
    space = Subspace({})
    for i, r in enumerate(rows):
        space._add(_int_row({**r, offset + i: 1}))
    return echelonize([{c - offset: v for c, v in row.items()}
                       for p, row in space._rows.items() if p >= offset])


def rank_mod2_lowest_bit(rows):
    """Rank over GF(2) of integer rows, each a bitset of its odd entries
    with bit c for column c, reduced by XOR against the pivot rows keyed by
    their lowest set bit.  Columns must be small ints: column c costs a
    c-bit int."""
    pivots = {}
    for row in rows:
        v = sum(1 << c for c, x in row.items() if x & 1)
        while v:
            low = v & -v
            p = pivots.get(low)
            if p is None:
                pivots[low] = v
                break
            v ^= p
    return len(pivots)


def subspace_sum(a, b):
    vecs = list(a.rows) + list(b.rows)
    return echelonize(vecs)


def subspace_intersect(a, b):
    """Zassenhaus: eliminate [u|u] for the rows u of a and [w|0] for the rows
    w of b; the RREF rows whose left block vanishes carry a basis of the
    intersection in the right block."""
    offset = 1 + max((c for s in (a, b) for r in s.rows for c in r), default=-1)
    stacked = echelonize([{**u, **{c + offset: v for c, v in u.items()}}
                          for u in a.rows] + list(b.rows))
    return echelonize([{c - offset: v for c, v in r.items()}
                       for p, r in zip(stacked.pivots, stacked.rows)
                       if p >= offset])


# -- modular engine -------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n):
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits=62, rng=None):
    rng = rng or random
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(n):
            return n


def _mod_rows(vectors, p):
    out = []
    for vec in vectors:
        d = {}
        for c, v in vec.items():
            f = Fraction(v)
            if f.denominator % p == 0:
                raise ZeroDivisionError(f"denominator divisible by {p}")
            x = f.numerator * pow(f.denominator, -1, p) % p
            if x:
                d[c] = x
        out.append(d)
    return out


def rref_mod(vectors, p):
    """RREF over GF(p): returns {pivot: row-dict} with pivot value 1."""
    rows = {}
    for v in _mod_rows(vectors, p):
        while v:
            lead = min(v)
            row = rows.get(lead)
            if row is None:
                inv = pow(v[lead], -1, p)
                rows[lead] = {c: x * inv % p for c, x in v.items()}
                v = None
                break
            b = v.pop(lead)
            for c, x in row.items():
                if c == lead:
                    continue
                y = (v.get(c, 0) - b * x) % p
                if y:
                    v[c] = y
                else:
                    v.pop(c, None)
    pivots = sorted(rows)
    for i in range(len(pivots) - 1, -1, -1):
        piv = pivots[i]
        rp = rows[piv]
        for q in pivots[:i]:
            rq = rows[q]
            b = rq.get(piv)
            if not b:
                continue
            for c, x in rp.items():
                y = (rq.get(c, 0) - b * x) % p
                if y:
                    rq[c] = y
                else:
                    rq.pop(c, None)
    return rows


def rank_mod(vectors, p):
    return len(rref_mod(vectors, p))


def modular_rank_check(vectors, *, primes=None, seed=2026):
    """True iff the exact rank agrees with the rank modulo two large primes."""
    if primes is None:
        rng = random.Random(seed)
        p1 = random_prime(rng=rng)
        p2 = random_prime(rng=rng)
        while p2 == p1:
            p2 = random_prime(rng=rng)
        primes = (p1, p2)
    exact = rank(vectors)
    try:
        return all(rank_mod(vectors, p) == exact for p in primes)
    except ZeroDivisionError:
        return modular_rank_check(vectors, seed=seed + 1)
