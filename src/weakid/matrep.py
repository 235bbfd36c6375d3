"""Evaluation of free-algebra elements on generic symmetric 2x2 matrices.

Each variable x_i is sent to [[a_i, b_i], [b_i, c_i]] with fresh commuting
indeterminates, so a polynomial vanishes identically under this generic
substitution iff it vanishes for every substitution of symmetric 2x2
matrices over any commutative Q-algebra.  Over an exact field this makes the
generic test a complete weak-identity test, multilinear or not.

x1 needs only its diagonal.  Every real symmetric X1 is O diag(l, m) O^T
with O orthogonal, and conjugation commutes with every polynomial, so

    f(X1, X2, ...) = O f(diag(l, m), O^T X2 O, ...) O^T

with every O^T X_i O symmetric: f vanishes at all real symmetric matrices,
hence generically, iff f(diag(a1, c1), X2, ...) does with X2, ... generic.
So letter 1 is diag(a1, c1), b1 never occurs, and every span keeps its
kernel, hence its rank.

Slot 3*(i-1)+0/1/2 is a_i / b_i / c_i, and matrix entries are numbered
2*row + column.  A matrix over these polynomials is held only as the
coordinate dict {key: number} of its first row, one key per (entry,
commutative monomial).
Inside one walk over a list of words the key is a packed int,

    key = entry + 4 * sum_s e_s * 2**(w*s),

where e_s is the exponent of slot s and the width w is exactly the bit
length of the most times one letter occurs in one word of the walk (1 for
multilinear words; only words that repeat a letter are counted).  The walk
chooses the width (``_width``), so callers pass words alone and the key
format stays inside this module; it yields rows in the order of the words
given (sorted words share prefixes).  No field carries into the next: each
occurrence of letter i raises the exponent of exactly one of its slots a_i,
b_i, c_i by one, so a slot's exponent is at most the number of times its
letter occurs, which is below 2**w.  A product with a letter adds one
precomputed int per coordinate and output entry.  Keys of different walks
are not comparable; ``_decode`` turns a key back into (entry, sorted tuple
of slots), and is applied once per final coordinate (the weak identity test
and the witness), never per row entry.

Only the first row is evaluated.  Conjugating by P = [[0, 1], [1, 0]]
sends X_i = [[a_i, b_i], [b_i, c_i]] (b_1 = 0 included) to the same matrix
with a_i and c_i swapped, and (P M P)[r][k] = M[1 - r][1 - k].  Since
f(P X P) = P f(X) P for every polynomial f, entry 3 - e of f(X) is entry e
of f(X) with every a_i and c_i swapped: the second row is the first row
reflected.  The reflection is a bijection of coordinates, so the first row
alone has the same zero test, the same rank and the same kernel as the
whole matrix.  Only the witness, which reports all four entries, rebuilds
the second row (``_reflected``).

A word evaluates to a matrix whose entries have integer coefficients, so its
evaluation row is an integer dict.  Every rank and kernel reads the rows of
one walk, keyed by its packed ints, as they come: neither depends on the
names or the order of the columns.  The kernel bound ranks the multilinear
rows mod 2, and the exact kernel dimension the words of each content in x1,
x2, x3 (``tideal._cocharacter``).  ``image_rank`` reads each word universe
of the Hilbert series once, so it evaluates each family member by its own
terms over the {word: row} dict of one walk, with no word index.  The weak
identity test (which also certifies the consequence family) and the witness
search read, the same way, the generic coordinates of the one polynomial
they are given.  The independent evaluation oracle the tests check all of
this against lives in ``tests/``.

A proper polynomial (a combination of products of commutators) needs less:
it may be evaluated at x1 = E11 (``proper_rows``, ``proper_image_rank``).
Such an f does not change under x1 -> x1 + t * 1, and diag(l, m) =
m I + (l - m) E11, so if f is homogeneous of degree d in x1,

    f(diag(l, m), X2, ...) = (l - m)^d * f(E11, X2, ...),

and by the diagonalization above f is a weak identity iff f(E11, X2, ...)
vanishes with X2, ... generic.  A first row times E11 keeps its column-0
entries with their keys unchanged, so x1 owns no slot.  The first row
still suffices: P E11 P = E22 = I - E11, so P f(E11, X) P = f(I - E11, X')
= (-1)^d f(E11, X'), where X' is X with every a_i and c_i swapped, and the
second row is again the first reflected, up to a sign fixed by d.  On a span of
such polynomials the two evaluations have the same kernel, hence the same
rank, as long as each coordinate fixes the x1-degree of what reaches it:
it is 1 on multilinear words, and on words of one total degree in x1 and
x2 it is that degree minus the x2-exponents of the coordinate.  The proper
kernel reads the multilinear E11 rows as they come: its RREF is unique,
whatever the column order.  A polynomial that is not proper breaks this:
x1 [x2, x1] x1 is not a weak identity, but it vanishes at x1 = E11, since
E11 [X, E11] E11 = 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .linalg import echelonize, left_kernel, rank

__all__ = [
    "is_weak_identity",
    "weak_identity_witness",
    "Witness",
    "image_rank",
    "proper_image_rank",
    "weak_identities_within",
    "BASIS_MATRICES",
]


def slot_a(i):
    return 3 * (i - 1)


def slot_c(i):
    return 3 * (i - 1) + 2


# -- evaluation coordinate vectors -------------------------------------------


def _width(words):
    """Bits per slot exponent in a walk's packed keys, exactly: the bit
    length of the most times one letter occurs in one word, counted only in
    the words that repeat a letter (module docstring)."""
    return max((max(map(w.count, w)) if len(set(w)) < len(w) else 1
                for w in words if w), default=0).bit_length()


def _decode(key, width):
    """(entry, sorted tuple of slots) of a packed key of the given width."""
    entry, rest = key & 3, key >> 2
    mask = (1 << width) - 1
    slots = []
    s = 0
    while rest:
        slots.extend((s,) * (rest & mask))
        rest >>= width
        s += 1
    return entry, tuple(slots)


def _steps(i, width):
    """Per first-row entry k of a coordinate, the two key increments of a
    product with [[a_i, b_i], [b_i, c_i]]: entry (0, k) feeds entry (0, j)
    through the slot a_i + k + j, so the entry moves by j - k and that slot's
    exponent by one."""
    return tuple(tuple(j - k + (4 << width * (slot_a(i) + k + j))
                       for j in (0, 1)) for k in (0, 1))


def _times_generic(coords, steps):
    """coords * [[a_i, b_i], [b_i, c_i]], given ``_steps(i, width)``.  Every
    coefficient of a product of generic matrices is a positive integer (each
    factor's are), so no sum cancels and the loop needs no zero check."""
    out = {}
    get = out.get
    for key, v in coords.items():
        d0, d1 = steps[key & 3]
        k = key + d0
        out[k] = get(k, 0) + v
        k = key + d1
        out[k] = get(k, 0) + v
    return out


def _walk(words, width, *, e11=False):
    """Yield each word's first-row coordinates, in the order given, keyed
    by packed ints of the given width (at least ``_width(words)``, and the
    one to decode them with); letter 1 is diag(a1, c1), or E11 with
    ``e11``, and every other letter generic (module docstring).

    A prefix stack keeps the first-row coordinates of the current word's
    prefixes, from the identity's; each word reuses the prefix it shares
    with the last, so sorted words cost one product per distinct prefix, and
    a repeated word yields its row again.  Times diag(a1, c1), entry (0, k)
    keeps its column and gains a1 (k = 0) or c1 (k = 1): the row does not
    branch.
    """
    steps = {}
    diag = (4 << width * slot_a(1), 4 << width * slot_c(1))
    stack = [{0: 1}]
    prev = ()
    for w in words:
        k = 0
        while k < len(prev) and k < len(w) and prev[k] == w[k]:
            k += 1
        del stack[k + 1:]
        for letter in w[k:]:
            if letter != 1:
                if letter not in steps:
                    steps[letter] = _steps(letter, width)
                stack.append(_times_generic(stack[-1], steps[letter]))
            elif e11:
                # times E11: the column-0 entries stay, keys unchanged
                stack.append({key: v for key, v in stack[-1].items()
                              if not key & 3})
            else:
                stack.append({key + diag[key & 3]: v
                              for key, v in stack[-1].items()})
        yield stack[-1]
        prev = w


def eval_rows(words):
    """First-row coordinate dicts (entries 0 and 1) of the words, in the
    order given, at x1 = diag(a1, c1), every other letter generic, keyed by
    the packed ints of one walk (sorted words share prefixes).  They have
    the kernel of the fully generic rows on every span (module docstring)."""
    return list(_walk(words, _width(words)))


def proper_rows(words):
    """``eval_rows`` at x1 = E11: rows to combine proper polynomials from,
    and no others (module docstring)."""
    return list(_walk(words, _width(words), e11=True))


def poly_eval_row(coeffs, word_rows):
    """Evaluation coordinates of sum_i coeffs[i] * word_rows[i].

    ``coeffs`` is keyed like ``word_rows``: by positions when the rows are a
    list (a vector over a word universe, or a kernel row over RREF rows), by
    words when they are the {word: coordinates} dict of one walk (a
    polynomial's own terms).
    The coefficients are scaled by their common denominator, summed and
    divided once at the end.  The rows combined may hold ``Fraction``s too
    (the RREF rows a kernel row recombines); the arithmetic is exact either
    way, and on integral rows it runs on ints alone.
    """
    den = lcm(*(c.denominator for c in coeffs.values()))
    acc = {}
    for i, c in coeffs.items():
        c = c.numerator * (den // c.denominator)
        for k, v in word_rows[i].items():
            s = acc.get(k, 0) + c * v
            if s:
                acc[k] = s
            else:
                del acc[k]
    if den != 1:
        acc = {k: Fraction(v, den) if v % den else v // den
               for k, v in acc.items()}
    return acc


def _generic_coords(f):
    """First-row coordinates {(entry, monomial): value} of f at generic
    symmetric matrices, the least variable diagonal, from a walk over f's
    own words; only the final coordinates are decoded.  f's variables are
    relabelled onto 1..k in increasing order first, since a packed key has a
    field for every slot up to that of the largest label."""
    label = {v: i for i, v in enumerate(sorted(f.support()), 1)}
    terms = {tuple(label[l] for l in w): c for w, c in f.terms.items()}
    words = sorted(terms)
    width = _width(words)
    acc = poly_eval_row(terms, dict(zip(words, _walk(words, width))))
    return {_decode(k, width): v for k, v in acc.items()}


def _reflected(coords):
    """The first-row coordinates with the second row added: (e, m) gives
    (3 - e, m with each a_i and c_i swapped), as the module docstring
    argues."""
    out = dict(coords)
    for (e, m), v in coords.items():
        out[3 - e, tuple(sorted(s + 2 - 2 * (s % 3) for s in m))] = v
    return out


# -- weak identity testing ----------------------------------------------------


def is_weak_identity(f):
    """True iff f vanishes under the generic symmetric substitution."""
    return not _generic_coords(f)


# E11, E12 + E21, E22: a basis of the symmetric 2x2 matrices.
BASIS_MATRICES = (((1, 0), (0, 0)), ((0, 1), (1, 0)), ((0, 0), (0, 1)))


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

    The coordinates number f's variables 1..k in increasing order
    (``_generic_coords``), so the i-th least variable owns the slots
    3*(i-1)+0/1/2.  Multilinear input is answered over the basis
    {E11, E12+E21, E22} per variable (a complete test set for multilinear
    polynomials): the substitution x_v = basis[k_v] sends the monomial with
    the slot 3*(i-1)+k_v of every variable v to 1 and every other monomial
    to 0, so the lexicographically first failing basis substitution is the
    least (slot mod 3 per variable) over the nonzero coordinates of all four
    entries (the second row rebuilt from the first, ``_reflected``), and its
    value is the four entries at that monomial.  x1 diagonal changes none of
    this: a nonzero f has a coordinate with a1 (reflect one with c1), so the
    least choice has x1 = E11, and a monomial with a1 lacks b1.  Other input
    is evaluated exactly at seeded small random symmetric matrices (seed 0);
    a nonvanishing polynomial fails on small integers quickly.
    """
    coords = _generic_coords(f)
    if not coords:
        return None
    variables = sorted(f.support())
    if f.is_multilinear():
        coords = _reflected(coords)
        choice = min(tuple(s % 3 for s in m) for _, m in coords)
        m = tuple(slot_a(i) + k for i, k in enumerate(choice, 1))
        e = [coords.get((i, m), 0) for i in range(4)]
        return Witness({v: BASIS_MATRICES[k] for v, k in zip(variables, choice)},
                       ((e[0], e[1]), (e[2], e[3])))
    rng = random.Random(0)
    while True:
        mats = {}
        for v in variables:
            a, b, c = (rng.randint(-3, 3) for _ in range(3))
            mats[v] = ((a, b), (b, c))
        e = [0] * 4
        for w, c in f.terms.items():
            p, q, r, t = c, 0, 0, c  # c times the identity
            for letter in w:
                (x, y), (_, z) = mats[letter]
                p, q = p * x + q * y, p * y + q * z
                r, t = r * x + t * y, r * y + t * z
            e[0] += p
            e[1] += q
            e[2] += r
            e[3] += t
        if any(e):
            return Witness(mats, ((e[0], e[1]), (e[2], e[3])))


# -- kernels of the evaluation map --------------------------------------------


def image_rank(family):
    """Rank of the generic evaluation restricted to the span of the family:
    each member is evaluated by its own terms over the rows of one walk of
    the family's words, keyed by its packed ints (no word index is built or
    cached)."""
    return _image_rank(family, eval_rows)


def proper_image_rank(family):
    """``image_rank`` of a family of proper polynomials that is multilinear
    or in x1 and x2 alone: the same rank, read at x1 = E11 (module
    docstring)."""
    return _image_rank(family, proper_rows)


def _image_rank(family, rows_of):
    family = list(family)
    if not family:
        return 0
    degs = {len(w) for f in family for w in f.terms}
    if len(degs) > 1:
        raise ValueError(f"family mixes total degrees {sorted(degs)}")
    words = tuple(sorted({w for f in family for w in f.terms}))
    walk = dict(zip(words, rows_of(words)))
    return rank([poly_eval_row(f.terms, walk) for f in family])


def weak_identities_within(space, word_rows):
    """The weak identities inside a subspace of word coordinates.

    ``word_rows`` are the evaluation rows of the words the columns of
    ``space`` number.  The kernel of the evaluation on the RREF rows gives
    the combinations of those rows that vanish.
    """
    rows = space.rows
    kern = left_kernel([poly_eval_row(r, word_rows) for r in rows])
    return echelonize([poly_eval_row(k, rows) for k in kern.rows])
