"""Arithmetic in the free associative algebra Q<x1, x2, ...>.

Words are tuples of variable indices (1-based); the empty word is the unit.
A polynomial is a finite map word -> nonzero coefficient, an int or a
``Fraction`` only where a denominator above 1 appears, so integer input
stays integral through every operation.  The module also builds the spanning
families the rest of the toolkit consumes: all multilinear words of degree
n, the multilinear proper polynomials (products of left-normed commutators),
and the two-variable commutator-product families.

Terms are added into a term dict in one place, ``_add_terms``, which drops
every word whose coefficient cancels: the constructor, sums, differences and
substitution all go through it.  The inner loops that run once per pair of
terms or per nonzero entry keep the same few lines inline instead
(``_times`` here, ``matrep.poly_eval_row`` and ``matrep._times_generic``, the
two row updates in ``linalg``), because a call per entry costs more than the
loop body itself.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, reduce
from numbers import Rational

from .linalg import echelonize

__all__ = [
    "NcPoly",
    "comm",
    "left_normed",
    "circ",
    "involution",
    "standard_poly",
    "substitute",
    "linearize",
    "perm_sign",
    "multilinear_words",
    "word_index",
    "set_partitions",
    "coeff_vector",
    "from_coeffs",
    "proper_family",
    "proper_span",
    "two_var_commutator",
    "two_var_commutator_family",
    "render",
]


def _deglex(word):
    return (len(word), word)


def _exact(c):
    """c as an int when it is integral, else as a Fraction; floats are refused."""
    if type(c) is int:
        return c
    if not isinstance(c, Rational):
        raise TypeError(f"coefficients must be exact rationals, not {c!r}")
    return c.numerator if c.denominator == 1 else Fraction(c)


def _add_terms(t, pairs):
    """Add (word, coefficient) pairs into the term dict t, dropping each word
    whose coefficient cancels; returns t."""
    for w, c in pairs:
        s = t.get(w, 0) + c
        if s:
            t[w] = s if s.__class__ is int or s.denominator != 1 else s.numerator
        else:
            t.pop(w, None)
    return t


def _times(a, b):
    """Product of two term dicts, as a new term dict."""
    t = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            s = t.get(w, 0) + c1 * c2
            if s:
                t[w] = s if s.__class__ is int or s.denominator != 1 else s.numerator
            else:
                del t[w]
    return t


class NcPoly:
    """Noncommutative polynomial: finite map from words to nonzero rationals."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        pairs = terms.items() if isinstance(terms, dict) else terms or ()
        self.terms = _add_terms({}, ((tuple(w), _exact(c)) for w, c in pairs))
        self._hash = None

    @classmethod
    def _raw(cls, terms):
        p = cls.__new__(cls)
        p.terms = terms
        p._hash = None
        return p

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls._raw({(): 1})

    @classmethod
    def variable(cls, i):
        if i < 1:
            raise ValueError("variable indices start at 1")
        return cls._raw({(i,): 1})

    @classmethod
    def scalar(cls, c):
        c = _exact(c)
        return cls._raw({(): c} if c else {})

    # -- module structure ------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return NcPoly._raw(_add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return NcPoly._raw(_add_terms(dict(self.terms),
                                      ((w, -c) for w, c in other.terms.items())))

    def __neg__(self):
        return NcPoly._raw({w: -c for w, c in self.terms.items()})

    def scale(self, c):
        c = _exact(c)
        if not c:
            return NcPoly.zero()
        return NcPoly._raw({w: _exact(v * c) for w, v in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, NcPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # -- ring structure ------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, NcPoly):
            return NcPoly._raw(_times(self.terms, other.terms))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("exponents must be >= 0")
        out = NcPoly.one()
        for _ in range(k):
            out = out * self
        return out

    # -- structure queries ----------------------------------------------

    def support(self):
        """Set of variable indices occurring in the polynomial."""
        s = set()
        for w in self.terms:
            s.update(w)
        return s

    def multidegree(self):
        """Common multidegree {var: count}, or None if not multihomogeneous."""
        md = None
        for w in self.terms:
            d = {}
            for i in w:
                d[i] = d.get(i, 0) + 1
            if md is None:
                md = d
            elif md != d:
                return None
        return md if md is not None else {}

    def degree(self):
        """Common total degree; None for 0 or inhomogeneous polynomials."""
        degs = {len(w) for w in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def is_multilinear(self):
        md = self.multidegree()
        return md is not None and all(v == 1 for v in md.values())

    def __repr__(self):
        return f"NcPoly({render(self)!r})"


def comm(f, g):
    """Commutator [f, g] = fg - gf."""
    return f * g - g * f


def left_normed(*args):
    """Left-normed commutator [a1, ..., ak] = [[a1, ..., a_{k-1}], ak]."""
    if len(args) < 2:
        raise ValueError("left-normed commutators need at least 2 arguments")
    return reduce(comm, args)


def circ(f, g):
    """Jordan circle product f o g = fg + gf."""
    return f * g + g * f


def involution(f):
    """Word-reversing involution: (x_{i1}...x_{in})* = x_{in}...x_{i1}."""
    return NcPoly._raw({w[::-1]: c for w, c in f.terms.items()})


def perm_sign(perm):
    """Sign of a permutation given as a sequence of distinct comparables."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def standard_poly(k):
    """Standard polynomial S_k = sum over Sym(k) of sgn(s) x_{s(1)}...x_{s(k)}."""
    if k < 1:
        raise ValueError("standard polynomial needs k >= 1")
    t = {}
    for perm in itertools.permutations(range(1, k + 1)):
        t[perm] = perm_sign(perm)
    return NcPoly._raw(t)


def substitute(f, subs):
    """Substitution homomorphism: each variable i is replaced by subs[i].

    Each word's factors are multiplied into one working dict, starting from
    its coefficient, and the product is added into a single output dict."""
    out = {}
    for w, c in f.terms.items():
        acc = {(): c}
        for i in w:
            try:
                value = subs[i]
            except KeyError:
                raise KeyError(f"variable x{i} has no substitution value") from None
            acc = _times(acc, value.terms)
        _add_terms(out, acc.items())
    return NcPoly._raw(out)


def linearize(f):
    """Full multilinearization of a multihomogeneous polynomial.

    A variable of degree d is split into d fresh variables; the multilinear
    component of the expansion is returned, with fresh variables renumbered
    1..n (copies of the smallest original variable first).  Specializing all
    copies of a variable back to one recovers (prod d_i!) * f, so in
    characteristic 0 membership questions transfer both ways.
    """
    md = f.multidegree()
    if md is None:
        raise ValueError("polynomial is not multihomogeneous")
    fresh = {}  # a variable of degree 1 -> its one fresh variable
    repeated, orders = [], []  # the other variables, each's fresh orders
    nxt = 1
    for v in sorted(md):
        if md[v] == 1:
            fresh[v] = nxt
        else:
            repeated.append(v)
            orders.append(list(itertools.permutations(
                range(nxt, nxt + md[v]))))
        nxt += md[v]
    t = {}
    for w, c in f.terms.items():
        base = list(map(fresh.get, w))
        positions = [[p for p, x in enumerate(w) if x == v] for v in repeated]
        for assignment in itertools.product(*orders):
            nw = base[:]
            for pos, perm in zip(positions, assignment):
                for p, x in zip(pos, perm):
                    nw[p] = x
            # a fresh word determines its source word and its slot choice
            t[tuple(nw)] = c
    return NcPoly._raw(t)


# -- canonical word universes ------------------------------------------------


@lru_cache(maxsize=None)
def multilinear_words(n):
    """All n! multilinear words on x1..xn in lexicographic order."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    return tuple(itertools.permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def word_index(words):
    """Column index {word: position} of a tuple of words, built once per
    word universe."""
    return {w: i for i, w in enumerate(words)}


def coeff_vector(f, index):
    """Coefficient dict of f over a word -> column index map."""
    out = {}
    for w, c in f.terms.items():
        try:
            out[index[w]] = c
        except KeyError:
            raise ValueError(f"word {w} outside the column universe") from None
    return out


def from_coeffs(vec, words):
    """Inverse of coeff_vector for a vector over the given word list."""
    return NcPoly({words[c]: v for c, v in vec.items()})


# -- proper (commutator-product) spanning families ---------------------------


def set_partitions(elems, k):
    """Set partitions of a collection of distinct comparable elements into
    at most k blocks, each an increasing tuple, the blocks in increasing
    order of their least elements."""
    elems = sorted(elems)
    blocks = []

    def grow(i):
        if i == len(elems):
            yield tuple(map(tuple, blocks))
            return
        e = elems[i]
        for b in blocks:
            b.append(e)
            yield from grow(i + 1)
            b.pop()
        if len(blocks) < k:
            blocks.append([e])
            yield from grow(i + 1)
            blocks.pop()

    return grow(0)


@lru_cache(maxsize=None)
def _block_commutators(block):
    """The (k - 1)! left-normed commutators [x_m, x_s(2), ..., x_s(k)] over a
    block of k letters whose least letter x_m comes first: the classical
    basis of its multilinear Lie elements (Reutenauer, *Free Lie Algebras*,
    1993).  Each has x_m x_s(2) ... x_s(k) as its one term starting with x_m,
    so they are independent; there are (k - 1)! = dim Lie(k) of them."""
    first = NcPoly.variable(block[0])
    return tuple(left_normed(first, *(NcPoly.variable(i) for i in perm))
                 for perm in itertools.permutations(block[1:]))


def proper_family(n):
    """Basis of the multilinear proper polynomials of degree n: the products
    of block commutators (``_block_commutators``) over the set partitions of
    {1..n} into blocks of size >= 2 (so at most n // 2 blocks), factors in
    block order.  Every left-normed commutator on a block is a combination
    of that block's basis, so these products span what the products over
    all orderings span; there are sum prod (|B| - 1)! of them, the number of derangements
    of n (a cycle on each block), which is that span's dimension.  An RREF
    is unique, so ``proper_span`` does not depend on the family chosen."""
    if n < 2:
        return []
    out = []
    for blocks in set_partitions(range(1, n + 1), n // 2):
        if any(len(b) < 2 for b in blocks):
            continue
        factor_choices = [_block_commutators(b) for b in blocks]
        for combo in itertools.product(*factor_choices):
            out.append(reduce(lambda a, b: a * b, combo))
    return out


@lru_cache(maxsize=None)
def proper_span(n):
    """Echelonized multilinear proper component of degree n, in the
    coordinates of multilinear_words(n)."""
    index = word_index(multilinear_words(n))
    return echelonize([coeff_vector(f, index) for f in proper_family(n)])


# -- two-variable commutator products (x = x1, y = x2) -----------------------

X, Y = 1, 2


@lru_cache(maxsize=None)
def two_var_commutator(k, l):
    """[y, x] (ad x)^k (ad y)^l as a polynomial in x1 (= x) and x2 (= y)."""
    args = [NcPoly.variable(Y), NcPoly.variable(X)]
    args += [NcPoly.variable(X)] * k + [NcPoly.variable(Y)] * l
    return left_normed(*args)


def _factor_shapes(x_deg, y_deg):
    """Ordered tuples ((k1,l1),...,(km,lm)) with sum(ki+1)=x_deg, sum(li+1)=y_deg."""
    if x_deg == 0 and y_deg == 0:
        yield ()
        return
    if x_deg < 1 or y_deg < 1:
        return
    for k in range(x_deg):
        for l in range(y_deg):
            for tail in _factor_shapes(x_deg - 1 - k, y_deg - 1 - l):
                yield ((k, l),) + tail


def two_var_commutator_family(x_deg, y_deg):
    """Spanning family of the two-variable proper component of bidegree
    (x_deg, y_deg): all products of [y,x](ad x)^k(ad y)^l factors."""
    if x_deg + y_deg < 2:
        raise ValueError("total degree must be >= 2")
    out = []
    for shape in _factor_shapes(x_deg, y_deg):
        if not shape:
            continue
        out.append(reduce(lambda a, b: a * b,
                          (two_var_commutator(k, l) for k, l in shape)))
    return out


# -- canonical text rendering -------------------------------------------------


def _term_str(word, coeff):
    body = "*".join(f"x{i}" for i in word)
    if not word:
        return str(coeff)
    if coeff == 1:
        return body
    return f"{coeff}*{body}"


def render(f):
    """Canonical text form: deg-lex term order, `*` products, p/q coefficients."""
    if not f.terms:
        return "0"
    parts = []
    for w in sorted(f.terms, key=_deglex):
        c = f.terms[w]
        if not parts:
            parts.append(_term_str(w, c) if c > 0 else "-" + _term_str(w, -c))
        else:
            sign = " + " if c > 0 else " - "
            parts.append(sign + _term_str(w, abs(c)))
    return "".join(parts)
