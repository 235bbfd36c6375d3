"""Arithmetic in the free associative algebra Q<x1, x2, ...>.

Words are tuples of variable indices (1-based); the empty word is the unit.
A polynomial is a finite map word -> nonzero coefficient, an int or a
``Fraction`` only where a denominator above 1 appears, so integer input
stays integral through every operation.  The module also builds the spanning
families the rest of the toolkit consumes: all multilinear words of degree
n, the multilinear proper polynomials (products of left-normed commutators),
and the two-variable commutator-product families.
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
    if not isinstance(c, Rational):
        raise TypeError(f"coefficients must be exact rationals, not {c!r}")
    return c.numerator if c.denominator == 1 else Fraction(c)


class NcPoly:
    """Noncommutative polynomial: finite map from words to nonzero rationals."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for w, c in terms.items() if isinstance(terms, dict) else terms:
                c = _exact(c)
                if not c:
                    continue
                w = tuple(w)
                s = t.get(w, 0) + c
                if s:
                    t[w] = s
                else:
                    del t[w]
        self.terms = t
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
        t = dict(self.terms)
        for w, c in other.terms.items():
            s = t.get(w, 0) + c
            if s:
                t[w] = s
            else:
                del t[w]
        return NcPoly._raw(t)

    def __sub__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        t = dict(self.terms)
        for w, c in other.terms.items():
            s = t.get(w, 0) - c
            if s:
                t[w] = s
            else:
                del t[w]
        return NcPoly._raw(t)

    def __neg__(self):
        return NcPoly._raw({w: -c for w, c in self.terms.items()})

    def scale(self, c):
        c = _exact(c)
        if not c:
            return NcPoly.zero()
        return NcPoly._raw({w: v * c for w, v in self.terms.items()})

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
            t = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    w = w1 + w2
                    s = t.get(w, 0) + c1 * c2
                    if s:
                        t[w] = s
                    else:
                        del t[w]
            return NcPoly._raw(t)
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

    def normalized(self):
        """Scalar-normalized form: leading (deg-lex) coefficient 1."""
        if not self.terms:
            return self
        lead = min(self.terms, key=_deglex)
        c = self.terms[lead]
        if c == 1:
            return self
        return NcPoly._raw({w: Fraction(v, c) for w, v in self.terms.items()})

    def __repr__(self):
        return f"NcPoly({render(self)!r})"


def comm(f, g):
    """Commutator [f, g] = fg - gf."""
    return f * g - g * f


def left_normed(*args):
    """Left-normed commutator [a1, ..., ak] = [[a1, ..., a_{k-1}], ak]."""
    if len(args) == 1 and isinstance(args[0], (list, tuple)):
        args = tuple(args[0])
    if len(args) < 2:
        raise ValueError("left-normed commutators need at least 2 arguments")
    return reduce(comm, args)


def circ(f, g):
    """Jordan circle product f o g = fg + gf."""
    return f * g + g * f


def involution(f):
    """Word-reversing involution: (x_{i1}...x_{in})* = x_{in}...x_{i1}."""
    t = {}
    for w, c in f.terms.items():
        rw = w[::-1]
        s = t.get(rw, 0) + c
        if s:
            t[rw] = s
        else:
            del t[rw]
    return NcPoly._raw(t)


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
    """Substitution homomorphism: each variable i is replaced by subs[i]."""
    cache = {}

    def word_value(w):
        if w in cache:
            return cache[w]
        out = NcPoly.one()
        for i in w:
            try:
                out = out * subs[i]
            except KeyError:
                raise KeyError(f"variable x{i} has no substitution value") from None
        cache[w] = out
        return out

    acc = NcPoly.zero()
    for w, c in f.terms.items():
        acc = acc + word_value(w).scale(c)
    return acc


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
    slots = {}
    nxt = 1
    for v in sorted(md):
        slots[v] = list(range(nxt, nxt + md[v]))
        nxt += md[v]
    t = {}
    for w, c in f.terms.items():
        positions = {v: [] for v in md}
        for pos, v in enumerate(w):
            positions[v].append(pos)
        choices = [itertools.permutations(slots[v]) for v in sorted(md)]
        for assignment in itertools.product(*choices):
            nw = list(w)
            for v, perm in zip(sorted(md), assignment):
                for pos, fresh in zip(positions[v], perm):
                    nw[pos] = fresh
            nw = tuple(nw)
            s = t.get(nw, 0) + c
            if s:
                t[nw] = s
            else:
                del t[nw]
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


def _set_partitions_min2(elems):
    """Set partitions of elems into blocks of size >= 2, blocks sorted by min."""
    elems = sorted(elems)
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    for r in range(1, len(rest) + 1):
        for mates in itertools.combinations(rest, r):
            block = (first,) + mates
            remaining = [e for e in rest if e not in mates]
            if len(remaining) == 1:
                continue
            for tail in _set_partitions_min2(remaining):
                yield (block,) + tail


@lru_cache(maxsize=None)
def _block_commutators(block):
    """Left-normed commutators over all orderings of a block, deduplicated
    up to scalar."""
    seen = {}
    for perm in itertools.permutations(block):
        p = left_normed(*(NcPoly.variable(i) for i in perm))
        seen.setdefault(p.normalized(), p)
    return tuple(seen.values())


def proper_family(n):
    """Spanning family of the multilinear proper polynomials of degree n:
    all products of left-normed commutators over set partitions of {1..n}
    into blocks of size >= 2, factors in block order."""
    if n < 2:
        return []
    out = []
    for blocks in _set_partitions_min2(range(1, n + 1)):
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
