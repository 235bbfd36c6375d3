"""Family oracles used only by the tests.

None is on the verification path: the scalar normalization
``normalized``, substitution by multiplying the substituted polynomials
factor by factor with a product of its own, the proper family over all
orderings of each block, the one-letter moves built as polynomials, and
the unit specializations and the base built by substitution and
deduplicated by ``normalized``.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, product
from math import lcm

from weakid.freealg import (NcPoly, _deglex, circ, coeff_vector, from_coeffs,
                            left_normed, multilinear_words, substitute,
                            word_index)
from weakid.tideal import _arity, consequences_span


def normalized(f):
    """Scalar-normalized form of f: leading (deg-lex) coefficient 1."""
    if not f.terms:
        return f
    c = f.terms[min(f.terms, key=_deglex)]
    if c == 1:
        return f
    return NcPoly._raw({w: Fraction(v, c) for w, v in f.terms.items()})


def moves_by_words(gens, n):
    """(left, right, expanded): x_j * r, r * x_j and r[x_i -> x_i o x_j] for
    i < j, for each letter j of 1..n and each RREF row r of
    ``consequences_span(gens, n - 1)``, through word form: the row read as a
    polynomial (``from_coeffs``), relabelled onto the letters other than j
    (``substitute``), multiplied by x_j or with x_i replaced by
    ``circ(x_i, x_j)`` (``substitute``), and read back over the columns of
    ``multilinear_words(n)`` (``coeff_vector``)."""
    if n == 1:
        return [], [], []
    index = word_index(multilinear_words(n))
    words = multilinear_words(n - 1)
    rows = consequences_span(gens, n - 1).rows
    x = NcPoly.variable
    left, right, expanded = [], [], []
    for j in range(1, n + 1):
        relabel = {i: x(i + (i >= j)) for i in range(1, n)}
        moved = [substitute(from_coeffs(row, words), relabel) for row in rows]
        left += [coeff_vector(x(j) * r, index) for r in moved]
        right += [coeff_vector(r * x(j), index) for r in moved]
        for i in range(1, j):
            expand = {l: x(l) for l in range(1, n + 1)}
            expand[i] = circ(x(i), x(j))
            expanded += [coeff_vector(substitute(r, expand), index)
                         for r in moved]
    return left, right, expanded


def specializations_by_substitution(gens, n):
    """The nonzero unit specializations of degree n: each generator with all
    but n of its slots set to 1 and x_1, ..., x_n in the others, in order,
    by ``substitute``."""
    out = []
    for f in gens:
        k = _arity(f)
        for kept in combinations(range(1, k + 1), n):
            subs = {s: NcPoly.one() for s in range(1, k + 1)}
            subs.update((s, NcPoly.variable(i)) for i, s in enumerate(kept, 1))
            g = substitute(f, subs)
            if not g.is_zero():
                out.append(g)
    return out


def base_by_normalized(gens, n):
    """Each unit specialization in every relabelling of x_1, ..., x_n, the
    first of each ``normalized`` class, listed in the order of the classes'
    primitive integer rows over ``multilinear_words(n)``: the normalized
    form, whose lead is 1, times the lcm of its denominators."""
    index = word_index(multilinear_words(n))
    classes = {}
    for g in specializations_by_substitution(gens, n):
        for perm in permutations(range(1, n + 1)):
            h = NcPoly._raw({tuple(perm[l - 1] for l in w): c
                             for w, c in g.terms.items()})
            classes.setdefault(normalized(h), h)

    def primitive_row(f):
        den = lcm(*(Fraction(c).denominator for c in f.terms.values()))
        return sorted((index[w], int(c * den)) for w, c in f.terms.items())

    return [classes[f] for f in sorted(classes, key=primitive_row)]


def _multiply(a, b):
    """Product of two word -> coefficient dicts; zero sums are dropped at
    the end, not as they appear."""
    out = {}
    for (w1, c1), (w2, c2) in product(a.items(), b.items()):
        out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def substitute_by_products(f, subs):
    """sum_w c_w * subs[w_1] * ... * subs[w_m], one factor at a time."""
    total = {}
    for w, c in f.terms.items():
        term = {(): c}
        for i in w:
            term = _multiply(term, subs[i].terms)
        for u, v in term.items():
            total[u] = total.get(u, 0) + v
    return NcPoly(total)


def block_commutators_all_orderings(block):
    """Left-normed commutators over all k! orderings of a block, kept once
    up to scalar (k!/2 of them for k >= 2)."""
    seen = {}
    for perm in permutations(block):
        p = left_normed(*(NcPoly.variable(i) for i in perm))
        seen.setdefault(normalized(p), p)
    return tuple(seen.values())


def set_partitions_min2(elems):
    """Set partitions of elems into blocks of size >= 2, blocks sorted by
    min: the block of the least element, then a partition of the rest."""
    elems = sorted(elems)
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    for r in range(1, len(rest) + 1):
        for mates in combinations(rest, r):
            remaining = [e for e in rest if e not in mates]
            if len(remaining) != 1:
                for tail in set_partitions_min2(remaining):
                    yield ((first,) + mates,) + tail


def proper_family_all_orderings(n):
    """Products of all-orderings block commutators over the set partitions
    of {1..n} into blocks of size >= 2, factors in block order: a spanning
    family of the proper component, not a basis."""
    out = []
    for blocks in set_partitions_min2(range(1, n + 1)):
        choices = [block_commutators_all_orderings(b) for b in blocks]
        out.extend(reduce(lambda a, b: a * b, combo) for combo in product(*choices))
    return out
