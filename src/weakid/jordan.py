"""Multilinear components of the free special Jordan algebra.

The free special Jordan algebra is the circle-closure of the generators
inside the free associative algebra.  Its multilinear component on a variable
set S is spanned by products u o v over proper bipartitions S = S1 | S2, so
it is built by recursion on the set and echelonized.  The consequence
engine does not read these bases: it substitutes Jordan elements one circle
at a time, x_i -> x_i o x_j (``tideal``).

Classical facts made executable here: every circle-closed element is fixed by
the word-reversing involution, reversible elements w + w* coincide with the
circle-closure on at most 3 variables (Cohn), and from 4 variables on the
containment is strict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .freealg import (NcPoly, circ, coeff_vector, comm, from_coeffs,
                      multilinear_words, set_partitions, word_index)
from .linalg import Subspace, echelonize

__all__ = [
    "JordanSpan",
    "reversible",
    "sj_multilinear_span",
    "reversible_span",
    "cohn_check",
    "bracket_span_check",
]


@dataclass(frozen=True)
class JordanSpan:
    """Echelonized multilinear Jordan component on a fixed variable set."""

    space: Subspace
    basis: tuple


def reversible(w):
    """w + w* (twice w for palindromes)."""
    word = tuple(w)
    return NcPoly({word: 1}) + NcPoly({word[::-1]: 1})


def _words_on(varset):
    return tuple(itertools.permutations(sorted(varset)))


@lru_cache(maxsize=None)
def _sj_span(key):
    words = _words_on(key)
    index = word_index(words)
    if len(key) == 1:
        family = [NcPoly.variable(min(key))]
    else:
        family = [circ(u, v) for s1, s2 in _bipartitions(key)
                  for u in _sj_span(s1).basis for v in _sj_span(s2).basis]
    space = echelonize([coeff_vector(f, index) for f in family])
    basis = tuple(from_coeffs(row, words) for row in space.rows)
    return JordanSpan(space, basis)


def sj_multilinear_span(varset):
    """Multilinear component of the free special Jordan algebra on varset."""
    varset = frozenset(varset)
    if not varset:
        raise ValueError("variable set must be nonempty")
    return _sj_span(varset)


def reversible_span(varset):
    """Span of w + w* over the multilinear words on varset."""
    words = _words_on(varset)
    index = word_index(words)
    return echelonize([coeff_vector(reversible(w), index) for w in words])


def cohn_check(varset):
    """True iff the circle-closure equals the reversible span on varset.

    Only meaningful for at most 3 variables (the coincidence fails from 4 on,
    so larger sets are rejected).
    """
    varset = frozenset(varset)
    if len(varset) > 3:
        raise ValueError("the coincidence holds only for at most 3 variables")
    return sj_multilinear_span(varset).space == reversible_span(varset)


def bracket_span_check(n):
    """True iff the multilinear component of degree n is spanned by u and
    u*[v, w], with u, v, w multilinear Jordan elements on complementary
    variable subsets (u possibly the unit)."""
    if n < 1 or n > 5:
        raise ValueError("supported for degrees 1..5")
    index = word_index(multilinear_words(n))
    everything = frozenset(range(1, n + 1))
    family = list(sj_multilinear_span(everything).basis)
    for vs in _subsets(everything):
        rest = everything - vs
        u_basis = (NcPoly.one(),) if not vs else sj_multilinear_span(vs).basis
        for s_v, s_w in _bipartitions(rest):
            for v in sj_multilinear_span(s_v).basis:
                for w in sj_multilinear_span(s_w).basis:
                    bracket = comm(v, w)
                    for u in u_basis:
                        family.append(u * bracket)
    space = echelonize([coeff_vector(f, index) for f in family])
    return space.dim == factorial(n)


def _subsets(s):
    items = sorted(s)
    for r in range(0, len(items) - 1):
        yield from (frozenset(c) for c in itertools.combinations(items, r))


def _bipartitions(s):
    """Unordered splits of s into two nonempty parts, min element in the left."""
    for blocks in set_partitions(s, 2):
        if len(blocks) == 2:
            yield tuple(map(frozenset, blocks))
