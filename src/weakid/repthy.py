"""Symmetric-group characters and decomposition of stable word subspaces.

Irreducible Sym(n)-modules are indexed by partitions of n.  Characters come
from the Murnaghan-Nakayama rim-hook recursion (in beta-number form), and a
permutation-stable subspace of the multilinear component is decomposed by
computing the trace of one class representative per cycle type and applying
first orthogonality.  The Sym(n) action is variable relabeling:
(s . f)(x_1, ..., x_n) = f(x_{s(1)}, ..., x_{s(n)}).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .freealg import multilinear_words, word_index
from .linalg import Subspace

__all__ = [
    "partitions",
    "conjugate",
    "character",
    "sym_dim",
    "class_size",
    "class_representative",
    "decompose",
    "decompose_quotient",
    "DecompositionError",
]


class DecompositionError(Exception):
    """A decomposition failed an internal consistency check."""


@lru_cache(maxsize=None)
def partitions(n, max_part=None):
    """All partitions of n in reverse-lexicographic (descending) order."""
    if n < 0:
        raise ValueError("partitions of negative integers do not exist")
    if n == 0:
        return ((),)
    if max_part is None or max_part > n:
        max_part = n
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def conjugate(lam):
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


@lru_cache(maxsize=None)
def _mn(lam, rho):
    if not rho:
        return 1 if not lam else 0
    r, rest = rho[0], rho[1:]
    k = len(lam)
    beta = [lam[i] + (k - 1 - i) for i in range(k)]
    beta_set = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted(beta, reverse=True)
        new_beta.remove(b)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        new_lam = tuple(x - (k - 1 - j) for j, x in enumerate(new_beta))
        new_lam = tuple(x for x in new_lam if x > 0)
        total += (-1) ** height * _mn(new_lam, rest)
    return total


def character(lam, rho):
    """Irreducible character chi^lam at the class of cycle type rho."""
    lam, rho = tuple(lam), tuple(rho)
    if sum(lam) != sum(rho):
        raise ValueError(f"|{lam}| != |{rho}|")
    return _mn(lam, rho)


def sym_dim(lam):
    """Dimension of the irreducible Sym(n)-module: hook length formula."""
    lam = tuple(lam)
    n = sum(lam)
    if n == 0:
        return 1
    conj = conjugate(lam)
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            prod *= row - j + conj[j] - i - 1
    return factorial(n) // prod


def class_size(rho):
    """Size of the conjugacy class of cycle type rho in Sym(|rho|)."""
    n = sum(rho)
    mults = {}
    for part in rho:
        mults[part] = mults.get(part, 0) + 1
    z = 1
    for length, m in mults.items():
        z *= length ** m * factorial(m)
    return factorial(n) // z


def class_representative(rho):
    """A permutation of cycle type rho as a 1-indexed image tuple."""
    n = sum(rho)
    perm = list(range(1, n + 1))
    start = 1
    for length in rho:
        for j in range(length):
            perm[start - 1 + j] = start + (j + 1) % length
        start += length
    return tuple(perm)


def _column_map(perm, words, index):
    """For each word, the column of that word with every letter l replaced
    by perm[l - 1]."""
    return [index[tuple(perm[l - 1] for l in w)] for w in words]


def _swaps(n):
    """Column maps of the adjacent transpositions (t t+1), t = 1..n-1, over
    ``multilinear_words(n)``; they generate Sym(n)."""
    words = multilinear_words(n)
    index = word_index(words)
    out = []
    for t in range(1, n):
        perm = list(range(1, n + 1))
        perm[t - 1], perm[t] = perm[t], perm[t - 1]
        out.append(_column_map(perm, words, index))
    return out


def _check_stable(space, swaps):
    """Raise unless every adjacent transposition maps the row space into
    itself; swaps[t - 1] is the column map of (t t+1)."""
    rows = space.rows
    for t, to in enumerate(swaps, 1):
        if not space.contains_all({to[c]: v for c, v in row.items()}
                                  for row in rows):
            raise DecompositionError(
                f"subspace is not stable under the transposition ({t} {t + 1})")


def _check_contained(sub, ambient):
    """Raise unless every row of sub lies in ambient."""
    if not ambient.contains_all(sub.rows):
        raise DecompositionError("sub is not contained in ambient")


def _trace(space, perm, words, index):
    """Trace of the relabeling action of s = perm on a stable subspace, via
    the RREF pivots: (s^{-1}.v)[pivot] = v[s.pivot word] sums to tr(s^{-1}),
    which is tr(s), since s^{-1} has the cycle type of s."""
    to = _column_map(perm, [words[p] for p in space.pivots], index)
    return sum(row.get(c, 0) for c, row in zip(to, space.rows))


def _multiplicities(traces, n, dim):
    """First orthogonality against the Murnaghan-Nakayama characters."""
    result = {}
    for lam in partitions(n):
        s = 0
        for rho, tr in traces.items():
            s += class_size(rho) * character(lam, rho) * tr
        m = Fraction(s, factorial(n))
        if m.denominator != 1 or m < 0:
            raise DecompositionError(
                f"multiplicity of {lam} is {m}, not a nonnegative integer")
        if m:
            result[lam] = int(m)
    total = sum(m * sym_dim(lam) for lam, m in result.items())
    if total != dim:
        raise DecompositionError(
            f"multiplicities add up to dimension {total}, expected {dim}")
    return result


def decompose(space, n):
    """Decompose a Sym(n)-stable subspace of the multilinear component into
    irreducible multiplicities {partition: multiplicity}."""
    return decompose_quotient(space, Subspace.zero(), n)


def decompose_quotient(ambient, sub, n):
    """Decompose the quotient ambient/sub of Sym(n)-stable subspaces."""
    words = multilinear_words(n)
    index = word_index(words)
    swaps = _swaps(n)
    _check_stable(sub, swaps)
    _check_stable(ambient, swaps)
    _check_contained(sub, ambient)
    traces = {}
    for rho in partitions(n):
        perm = class_representative(rho)
        traces[rho] = (_trace(ambient, perm, words, index)
                       - _trace(sub, perm, words, index))
    return _multiplicities(traces, n, ambient.dim - sub.dim)
