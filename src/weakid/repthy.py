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

__all__ = [
    "partitions",
    "conjugate",
    "character",
    "sym_dim",
    "gl2_dim",
    "cycle_types",
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


def gl2_dim(l1, l2=0):
    """Dimension of the irreducible polynomial GL(2)-module: l1 - l2 + 1."""
    if isinstance(l1, tuple):
        lam = l1 + (0, 0)
        if len(l1) > 2:
            raise ValueError("GL(2) modules take partitions with at most 2 parts")
        l1, l2 = lam[0], lam[1]
    if l2 > l1:
        raise ValueError("not a partition")
    return l1 - l2 + 1


def cycle_types(n):
    return partitions(n)


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


def _apply_perm_word(w, perm):
    return tuple(perm[l - 1] for l in w)


def _check_stable(space, n, index):
    rev = {i: w for w, i in index.items()}
    for t in range(1, n):
        perm = list(range(1, n + 1))
        perm[t - 1], perm[t] = perm[t], perm[t - 1]
        for row in space.rows:
            moved = {index[_apply_perm_word(rev[c], perm)]: v for c, v in row.items()}
            if not space.contains(moved):
                raise DecompositionError(
                    f"subspace is not stable under the transposition ({t} {t + 1})")


def _trace(space, perm, index, rev):
    """Trace of the relabeling action on the subspace, via the RREF pivots."""
    inv = [0] * len(perm)
    for i, img in enumerate(perm):
        inv[img - 1] = i + 1
    total = 0
    pivots = space.pivots
    for piv, row in zip(pivots, space.rows):
        # (s.v)[pivot] = v[s^{-1}.pivot word]
        pre = index[_apply_perm_word(rev[piv], inv)]
        total += row.get(pre, 0)
    return total


def _full_trace(perm, index, rev):
    return sum(1 for w in rev.values() if _apply_perm_word(w, perm) == w)


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
    index = word_index(multilinear_words(n))
    _check_stable(space, n, index)
    rev = {i: w for w, i in index.items()}
    traces = {rho: _trace(space, class_representative(rho), index, rev)
              for rho in cycle_types(n)}
    return _multiplicities(traces, n, space.dim)


def decompose_quotient(ambient, sub, n):
    """Decompose ambient/sub; ambient=None means the full multilinear component."""
    index = word_index(multilinear_words(n))
    rev = {i: w for w, i in index.items()}
    _check_stable(sub, n, index)
    if ambient is not None:
        _check_stable(ambient, n, index)
    if ambient is not None:
        for row in sub.rows:
            if not ambient.contains(row):
                raise DecompositionError("sub is not contained in ambient")
    traces = {}
    for rho in cycle_types(n):
        perm = class_representative(rho)
        top = _full_trace(perm, index, rev) if ambient is None \
            else _trace(ambient, perm, index, rev)
        traces[rho] = top - _trace(sub, perm, index, rev)
    dim = (factorial(n) if ambient is None else ambient.dim) - sub.dim
    return _multiplicities(traces, n, dim)

