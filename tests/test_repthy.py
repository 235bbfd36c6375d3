"""Characters, hook lengths, and decompositions of stable subspaces."""

import itertools
import re
from math import factorial

import pytest

from weakid.freealg import multilinear_words, proper_span, word_index
from weakid.linalg import Subspace, echelonize
from weakid.repthy import (DecompositionError, _column_map, character,
                           class_representative, class_size, conjugate,
                           decompose, decompose_quotient, partitions, sym_dim)
from weakid.tideal import proper_kernel


# -- oracles ---------------------------------------------------------------------


def syt_count(shape):
    """Oracle: count standard Young tableaux by backtracking."""
    n = sum(shape)

    def place(value, rows):
        if value > n:
            return 1
        total = 0
        for i in range(len(shape)):
            if rows[i] < shape[i] and (i == 0 or rows[i] < rows[i - 1]):
                rows[i] += 1
                total += place(value + 1, rows)
                rows[i] -= 1
        return total

    return place(1, [0] * len(shape))


def perm_cycle_type(perm):
    n = len(perm)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j] - 1
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def brute_character_table(n):
    """Classical character tables for n <= 3, frozen by hand."""
    tables = {
        2: {((2,), (2,)): 1, ((2,), (1, 1)): 1,
            ((1, 1), (2,)): -1, ((1, 1), (1, 1)): 1},
        3: {((3,), (3,)): 1, ((3,), (2, 1)): 1, ((3,), (1, 1, 1)): 1,
            ((2, 1), (3,)): -1, ((2, 1), (2, 1)): 0, ((2, 1), (1, 1, 1)): 2,
            ((1, 1, 1), (3,)): 1, ((1, 1, 1), (2, 1)): -1,
            ((1, 1, 1), (1, 1, 1)): 1},
    }
    return tables[n]


def test_partitions_order_and_counts():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions(5)) == 7
    assert partitions(0) == ((),)
    assert len(partitions(7)) == 15


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(conjugate((4, 2, 1))) == (4, 2, 1)


def test_character_small_tables():
    for n in (2, 3):
        table = brute_character_table(n)
        for (lam, rho), value in table.items():
            assert character(lam, rho) == value


def test_character_trivial_and_sign():
    for n in range(2, 7):
        for rho in partitions(n):
            assert character((n,), rho) == 1
            parity = (-1) ** (n - len(rho))
            assert character((1,) * n, rho) == parity


def test_character_standard_rep_of_s3():
    # oracle: trace of the permutation action on Q^3 minus the trivial part
    for rho in partitions(3):
        perm = class_representative(rho)
        fixed = sum(1 for i in range(1, 4) if perm[i - 1] == i)
        assert character((2, 1), rho) == fixed - 1
    assert character((2, 1), (3,)) == -1


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        character((2, 1), (2, 2))


@pytest.mark.parametrize("shape,dim", [
    ((3, 1), 3), ((2, 2), 2), ((2, 1, 1), 3), ((1, 1, 1, 1), 1),
    ((4, 1), 4), ((3, 2), 5), ((5, 1), 5), ((4, 2), 9), ((3, 3), 5),
    ((6,), 1),
])
def test_hook_dims_match_tableau_enumeration(shape, dim):
    assert syt_count(shape) == dim
    assert sym_dim(shape) == dim


def test_sym_dim_equals_character_at_identity():
    for n in range(1, 7):
        for lam in partitions(n):
            assert sym_dim(lam) == character(lam, (1,) * n)


@pytest.mark.parametrize("n", range(2, 8))
def test_first_orthogonality(n):
    parts = partitions(n)
    for lam in parts:
        for mu in parts:
            total = sum(class_size(rho) * character(lam, rho) * character(mu, rho)
                        for rho in partitions(n))
            assert total == (factorial(n) if lam == mu else 0)


@pytest.mark.parametrize("n", range(2, 8))
def test_dimension_column_sum(n):
    assert sum(sym_dim(lam) ** 2 for lam in partitions(n)) == factorial(n)


def test_class_sizes_sum():
    for n in range(2, 7):
        assert sum(class_size(rho) for rho in partitions(n)) == factorial(n)
        for rho in partitions(n):
            assert perm_cycle_type(class_representative(rho)) == tuple(rho)


# -- decompositions ---------------------------------------------------------------


def test_decompose_gamma2_is_sign():
    assert decompose(proper_span(2), 2) == {(1, 1): 1}


def test_decompose_gamma4():
    assert decompose(proper_span(4), 4) == {
        (3, 1): 1, (2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 1}


def test_decompose_gamma4_kernel_and_quotient():
    kern = proper_kernel(4)
    assert decompose(kern, 4) == {(2, 1, 1): 1, (1, 1, 1, 1): 1}
    assert decompose_quotient(proper_span(4), kern, 4) == {(3, 1): 1, (2, 2): 1}


@pytest.mark.parametrize("n", range(2, 7))
def test_proper_quotient_has_three_rows_at_most(n):
    """Three rows at most, by Schur–Weyl duality.  Evaluation at symmetric
    2x2 matrices sends a multilinear f of degree n to the multilinear map
    (a_1, ..., a_n) -> f(a_1, ..., a_n) from S x ... x S to M_2, where S is
    the 3-dimensional space of symmetric matrices; its kernel on P_n is K.
    So Gamma_n/(Gamma_n ∩ K) embeds in Hom(S^{⊗n}, M_2), and relabelling
    the variables permutes the tensor factors.  As a Sym(n)-module,
    S^{⊗n} holds only the Specht modules of partitions with at most
    dim S = 3 parts, and so do its dual and any sum of copies of it.  The
    multiplicities add up to D_n, the number of derangements (dim Gamma_n),
    less dim(Gamma_n ∩ K)."""
    dec = decompose_quotient(proper_span(n), proper_kernel(n), n)
    assert dec and all(len(lam) <= 3 for lam in dec)
    derangements = sum(all(p[i] != i for i in range(n))
                       for p in itertools.permutations(range(n)))
    assert sum(m * sym_dim(lam) for lam, m in dec.items()) == \
        derangements - proper_kernel(n).dim


def test_decompose_p3_regular():
    full = echelonize([{i: 1} for i in range(6)])
    dec = decompose_quotient(full, Subspace.zero(), 3)
    assert dec == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    for lam, mult in dec.items():
        assert mult == sym_dim(lam)


def test_decompose_dimension_invariant():
    for n in (2, 3, 4):
        dec = decompose(proper_span(n), n)
        assert sum(m * sym_dim(lam) for lam, m in dec.items()) == proper_span(n).dim


def test_decompose_rejects_unstable_space():
    # span{x1*x2} alone is not Sym(2)-stable
    unstable = echelonize([{0: 1}])
    with pytest.raises(DecompositionError):
        decompose(unstable, 2)


def test_multiplicities_reject_inconsistent_traces():
    """Gamma_4's traces decompose it; a trace off by one leaves a
    fractional multiplicity, and a wrong dimension fails the dimension
    sum."""
    from weakid.repthy import _multiplicities, _trace

    words = multilinear_words(4)
    index = word_index(words)
    gamma = proper_span(4)
    traces = {rho: _trace(gamma, class_representative(rho), words, index)
              for rho in partitions(4)}
    assert _multiplicities(traces, 4, gamma.dim) == decompose(gamma, 4)
    off = dict(traces)
    off[(1, 1, 1, 1)] += 1
    with pytest.raises(DecompositionError, match="not a nonnegative integer"):
        _multiplicities(off, 4, gamma.dim)
    with pytest.raises(DecompositionError, match="expected 10"):
        _multiplicities(traces, 4, gamma.dim + 1)


def test_quotient_requires_containment():
    a = echelonize([{0: 1, 1: 1}])  # the symmetric line in P2
    b = echelonize([{0: 1, 1: -1}])  # the sign line
    with pytest.raises(DecompositionError, match="not contained"):
        decompose_quotient(a, b, 2)


# -- stability checks and column relabelling ------------------------------------


def _swap(w, t):
    """Oracle: the word w with the letters t and t + 1 exchanged."""
    return tuple(t + 1 if l == t else t if l == t + 1 else l for l in w)


def _young_words(n, t):
    """The words 1..n relabelled by Sym({1..t}) x Sym({t+1..n}): a set the
    adjacent transpositions other than (t t+1) permute, and (t t+1) leaves."""
    return {a + b for a in itertools.permutations(range(1, t + 1))
            for b in itertools.permutations(range(t + 1, n + 1))}


@pytest.mark.parametrize("n,t", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_stability_check_names_the_one_breaking_transposition(n, t):
    words = _young_words(n, t)
    for s in range(1, n):
        assert ({_swap(w, s) for w in words} == words) == (s != t)
    index = word_index(multilinear_words(n))
    space = echelonize([{index[w]: 1} for w in words])
    with pytest.raises(DecompositionError,
                       match=re.escape(f"transposition ({t} {t + 1})")):
        decompose(space, n)
    with pytest.raises(DecompositionError,
                       match=re.escape(f"transposition ({t} {t + 1})")):
        decompose_quotient(proper_span(n), space, n)


@pytest.mark.parametrize("n", range(2, 7))
def test_column_maps_relabel_each_word(n):
    words = multilinear_words(n)
    index = word_index(words)
    for t in range(1, n):
        perm = list(range(1, n + 1))
        perm[t - 1], perm[t] = perm[t], perm[t - 1]
        assert [words[c] for c in _column_map(perm, words, index)] == \
            [_swap(w, t) for w in words]
    for rho in partitions(n):
        image = dict(zip(range(1, n + 1), class_representative(rho)))
        assert [words[c] for c in _column_map(class_representative(rho),
                                              words, index)] == \
            [tuple(map(image.get, w)) for w in words]


def test_column_map_of_a_three_cycle():
    words = multilinear_words(3)
    index = word_index(words)
    # (1 2 3) sends x1 x2 x3 to x2 x3 x1 and x1 x3 x2 to x2 x1 x3
    assert [words[c] for c in _column_map((2, 3, 1), [(1, 2, 3), (1, 3, 2)],
                                          index)] == \
        [(2, 3, 1), (2, 1, 3)]
