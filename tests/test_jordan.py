"""Jordan spans, the 3-variable coincidence, and the spanning checks."""

import itertools

import pytest

from weakid.freealg import (NcPoly, circ, coeff_vector, comm, involution,
                            multilinear_words, word_index)
from weakid.jordan import (bracket_span_check, cohn_check, reversible,
                           reversible_span, sj_multilinear_span)
from weakid.linalg import echelonize

from tests.family_oracles import normalized

x1, x2, x3 = (NcPoly.variable(i) for i in range(1, 4))


def test_reversible_examples():
    assert reversible((1, 2)) == x1 * x2 + x2 * x1
    assert reversible((1,)) == 2 * x1
    assert reversible((1, 2, 3)).terms == {(1, 2, 3): 1, (3, 2, 1): 1}


def test_sj_small_dims():
    assert sj_multilinear_span({1}).space.dim == 1
    assert sj_multilinear_span({1, 2}).space.dim == 1
    assert sj_multilinear_span({1, 2, 3}).space.dim == 3
    assert sj_multilinear_span({2, 5}).space.dim == 1  # any 2-element varset


def test_sj_two_vars_is_circle_product():
    span = sj_multilinear_span({1, 2})
    (basis_elt,) = span.basis
    assert normalized(basis_elt) == normalized(circ(x1, x2))


def test_sj_empty_varset_rejected():
    with pytest.raises(ValueError):
        sj_multilinear_span(set())


@pytest.mark.parametrize("n", range(1, 6))
def test_sj_basis_is_involution_fixed(n):
    span = sj_multilinear_span(frozenset(range(1, n + 1)))
    for b in span.basis:
        assert involution(b) == b


@pytest.mark.parametrize("n", range(1, 6))
def test_sj_contained_in_reversible(n):
    varset = frozenset(range(1, n + 1))
    rev = reversible_span(varset)
    sj = sj_multilinear_span(varset)
    index = word_index(multilinear_words(n))
    for b in sj.basis:
        assert rev.contains(coeff_vector(b, index))


def tetrad(p):
    w = tuple(p)
    return NcPoly({w: 1, w[::-1]: 1})


def test_sj_four_vars_dim_and_tetrad_gap():
    """The circle-closure misses exactly one direction of the reversible span
    at 4 variables: dim 11 against 12, and every tetrad closes the gap.

    Oracle for the gap being a single dimension: xzy + yzx is a Jordan
    element for any x, y, z (checked as an exact identity below), which makes
    all 24 tetrads equal up to sign modulo the circle-closure.
    """
    varset = frozenset({1, 2, 3, 4})
    sj = sj_multilinear_span(varset)
    rev = reversible_span(varset)
    assert rev.dim == 12
    assert sj.space.dim == 11
    index = word_index(multilinear_words(4))
    sj_vecs = [coeff_vector(b, index) for b in sj.basis]
    for p in itertools.permutations((1, 2, 3, 4)):
        t = coeff_vector(tetrad(p), index)
        assert not sj.space.contains(t)
        assert echelonize(sj_vecs + [t]).dim == 12


def test_triple_product_identity():
    # 2(xzy + yzx) = x o (z o y) + y o (z o x) - z o (x o y), identically
    f, g, h = x1 * x2, x3 + 2 * x1, comm(x1, x3)
    lhs = 2 * (f * h * g + g * h * f)
    rhs = circ(f, circ(h, g)) + circ(g, circ(h, f)) - circ(h, circ(f, g))
    assert lhs == rhs


@pytest.mark.parametrize("n", (1, 2, 3))
def test_cohn_coincidence(n):
    assert cohn_check(frozenset(range(1, n + 1)))


def test_cohn_rejects_large_sets():
    with pytest.raises(ValueError):
        cohn_check(frozenset({1, 2, 3, 4}))


def test_circ_of_spans_closure():
    left = sj_multilinear_span({1, 2})
    right = sj_multilinear_span({3})
    union = sj_multilinear_span({1, 2, 3})
    index = word_index(multilinear_words(3))
    for u in left.basis:
        for v in right.basis:
            assert union.space.contains(coeff_vector(circ(u, v), index))


def test_bracket_span_low_degrees():
    assert bracket_span_check(1)
    assert bracket_span_check(2)
    assert bracket_span_check(3)


def test_bracket_span_fails_from_four_variables():
    """The u / u[v,w] family spans a proper subspace once tetrads appear:
    codimension 1 at degree 4 (computed rank 23 of 24) and 5 at degree 5."""
    assert not bracket_span_check(4)
    assert not bracket_span_check(5)


def test_bracket_span_degree_bounds():
    with pytest.raises(ValueError):
        bracket_span_check(6)
