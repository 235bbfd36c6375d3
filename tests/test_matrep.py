"""Generic symmetric-matrix evaluation: oracles and kernel computations."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weakid.freealg import (NcPoly, comm, involution, left_normed,
                            multilinear_words, proper_basis, standard_poly,
                            word_index)
from weakid import matrep, tideal
from weakid.linalg import subspace_intersect
from weakid.matrep import (BASIS_MATRICES, SymMat2, eval_rows, evaluate,
                           generic_assignment, image_rank, is_weak_identity,
                           weak_identities_within, weak_identity_kernel,
                           weak_identity_witness)
from weakid.tideal import metabelian

x1, x2, x3, x4 = (NcPoly.variable(i) for i in range(1, 5))


# -- independent 2x2 oracle ----------------------------------------------------
# plain tuple arithmetic, no shared code with the package


def mat_mul(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def mat_add(a, b):
    return tuple(tuple(p + q for p, q in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    return tuple(tuple(c * v for v in row) for row in a)


MAT_ZERO = ((Fraction(0),) * 2,) * 2
MAT_ONE = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def brute_eval(f, mats):
    acc = MAT_ZERO
    for w, c in f.terms.items():
        m = MAT_ONE
        for i in w:
            m = mat_mul(m, mats[i])
        acc = mat_add(acc, mat_scale(c, m))
    return acc


def brute_is_weak_identity(f):
    """Complete test for multilinear f: all substitutions from the basis
    {E11, E12+E21, E22} per variable."""
    variables = sorted(f.support())
    for combo in itertools.product(BASIS_MATRICES, repeat=len(variables)):
        mats = dict(zip(variables, combo))
        if brute_eval(f, mats) != MAT_ZERO:
            return False
    return True


def brute_kernel_dim(family):
    """Oracle kernel dimension: dense elimination of the substitution matrix."""
    from tests.test_linalg import dense_rank

    variables = sorted({v for f in family for v in f.support()})
    combos = list(itertools.product(BASIS_MATRICES, repeat=len(variables)))
    rows = []
    for f in family:
        row = {}
        for k, combo in enumerate(combos):
            val = brute_eval(f, dict(zip(variables, combo)))
            for e in range(4):
                v = val[e // 2][e % 2]
                if v:
                    row[4 * k + e] = v
        rows.append(row)
    transposed = {}
    for i, r in enumerate(rows):
        for c, v in r.items():
            transposed.setdefault(c, {})[i] = v
    return len(family) - dense_rank(list(transposed.values()), len(family))


# -- evaluation ----------------------------------------------------------------


def test_eval_single_variable():
    m = evaluate(x1, generic_assignment({1}))
    assert m.is_symmetric()
    assert m.e11.terms == {(0,): 1}
    assert m.e12.terms == {(1,): 1}
    assert m.e22.terms == {(2,): 1}


def test_eval_unit():
    assert evaluate(NcPoly.one(), {}) == SymMat2.identity()


def test_eval_commutator_structure():
    # [x1, x2] evaluates to mu*(e12 - e21) with
    # mu = a1 b2 + b1 c2 - a2 b1 - b2 c1; cross-checked against the hand oracle
    ev = evaluate(comm(x1, x2), generic_assignment({1, 2}))
    assert ev.e11.is_zero() and ev.e22.is_zero()
    assert ev.e12 == -ev.e21
    mu = {(0, 4): Fraction(1), (1, 5): Fraction(1),
          (1, 3): Fraction(-1), (2, 4): Fraction(-1)}
    assert ev.e12.terms == mu

    g = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(3)))
    h = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(5)))
    by_hand = mat_add(mat_mul(g, h), mat_scale(-1, mat_mul(h, g)))
    mats = {1: SymMat2.constant(g), 2: SymMat2.constant(h)}
    ours = evaluate(comm(x1, x2), mats)
    assert tuple(tuple(p.terms.get((), Fraction(0)) for p in row)
                 for row in ((ours.e11, ours.e12), (ours.e21, ours.e22))) == by_hand


def test_eval_unassigned_variable():
    with pytest.raises(KeyError):
        evaluate(x1 * x2, generic_assignment({1}))


small_coeff = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def nc_polys(draw):
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        w = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
        terms[w] = terms.get(w, 0) + draw(small_coeff)
    return NcPoly(terms)


@settings(max_examples=100, deadline=None)
@given(nc_polys(), nc_polys())
def test_eval_is_homomorphism(f, g):
    assignment = generic_assignment({1, 2, 3})
    lhs = evaluate(f * g, assignment)
    rhs = evaluate(f, assignment) * evaluate(g, assignment)
    assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(nc_polys())
def test_involution_transpose_intertwining(f):
    assignment = generic_assignment({1, 2, 3})
    assert evaluate(involution(f), assignment) == evaluate(f, assignment).transpose()


def test_eval_rows_are_integral():
    # products of generic symmetric matrices have integer coefficients
    bidegree_3_2 = [w for w in itertools.product((1, 2), repeat=5)
                    if w.count(1) == 3]
    for words in (list(multilinear_words(4)), bidegree_3_2):
        rows = eval_rows(words)
        assert len(rows) == len(words)
        assert all(type(v) is int for row in rows for v in row.values())


def test_proper_verify_evaluates_the_words_once(monkeypatch):
    for cached in (matrep.eval_table, tideal.pn_kernel_dim,
                   tideal._consequences, tideal.proper_kernel):
        cached.cache_clear()
    calls = []
    real = matrep.eval_rows

    def counting(words):
        calls.append(sorted(words))
        return real(words)

    monkeypatch.setattr(matrep, "eval_rows", counting)
    report = tideal.verify_degree(5, proper=True, with_decomposition=True)
    assert report.equal
    assert calls.count(list(multilinear_words(5))) == 1


# -- weak identity testing -----------------------------------------------------


def test_known_weak_identities():
    assert is_weak_identity(standard_poly(4))
    assert is_weak_identity(metabelian())
    assert not is_weak_identity(standard_poly(3))
    assert not is_weak_identity(comm(x1, x2))


def test_s3_witness_is_the_basis_substitution():
    w = weak_identity_witness(standard_poly(3))
    assert w.assignment == {1: BASIS_MATRICES[0], 2: BASIS_MATRICES[1],
                            3: BASIS_MATRICES[2]}
    assert w.value == ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))


def test_witness_value_is_nonzero_by_oracle():
    for f in (standard_poly(3), comm(x1, x2), left_normed(x1, x2, x3)):
        w = weak_identity_witness(f)
        assert w is not None
        assert brute_eval(f, {i: m for i, m in w.assignment.items()}) == w.value
        assert w.value != MAT_ZERO
    assert weak_identity_witness(standard_poly(4)) is None


def test_witness_for_non_multilinear_input():
    # falls back to the seeded random search; still exact and reproducible
    f = x1 * x1
    w1 = weak_identity_witness(f)
    w2 = weak_identity_witness(f)
    assert w1.assignment == w2.assignment
    assert brute_eval(f, {i: m for i, m in w1.assignment.items()}) == w1.value
    assert w1.value != MAT_ZERO
    # the witness matrices are symmetric
    for m in w1.assignment.values():
        assert m[0][1] == m[1][0]


@settings(max_examples=100, deadline=None)
@given(nc_polys())
def test_generic_test_agrees_with_brute_force_on_multilinear(f):
    if not f.is_multilinear() or f.is_zero():
        return
    assert is_weak_identity(f) == brute_is_weak_identity(f)


# -- kernels --------------------------------------------------------------------


def test_kernel_p2_is_trivial():
    fam = [x1 * x2, x2 * x1]
    assert weak_identity_kernel(fam).dim == 0
    assert brute_kernel_dim(fam) == 0


def test_kernel_gamma4():
    fam = list(proper_basis(4))
    assert weak_identity_kernel(fam).dim == 4
    assert brute_kernel_dim(fam) == 4


def test_kernel_gamma5():
    fam = list(proper_basis(5))
    assert weak_identity_kernel(fam).dim == 35


def test_kernel_vectors_are_weak_identities():
    fam = list(proper_basis(4))
    kern = weak_identity_kernel(fam)
    for row in kern.rows:
        g = NcPoly.zero()
        for i, c in row.items():
            g = g + fam[i].scale(c)
        assert is_weak_identity(g)


def test_kernel_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        weak_identity_kernel([x1, x1 * x2])


def test_image_rank_complements_kernel():
    fam = list(proper_basis(4))
    assert image_rank(fam) + weak_identity_kernel(fam).dim == len(fam)


@pytest.mark.parametrize("n", [4, 5])
def test_proper_kernel_is_full_kernel_intersected(n):
    index = word_index(multilinear_words(n))
    words = multilinear_words(n)
    p_family = [NcPoly({w: 1}) for w in words]
    gamma_side = weak_identities_within(list(proper_basis(n)), index)
    full_side = weak_identities_within(p_family, index)
    from weakid.freealg import proper_span

    assert gamma_side == subspace_intersect(full_side, proper_span(n))
