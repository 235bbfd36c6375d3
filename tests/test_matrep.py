"""Generic symmetric-matrix evaluation: oracles and kernel computations."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weakid.freealg import (NcPoly, comm, from_coeffs, involution,
                            left_normed, multilinear_words, proper_span,
                            standard_poly)
from weakid import matrep, series, tideal
from weakid.cli import main
from weakid.expr import parse_poly
from weakid.linalg import echelonize, subspace_intersect
from weakid.matrep import (BASIS_MATRICES, eval_rows, eval_table, image_rank,
                           is_weak_identity, weak_identities_within,
                           weak_identity_kernel, weak_identity_witness)
from weakid.tideal import metabelian

from tests.eval_oracle import (MAT_ZERO, brute_eval,
                               coords, first_failing_basis_substitution,
                               generic_coords, generic_eval, mat_add, mat_mul,
                               mat_scale, mat_transpose, package_coords)

x1, x2, x3, x4 = (NcPoly.variable(i) for i in range(1, 5))


def brute_is_weak_identity(f):
    """Complete test for multilinear f: all substitutions from the basis
    {E11, E12+E21, E22} per variable."""
    return first_failing_basis_substitution(f) is None


def proper_basis(n):
    """The proper component's RREF rows as polynomials."""
    return [from_coeffs(r, multilinear_words(n)) for r in proper_span(n).rows]


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
    assert eval_rows([(1,)]) == [{(0, (0,)): 1, (1, (1,)): 1, (2, (1,)): 1,
                                  (3, (2,)): 1}]
    assert package_coords(x1) == generic_coords(x1)


def test_eval_unit():
    assert eval_rows([()]) == [{(0, ()): 1, (3, ()): 1}]
    assert package_coords(NcPoly.one()) == generic_coords(NcPoly.one())


def _at_point(coords_, point):
    """Substitute {slot: number} into generic coordinates; a 2x2 tuple."""
    e = [0] * 4
    for (i, m), c in coords_.items():
        for s in m:
            c *= point[s]
        e[i] += c
    return ((e[0], e[1]), (e[2], e[3]))


def test_eval_commutator_structure():
    # [x1, x2] evaluates to mu*(e12 - e21) with
    # mu = a1 b2 + b1 c2 - a2 b1 - b2 c1; cross-checked against the hand oracle
    ev = package_coords(comm(x1, x2))
    assert ev == generic_coords(comm(x1, x2))
    assert {e for e, _ in ev} == {1, 2}
    mu = {(0, 4): Fraction(1), (1, 5): Fraction(1),
          (1, 3): Fraction(-1), (2, 4): Fraction(-1)}
    assert {m: c for (e, m), c in ev.items() if e == 1} == mu
    assert {m: -c for (e, m), c in ev.items() if e == 2} == mu

    g = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(3)))
    h = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(5)))
    by_hand = mat_add(mat_mul(g, h), mat_scale(-1, mat_mul(h, g)))
    point = dict(enumerate((1, 2, 3, 0, 1, 5)))
    assert _at_point(ev, point) == by_hand


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
    lhs = package_coords(f * g)
    rhs = coords(mat_mul(generic_eval(f), generic_eval(g)))
    assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(nc_polys())
def test_involution_transpose_intertwining(f):
    assert package_coords(involution(f)) == coords(mat_transpose(generic_eval(f)))


def test_poly_eval_row_on_fractional_coefficients():
    f = parse_poly("1/3*x*y - 2/5*y*x + 7/6*x*x*y")
    ours = package_coords(f)
    assert ours == generic_coords(f)
    assert any(type(v) is Fraction and v.denominator > 1 for v in ours.values())
    # integral input stays integral
    assert all(type(v) is int for v in package_coords(comm(x1, x2)).values())


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
    assert is_weak_identity(NcPoly.zero())


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


@st.composite
def multilinear_polys(draw):
    """Multilinear polynomials on up to 4 variables with small coefficients."""
    variables = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4,
                              unique=True))
    words = list(itertools.permutations(variables))
    chosen = draw(st.lists(st.sampled_from(words), max_size=6, unique=True))
    return NcPoly({w: draw(small_coeff.filter(bool)) for w in chosen})


@settings(max_examples=150, deadline=None)
@given(multilinear_polys())
def test_multilinear_witness_is_the_first_failing_basis_substitution(f):
    w = weak_identity_witness(f)
    first = first_failing_basis_substitution(f)
    if first is None:
        assert w is None
        return
    assert (w.assignment, w.value) == first
    assert brute_eval(f, w.assignment) == w.value


def test_large_multilinear_witness_is_the_first_basis_substitution():
    f = parse_poly("S3(x1,x2,x3)*x4*x5*x6*x7")
    w = weak_identity_witness(f)
    assert (w.assignment, w.value) == first_failing_basis_substitution(f)
    assert w.assignment[1] == BASIS_MATRICES[0]
    assert w.assignment[2] == BASIS_MATRICES[1]


@settings(max_examples=50, deadline=None)
@given(nc_polys())
def test_non_multilinear_witness_value_matches_the_oracle(f):
    w = weak_identity_witness(f)
    if w is None:
        assert not generic_coords(f)
        return
    assert w.value != MAT_ZERO
    assert brute_eval(f, w.assignment) == w.value


def test_check_evaluates_a_non_identity_once(monkeypatch, capsys):
    calls = []
    real = matrep._generic_coords

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(matrep, "_generic_coords", counting)
    assert main(["check", "--expr", "[x1,x2]*x3", "--mode", "identity"]) == 1
    assert "witness substitution" in capsys.readouterr().out
    assert len(calls) == 1


def test_eval_table_cache_is_bounded():
    for cached in (matrep.eval_table, series.image_dim, series._family):
        cached.cache_clear()
    assert series.image_dims(7) == [1, 0, 1, 2, 4, 6, 9, 12]
    info = eval_table.cache_info()
    assert info.maxsize == matrep._TABLES
    # image_dims(7) reads 21 bidegrees, more than the cache keeps
    assert info.currsize <= matrep._TABLES < info.misses


# -- kernels --------------------------------------------------------------------


def test_kernel_p2_is_trivial():
    fam = [x1 * x2, x2 * x1]
    assert weak_identity_kernel(fam).dim == 0
    assert brute_kernel_dim(fam) == 0


def test_kernel_gamma4():
    fam = proper_basis(4)
    assert weak_identity_kernel(fam).dim == 4
    assert brute_kernel_dim(fam) == 4


def test_kernel_gamma5():
    fam = proper_basis(5)
    assert weak_identity_kernel(fam).dim == 35


def test_kernel_vectors_are_weak_identities():
    fam = proper_basis(4)
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
    fam = proper_basis(4)
    assert image_rank(fam) + weak_identity_kernel(fam).dim == len(fam)


@pytest.mark.parametrize("n", [4, 5])
def test_proper_kernel_is_full_kernel_intersected(n):
    word_rows = eval_table(multilinear_words(n))[1]
    everything = echelonize([{i: 1} for i in range(len(word_rows))])
    gamma_side = weak_identities_within(proper_span(n), word_rows)
    full_side = weak_identities_within(everything, word_rows)
    assert gamma_side == subspace_intersect(full_side, proper_span(n))
    assert gamma_side == tideal.proper_kernel(n)
