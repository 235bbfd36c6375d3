"""Generic symmetric-matrix evaluation: oracles and kernel computations."""

import itertools
import random
import sys
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from weakid.freealg import (NcPoly, coeff_vector, comm, from_coeffs,
                            involution, left_normed, multilinear_words,
                            proper_span, standard_poly, word_index)
from weakid import matrep, series, tideal
from weakid.cli import main
from weakid.expr import parse_poly
from weakid.linalg import echelonize, left_kernel, rank, rank_mod2
from weakid.matrep import (BASIS_MATRICES, eval_rows, image_rank,
                           is_weak_identity, poly_eval_row, proper_image_rank,
                           weak_identities_within, weak_identity_witness)
from weakid.tideal import metabelian

from tests.eval_oracle import (MAT_ZERO, at_diagonal_x1, brute_eval, coords,
                               decoded_rows, first_failing_basis_substitution,
                               generic_coords, generic_eval, mat_add, mat_mul,
                               mat_scale, mat_transpose, package_coords,
                               swap_a_c)
from tests.linalg_oracles import subspace_intersect

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
    # x1 is diag(a1, c1): slot 1 (b1) never occurs
    assert decoded_rows([(1,)]) == [{(0, (0,)): 1, (3, (2,)): 1}]
    # the walk takes width 1: key = entry + 4 * 2**slot; only the first row
    # is evaluated
    assert eval_rows([(1,)]) == [{0 + 4 * 1: 1}]
    assert package_coords(x1) == at_diagonal_x1(generic_coords(x1))


def test_eval_unit():
    assert decoded_rows([()]) == [{(0, ()): 1, (3, ()): 1}]
    assert eval_rows([()]) == [{0: 1}]
    assert package_coords(NcPoly.one()) == generic_coords(NcPoly.one())


def test_packed_key_layout():
    # the width is the bit length of the most times one letter occurs in a word
    assert matrep._width([(1, 2, 1), (2,)]) == 2
    assert matrep._width(multilinear_words(4)) == 1
    assert matrep._width([()]) == 0
    # exact: multilinear words of any length give 1, and one word that
    # repeats a letter sets the width for the whole list
    assert matrep._width(multilinear_words(2) + multilinear_words(5)) == 1
    assert matrep._width(multilinear_words(3) + ((2, 1, 2, 2),)) == 2
    assert matrep._width(((4, 4, 4, 4),) + multilinear_words(4)) == 3
    # width 2: slot s sits at bit 2 + 2*s
    assert matrep._decode(1 + 4 * (1 + 2 * 4 ** 3), 2) == (1, (0, 3, 3))
    assert matrep._decode(3, 5) == (3, ())


@pytest.mark.parametrize("length", [1, 2, 3, 4, 7, 8, 15, 16])
def test_packed_keys_do_not_carry_at_width_boundaries(length):
    # x1^L puts exponent L on one slot and (x1 x2)^L exponents up to L on
    # slots of two letters; L = 2**w - 1 and 2**w fill a field or widen it
    for f in (x1 ** length, (x1 * x2) ** length):
        assert package_coords(f) == at_diagonal_x1(generic_coords(f))
        assert matrep._width(list(f.terms)) == length.bit_length()


def _bidegree_words(dx, dy):
    return tuple(w for w in itertools.product((1, 2), repeat=dx + dy)
                 if w.count(1) == dx)


def _with_repeats(words):
    """The words with the first one repeated next to itself and at the end."""
    return words[:1] + words + words[:1]


# rows come in the order of the words given, sorted or not, repeated or not
_WORD_UNIVERSES = pytest.mark.parametrize(
    "words", [multilinear_words(n) for n in (2, 3, 4, 5)]
    + [_bidegree_words(dx, dy) for dx, dy in ((1, 1), (2, 1), (3, 2), (4, 4))]
    + [multilinear_words(4)[::-1], _with_repeats(_bidegree_words(2, 2))],
    ids=[f"multilinear-{n}" for n in (2, 3, 4, 5)]
    + ["bidegree-1-1", "bidegree-2-1", "bidegree-3-2", "bidegree-4-4"]
    + ["multilinear-4-reversed", "bidegree-2-2-repeated"])


@_WORD_UNIVERSES
def test_eval_rows_match_the_oracle(words):
    """Each word's ``eval_rows`` row, decoded and with the second row
    rebuilt, is the oracle's evaluation at x1 = diag(a1, c1)."""
    assert decoded_rows(words) == [
        at_diagonal_x1(generic_coords(NcPoly({w: 1}))) for w in words]


@_WORD_UNIVERSES
def test_first_rows_have_the_rank_of_the_whole_matrix(words):
    # the second row is the first reflected, so dropping it loses no rank;
    # nor does x1 = diag(a1, c1): the oracle's rows here are fully generic
    full = [generic_coords(NcPoly({w: 1})) for w in words]
    assert rank(eval_rows(words)) == rank(full)


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
    # mu = a1 b2 + b1 c2 - a2 b1 - b2 c1; cross-checked against the hand
    # oracle.  The package reads it at b1 = 0: mu = a1 b2 - b2 c1.
    full = generic_coords(comm(x1, x2))
    ev = package_coords(comm(x1, x2))
    assert ev == at_diagonal_x1(full)
    assert {e for e, _ in ev} == {e for e, _ in full} == {1, 2}
    mu = {(0, 4): Fraction(1), (1, 5): Fraction(1),
          (1, 3): Fraction(-1), (2, 4): Fraction(-1)}
    assert {m: c for (e, m), c in full.items() if e == 1} == mu
    assert {m: -c for (e, m), c in full.items() if e == 2} == mu
    assert {m: c for (e, m), c in ev.items() if e == 1} == {
        (0, 4): 1, (2, 4): -1}

    g = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(3)))
    h = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(5)))
    by_hand = mat_add(mat_mul(g, h), mat_scale(-1, mat_mul(h, g)))
    point = dict(enumerate((1, 2, 3, 0, 1, 5)))
    assert _at_point(full, point) == by_hand


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
    assert lhs == at_diagonal_x1(rhs)


@settings(max_examples=100, deadline=None)
@given(nc_polys())
def test_involution_transpose_intertwining(f):
    assert package_coords(involution(f)) == at_diagonal_x1(
        coords(mat_transpose(generic_eval(f))))


@settings(max_examples=100, deadline=None)
@given(nc_polys())
def test_second_row_is_the_first_row_reflected(f):
    # oracle only: conjugating by [[0, 1], [1, 0]] swaps every a_i with c_i,
    # so entry 3 - e is entry e with the a and c slots swapped
    (p00, p01), (p10, p11) = generic_eval(f)
    for first, second in ((p00, p11), (p01, p10)):
        assert second.terms == {swap_a_c(m): c for m, c in first.terms.items()}


def test_poly_eval_row_on_fractional_coefficients():
    f = parse_poly("1/3*x*y - 2/5*y*x + 7/6*x*x*y")
    ours = package_coords(f)
    assert ours == at_diagonal_x1(generic_coords(f))
    assert any(type(v) is Fraction and v.denominator > 1 for v in ours.values())
    # integral input stays integral
    assert all(type(v) is int for v in package_coords(comm(x1, x2)).values())


def test_eval_rows_are_integral():
    # products of generic symmetric matrices have integer coefficients
    bidegree_3_2 = [w for w in itertools.product((1, 2), repeat=5)
                    if w.count(1) == 3]
    for words in (list(multilinear_words(4)), bidegree_3_2):
        rows = decoded_rows(words)
        assert len(rows) == len(words)
        assert all(type(v) is int for row in rows for v in row.values())


def test_proper_verify_evaluates_the_words_once(monkeypatch):
    """Every package module's name for ``eval_rows`` and ``proper_rows`` is
    counted, so a walk reached through a name imported elsewhere counts
    too: the bound walks the multilinear words once, and the proper kernel,
    read by both the proper and the decomposition branch, is built once."""
    for cached in (tideal.pn_kernel_dim, tideal._kernel_bound,
                   tideal._consequences, tideal.proper_kernel):
        cached.cache_clear()
    calls = []

    def counting(real):
        def walk(words):
            calls.append((real.__name__, sorted(words)))
            return real(words)
        return walk

    for real in (matrep.eval_rows, matrep.proper_rows):
        stub = counting(real)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("weakid"):
                for name, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, name, stub)
    report = tideal.verify_degree(5, proper=True, with_decomposition=True)
    assert report.equal
    words = list(multilinear_words(5))
    assert calls.count(("eval_rows", words)) == 1
    assert calls.count(("proper_rows", words)) == 1
    assert list(report.timings_ms) == [
        "kernel_ms", "consequences_ms", "proper_ms", "decompose_ms"]


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


# -- kernels --------------------------------------------------------------------


def family_kernel(family):
    """Kernel of (coefficients over the family) -> (generic evaluation), in
    the coordinates of the family list: the weak identities in its span."""
    words = tuple(sorted({w for f in family for w in f.terms}))
    index = word_index(words)
    word_rows = eval_rows(words)
    return left_kernel([poly_eval_row(coeff_vector(f, index), word_rows)
                        for f in family])


def test_kernel_p2_is_trivial():
    fam = [x1 * x2, x2 * x1]
    assert family_kernel(fam).dim == 0
    assert brute_kernel_dim(fam) == 0


def test_kernel_gamma4():
    fam = proper_basis(4)
    assert family_kernel(fam).dim == 4
    assert brute_kernel_dim(fam) == 4


def test_kernel_gamma5():
    fam = proper_basis(5)
    assert family_kernel(fam).dim == 35


def test_kernel_vectors_are_weak_identities():
    fam = proper_basis(4)
    kern = family_kernel(fam)
    for row in kern.rows:
        g = NcPoly.zero()
        for i, c in row.items():
            g = g + fam[i].scale(c)
        assert is_weak_identity(g)


def test_kernel_rejects_mixed_degrees():
    with pytest.raises(ValueError, match="mixes total degrees"):
        image_rank([x1, x1 * x2])


@pytest.mark.parametrize("n", range(2, 10))
def test_image_rank_matches_proper_image_rank(n):
    """The walk's rank and the rank at x1 = E11 agree on every bidegree's
    family, x1 of the higher degree or not, and on the reduced family, whose
    members have several bidegrees."""
    for dx in range(1, n):
        family = list(series._family(dx, n - dx))
        assert image_rank(family) == proper_image_rank(family), (dx, n - dx)
    family = series.tail_family(n)
    assert image_rank(family) == proper_image_rank(family)


@st.composite
def commutator_combinations(draw):
    """One to five random rational combinations of the two-variable
    commutator products of one bidegree (dx, dy), dx + dy <= 7."""
    dx = draw(st.integers(1, 6))
    family = series._family(dx, draw(st.integers(1, 7 - dx)))
    out = []
    for _ in range(draw(st.integers(1, 5))):
        g = NcPoly.zero()
        for f in draw(st.lists(st.sampled_from(family), min_size=1,
                               max_size=4)):
            g = g + f.scale(draw(small_coeff))
        out.append(g)
    return out


@settings(max_examples=100, deadline=None)
@given(commutator_combinations())
def test_proper_image_rank_matches_the_generic_rank(family):
    assert proper_image_rank(family) == image_rank(family)


def test_proper_image_rank_needs_a_proper_family():
    """x1 [x2, x1] x1 is not proper: at symmetric X1, X2 it is
    det X1 * [X2, X1] (X J X = det X * J for J = [[0, 1], [-1, 0]]), not
    zero, but it vanishes at x1 = E11, whose determinant is 0."""
    f = x1 * x2 * x1 * x1 - x1 * x1 * x2 * x1
    assert f == x1 * comm(x2, x1) * x1
    assert not is_weak_identity(f)
    assert image_rank([f]) == 1
    assert proper_image_rank([f]) == 0


@st.composite
def homogeneous_families(draw):
    """Up to five polynomials of one total degree in 2 or 3 variables, with
    small Fraction coefficients."""
    letters = st.integers(1, draw(st.integers(2, 3)))
    degree = draw(st.integers(1, 5))
    words = st.lists(letters, min_size=degree, max_size=degree).map(tuple)
    family = []
    for _ in range(draw(st.integers(1, 5))):
        chosen = draw(st.lists(words, min_size=1, max_size=4, unique=True))
        family.append(NcPoly({w: draw(small_coeff.filter(bool))
                              for w in chosen}))
    return family


@settings(max_examples=100, deadline=None)
@given(homogeneous_families())
def test_image_rank_is_the_rank_of_the_fully_generic_rows(family):
    """x1 = diag(a1, c1) keeps the kernel on every span: the rank equals
    that of the oracle's four entries with x1 fully generic."""
    assert image_rank(family) == rank([generic_coords(f) for f in family])


@pytest.mark.parametrize("n,kernel", [(4, 4), (5, 55), (6, 516)])
def test_diagonal_rows_rank_mod2_is_the_exact_rank(n, kernel):
    """The rows ``tideal._kernel_bound`` ranks, x1 diagonal, keep the bound
    tight: their rank mod 2 is their exact rank, the codimension of the
    kernel."""
    rows = eval_rows(multilinear_words(n))
    assert rank_mod2(rows) == factorial(n) - tideal.pn_kernel_dim(n)
    assert tideal.pn_kernel_dim(n) == kernel


def test_image_rank_complements_kernel():
    fam = proper_basis(4)
    assert image_rank(fam) + family_kernel(fam).dim == len(fam)


@pytest.mark.parametrize("n,seed", [(4, 1), (4, 2), (5, 3)])
def test_weak_identities_within_fractional_rref_match_family_kernel(n, seed):
    """On a span whose RREF rows hold Fractions, the recombined kernel rows
    span the weak identities that ``family_kernel`` finds among the
    integer polynomials the span was built from."""
    rng = random.Random(seed)
    gammas = proper_basis(n)
    family = []
    for _ in range(len(gammas) - 1):
        g = NcPoly.zero()
        for f in gammas:
            g = g + f.scale(rng.randint(-3, 3))
        family.append(g.scale(rng.choice((2, 3, 5))))
    words = multilinear_words(n)
    index = word_index(words)
    space = echelonize([coeff_vector(g, index) for g in family])
    assert any(type(v) is Fraction for r in space.rows for v in r.values())
    expected = []
    for k in family_kernel(family).rows:
        g = NcPoly.zero()
        for i, c in k.items():
            g = g + family[i].scale(c)
        expected.append(coeff_vector(g, index))
    got = weak_identities_within(space, eval_rows(words))
    assert got == echelonize(expected) and got.dim > 0


@pytest.mark.parametrize("n", range(2, 7))
def test_proper_kernel_matches_the_diagonal_x1_rows(n):
    """The E11 rows give the RREF the x1 = diag(a1, c1) rows do."""
    expected = weak_identities_within(proper_span(n),
                                      eval_rows(multilinear_words(n)))
    assert tideal.proper_kernel(n).rows == expected.rows


@pytest.mark.parametrize("n", [4, 5])
def test_proper_kernel_is_full_kernel_intersected(n):
    word_rows = eval_rows(multilinear_words(n))
    everything = echelonize([{i: 1} for i in range(len(word_rows))])
    gamma_side = weak_identities_within(proper_span(n), word_rows)
    full_side = weak_identities_within(everything, word_rows)
    assert gamma_side == subspace_intersect(full_side, proper_span(n))
    assert gamma_side == tideal.proper_kernel(n)
