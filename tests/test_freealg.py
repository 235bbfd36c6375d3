"""Free algebra arithmetic, spanning families, and canonical rendering."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weakid.freealg import (NcPoly, _block_commutators, circ, coeff_vector,
                            comm, involution, left_normed, linearize,
                            multilinear_words, perm_sign, proper_family,
                            proper_span, render, set_partitions,
                            standard_poly, substitute, two_var_commutator,
                            two_var_commutator_family, word_index)
from weakid.linalg import echelonize

from tests.family_oracles import (block_commutators_all_orderings,
                                  normalized, proper_family_all_orderings,
                                  substitute_by_products)

x1, x2, x3, x4 = (NcPoly.variable(i) for i in range(1, 5))


def count_derangements(n):
    """Oracle: enumerate permutations and count the fixed-point-free ones."""
    return sum(1 for p in itertools.permutations(range(n))
               if all(p[i] != i for i in range(n)))


small_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def nc_polys(draw, max_vars=3, max_len=3, max_terms=4):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        w = tuple(draw(st.lists(st.integers(1, max_vars), max_size=max_len)))
        c = draw(small_coeff)
        terms[w] = terms.get(w, 0) + c
    return NcPoly(terms)


@st.composite
def term_pairs(draw):
    """(word, coefficient) pairs over a few words, so that words repeat,
    with int, Fraction and zero coefficients, some cancelled exactly by a
    negated copy."""
    words = st.sampled_from([(), (1,), (2,), (1, 2), (2, 1)])
    coeffs = st.one_of(st.integers(-2, 2),
                       st.fractions(-2, 2, max_denominator=3))
    pairs = draw(st.lists(st.tuples(words, coeffs), max_size=8))
    cancels = [(w, -c) for w, c in pairs if draw(st.booleans())]
    return draw(st.permutations(pairs + cancels))


@settings(max_examples=100, deadline=None)
@given(term_pairs(), term_pairs())
def test_terms_add_up_per_word_and_cancellations_drop(pairs, other):
    naive = {}
    for w, c in pairs:
        naive[w] = naive.get(w, 0) + c
    f, g = NcPoly(pairs), NcPoly(other)
    assert f.terms == {w: c for w, c in naive.items() if c}
    assert f - g == f + (-g)


def test_difference_builds_no_negated_copy(monkeypatch):
    f, g = x1 * x2 - 3 * x2, x2 * x1 + Fraction(1, 2) * x2
    expected = {(1, 2): 1, (2, 1): -1, (2,): Fraction(-7, 2)}

    def refused(self):
        raise AssertionError("f - g negated g")

    monkeypatch.setattr(NcPoly, "__neg__", refused)
    assert (f - g).terms == expected
    assert (f - f).is_zero()


def test_mul_examples():
    assert (x1 * x2).terms == {(1, 2): 1}
    sq = (x1 + x2) * (x1 + x2)
    assert sq.terms == {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1}
    assert (x1 * NcPoly.zero()).is_zero()


def test_unit_is_neutral():
    one = NcPoly.one()
    f = x1 * x2 - 3 * x2
    assert one * f == f == f * one


@settings(max_examples=100, deadline=None)
@given(nc_polys(), nc_polys(), nc_polys())
def test_ring_axioms(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h
    assert f + g == g + f
    assert f - f == NcPoly.zero()


def test_comm_examples():
    assert comm(x1, x1).is_zero()
    assert comm(x1, x2).terms == {(1, 2): 1, (2, 1): -1}
    # [[y, x], x] = yxx - 2xyx + xxy
    assert left_normed(x2, x1, x1).terms == {
        (2, 1, 1): 1, (1, 2, 1): -2, (1, 1, 2): 1}


def test_left_normed_arity():
    with pytest.raises(ValueError):
        left_normed(x1)


def test_circ_examples():
    assert circ(x1, x2).terms == {(1, 2): 1, (2, 1): 1}
    assert circ(x1, x1).terms == {(1, 1): 2}


@settings(max_examples=100, deadline=None)
@given(nc_polys(), nc_polys())
def test_circ_symmetric(f, g):
    assert circ(f, g) == circ(g, f)


def test_involution_examples():
    assert involution(x1 * x2 * x3).terms == {(3, 2, 1): 1}
    assert involution(comm(x1, x2)) == -comm(x1, x2)
    assert involution(left_normed(x1, x2, x3)) == left_normed(x1, x2, x3)


@settings(max_examples=100, deadline=None)
@given(nc_polys(), nc_polys())
def test_involution_antiautomorphism(f, g):
    assert involution(f * g) == involution(g) * involution(f)
    assert involution(involution(f)) == f


@pytest.mark.parametrize("n", range(2, 7))
def test_left_normed_involution_sign(n):
    args = [NcPoly.variable(i) for i in range(1, n + 1)]
    c = left_normed(*args)
    assert involution(c) == (-1) ** (n - 1) * c


def test_standard_poly_basics():
    assert standard_poly(2) == comm(x1, x2)
    s4 = standard_poly(4)
    assert len(s4.terms) == 24
    assert all(c in (1, -1) for c in s4.terms.values())
    with pytest.raises(ValueError):
        standard_poly(0)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_standard_poly_alternates(k):
    sk = standard_poly(k)
    for perm in itertools.permutations(range(1, k + 1)):
        swapped = substitute(sk, {i: NcPoly.variable(perm[i - 1])
                                  for i in range(1, k + 1)})
        assert swapped == perm_sign(perm) * sk
    subs = {i: NcPoly.variable(i) for i in range(1, k + 1)}
    subs[2] = NcPoly.variable(1)
    assert substitute(sk, subs).is_zero()


def test_standard_poly_unit_argument():
    # oracle: expand the 6 terms of S3(1, y, z) by hand
    by_hand = x2 * x3 - x3 * x2
    s3 = substitute(standard_poly(3), {1: NcPoly.one(), 2: x2, 3: x3})
    assert s3 == by_hand
    # S4 dies on a unit argument (used to prune unit substitutions)
    s4 = substitute(standard_poly(4), {1: NcPoly.one(), 2: x2, 3: x3, 4: x4})
    assert s4.is_zero()


def test_multilinear_words():
    assert len(multilinear_words(3)) == 6
    assert multilinear_words(2) == ((1, 2), (2, 1))
    words = multilinear_words(4)
    assert list(words) == sorted(words)


def stirling2(n, j):
    """Oracle: set partitions of n elements into exactly j blocks."""
    if n == 0:
        return int(j == 0)
    if j == 0:
        return 0
    return j * stirling2(n - 1, j) + stirling2(n - 1, j - 1)


@pytest.mark.parametrize("elems", [(), (5,), frozenset({9, 2, 7}),
                                   [4, 1, 6, 3, 5], range(1, 7)])
@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_set_partitions(elems, k):
    parts = list(set_partitions(elems, k))
    assert len(parts) == len(set(parts)) == sum(
        stirling2(len(elems), j) for j in range(k + 1))
    for blocks in parts:
        assert len(blocks) <= k
        assert sorted(e for b in blocks for e in b) == sorted(elems)
        assert all(list(b) == sorted(b) for b in blocks)
        assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)


@pytest.mark.parametrize("n,expected", [(2, 1), (3, 2), (4, 9), (5, 44),
                                        (6, 265)])
def test_proper_dims_are_derangement_numbers(n, expected):
    assert count_derangements(n) == expected
    assert len(proper_family(n)) == proper_span(n).dim == expected
    # a basis of what the products over all orderings of each block span
    index = word_index(multilinear_words(n))
    oracle = echelonize([coeff_vector(f, index)
                         for f in proper_family_all_orderings(n)])
    assert proper_span(n).rows == oracle.rows


def test_proper_family_lies_in_span():
    index = word_index(multilinear_words(4))
    span = proper_span(4)
    for f in proper_family(4):
        assert span.contains(coeff_vector(f, index))


@pytest.mark.parametrize("k", range(2, 7))
def test_block_commutators_start_with_the_least_letter(k):
    block = tuple(range(3, 3 + k))
    basis = _block_commutators(block)
    assert len(basis) == math.factorial(k - 1)
    # each has exactly one word starting with x3, with coefficient 1
    leading = [[(w, c) for w, c in f.terms.items() if w[0] == 3] for f in basis]
    assert all(len(lead) == 1 and lead[0][1] == 1 for lead in leading)
    assert len({lead[0][0] for lead in leading}) == len(basis)
    # and they span what every ordering spans
    words = tuple(itertools.permutations(block))
    index = word_index(words)
    span = echelonize([coeff_vector(f, index) for f in basis])
    assert span.dim == len(basis)
    assert all(span.contains(coeff_vector(f, index))
               for f in block_commutators_all_orderings(block))


def test_two_var_commutator():
    # [y,x](ad x)^0(ad y)^0 = [y, x]
    assert two_var_commutator(0, 0) == comm(x2, x1)
    assert two_var_commutator(1, 0) == left_normed(x2, x1, x1)
    assert two_var_commutator(0, 1) == left_normed(x2, x1, x2)


def test_two_var_family_degree5():
    fams = [two_var_commutator_family(dx, 5 - dx) for dx in range(1, 5)]
    sizes = [len(f) for f in fams]
    assert sizes == [1, 3, 3, 1]  # bidegrees (1,4), (2,3), (3,2), (4,1)
    family = [f for fam in fams for f in fam]
    assert len(family) == 8
    words = sorted({w for f in family for w in f.terms})
    index = {w: i for i, w in enumerate(words)}
    from weakid.linalg import echelonize

    assert echelonize([coeff_vector(f, index) for f in family]).dim == 8


def test_linearize_square():
    f = x1 * x1
    lin = linearize(f)
    assert lin.terms == {(1, 2): 1, (2, 1): 1}
    # respecializing both copies to x1 recovers 2! * f
    back = substitute(lin, {1: x1, 2: x1})
    assert back == 2 * f


def test_linearize_relabels_multilinear_input_in_increasing_order():
    x3, x5, x7 = (NcPoly.variable(i) for i in (3, 5, 7))
    lin = linearize(x3 * x7 * x5 - 2 * x5 * x3 * x7)
    assert lin.terms == {(1, 3, 2): 1, (2, 1, 3): -2}


def test_linearize_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        linearize(x1 + x1 * x2)


def test_render_examples():
    assert render(comm(x1, x2)) == "x1*x2 - x2*x1"
    assert render(NcPoly.zero()) == "0"
    assert render(NcPoly.scalar(Fraction(3, 2))) == "3/2"
    assert render(-x1) == "-x1"
    assert render(Fraction(1, 2) * x1 * x2 - x2) == "-x2 + 1/2*x1*x2"


@settings(max_examples=100, deadline=None)
@given(nc_polys())
def test_render_parse_round_trip(f):
    from weakid.expr import parse_poly

    assert parse_poly(render(f)) == f


def substitution_values():
    """Units, scalars, single variables and general polynomials."""
    return st.one_of(st.just(NcPoly.one()), small_coeff.map(NcPoly.scalar),
                     st.integers(1, 3).map(NcPoly.variable),
                     nc_polys(max_len=2, max_terms=3))


@settings(max_examples=200, deadline=None)
@given(nc_polys(), st.lists(substitution_values(), min_size=3, max_size=3),
       st.booleans())
def test_substitute_matches_factor_by_factor_products(f, values, tied):
    subs = dict(enumerate(values, start=1))
    if tied:
        subs[2] = subs[1]  # x1*x2 - x2*x1 and the like then cancel
    assert substitute(f, subs) == substitute_by_products(f, subs)


def test_substitute_examples():
    one, half = NcPoly.one(), Fraction(1, 2)
    assert substitute(comm(x1, x2), {1: x3 + x1, 2: x3 + x1}).is_zero()
    assert substitute(x1 * x2 * x1, {1: one, 2: x2}) == x2
    assert substitute(half * x1 * x1, {1: x2 - x3}) == substitute_by_products(
        half * x1 * x1, {1: x2 - x3})
    assert substitute(half * x1 * x1, {1: 2 * one}).terms == {(): 2}
    with pytest.raises(KeyError, match="x2 has no substitution value"):
        substitute(x1 * x2, {1: x1})


def _all_int(f):
    return all(type(c) is int for c in f.terms.values())


def test_integer_input_keeps_int_coefficients():
    f = NcPoly({(1, 2): 2, (2,): Fraction(3)}) - 3 * x1 * x2 * x1
    assert _all_int(f) and f.terms[(2,)] == 3
    assert _all_int(NcPoly.one()) and _all_int(x1)
    assert _all_int(NcPoly.scalar(Fraction(4, 2)))
    assert _all_int(f * f) and _all_int(comm(f, x3)) and _all_int(f.scale(-2))
    assert _all_int(substitute(comm(x1, x2), {1: f, 2: x1 + 2 * x3}))
    assert _all_int(linearize(x1 * x1 * x2 - 4 * x2 * x1 * x1))
    assert _all_int(standard_poly(4))
    assert all(c in (1, -1) for c in standard_poly(4).terms.values())
    half = NcPoly({(1,): Fraction(1, 2)})
    assert type(half.terms[(1,)]) is Fraction


def test_integral_results_of_fraction_arithmetic_are_int():
    """Scaling, sums and products that make a fraction integral store it
    as an int, as the constructor does."""
    from weakid.expr import parse_poly

    half = NcPoly({(1,): Fraction(1, 2)})
    for f in (half * 2, half + half, parse_poly("1/2*x + 1/2*x"),
              (2 * x2) * half, half - NcPoly({(1,): Fraction(-1, 2)})):
        assert f.terms in ({(1,): 1}, {(2, 1): 1})
        assert _all_int(f), f.terms


def test_normalized_gives_fractions_never_floats():
    g = normalized(2 * x1 * x2 + 3 * x2 * x1)
    assert g.terms == {(1, 2): 1, (2, 1): Fraction(3, 2)}
    assert all(type(c) is Fraction for c in g.terms.values())
    assert normalized(4 * comm(x1, x2)).terms == {(1, 2): 1, (2, 1): -1}
    for make in (lambda: NcPoly({(1,): 0.5}), lambda: 0.5 * x1,
                 lambda: NcPoly.scalar(0.5)):
        with pytest.raises(TypeError):
            make()
