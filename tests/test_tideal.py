"""Weak T-ideal consequences, membership, and the main degree checks."""

import itertools
import random

import pytest

from weakid.freealg import (NcPoly, coeff_vector, comm, from_coeffs,
                            multilinear_words, proper_span, substitute,
                            word_index)
from weakid.jordan import sj_multilinear_span
from weakid.linalg import echelonize, subspace_intersect
from weakid.matrep import is_weak_identity
from weakid.tideal import (consequence_family, consequences_span,
                           default_generators, is_consequence, metabelian,
                           pn_kernel_dim, verify_degree)

from tests import identities as ids
from tests.eval_oracle import oracle_is_weak_identity
from tests.linalg_oracles import subspace_sum


def test_generators_are_weak_identities():
    s4, mb = default_generators()
    assert is_weak_identity(s4)
    assert is_weak_identity(mb)
    assert mb == comm(comm(NcPoly.variable(1), NcPoly.variable(2)),
                      comm(NcPoly.variable(3), NcPoly.variable(4)))


def test_generators_vanish_on_unit_substitution():
    one = NcPoly.one()
    for f in default_generators():
        for slot in range(1, 5):
            subs = {i: NcPoly.variable(i) for i in range(1, 5)}
            subs[slot] = one
            assert substitute(f, subs).is_zero()


def test_metabelian_span_contains_generator():
    span = consequences_span((metabelian(),), 4)
    index = word_index(multilinear_words(4))
    gen = metabelian()
    assert span.contains(coeff_vector(gen, index))
    # the commutator-swapped product is the generator itself, up to relabeling
    swapped = comm(comm(NcPoly.variable(3), NcPoly.variable(4)),
                   comm(NcPoly.variable(1), NcPoly.variable(2)))
    assert span.contains(coeff_vector(swapped, index))


def test_symmetry_reduced_enumeration_matches_full_enumeration():
    """The enumeration keeps one ordered-block tuple per slot-symmetry orbit;
    the span must equal the one from the unreduced enumeration."""
    n = 4
    index = word_index(multilinear_words(n))
    reduced = consequences_span(None, n)

    full_family = []
    for f in default_generators():
        k = 4
        for labels in itertools.product(range(k + 2), repeat=n):
            blocks = [[] for _ in range(k)]
            left, right = [], []
            for e, lab in zip(range(1, n + 1), labels):
                if lab == 0:
                    left.append(e)
                elif lab == k + 1:
                    right.append(e)
                else:
                    blocks[lab - 1].append(e)
            choices = []
            for b in blocks:
                choices.append(sj_multilinear_span(frozenset(b)).basis if b
                               else (NcPoly.one(),))
            for us in itertools.product(*choices):
                g = substitute(f, {j + 1: us[j] for j in range(k)})
                if g.is_zero():
                    continue
                for a in itertools.permutations(left):
                    for b in itertools.permutations(right):
                        full_family.append(NcPoly({a: 1}) * g * NcPoly({b: 1}))
    full_span = echelonize([coeff_vector(g, index) for g in full_family])
    assert reduced == full_span


def test_verify_degree_4():
    report = verify_degree(4)
    assert report.dim_p == 24
    assert report.dim_kernel == 4
    assert report.dim_consequences == 4
    assert report.containment and report.equal


def test_report_invariant_containment_bounds_dims():
    for report in (verify_degree(4), verify_degree(5),
                   verify_degree(4, proper=True)):
        if report.containment:
            assert report.dim_consequences <= report.dim_kernel


def test_verify_degree_bounds():
    with pytest.raises(ValueError):
        verify_degree(3)
    with pytest.raises(ValueError):
        verify_degree(8)


def test_verify_degree_4_proper():
    report = verify_degree(4, proper=True, with_decomposition=True)
    assert report.dim_p == 9
    assert report.dim_kernel == 4
    assert report.dim_consequences == 4
    assert report.equal
    assert report.decomposition == (((3, 1), 1), ((2, 2), 1))


def test_consequence_suite_low_degrees():
    for f in (ids.pfaffian_identity(), ids.pfaffian_identity_full(),
              ids.circle_commutator_identity(), ids.two_var_degree5_identity(),
              ids.sandwiched_rearrangement_identity(),
              ids.rearrangement_identity(), ids.three_alternating_identity()):
        assert is_consequence(f)


def test_circle_commutator_follows_from_metabelian_alone():
    assert is_consequence(ids.circle_commutator_identity(), (metabelian(),))


def test_commutator_is_not_a_consequence():
    assert not is_consequence(comm(NcPoly.variable(1), NcPoly.variable(2)))


def test_is_consequence_rejects_inhomogeneous():
    xv = NcPoly.variable(1)
    with pytest.raises(ValueError):
        is_consequence(xv + xv * xv)


def test_zero_is_a_consequence():
    assert is_consequence(NcPoly.zero())


def test_consequence_span_is_sym_stable():
    rng = random.Random(7)
    for n in (4, 5):
        span = consequences_span(None, n)
        words = multilinear_words(n)
        index = word_index(words)
        rev = {i: w for w, i in index.items()}
        rows = span.rows
        for _ in range(100):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            row = rows[rng.randrange(len(rows))]
            moved = {index[tuple(perm[l - 1] for l in rev[c])]: v
                     for c, v in row.items()}
            assert span.contains(moved)


def test_kernel_dims_low_degrees():
    assert pn_kernel_dim(4) == 4
    assert pn_kernel_dim(5) == 55


def test_family_members_are_weak_identities():
    """verify_degree certifies containment on the family alone; every RREF
    row of the span and of its proper part must then be a weak identity too,
    checked here on the tests' own evaluation oracle, which shares no code
    with the certification's ``poly_eval_row``."""
    for g in consequence_family(default_generators(), 5):
        assert oracle_is_weak_identity(g)
    words = multilinear_words(5)
    span = consequences_span(None, 5)
    for space in (span, subspace_intersect(span, proper_span(5))):
        assert space.dim > 0
        for row in space.rows:
            assert oracle_is_weak_identity(from_coeffs(row, words))


def test_family_at_degree_4():
    fam = consequence_family(default_generators(), 4)
    # S4 itself plus the three commutator pairings
    assert len(fam) == 4
    index = word_index(multilinear_words(4))
    assert echelonize([coeff_vector(g, index) for g in fam]).dim == 4


def test_low_degree_spans_are_zero():
    # below the generator arity nothing can be substituted
    span = consequences_span(None, 2)
    assert span.dim == 0
    assert not is_consequence(comm(NcPoly.variable(1), NcPoly.variable(2)))


def test_verify_reports_failure_for_non_identity_generators():
    """With a generator that is not a weak identity, the certified ceiling is
    disabled, the span is computed in full, and the report says so."""
    from weakid.freealg import standard_poly

    report = verify_degree(4, generators=(standard_poly(3),))
    assert report.containment is False
    assert report.equal is False
    # S3 consequences fill more than the weak-identity kernel at degree 4
    assert report.dim_consequences > report.dim_kernel


# -- degree 6 -------------------------------------------------------------------


def test_degree6_consequences():
    for f in (ids.even_even_commute_identity(),
              ids.even_odd_anticommute_identity(),
              ids.bracket_pair_relation(), ids.square_relation(),
              ids.cube_relation()):
        assert is_consequence(f)


def test_odd_product_reduces_to_even_products_mod_ideal():
    """[x1,x2,x3][x4,x5,x6] is congruent to a combination of even-length
    commutator products modulo the consequence span, but is not itself one."""
    n = 6
    index = word_index(multilinear_words(n))
    f = ids.odd_odd_product()
    vec = coeff_vector(f, index)
    x = [None] + [NcPoly.variable(i) for i in range(1, 7)]
    from weakid.freealg import left_normed

    even_products = []
    elems = list(range(1, 7))
    for pair in itertools.combinations(elems, 2):
        rest = [e for e in elems if e not in pair]
        for perm4 in itertools.permutations(rest):
            a = comm(x[pair[0]], x[pair[1]])
            b = left_normed(*(x[i] for i in perm4))
            even_products += [a * b, b * a]
    for p1 in itertools.combinations(elems, 2):
        r1 = [e for e in elems if e not in p1]
        for p2 in itertools.combinations(r1, 2):
            if p2[0] < p1[0]:
                continue
            p3 = tuple(e for e in r1 if e not in p2)
            for order in itertools.permutations((p1, p2, p3)):
                even_products.append(
                    comm(x[order[0][0]], x[order[0][1]])
                    * comm(x[order[1][0]], x[order[1][1]])
                    * comm(x[order[2][0]], x[order[2][1]]))
    even_span = echelonize([coeff_vector(g, index) for g in even_products])
    assert not even_span.contains(vec)
    assert not is_consequence(f)
    total = subspace_sum(even_span, consequences_span(None, n))
    assert total.contains(vec)


def test_consequence_cache_is_bounded():
    """Each generator presentation a caller passes keys its own span; the
    cache keeps a fixed number of them, at least one per supported degree."""
    from weakid import tideal

    s4, mb = default_generators()
    presentations = []
    for perm in itertools.permutations(range(1, 5)):
        g = substitute(mb, {i: NcPoly.variable(perm[i - 1]) for i in range(1, 5)})
        for gens in ((s4, g), (g, s4)):
            if gens not in presentations:
                presentations.append(gens)
    bound = tideal._consequences.cache_info().maxsize
    assert 7 <= bound < len(presentations)
    for gens in presentations:
        assert verify_degree(4, generators=gens).equal
    assert tideal._consequences.cache_info().currsize <= bound
