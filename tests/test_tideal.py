"""Weak T-ideal consequences, membership, and the main degree checks."""

import itertools
import random
import sys
import time
from fractions import Fraction
from math import factorial

import pytest

from weakid.freealg import (NcPoly, coeff_vector, comm, from_coeffs,
                            multilinear_words, proper_span, standard_poly,
                            substitute, word_index)
from weakid.jordan import sj_multilinear_span
from weakid.linalg import echelonize
from weakid.matrep import is_weak_identity
from weakid.tideal import (consequence_family, consequences_span,
                           default_generators, is_consequence, metabelian,
                           pn_kernel_dim, verify_degree)

from tests import identities as ids
from tests.eval_oracle import exact_kernel_dim, oracle_is_weak_identity
from tests.family_oracles import (base_by_normalized, moves_by_words,
                                  specializations_by_substitution)
from tests.linalg_oracles import subspace_intersect, subspace_sum


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


def _unreduced_family(gens, n):
    """Every a * f(u_1, ..., u_k) * b: each variable labelled into the left
    word, a slot block or the right word, every order of both outer words,
    no slot-symmetry reduction and no induction on the degree."""
    family = []
    for f in gens:
        k = max(f.support())
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
                        family.append(NcPoly({a: 1}) * g * NcPoly({b: 1}))
    return family


@pytest.mark.parametrize("gens, n", [
    (default_generators(), 4),
    (default_generators(), 5),
    ((metabelian(),), 4),
    ((metabelian(),), 5),
    # S3 does not vanish at a unit slot, so it reaches below its arity
    ((standard_poly(3),), 2),
    ((standard_poly(3),), 3),
    ((standard_poly(3),), 4),
    ((standard_poly(3),), 5),
], ids=["default-4", "default-5", "metabelian-4", "metabelian-5",
        "s3-2", "s3-3", "s3-4", "s3-5"])
def test_symmetry_reduced_enumeration_matches_full_enumeration(gens, n):
    """The family builds each degree from the one below by one-letter moves
    (outer letters and circle expansions) on top of the unit
    specializations; its span must equal the one from the unreduced
    enumeration of every a * f(u_1, ..., u_k) * b."""
    index = word_index(multilinear_words(n))
    full_span = echelonize([coeff_vector(g, index)
                            for g in _unreduced_family(gens, n)])
    assert consequences_span(gens, n) == full_span


def test_degree6_family_is_one_letter_multiples_plus_core():
    """x_j * r and r * x_j for the 55 RREF rows r at degree 5 and the 6
    letters j, then r[x_i -> x_i o x_j] for the 15 pairs i < j, and no base:
    330 / 330 / 825 / 0 rows."""
    from weakid import tideal

    family = consequence_family(default_generators(), 6)
    assert consequences_span(None, 5).dim == 55
    assert len(family) == 330 + 330 + 825 == 1485
    assert tideal._base(default_generators(), 6) == []
    words = multilinear_words(6)

    def firsts(row):
        return {words[c][0] for c in row}

    def lasts(row):
        return {words[c][-1] for c in row}

    # x_j * r for j = 1..6, 55 rows each, then r * x_j likewise
    blocks = [{j} for j in range(1, 7) for _ in range(55)]
    assert [firsts(r) for r in family[:330]] == blocks
    assert [lasts(r) for r in family[330:660]] == blocks
    # r[x_i -> x_i o x_j] for the pairs i < j, 55 rows each: x_j sits just
    # after x_i in half of the words and just before it in the other half
    pairs = [(i, j) for j in range(1, 7) for i in range(1, j)
             for _ in range(55)]
    assert len(pairs) == len(family[660:])
    for (i, j), row in zip(pairs, family[660:]):
        gaps = [words[c].index(j) - words[c].index(i) for c in row]
        assert gaps.count(1) == gaps.count(-1) == len(gaps) // 2


def _relabelled(f, perm):
    return substitute(f, {i: NcPoly.variable(p) for i, p in enumerate(perm, 1)})


FAMILY_CASES = {
    "default": default_generators(),
    "metabelian": (metabelian(),),
    # the default pair as a relabelled presentation passes it
    "default-relabelled": tuple(_relabelled(f, (3, 1, 4, 2))
                                for f in default_generators()),
}


@pytest.mark.parametrize("name", sorted(FAMILY_CASES))
def test_family_rows_match_the_word_route(name):
    """The moves made through column maps are, row for row, the ones built
    through word form, followed by the base, and the n * d left multiples
    that open the family lead at distinct columns, so the elimination
    stores each as it stands."""
    from weakid import tideal

    gens = FAMILY_CASES[name]
    for n in range(1, 7):
        left, right, expanded = moves_by_words(gens, n)
        family = consequence_family(gens, n)
        assert family == [*left, *right, *expanded, *tideal._base(gens, n)]
        d = consequences_span(gens, n - 1).dim if n > 1 else 0
        assert len(left) == len(right) == n * d
        assert len(expanded) == n * (n - 1) // 2 * d
        assert len({min(r) for r in family[:n * d]}) == n * d


def _seeded_relabelling(gens, seed):
    rng = random.Random(seed)
    out = []
    for f in gens:
        perm = list(range(1, max(f.support()) + 1))
        rng.shuffle(perm)
        out.append(_relabelled(f, perm))
    return tuple(out)


SPECIALIZATION_CASES = {
    "default": default_generators(),
    "default-seeded-relabelling": _seeded_relabelling(default_generators(), 5),
    "metabelian": (metabelian(),),
    "s3": (standard_poly(3),),
    "commutator": (comm(NcPoly.variable(1), NcPoly.variable(2)),),
    # Fraction coefficients, and leads of -3 and -3/2, which normalized
    # divides by
    "fractions-negative-leads": (
        NcPoly({(1, 2): -3, (2, 1): Fraction(5, 7)}),
        Fraction(-3, 2) * standard_poly(3),
        -metabelian()),
}


@pytest.mark.parametrize("name", sorted(SPECIALIZATION_CASES))
def test_specializations_and_base_match_the_substitution_route(name):
    """Deleting the letters of the unit slots gives the polynomials that
    substituting 1 gives, term for term in the same order, and the base
    rows are the RREF rows of the span of the representatives that
    ``normalized`` keeps, at n = 1..k."""
    from weakid import tideal

    def listed(polys):
        return [list(g.terms.items()) for g in polys]

    gens = SPECIALIZATION_CASES[name]
    for n in range(1, max(max(f.support()) for f in gens) + 1):
        assert (listed(tideal._specializations(gens, n))
                == listed(specializations_by_substitution(gens, n))), n
        index = word_index(multilinear_words(n))
        assert tideal._base(gens, n) == list(echelonize(
            [coeff_vector(g, index) for g in base_by_normalized(gens, n)]).rows), n


# (generators, degree, rounds of adjacent transpositions the unit
# specializations need to span their Sym(n)-module)
BASE_ROUND_CASES = {
    # [[x1, x2], [x3, x4]]: (2 3) gives the pairing {13|24}, and only a
    # second round gives {14|23}
    "metabelian-4": ((metabelian(),), 4, 2),
    # S3 is alternating: it spans its one-dimensional module alone
    "s3-3": ((standard_poly(3),), 3, 0),
    "fractions-negative-leads-4": (
        SPECIALIZATION_CASES["fractions-negative-leads"], 4, 2),
}


@pytest.mark.parametrize("name", sorted(BASE_ROUND_CASES))
def test_base_closes_the_specializations_under_relabelling(name):
    """``_base`` is the RREF of every relabelling of every unit
    specialization, also where the closure under adjacent transpositions
    takes more than one round to get there."""
    from weakid import tideal

    gens, n, rounds = BASE_ROUND_CASES[name]
    index = word_index(multilinear_words(n))
    specs = specializations_by_substitution(gens, n)
    module = echelonize([coeff_vector(_relabelled(g, perm), index)
                         for g in specs
                         for perm in itertools.permutations(range(1, n + 1))])
    assert tideal._base(gens, n) == list(module.rows)
    swaps = []
    for t in range(1, n):
        perm = list(range(1, n + 1))
        perm[t - 1], perm[t] = perm[t], perm[t - 1]
        swaps.append(perm)
    layer, seen = specs, list(specs)
    for _ in range(rounds):
        assert echelonize([coeff_vector(g, index) for g in seen]) != module
        layer = [_relabelled(g, perm) for g in layer for perm in swaps]
        seen += layer
    assert echelonize([coeff_vector(g, index) for g in seen]) == module


def test_cold_verify_substitutes_nothing_and_specializes_once(monkeypatch):
    """A cold ``verify_degree(5)`` builds each degree's unit specializations
    once, for the certification and the base together, and never calls
    ``freealg.substitute``, under any module's name for it."""
    from weakid import freealg, tideal

    for cached in (tideal._kernel_bound, tideal._consequences,
                   tideal._specializations):
        cached.cache_clear()
    calls = []
    real = freealg.substitute

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("weakid"):
            for name, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, name, counting)
    assert verify_degree(5).equal
    assert calls == []
    info = tideal._specializations.cache_info()
    assert (info.misses, info.currsize) == (5, 5)


@pytest.mark.parametrize("gens", [default_generators(), (metabelian(),)],
                         ids=["default", "metabelian"])
def test_build_order_spans_what_the_canonical_order_spans(gens):
    """The family is eliminated in the order it is built; the span is the
    one of the family sorted short first, in a canonical order."""
    for n in (4, 5, 6):
        family = consequence_family(gens, n)
        canonical = sorted(family, key=lambda r: (len(r), sorted(r.items())))
        assert echelonize(family) == echelonize(canonical)


def _seeded_presentation(gens, seed):
    """The generators in a seeded order, each with its variables relabelled
    by a seeded permutation, as the benchmark's presentations are made."""
    gens = list(gens)
    random.Random(seed).shuffle(gens)
    return _seeded_relabelling(gens, seed)


PRESENTED = {"default": default_generators(), "metabelian": (metabelian(),)}


@pytest.mark.parametrize("name", sorted(PRESENTED))
def test_base_rows_do_not_depend_on_the_presentation(name):
    """``_base`` lists the same primitive rows, in the same order, however
    the generators are ordered and their variables named."""
    from weakid.tideal import _base

    gens = PRESENTED[name]
    for n in range(1, 5):
        want = _base(gens, n)
        for seed in range(1, 6):
            assert _base(_seeded_presentation(gens, seed), n) == want, (n, seed)


@pytest.mark.parametrize("name", sorted(PRESENTED))
def test_stored_rows_do_not_depend_on_the_presentation(name):
    """The elimination stores the same rows, under the same pivots, for
    every presentation of the same generators, so its work is the same.
    The rows compared are the settled ones: reading ``_rows`` clears the
    left multiples, seeded as fixed reducers, at the built pivots, which
    gives the RREF rows.  The span cache is cleared before each
    presentation, so each presentation starts cold."""
    from weakid.tideal import _consequences

    def stored(gens):
        _consequences.cache_clear()
        return [{p: dict(r) for p, r in _consequences(gens, n)[0]._rows.items()}
                for n in (4, 5, 6)]

    gens = PRESENTED[name]
    want = stored(gens)
    for seed in (1, 2):
        assert stored(_seeded_presentation(gens, seed)) == want, seed


SEEDED = {**PRESENTED, "s3": (standard_poly(3),),
          "commutator": (comm(NcPoly.variable(1), NcPoly.variable(2)),)}


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seeded_reducers_settle_to_the_plain_elimination(name):
    """``_consequences`` seeds each degree's left multiples as fixed
    reducers; once its stored rows are read (settled), they are the rows
    the reducer-free elimination of the whole family stores."""
    from weakid.tideal import _consequences

    gens = SEEDED[name]
    _consequences.cache_clear()
    below = 0
    for n in range(1, 7):
        span = _consequences(gens, n)[0]
        assert len(span._fixed) == n * below, n  # seeded, not yet settled
        plain = echelonize(consequence_family(gens, n))
        assert span._rows == plain._rows, n
        below = span.dim


def test_seeded_reducers_settle_to_the_plain_elimination_at_degree_7():
    from weakid.tideal import _consequences

    gens = default_generators()
    plain = echelonize(consequence_family(gens, 7))
    assert _consequences(gens, 7)[0]._rows == plain._rows


def test_consequences_span_rejects_degrees_outside_the_supported_range():
    t0 = time.perf_counter()
    for n in (-1, 0, 8, 9):
        with pytest.raises(ValueError):
            consequences_span(None, n)
    assert time.perf_counter() - t0 < 1


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


@pytest.mark.parametrize("n", [4, 5])
def test_proper_consequence_dim_matches_the_intersection_oracle(n):
    """verify --proper counts span ∩ Gamma by the dimension formula; the
    Zassenhaus oracle builds a basis of the intersection instead."""
    oracle = subspace_intersect(consequences_span(None, n), proper_span(n))
    assert verify_degree(n, proper=True).dim_consequences == oracle.dim


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


def test_multilinear_input_on_gapped_labels():
    x = {i: NcPoly.variable(i) for i in (2, 3, 5, 7, 8, 9)}
    s4 = substitute(standard_poly(4), {1: x[9], 2: x[2], 3: x[7], 4: x[5]})
    assert is_consequence(s4)
    assert is_consequence(s4 * x[8] - 3 * x[8] * s4)
    assert not is_consequence(comm(x[8], x[3]))


def test_is_consequence_rejects_inhomogeneous(monkeypatch):
    from weakid import tideal

    xv = NcPoly.variable(1)
    with pytest.raises(ValueError):
        is_consequence(xv + xv * xv)
    # degree 8 is refused before its 8! linearized terms are built
    monkeypatch.setattr(tideal, "linearize", None)
    with pytest.raises(ValueError, match="above the supported maximum 7"):
        is_consequence(NcPoly({(1,) * 8: 1}))


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


@pytest.mark.parametrize("n", range(1, 7))
def test_weight_space_kernel_dim_is_the_exact_rank(n):
    """The weight-space dimension equals n! minus the exact rank of all n!
    multilinear evaluation rows."""
    assert pn_kernel_dim(n) == exact_kernel_dim(n)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_cocharacter_matches_the_trace_route(n):
    """The weight-space multiplicities of P_n/K_n equal the trace
    decomposition of the whole multilinear space modulo the kernel of its
    evaluation rows."""
    from weakid import tideal
    from weakid.linalg import left_kernel
    from weakid.matrep import eval_rows
    from weakid.repthy import decompose_quotient

    everything = echelonize([{i: 1} for i in range(factorial(n))])
    kernel = left_kernel(eval_rows(multilinear_words(n)))
    assert tideal._cocharacter(n) == decompose_quotient(everything, kernel, n)


def test_degree_8_kernel_and_cocharacter():
    """dim K_8 = 8! - 1,868, from 1,647 words in x1, x2, x3."""
    from weakid import tideal

    assert pn_kernel_dim(8) == 38452
    assert tideal._cocharacter(8) == {
        (8,): 1, (7, 1): 7, (6, 2): 10, (6, 1, 1): 6, (5, 3): 9,
        (5, 2, 1): 8, (4, 4): 4, (4, 3, 1): 6, (4, 2, 2): 3, (3, 3, 2): 2}


@pytest.mark.parametrize("n", range(1, 7))
def test_kernel_bound_is_tight_on_the_multilinear_rows(n):
    """The rank mod 2 of each degree's multilinear evaluation rows equals
    their rank over Q, so the bound is the kernel dimension itself."""
    from weakid import tideal
    from weakid.linalg import rank, rank_mod2
    from weakid.matrep import eval_rows

    rows = eval_rows(multilinear_words(n))
    assert rank_mod2(rows) == rank(rows)
    assert tideal._kernel_bound(n) == pn_kernel_dim(n)


@pytest.fixture
def cold_kernel_caches():
    """Clear the caches the kernel bound feeds, before and after the test,
    so that a bound patched in the test stays in it."""
    from weakid import tideal

    caches = (tideal._kernel_bound, tideal.pn_kernel_dim, tideal._consequences)
    for cached in caches:
        cached.cache_clear()
    yield tideal
    for cached in caches:
        cached.cache_clear()


@pytest.mark.parametrize("n", [4, 5])
def test_sandwich_closes_without_the_exact_rank(n, cold_kernel_caches,
                                                monkeypatch):
    """For the default generators the certified span reaches the bound, so
    verify_degree never computes the rank over Q."""
    tideal = cold_kernel_caches

    def refuse(_):
        raise AssertionError("the exact kernel rank was computed")

    monkeypatch.setattr(tideal, "pn_kernel_dim", refuse)
    report = verify_degree(n)
    assert (report.dim_kernel, report.equal) == ({4: 4, 5: 55}[n], True)


def test_undercounted_bound_falls_back_to_the_exact_rank(cold_kernel_caches,
                                                         monkeypatch):
    """A bound one above the kernel dimension stays sound: the elimination
    runs to the full span, the sandwich does not close, and the exact rank
    gives the reported kernel dimension."""
    tideal = cold_kernel_caches
    real_rank_mod2, real_kernel_dim = tideal.rank_mod2, tideal.pn_kernel_dim
    calls = []

    def counting(n):
        calls.append(n)
        return real_kernel_dim(n)

    monkeypatch.setattr(tideal, "rank_mod2", lambda rows: real_rank_mod2(rows) - 1)
    monkeypatch.setattr(tideal, "pn_kernel_dim", counting)
    report = verify_degree(5)
    assert tideal._kernel_bound(5) == 56
    assert (report.dim_kernel, report.dim_consequences) == (55, 55)
    assert report.containment and report.equal
    assert calls == [5]
    assert list(report.timings_ms) == ["kernel_ms", "consequences_ms"]


def test_incomplete_generators_report_the_exact_kernel():
    """The metabelian generator alone is certified but spans less than the
    kernel at degree 4, so the exact rank decides and equality fails."""
    report = verify_degree(4, generators=(metabelian(),))
    assert report.containment
    assert (report.dim_kernel, report.dim_consequences) == (4, 3)
    assert not report.equal


def test_family_members_are_weak_identities():
    """verify_degree certifies containment on the family alone; every RREF
    row of the span and of its proper part must then be a weak identity too,
    checked here on the tests' own evaluation oracle, which shares no code
    with the certification's ``is_weak_identity``."""
    words = multilinear_words(5)
    for row in consequence_family(default_generators(), 5):
        assert oracle_is_weak_identity(from_coeffs(row, words))
    span = consequences_span(None, 5)
    for space in (span, subspace_intersect(span, proper_span(5))):
        assert space.dim > 0
        for row in space.rows:
            assert oracle_is_weak_identity(from_coeffs(row, words))


def test_family_at_degree_4():
    fam = consequence_family(default_generators(), 4)
    # S4 itself plus the three commutator pairings
    assert len(fam) == 4
    assert echelonize(fam).dim == 4


def test_low_degree_spans_are_zero():
    # below the generator arity nothing can be substituted
    span = consequences_span(None, 2)
    assert span.dim == 0
    assert not is_consequence(comm(NcPoly.variable(1), NcPoly.variable(2)))


def test_the_bound_is_taken_before_the_family(monkeypatch):
    """A cold ``consequences_span(None, 5)`` takes each degree's kernel
    bound before it builds that degree's family, from the generators'
    degree 4 on, and takes none below, where the families are empty."""
    from weakid import tideal

    for cached in (tideal._kernel_bound, tideal._consequences):
        cached.cache_clear()
    seen = []
    real = tideal.consequence_family

    def recording(gens, n):
        seen.append((n, tideal._kernel_bound.cache_info().currsize))
        return real(gens, n)

    monkeypatch.setattr(tideal, "consequence_family", recording)
    assert consequences_span(None, 5).dim == 55
    assert seen == [(1, 0), (2, 0), (3, 0), (4, 1), (5, 2)]


def test_verify_reports_failure_for_non_identity_generators():
    """With a generator that is not a weak identity, the certified ceiling is
    disabled, the span is computed in full, and the report says so."""
    report = verify_degree(4, generators=(standard_poly(3),))
    assert report.containment is False
    assert report.equal is False
    # S3 consequences fill more than the weak-identity kernel at degree 4
    assert report.dim_consequences > report.dim_kernel == 4


def test_containment_fails_at_and_above_a_non_identity_generator():
    """[x1, x2] is not a weak identity: the base fails at its own degree, and
    the degree above inherits the failure along with its one-letter
    moves."""
    from weakid import tideal

    gens = (comm(NcPoly.variable(1), NcPoly.variable(2)),)
    assert tideal._consequences(gens, 2)[1] is False
    assert tideal._consequences(gens, 3)[1] is False
    report = verify_degree(4, generators=gens)
    assert report.containment is False
    assert report.dim_kernel == 4


def test_degree6_certification_evaluates_only_the_core(monkeypatch):
    """Only the unit specializations are evaluated: the two generators
    themselves at degree 4, and nothing at degree 6 once degree 5 is
    cached, where the 1485 moves inherit the degree-5 flag."""
    from weakid import tideal

    calls = []
    real = tideal.is_weak_identity

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(tideal, "is_weak_identity", counting)
    tideal._consequences.cache_clear()
    assert tideal._consequences(default_generators(), 4)[1]
    assert calls == list(default_generators())
    consequences_span(None, 5)
    calls.clear()
    span, certified = tideal._consequences(default_generators(), 6)
    assert certified and span.dim == 516
    assert calls == []


@pytest.mark.parametrize("gen", [NcPoly.one(), NcPoly.zero()],
                         ids=["one", "zero"])
def test_constant_generators_are_rejected(gen):
    with pytest.raises(ValueError, match="multilinear in x1..xk"):
        verify_degree(4, generators=(gen,))


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
