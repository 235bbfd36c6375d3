"""Acceptance suite: one test per criterion, with the stated budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion, including wall-clock timings.  Degree 7 runs with the rest, as
``weakid verify --degree 7`` does, and its report is pinned byte for byte:
on a 2-vCPU VM it took 15 s wall and 88 MB max RSS.
"""

import itertools
import json
import random
import time
from math import factorial
from pathlib import Path

from weakid import __version__
from weakid.freealg import (NcPoly, comm, involution, multilinear_words,
                            perm_sign, proper_span, standard_poly,
                            substitute, word_index)
from weakid.matrep import is_weak_identity, weak_identity_witness
from weakid.repthy import (character, class_size, decompose,
                           decompose_quotient, partitions, sym_dim)
from weakid.series import (closed_form_series, family_dims,
                           gl2_decomposition, gl2_intersection_decomposition,
                           image_dims, intersection_dims,
                           tail_family_spans_image)
from weakid.tideal import (consequences_span, is_consequence, metabelian,
                           proper_kernel, verify_degree)

from tests import identities as ids
from tests.eval_oracle import (at_diagonal_x1, coords, generic_eval, mat_mul,
                               mat_transpose, package_coords)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name} ({elapsed:.2f}s, budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its budget: {elapsed:.1f}s")
        return False


def test_criterion_1_main_theorem_degree_4():
    with Budget("criterion 1: main equality at degree 4", 10):
        report = verify_degree(4)
        assert report.containment is True
        assert report.equal is True
        assert report.dim_kernel == report.dim_consequences == 4
        assert report.dim_p == 24


def test_criterion_2_main_theorem_degrees_5_and_6():
    with Budget("criterion 2a: main equality at degree 5", 60):
        report5 = verify_degree(5)
        assert report5.containment and report5.equal
        assert report5.dim_kernel == report5.dim_consequences == 55
    with Budget("criterion 2b: main equality at degree 6", 300):
        report6 = verify_degree(6)
        assert report6.containment and report6.equal
        assert report6.dim_kernel == report6.dim_consequences == 516


def test_criterion_2_stretch_degree_7():
    # Measured once on a 2-vCPU VM: 15 s wall, 88 MB max RSS
    # (dim_P 5040, kernel = consequences = 4417).
    with Budget("criterion 2c: main equality at degree 7", 300):
        report7 = verify_degree(7)
        assert report7.containment and report7.equal
        assert report7.dim_kernel == report7.dim_consequences == 4417
    # as `weakid verify --degree 7 --json --no-timings --full-p` prints it
    printed = json.dumps(report7.to_json_dict(__version__, with_timings=False),
                         indent=2, sort_keys=True) + "\n"
    assert printed == (Path(__file__).parent / "data"
                       / "verify_degree7.json").read_text()


def test_criterion_3_proper_degree4_decomposition():
    with Budget("criterion 3: degree-4 proper decomposition", 5):
        full = decompose(proper_span(4), 4)
        assert full == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 1}
        kern = decompose(proper_kernel(4), 4)
        assert kern == {(2, 1, 1): 1, (1, 1, 1, 1): 1}
        quot = decompose_quotient(proper_span(4), proper_kernel(4), 4)
        assert quot == {(3, 1): 1, (2, 2): 1}


def test_criterion_4_identity_suite():
    with Budget("criterion 4: weak identity suite", 30):
        positives = [
            standard_poly(4),
            metabelian(),
            ids.pfaffian_identity(),
            ids.circle_commutator_identity(),
            ids.two_var_degree5_identity(),
            ids.bracket_pair_relation(),
            ids.square_relation(),
            ids.cube_relation(),
            ids.three_alternating_identity(),
            ids.even_even_commute_identity(),
            ids.even_odd_anticommute_identity(),
            ids.capelli_instance(),
        ]
        for f in positives:
            assert is_weak_identity(f), f
        for f in (standard_poly(3), comm(NcPoly.variable(1), NcPoly.variable(2))):
            assert not is_weak_identity(f)
            witness = weak_identity_witness(f)
            assert witness is not None
            lines = witness.lines()
            assert lines and lines[-1].startswith("value = ")
            print(f"  witness for a non-identity: {'; '.join(lines)}")


def test_criterion_5_consequence_suite():
    with Budget("criterion 5: consequence suite", 120):
        for f in (ids.pfaffian_identity(),
                  ids.circle_commutator_identity(),
                  ids.two_var_degree5_identity(),
                  ids.sandwiched_rearrangement_identity(),
                  ids.rearrangement_identity(),
                  ids.three_alternating_identity()):
            assert is_consequence(f), f


def test_criterion_6_hilbert_series():
    with Budget("criterion 6: graded dimensions vs closed form", 120):
        expected = [1, 0, 1, 2, 4, 6, 9, 12, 16]
        assert closed_form_series(8) == expected
        assert image_dims(8) == expected


def test_criterion_7_degree6_proper_arithmetic():
    with Budget("criterion 7: degree-6 two-variable arithmetic", 60):
        assert family_dims(6)[6] == 16
        assert gl2_decomposition(6) == {(5, 1): 1, (4, 2): 3, (3, 3): 2}
        inter = intersection_dims(6)
        assert inter[2:5] == [0, 0, 0]
        assert inter[5] == 2
        assert inter[6] == 7
        assert gl2_intersection_decomposition(6) == {(4, 2): 2, (3, 3): 1}
        assert image_dims(6)[6] == 9


def test_criterion_8_reduced_family_spans():
    with Budget("criterion 8: reduced family spans the image to degree 8", 120):
        assert tail_family_spans_image(8)


def test_criterion_9_property_suites():
    with Budget("criterion 9: property suites", 600):
        rng = random.Random(20260808)

        # evaluation homomorphism, 100 random pairs
        def random_poly():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                w = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
                terms[w] = terms.get(w, 0) + rng.randint(-3, 3)
            return NcPoly(terms)

        # (the package's coordinates, x1 diagonal, against the oracle's
        # matrix product)
        for _ in range(100):
            f, g = random_poly(), random_poly()
            assert package_coords(f * g) == at_diagonal_x1(
                coords(mat_mul(generic_eval(f), generic_eval(g))))

        # involution / transpose intertwining, 100 random cases
        for _ in range(100):
            f = random_poly()
            assert package_coords(involution(f)) == at_diagonal_x1(
                coords(mat_transpose(generic_eval(f))))

        # alternation of the degree-4 standard polynomial, all 24 slot
        # permutations plus 100 random repeated-argument substitutions
        s4 = standard_poly(4)
        for perm in itertools.permutations(range(1, 5)):
            assert substitute(s4, {i: NcPoly.variable(perm[i - 1])
                                   for i in range(1, 5)}) == perm_sign(perm) * s4
        for _ in range(100):
            i, j = rng.sample(range(1, 5), 2)
            subs = {t: NcPoly.variable(t) for t in range(1, 5)}
            subs[j] = NcPoly.variable(i)
            assert substitute(s4, subs).is_zero()

        # proper-component dimensions are the derangement numbers
        expected = {2: 1, 3: 2, 4: 9, 5: 44, 6: 265}
        for n, dim in expected.items():
            assert proper_span(n).dim == dim

        # character first orthogonality through degree 6
        for n in range(2, 7):
            parts = partitions(n)
            for lam in parts:
                for mu in parts:
                    total = sum(class_size(rho) * character(lam, rho)
                                * character(mu, rho) for rho in partitions(n))
                    assert total == (factorial(n) if lam == mu else 0)

        # every decomposition adds up to the dimension of its space
        for n in (2, 3, 4):
            dec = decompose(proper_span(n), n)
            assert sum(m * sym_dim(lam) for lam, m in dec.items()) == \
                proper_span(n).dim

        # Sym(n)-stability of the consequence spans, 100 random relabelings
        for n in (4, 5):
            span = consequences_span(None, n)
            index = word_index(multilinear_words(n))
            rev = {i: w for w, i in index.items()}
            rows = span.rows
            for _ in range(100):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                row = rows[rng.randrange(len(rows))]
                moved = {index[tuple(perm[l - 1] for l in rev[c])]: v
                         for c, v in row.items()}
                assert span.contains(moved)
