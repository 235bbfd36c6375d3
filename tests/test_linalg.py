"""Exact linear algebra: examples, invariants, and modular cross-checks."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from weakid import linalg
from weakid.linalg import (echelonize, intersection_dim, left_kernel, rank,
                           rank_mod2)

from tests.linalg_oracles import (kernel_basis, left_kernel_eliminated_twice,
                                  modular_rank_check, rank_mod,
                                  rank_mod2_lowest_bit, rref_mod,
                                  subspace_intersect, subspace_sum)


def dense_rank(rows, ncols):
    """Independent oracle: dense fraction-by-fraction Gaussian elimination."""
    mat = [[Fraction(d.get(j, 0)) for j in range(ncols)] for d in rows]
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                factor = mat[i][col] / mat[r][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def test_echelonize_examples():
    assert echelonize([{1: 1, 2: 2}, {1: 2, 2: 4}]).dim == 1
    assert echelonize([{0: 1}, {1: 1}, {2: 1}]).dim == 3
    assert echelonize([]).dim == 0


def test_echelonize_idempotent():
    vecs = [{0: 2, 2: 4}, {1: 3, 2: 1}, {0: 1, 1: Fraction(3, 2), 2: Fraction(5, 2)}]
    s1 = echelonize(vecs)
    s2 = echelonize(s1.rows)
    assert s1 == s2
    assert all(row[min(row)] == 1 for row in s1.rows)


def test_rref_pivot_columns_cleared():
    s = echelonize([{0: 1, 1: 1}, {1: 1, 2: 1}])
    pivots = set(s.pivots)
    for row in s.rows:
        for c, v in row.items():
            if c in pivots:
                assert (c, v) == (min(row), 1)


def test_kernel_examples():
    k = kernel_basis([{0: 1, 1: 1}], 2)
    assert k.dim == 1
    assert k.contains({0: 1, 1: -1})
    assert kernel_basis([{0: 1}, {1: 1}, {2: 1}], 3).dim == 0
    assert kernel_basis([{0: 1, 1: 2, 2: 3}], 3).dim == 2


def test_kernel_index_out_of_range():
    with pytest.raises(ValueError):
        kernel_basis([{5: 1}], 3)


def test_contains_and_equal_examples():
    s = echelonize([{0: 1}])
    assert s.contains({0: 5})
    assert not s.contains({1: 1})
    s1 = echelonize([{0: 1, 1: 1}, {1: 1}])
    s2 = echelonize([{0: 1}, {1: 1}])
    assert s1 == s2


def test_left_kernel_matches_transposed_kernel():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1, 2: 1}, {0: 3, 2: -1}]
    transposed = {}
    for i, r in enumerate(rows):
        for c, v in r.items():
            transposed.setdefault(c, {})[i] = v
    lk = left_kernel(rows)
    kb = kernel_basis(list(transposed.values()), len(rows))
    assert lk == kb
    for vec in lk.rows:
        combo = {}
        for i, coeff in vec.items():
            for c, v in rows[i].items():
                combo[c] = combo.get(c, 0) + coeff * v
        assert all(v == 0 for v in combo.values())


def test_left_kernel_rescales_rational_rows():
    # rows with distinct contents: the recorded combinations must refer to the
    # rows as given, not to their integer normalizations
    rows = [{0: Fraction(1, 2)}, {0: 3}]
    lk = left_kernel(rows)
    assert lk.dim == 1
    (vec,) = lk.rows
    total = sum(coeff * rows[i][0] for i, coeff in vec.items())
    assert total == 0


def test_sum_and_intersect():
    a = echelonize([{0: 1}, {1: 1}])
    b = echelonize([{1: 1}, {2: 1}])
    assert subspace_sum(a, b).dim == 3
    inter = subspace_intersect(a, b)
    assert inter.dim == 1
    assert inter.contains({1: 1})


small_number = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=3))


@st.composite
def sparse_matrices(draw, max_rows=6, max_cols=6):
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(nrows):
        row = draw(st.dictionaries(st.integers(0, ncols - 1), small_number,
                                   max_size=ncols))
        rows.append({c: v for c, v in row.items() if v})
    return rows, ncols


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_rank_matches_dense_oracle(data):
    rows, ncols = data
    assert rank(rows) == dense_rank(rows, ncols)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_rank_nullity(data):
    rows, ncols = data
    assert rank(rows) + kernel_basis(rows, ncols).dim == ncols


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_echelonize_projection(data):
    rows, _ = data
    s = echelonize(rows)
    again = echelonize(s.rows)
    assert s == again
    for r in rows:
        assert s.contains(r)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_kernel_vectors_annihilate(data):
    rows, ncols = data
    for vec in kernel_basis(rows, ncols).rows:
        for r in rows:
            s = sum(v * vec.get(c, 0) for c, v in r.items())
            assert s == 0


@settings(max_examples=60, deadline=None)
@given(sparse_matrices(), sparse_matrices())
def test_containment_antisymmetric(d1, d2):
    a = echelonize(d1[0])
    b = echelonize(d2[0])
    a_in_b = all(b.contains(r) for r in a.rows)
    b_in_a = all(a.contains(r) for r in b.rows)
    assert (a == b) == (a_in_b and b_in_a)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices(), sparse_matrices())
def test_sum_intersect_dimension_formula(d1, d2):
    a = echelonize(d1[0])
    b = echelonize(d2[0])
    total = subspace_sum(a, b)
    inter = subspace_intersect(a, b)
    assert a.dim + b.dim == total.dim + inter.dim
    for r in inter.rows:
        assert a.contains(r) and b.contains(r)
    assert intersection_dim(a, b) == a.dim + b.dim - total.dim == inter.dim


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_left_kernel_reads_its_basis_off_the_augmented_elimination(data):
    rows, ncols = data
    lk = left_kernel(rows)
    # each stored row leads at its own pivot key, content 1, positive lead
    for p, row in lk._rows.items():
        assert min(row) == p and row[p] > 0
        assert all(type(v) is int for v in row.values())
        assert gcd(*row.values()) == 1
    transposed = [{i: r[c] for i, r in enumerate(rows) if c in r}
                  for c in range(ncols)]
    assert lk == kernel_basis(transposed, len(rows))
    assert lk == left_kernel_eliminated_twice(rows)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_equal_subspaces_built_in_different_orders_compare_and_hash_equal(data):
    rows, _ = data.draw(sparse_matrices())
    shuffled = data.draw(st.permutations(rows))
    built = linalg.Subspace({})
    for r in shuffled:
        built._add(linalg._int_row(r))
    early = echelonize(rows)
    assert early.rows is early.rows  # read early: normalized and cached
    assert built == early and hash(built) == hash(early)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_equality_and_hash_read_the_stored_rows_only(data):
    """``==`` and ``hash`` build no RREF, a space differs from another with
    the same pivots, and from each proper subspace of itself."""
    rows, ncols = data
    space, again = echelonize(rows), echelonize(rows)
    assert space == again and hash(space) == hash(again)
    stored = list(space._rows.values())
    for i, row in enumerate(stored):
        others = stored[:i] + stored[i + 1:]
        # column ncols is in no row, so never a pivot: the changed row keeps
        # every pivot, and it lies outside the space
        changed = echelonize([*others, {**row, ncols: 1}])
        assert changed.pivots == space.pivots
        assert changed != space and space != changed
        smaller = echelonize(others)
        assert smaller != space and space != smaller
    assert space._rref is None and again._rref is None


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_stored_rows_are_reduced_and_independent_of_the_insertion_order(data):
    """After every insertion each stored row is content-1, has a positive
    lead at its pivot and is zero at every other pivot; the stored rows are
    the same for any order, and reading ``rows`` leaves them as they are."""
    rows, _ = data.draw(sparse_matrices())
    shuffled = data.draw(st.permutations(rows))
    built = linalg.Subspace({})
    for r in shuffled:
        built._add(linalg._int_row(r))
        for p, row in built._rows.items():
            assert min(row) == p and row[p] > 0
            assert all(type(v) is int for v in row.values())
            assert gcd(*row.values()) == 1
            assert not row.keys() & built._rows.keys() - {p}
    stored = {p: dict(row) for p, row in built._rows.items()}
    assert echelonize(rows)._rows == stored
    assert len(built.rows) == len(stored)
    assert built._rows == stored


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), st.data())
def test_contains_agrees_with_the_rank_oracle(matrix, data):
    """Members, non-members whose least column is a pivot and non-members
    whose least column is not (told apart before any reduction): ``contains``
    is rank(rows + [v]) == rank(rows) on each.  Column ncols is in no row,
    so it is never a pivot."""
    rows, ncols = matrix
    space = echelonize(rows)
    member = {}
    for row in space.rows:
        a = data.draw(small_number)
        for c, x in row.items():
            member[c] = member.get(c, 0) + a * x
    member = {c: x for c, x in member.items() if x}
    free = data.draw(st.sampled_from(
        [c for c in range(ncols + 1) if c not in space.pivots]))
    no_pivot_lead = {c: x for c, x in member.items() if c > free}
    no_pivot_lead[free] = data.draw(small_number.filter(bool))
    cases = [(member, True), (no_pivot_lead, False)]
    if space.dim:
        p = data.draw(st.sampled_from(space.pivots))
        pivot_lead = {**space.rows[space.pivots.index(p)], ncols: 1}
        cases.append((pivot_lead, False))
    for v, want in cases:
        assert space.contains(v) == want == (rank(rows + [v]) == rank(rows))


def test_contains_tells_a_lead_without_a_pivot_apart_unreduced(monkeypatch):
    space = echelonize([{0: 1, 2: 1}, {1: 2, 3: 1}])

    def refuse(*args):
        raise AssertionError("a vector leading off the pivots was reduced")

    monkeypatch.setattr(linalg.Subspace, "_reduce", refuse)
    assert not space.contains({2: 1, 3: 5})


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rows_are_inserted_in_the_given_order(data):
    """echelonize stores what ``_add`` stores when the rows are inserted in
    the given order, and any order spans the same space."""
    rows, _ = data.draw(sparse_matrices())
    shuffled = data.draw(st.permutations(rows))
    built = linalg.Subspace({})
    for r in rows:
        built._add(linalg._int_row(r))
    assert echelonize(rows)._rows == built._rows
    assert echelonize(shuffled) == echelonize(rows)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_modular_agreement(data):
    rows, _ = data
    assert modular_rank_check(rows)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_rref_mod_matches_exact_rref(data):
    rows, _ = data
    p = 2305843009213693951  # 2^61 - 1, far larger than any coefficient here
    exact = echelonize(rows)
    modular = rref_mod(rows, p)
    assert sorted(modular) == list(exact.pivots)
    for piv, row in zip(exact.pivots, exact.rows):
        mapped = {c: v.numerator * pow(v.denominator, -1, p) % p
                  for c, v in row.items()}
        assert mapped == modular[piv]


def test_rank_mod_simple():
    rows = [{0: 1, 1: 1}, {0: 2, 1: 2}]
    assert rank_mod(rows, 101) == 1


int_rows = st.lists(st.dictionaries(st.integers(0, 7), st.integers(-6, 6),
                                    max_size=8), max_size=8)


@settings(max_examples=150, deadline=None)
@given(int_rows)
def test_rank_mod2_is_the_rank_over_gf2_and_bounds_the_rank(rows):
    """Integer rows with negative, even and zero entries: rank_mod2 agrees
    with the modular oracle at p = 2 and never exceeds the rank over Q."""
    assert rank_mod2(rows) == rank_mod(rows, 2) <= rank(rows)


# Column keys a relabelling may use: small ones, and ones from 2**80 up, for
# which ``1 << key`` raises OverflowError before allocating anything, so a
# key made a bit position (as the lowest-bit oracle makes it) fails at once.
column_keys = st.one_of(st.integers(0, 40), st.integers(2**80, 2**100))


@settings(max_examples=150, deadline=None)
@given(int_rows, st.lists(column_keys, min_size=8, max_size=8, unique=True))
def test_rank_mod2_ignores_column_names(rows, keys):
    """Any injective relabelling of the columns, keys of 2**40 and above
    included, keeps the rank mod 2, which the lowest-bit version with one
    bit per column index gives on the original columns."""
    relabelled = [{keys[c]: x for c, x in row.items()} for row in rows]
    assert rank_mod2(relabelled) == rank_mod2(rows) == rank_mod2_lowest_bit(rows)


def test_rank_mod2_undercounts_even_and_cancelling_rows():
    for rows, ranks in (([{0: 2}], (0, 1)),
                        ([{0: 1, 1: 1}, {0: 1, 1: -1}], (1, 2)),
                        ([{0: -3, 5: 4}, {5: 1}, {0: 1, 5: 1}], (2, 2))):
        assert (rank_mod2(rows), rank(rows)) == ranks
    assert rank_mod2([]) == rank_mod2([{}]) == 0


def test_echelonize_drops_zero_entries():
    s = echelonize([{3: Fraction(0), 1: 2, 0: 0}])
    assert s.pivots == (1,)
    assert s.rows == ({1: 1},)
    assert echelonize([{0: 0}, {2: Fraction(0)}, {}]).dim == 0


def test_integer_rows_build_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Fraction was built for integer input")

    monkeypatch.setattr(linalg, "Fraction", refuse)
    rows = [{0: 2, 1: 4}, {0: 3, 2: -6}, {1: 6, 2: 3}, {0: 5, 1: 4, 2: -3}]
    assert rank(rows) == 3
    assert left_kernel(rows).dim == 1
    assert intersection_dim(echelonize(rows[:2]), echelonize(rows[2:])) == 1


def test_rows_are_dicts_in_column_order_with_pivot_one():
    s = echelonize([{4: 3, 0: 2, 2: 1}, {3: 2, 1: 4, 4: 5}, {2: 7, 4: 1}])
    assert s.pivots == (0, 1, 2)
    for piv, row in zip(s.pivots, s.rows):
        assert type(row) is dict
        assert list(row) == sorted(row)
        assert min(row) == piv and row[piv] == 1
        assert all(type(v) is int or v.denominator > 1 for v in row.values())
    assert s.rows[0] == {0: 1, 4: Fraction(10, 7)}


def test_stop_dim_caps_insertion():
    vecs = [{0: 1}, {1: 1}, {2: 1}]
    assert echelonize(vecs, stop_dim=2).dim == 2


def test_echelon_rows_are_stored_as_given():
    """Rows in echelon form, each with its own leading column, are stored
    as they stand when they come first."""
    echelon = [{0: 2, 3: 4}, {1: -1, 2: 1}]
    rest = [{0: 1, 1: 1}, {2: 1, 3: 1}]
    s = echelonize(echelon + rest)
    assert s == echelonize(rest + echelon)
    # stored unreduced: content 1, positive leading entry
    assert echelonize(echelon)._rows == {0: {0: 1, 3: 2}, 1: {1: 1, 2: -1}}


def test_echelon_rows_sharing_a_leading_column_are_reduced():
    rows = [{1: 1, 2: 1}, {0: 0, 1: 2}]
    assert echelonize(rows) == echelonize(rows[::-1])
    assert echelonize(rows).pivots == (1, 2)
    # an empty row adds nothing
    assert echelonize([{0: 1}, {}]) == echelonize([{0: 1}])


def test_stop_dim_caps_echelon_rows_and_the_rest():
    echelon = [{0: 1, 5: 1}, {2: 1}]
    rest = [{1: 1}, {3: 1}, {4: 1}]
    assert echelonize(echelon + rest, stop_dim=4).dim == 4
    assert echelonize(echelon + rest, stop_dim=1).pivots == (0,)
    assert echelonize(echelon + rest).dim == 5


@st.composite
def reducer_blocks(draw, ncols=10):
    """Fixed reducers: integer rows with distinct leads, each content-1 with
    a positive lead and zero at the others' leads."""
    leads = draw(st.sets(st.integers(0, ncols - 1), max_size=6))
    block = []
    for lead in sorted(leads):
        free = [c for c in range(lead + 1, ncols) if c not in leads]
        row = {lead: draw(st.integers(1, 6))}
        if free:
            row.update(draw(st.dictionaries(st.sampled_from(free),
                                            st.integers(-6, 6).filter(bool),
                                            max_size=4)))
        g = 0
        for v in row.values():
            g = gcd(g, v)
        block.append({c: v // g for c, v in row.items()})
    return block


rows10 = st.lists(st.dictionaries(st.integers(0, 9), st.integers(-6, 6),
                                  max_size=6), max_size=6)


@settings(max_examples=200, deadline=None)
@given(reducer_blocks(), rows10, rows10)
def test_reducers_answer_as_the_plain_elimination_of_all_the_rows(block, rows,
                                                                 others):
    """A space seeded with fixed reducers answers every query as the plain
    elimination of the reducers and the rows together: before its stored
    rows are first read, and after that read has cleared the reducers at
    the built pivots."""
    plain = echelonize([*block, *rows])
    other = echelonize(others)
    probes = [*block, *rows, *others, {}]

    def seeded():
        return echelonize(rows, reducers=[dict(r) for r in block])

    def answers(s):
        return s.dim, s.pivots, hash(s), [s.contains(v) for v in probes]

    s = seeded()
    assert answers(s) == answers(plain)
    assert len(s._fixed) == len(block)  # none of those read the stored rows
    assert intersection_dim(seeded(), other) == intersection_dim(plain, other)
    assert seeded() == plain and plain == seeded()
    assert s._rows == plain._rows
    assert not s._fixed
    assert answers(s) == answers(plain)
    assert intersection_dim(s, other) == intersection_dim(plain, other)
    assert s == plain and s.rows == plain.rows


@settings(max_examples=150, deadline=None)
@given(int_rows, int_rows, st.booleans())
def test_inputs_are_left_as_they_were(a_rows, b_rows, halve):
    """``echelonize``, ``rank`` and ``intersection_dim`` eliminate copies:
    the input dicts, all-int ones included, and the operands' stored rows
    are unchanged after each."""
    if halve:
        a_rows = [{c: Fraction(v, 2) for c, v in r.items()} for r in a_rows]
    given_rows = [dict(r) for r in a_rows + b_rows]
    a, b = echelonize(a_rows), echelonize(b_rows)
    rank(a_rows + b_rows)
    assert a_rows + b_rows == given_rows
    stored = [{p: dict(r) for p, r in s._rows.items()} for s in (a, b)]
    intersection_dim(a, b)
    assert [a._rows, b._rows] == stored
