"""Exact linear algebra: examples, invariants, and modular cross-checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weakid import linalg
from weakid.linalg import echelonize, left_kernel, rank, subspace_intersect

from tests.linalg_oracles import (kernel_basis, modular_rank_check, rank_mod,
                                  rref_mod, subspace_sum)


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
    assert subspace_intersect(echelonize(rows[:2]), echelonize(rows[2:])).dim == 1


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
