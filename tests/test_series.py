"""Graded dimensions of the two-variable proper algebra and the closed form."""

from weakid import freealg, series
from weakid.freealg import coeff_vector, word_index
from weakid.linalg import echelonize
from weakid.matrep import image_rank, is_weak_identity, proper_image_rank
from weakid.series import (_family, closed_form_series, degree6_relations,
                           family_dim, family_dims, gl2_decomposition,
                           gl2_intersection_decomposition, image_dim,
                           image_dims, intersection_dims, tail_family,
                           tail_family_spans_image)


def closed_form_oracle(n_max):
    """Oracle: the double sum of gl2 dimensions, sum over p > 0, q >= 0 of
    (q + 1) t^(2p + q), plus 1."""
    out = [0] * (n_max + 1)
    out[0] = 1
    for p in range(1, n_max // 2 + 1):
        for q in range(0, n_max - 2 * p + 1):
            out[2 * p + q] += q + 1
    return out


def test_closed_form_values():
    assert closed_form_series(8) == [1, 0, 1, 2, 4, 6, 9, 12, 16]
    assert closed_form_series(2) == [1, 0, 1]
    assert closed_form_series(0) == [1]


def test_closed_form_matches_double_sum_oracle():
    assert closed_form_series(12) == closed_form_oracle(12)


def test_second_factor_is_geometric_in_t_squared():
    """Regression pin: the closed form grows linearly, unlike the variant
    1 + t^2 (1-t)^-4 whose coefficients are binomial(m+3, 3)."""
    variant = [1, 0] + [((m + 1) * (m + 2) * (m + 3)) // 6 for m in range(7)]
    ours = closed_form_series(8)
    assert ours[:3] == variant[:3]
    assert ours[3] == 2 and variant[3] == 4
    assert all(o < v for o, v in zip(ours[3:], variant[3:]))


def test_family_dims_are_powers_of_two():
    # oracle: the count of ordered factor tuples doubles per degree
    def count_tuples(dx, dy):
        if dx == 0 and dy == 0:
            return 1
        if dx < 1 or dy < 1:
            return 0
        return sum(count_tuples(dx - 1 - k, dy - 1 - l)
                   for k in range(dx) for l in range(dy))

    dims = family_dims(8)
    assert dims == [1, 0, 1, 2, 4, 8, 16, 32, 64]
    for n in range(2, 9):
        assert sum(count_tuples(dx, n - dx) for dx in range(1, n)) == dims[n]


def test_family_dim_equals_family_size():
    # the spanning family is independent: echelon rank == count
    for n in range(2, 9):
        for dx in range(1, n):
            from weakid.series import _family

            assert family_dim(dx, n - dx) == len(_family(dx, n - dx))


def test_image_dims_equal_closed_form():
    n_max = 8
    assert image_dims(n_max) == closed_form_series(n_max)


def test_image_dims_equal_closed_form_to_degree_12():
    """Past the CLI's cap of 10: the ranks at x1 = E11 are cheap there."""
    assert image_dims(12) == closed_form_series(12)


def test_image_dims_low_degrees():
    assert image_dims(2) == [1, 0, 1]
    assert image_dims(6)[6] == 9


def test_intersection_dims():
    assert intersection_dims(6) == [0, 0, 0, 0, 0, 2, 7]


def _echelon_dim(family):
    index = word_index(tuple(sorted({w for f in family for w in f.terms})))
    return echelonize([coeff_vector(f, index) for f in family]).dim


def test_bidegree_symmetry():
    """The x1 <-> x2 mirror that family_dim and image_dim read, checked
    without it: both orientations' families are eliminated and ranked."""
    for n in range(2, 9):
        for dx in range(1, n):
            dy = n - dx
            assert (_echelon_dim(_family(dx, dy))
                    == _echelon_dim(_family(dy, dx)) == family_dim(dx, dy))
            assert (image_rank(list(_family(dx, dy)))
                    == image_rank(list(_family(dy, dx))) == image_dim(dx, dy))


def test_image_dims_rank_the_dominant_bidegrees_only(monkeypatch):
    calls = []

    def counted(family):
        calls.append(family)
        return proper_image_rank(family)

    series.image_dim.cache_clear()
    monkeypatch.setattr(series, "proper_image_rank", counted)
    assert image_dims(7) == [1, 0, 1, 2, 4, 6, 9, 12]
    # (dx, dy) with dx >= dy >= 1 and dx + dy <= 7
    assert len(calls) == 12


def test_a_non_dominant_bidegree_reads_its_mirror(monkeypatch):
    asked = []

    def recorded(dx, dy):
        asked.append((dx, dy))
        return _family(dx, dy)

    for cached in (series.image_dim, series.family_dim):
        cached.cache_clear()
    monkeypatch.setattr(series, "_family", recorded)
    assert image_dim(2, 5) == image_dim(5, 2)
    assert family_dim(2, 5) == family_dim(5, 2)
    assert asked == [(5, 2), (5, 2)]


def test_the_hilbert_series_builds_no_word_index():
    """Family members are ranked and evaluated by their own terms, so no
    universe of the series enters the word_index cache."""
    for cached in (series.image_dim, series.family_dim, series._family,
                   freealg.word_index):
        cached.cache_clear()
    assert image_dims(9) == [1, 0, 1, 2, 4, 6, 9, 12, 16, 20]
    assert family_dims(9) == [1, 0, 1, 2, 4, 8, 16, 32, 64, 128]
    info = freealg.word_index.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_gl2_decomposition_degree6():
    assert gl2_decomposition(6) == {(5, 1): 1, (4, 2): 3, (3, 3): 2}
    assert gl2_intersection_decomposition(6) == {(4, 2): 2, (3, 3): 1}


def test_gl2_decomposition_degree5():
    assert gl2_decomposition(5) == {(4, 1): 1, (3, 2): 2}
    assert gl2_intersection_decomposition(5) == {(3, 2): 1}


def test_gl2_dimension_bookkeeping():
    # the irreducible GL(2)-module of (l1, l2) has dimension l1 - l2 + 1
    for n in (5, 6):
        dec = gl2_decomposition(n)
        total = sum(m * (l1 - l2 + 1) for (l1, l2), m in dec.items())
        assert total == family_dims(n)[n]


def test_tail_family_counts_match_closed_form():
    closed = closed_form_series(8)
    for n in range(2, 9):
        assert len(tail_family(n)) == closed[n]


def test_tail_family_spans_image():
    assert tail_family_spans_image(8)


def test_tail_family_low_degree():
    fam = tail_family(2)
    assert len(fam) == 1
    from weakid.freealg import NcPoly, comm

    assert fam[0] == comm(NcPoly.variable(2), NcPoly.variable(1))


def test_degree6_relations_are_weak_identities():
    r1, r2, r3 = degree6_relations()
    assert is_weak_identity(r1)
    assert is_weak_identity(r2)
    assert is_weak_identity(r3)
    # and none is the zero polynomial
    assert r1 and r2 and r3


def test_image_bounded_by_tail_counts():
    closed = closed_form_series(8)
    img = image_dims(8)
    assert all(i <= c for i, c in zip(img, closed))
