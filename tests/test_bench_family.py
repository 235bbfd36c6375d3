"""The family-layer bench script runs and prints one JSON object."""

from tests.bench_runner import run_bench


def test_bench_family_prints_json_at_degree_4():
    d4 = run_bench("bench_family.py", "--degrees", "4")["degrees"]["4"]
    # S4 and the three commutator pairings; nothing below degree 4
    assert (d4["members"], d4["base"], d4["left"]) == (4, 4, 0)
    assert d4["expanded"] == 0
    assert d4["dim"] == 4 and d4["certified"] and d4["equal"]
    # no reducers below degree 4 to seed; the elimination reads the four
    # base rows, each a new pivot, and the first read of its rows settles
    # nothing
    assert (d4["seeded"], d4["read"], d4["zero"]) == (0, 4, 0)
    assert d4["nnz"] == d4["settled_nnz"] > 0 and d4["settle_s"] >= 0
    assert d4["max_rss_mb"] > 0
    for part in ("bound_s", "family_s", "base_s", "specializations_s",
                 "certify_s", "eliminate_s", "consequences_s", "verify_s"):
        assert d4[part] > 0, part
    assert d4["family_s"] <= d4["consequences_s"]
