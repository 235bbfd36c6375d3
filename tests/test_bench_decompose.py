"""The decomposition-layer bench script runs and prints one JSON object."""

from tests.bench_runner import run_bench


def test_bench_decompose_prints_json_at_degree_4():
    d4 = run_bench("bench_decompose.py", "--degrees", "4")["degrees"]["4"]
    # a basis of Gamma_4 (9 derangements), its 4 weak identities, and the
    # quotient (3,1) + (2,2)
    assert (d4["members"], d4["dim"], d4["kernel_dim"]) == (9, 9, 4)
    assert d4["decomposition"] == {"3,1": 1, "2,2": 1} and d4["equal"]
    for part in ("family_s", "span_eliminate_s", "span_s", "e11_rows_s",
                 "kernel_rows_s", "left_kernel_s", "recombine_s", "kernel_s",
                 "kernel_rref_s", "stable_s", "contained_s", "trace_s", "decompose_s",
                 "verify_s"):
        assert d4[part] > 0, part
    assert d4["family_s"] + d4["span_eliminate_s"] <= d4["span_s"]
    assert (d4["e11_rows_s"] + d4["kernel_rows_s"] + d4["left_kernel_s"]
            + d4["recombine_s"] <= d4["kernel_s"])
    assert (d4["stable_s"] + d4["contained_s"] + d4["trace_s"]
            <= d4["decompose_s"])
    assert d4["proper_ms"] > 0 and d4["decompose_ms"] > 0
    assert d4["max_rss_mb"] > 0
