"""The evaluation-layer bench script runs and prints one JSON object."""

from tests.bench_runner import run_bench


def test_bench_eval_prints_json_at_degree_4():
    result = run_bench("bench_eval.py", "--degrees", "4")
    assert result["multilinear"]["4"]["words"] == 24
    assert result["multilinear"]["4"]["s"] > 0
    assert result["multilinear"]["4"]["nnz"] > 0
    # the exact kernel dimension at degree 4: 4 weak identities
    assert result["multilinear"]["4"]["kernel_dim"] == 4
    assert result["multilinear"]["4"]["kernel_dim_s"] > 0
    # the rank mod 2 of the walk's rows, which the kernel bound ranks, is
    # tight here: 4! - 4
    assert result["multilinear"]["4"]["rank_mod2"] == 20
    assert result["multilinear"]["4"]["rank_mod2_s"] > 0
    # bidegrees (dx, dy) with dx, dy >= 1 and dx + dy <= 7
    assert len(result["hilbert"]["bidegrees"]) == 1 + 2 + 3 + 4 + 5 + 6
    # the E11 walk's rows of bidegree (1, 1): x1 x2 and x2 x1
    assert result["hilbert"]["bidegrees"]["1,1"]["words"] == 2
    assert result["hilbert"]["bidegrees"]["1,1"]["nnz"] > 0
    assert all(r["s"] > 0 for r in result["hilbert"]["bidegrees"].values())
    # cold image_dims at the two orders timed
    assert set(result["hilbert_s"]) == {"7", "9"}
    assert all(s > 0 for s in result["hilbert_s"].values())
    # the check section: a dozen expressions of degree 4 to 6, three of
    # them not weak identities
    check = result["check"]
    assert check["expressions"] == 12
    assert check["degrees"] == [4, 5, 6]
    assert check["identities"] == 9
    assert check["parse_s"] > 0
    assert check["witness_s"] > 0
