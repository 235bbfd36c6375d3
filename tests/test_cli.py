"""CLI surface: exit codes, JSON schema, determinism."""

import io
import json
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from weakid import __version__
from weakid.cli import main

# ``check --mode identity --json`` output of one expression per benchmark
# check-mix template (seed 1) and a few hand-picked ones, recorded before the
# witness search moved onto the generic coordinates.
GOLDEN_CHECKS = Path(__file__).parent / "data" / "check_identity_golden.json"

# stdout of ``verify`` (degrees 4 and 5, both modes, ``--json --no-timings``),
# ``decompose --json`` (degrees 4 and 5, all three spaces) and
# ``hilbert --max 8 --json``, recorded before the layers below ``NcPoly``
# moved to plain exact-number dicts.
GOLDEN_CLI = Path(__file__).parent / "data" / "cli_golden.json"

REPORT_KEYS = {"degree", "dim_P", "dim_kernel", "dim_consequences",
               "containment", "equal", "decomposition", "timings_ms",
               "toolkit_version"}


def test_verify_degree4_exit_zero(capsys):
    assert main(["verify", "--degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "equal             True" in out


def test_verify_json_schema(capsys):
    assert main(["verify", "--degree", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == REPORT_KEYS
    assert payload["degree"] == 4
    assert payload["equal"] is True
    assert payload["toolkit_version"] == __version__


def test_verify_json_deterministic_without_timings(capsys):
    assert main(["verify", "--degree", "4", "--json", "--no-timings"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--degree", "4", "--json", "--no-timings"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["timings_ms"] == {}


def test_check_identity_true(capsys):
    assert main(["check", "--expr", "[[x1,x2],[x3,x4]]", "--mode", "identity"]) == 0
    assert "weak identity: True" in capsys.readouterr().out


def test_check_identity_false_prints_witness(capsys):
    assert main(["check", "--expr", "[x1,x2]", "--mode", "identity"]) == 1
    out = capsys.readouterr().out
    assert "weak identity: False" in out
    assert "witness substitution" in out
    assert "x1 = [[" in out
    assert "value = [[" in out


def test_check_identity_replays_the_golden_file():
    cases = json.loads(GOLDEN_CHECKS.read_text())
    assert len(cases) == 39
    for case in cases:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["check", "--mode", "identity", "--json",
                         f"--expr={case['expr']}"])
        assert (code, out.getvalue()) == (case["exit"], case["stdout"]), case["expr"]


def test_cli_replays_the_golden_file():
    cases = json.loads(GOLDEN_CLI.read_text())
    assert len(cases) == 11
    for case in cases:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(case["argv"])
        assert (code, out.getvalue()) == (case["exit"], case["stdout"]), case["argv"]


def test_check_consequence(capsys):
    assert main(["check", "--expr", "S4(x1,x2,x3,x4)", "--mode", "consequence"]) == 0
    assert main(["check", "--expr", "[x1,x2]", "--mode", "consequence"]) == 1


def test_check_two_variable_relations_via_surface_syntax(capsys):
    # [x2,x1,x1] o [x2,x1] written with the ad shorthand
    assert main(["check", "--expr", "o(ad(x, y, 2), [y,x])"]) == 0
    # [[y,x,y],[y,x,x]] + 4[y,x]^3
    assert main(["check", "--expr",
                 "[[y,x,y],[y,x,x]] + 4*[y,x]^3"]) == 0
    # and the same relations are consequences of the generators
    assert main(["check", "--expr", "o(ad(x, y, 2), [y,x])",
                 "--mode", "consequence"]) == 0


def test_check_parse_error_exit_two(capsys):
    assert main(["check", "--expr", "[x1", "--mode", "identity"]) == 2
    assert "error" in capsys.readouterr().err


def test_check_consequence_of_a_nonzero_constant_is_false(capsys):
    # every consequence has positive degree; identity mode agrees
    for expr in ("1", "3/2", "x^0"):
        assert main(["check", "--expr", expr, "--mode", "consequence"]) == 1
        captured = capsys.readouterr()
        assert "consequence of the generators: False" in captured.out
        assert captured.err == ""
        assert main(["check", "--expr", expr, "--mode", "identity"]) == 1
    assert main(["check", "--expr", "0", "--mode", "consequence"]) == 0


def test_check_consequence_rejects_inhomogeneous(capsys):
    assert main(["check", "--expr", "x1 + x1*x2", "--mode", "consequence"]) == 2
    assert "multihomogeneous" in capsys.readouterr().err


def test_check_consequence_rejects_high_degree_fast(capsys):
    # degree 9: linearized (x1^5*x2^4) and already multilinear
    for expr in ("x1^5*x2^4", "[[x1,x2],[x3,x4]]*x5*x6*x7*x8*x9"):
        t0 = time.perf_counter()
        assert main(["check", "--expr", expr, "--mode", "consequence"]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "degree 9" in capsys.readouterr().err


def test_check_rejects_oversized_expressions_fast(capsys):
    s12 = "S12(" + ",".join(f"x{i}" for i in range(1, 13)) + ")"
    for expr in (s12, "(x+y)^40", "x^100000000", "ad(x,y,40)"):
        t0 = time.perf_counter()
        assert main(["check", "--expr", expr]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "too large" in capsys.readouterr().err


def test_verify_proper_mode(capsys):
    assert main(["verify", "--degree", "4", "--proper", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_P"] == 9
    assert payload["dim_kernel"] == payload["dim_consequences"] == 4
    assert payload["equal"] is True


def test_check_json_witness(capsys):
    assert main(["check", "--expr", "S3(x1,x2,x3)", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] is False
    assert payload["witness"]["value"] == [["0", "1"], ["-1", "0"]]


def test_decompose_gamma(capsys):
    assert main(["decompose", "--space", "gamma", "--degree", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["decomposition"] == [
        [[3, 1], 1], [[2, 2], 1], [[2, 1, 1], 1], [[1, 1, 1, 1], 1]]


def test_decompose_quotient_and_kernel(capsys):
    assert main(["decompose", "--space", "gamma-quotient", "--degree", "4",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["decomposition"] == [[[3, 1], 1], [[2, 2], 1]]
    assert main(["decompose", "--space", "gamma-kernel", "--degree", "4",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["decomposition"] == [[[2, 1, 1], 1], [[1, 1, 1, 1], 1]]


def test_hilbert(capsys):
    assert main(["hilbert", "--max", "6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equal"] is True
    assert payload["computed"] == ["1", "0", "1", "2", "4", "6", "9"]


def test_hilbert_respects_degree_cap(capsys):
    assert main(["hilbert", "--max", "11"]) == 2
    assert "cap" in capsys.readouterr().err


def test_report_writes_schema_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["report", "--degrees", "4", "--out", str(out),
                 "--no-timings"]) == 0
    payload = json.loads(out.read_text())
    assert payload["toolkit_version"] == __version__
    (record,) = payload["reports"]
    assert set(record) == REPORT_KEYS
    assert record["equal"] is True
    assert record["decomposition"] == [[[3, 1], 1], [[2, 2], 1]]


def test_report_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["report", "--degrees", "4", "--out", str(a), "--no-timings"]) == 0
    assert main(["report", "--degrees", "4", "--out", str(b), "--no-timings"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_without_degrees_is_a_usage_error(capsys):
    for degrees in (",,", "", " , "):
        assert main(["report", "--degrees", degrees]) == 2
        assert "no degree" in capsys.readouterr().err


def test_bad_degree_usage_error():
    with pytest.raises(SystemExit) as e:
        main(["verify", "--degree", "9"])
    assert e.value.code == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert __version__ in capsys.readouterr().out
