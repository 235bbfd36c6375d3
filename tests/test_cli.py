"""CLI surface: exit codes, JSON schema, determinism."""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from weakid import __version__
from weakid.cli import main
from weakid.expr import _MAX_NESTING, parse_poly

# ``check --mode identity --json`` output of one expression per benchmark
# check-mix template (seed 1) and a few hand-picked ones, recorded before the
# witness search moved onto the generic coordinates.
GOLDEN_CHECKS = Path(__file__).parent / "data" / "check_identity_golden.json"

# ``check --mode consequence --json`` stdout, stderr and exit code for the
# same expressions, recorded before sums and products were elaborated from
# their first operand and before one helper added every polynomial's terms.
GOLDEN_CONSEQUENCES = (Path(__file__).parent / "data"
                       / "check_consequence_golden.json")

# stdout of ``verify`` (degrees 4 and 5, both modes, ``--json --no-timings``),
# ``decompose --json`` (degrees 4 and 5, all three spaces) and
# ``hilbert --max 8 --json``, recorded before the layers below ``NcPoly``
# moved to plain exact-number dicts; of ``verify --degree 6 --full-p --json
# --no-timings``, recorded before the consequence family was built by
# induction on the degree; and of ``verify --degree 6 --proper
# --with-decomposition --json --no-timings``, recorded before the proper
# consequence dimension was counted by rank instead of a Zassenhaus basis;
# and of ``decompose --space gamma`` and ``--space gamma-kernel`` at degree 6
# (``--json``), recorded before the proper family became a basis; and of
# ``hilbert --max 10 --json``, the cap, recorded before the Hilbert series
# computed only the dominant bidegrees and ranked them without the table.
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


def test_check_consequence_replays_the_golden_file():
    cases = json.loads(GOLDEN_CONSEQUENCES.read_text())
    assert [c["expr"] for c in cases] == [
        c["expr"] for c in json.loads(GOLDEN_CHECKS.read_text())]
    for case in cases:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["check", "--mode", "consequence", "--json",
                         f"--expr={case['expr']}"])
        assert ((code, out.getvalue(), err.getvalue())
                == (case["exit"], case["stdout"], case["stderr"])), case["expr"]


def test_cli_replays_the_golden_file():
    cases = json.loads(GOLDEN_CLI.read_text())
    assert len(cases) == 16
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
    # Arabic-Indic three and a superscript two: not ASCII digits
    for expr in ("\u0663", "x\u00b2"):
        assert main(["check", "--expr", expr]) == 2
        assert "unexpected character" in capsys.readouterr().err


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
    # degree 9: linearized (x1^5*x2^4) and already multilinear; degree 7,
    # whose span only ``verify --degree 7`` builds
    for expr, degree in (("x1^5*x2^4", 9),
                         ("[[x1,x2],[x3,x4]]*x5*x6*x7*x8*x9", 9),
                         ("[[x1,x2],[x3,x4]]*[x5,x6]*x7", 7),
                         ("S4(x1,x2,x3,x4)*x5^3", 7)):
        t0 = time.perf_counter()
        assert main(["check", "--expr", expr, "--mode", "consequence"]) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert f"degree {degree}" in err
        assert "verify --degree 7" in err


@pytest.mark.parametrize("expr, small", [
    ("x100000", "x1"),
    ("x10000000", "x1"),
    ("x9999999999999999999", "x1"),
    ("[x10000000,x3]*x9999999999999999999^2", "[x2,x1]*x3^2"),
    ("S3(x100000,x7,x9999999999999999999)", "S3(x2,x1,x3)"),
])
def test_check_large_variable_index_is_fast_and_relabels(expr, small):
    """A large index costs no more than a small one: the witness is the one
    of the expression with its variables renumbered in increasing order."""
    def run(text):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["check", "--mode", "identity", "--json",
                         f"--expr={text}"])
        return code, json.loads(out.getvalue())

    t0 = time.perf_counter()
    code, got = run(expr)
    assert time.perf_counter() - t0 < 1.0
    small_code, want = run(small)
    assert code == small_code == 1
    names = dict(zip(sorted(want["witness"]["assignment"],
                            key=lambda v: int(v[1:])),
                     sorted(got["witness"]["assignment"],
                            key=lambda v: int(v[1:]))))
    assert got["witness"] == {
        "assignment": {names[v]: m
                       for v, m in want["witness"]["assignment"].items()},
        "value": want["witness"]["value"]}


def test_check_identity_renders_only_for_json(monkeypatch, capsys):
    from weakid import cli

    rendered = []
    real = cli.render
    monkeypatch.setattr(cli, "render", lambda f: rendered.append(f) or real(f))
    assert main(["check", "--expr", "[x1,x2]", "--mode", "identity"]) == 1
    assert "witness substitution" in capsys.readouterr().out
    assert rendered == []
    assert main(["check", "--expr", "[x1,x2]", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["canonical"] == real(rendered[0])
    assert len(rendered) == 1


def test_check_rejects_oversized_expressions_fast(capsys):
    s12 = "S12(" + ",".join(f"x{i}" for i in range(1, 13)) + ")"
    for expr in (s12, "(x+y)^40", "x^100000000", "ad(x,y,40)",
                 # a scalar base is no cheaper to raise to a power
                 "2^100000000", "(x^0)^100000000", "((2^12)^12)^12",
                 "(1/2)^13", "S1(3)^100000000"):
        t0 = time.perf_counter()
        assert main(["check", "--expr", expr]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "too large" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["identity", "consequence"])
@pytest.mark.parametrize("opener, inner", [("(", "(x)"), ("[", "[x,y]"),
                                           ("o(", "o(x,y)"),
                                           ("S2(", "S2(x,y)"),
                                           ("ad(", "ad(x,y,1)")])
def test_check_nesting_cap(opener, inner, mode, capsys):
    """Brackets nested to the cap are read; one level deeper is a parse
    error at the opening bracket past the cap, not a RecursionError."""
    def at_depth(depth):
        return "(" * (depth - 1) + inner + ")" * (depth - 1)

    assert parse_poly(at_depth(_MAX_NESTING)) == parse_poly(inner)
    assert main(["check", "--expr", at_depth(_MAX_NESTING), "--mode", mode]) == 1
    assert capsys.readouterr().err == ""
    t0 = time.perf_counter()
    assert main(["check", "--expr", at_depth(_MAX_NESTING + 1),
                 "--mode", mode]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: 1:{_MAX_NESTING + len(opener)}: ")
    assert "nested deeper" in err


@pytest.mark.parametrize("mode", ["identity", "consequence"])
def test_check_deeply_nested_input_exits_two_fast(mode, capsys):
    for expr in ("(" * 2000, "[" * 600):
        t0 = time.perf_counter()
        assert main(["check", "--expr", expr, "--mode", mode]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "nested deeper" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", "--degree", "4"],
                                  ["check", "--expr", "[x1,x2]"]])
def test_out_to_an_unwritable_path_is_a_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "f.json"
    assert main([*argv, "--out", str(path)]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: cannot write")
    assert captured.out == ""
    assert not path.parent.exists()


@pytest.mark.parametrize("argv", [["verify", "--degree", "4"],
                                  ["report", "--degrees", "4"]])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_is_rejected_before_any_work(argv, where, tmp_path,
                                                    monkeypatch, capsys):
    """An --out path whose directory is missing, or that is a directory, is
    a usage error before verification starts, and leaves nothing behind."""
    from weakid import cli

    def never(*args, **kwargs):
        raise AssertionError("verify_degree ran before --out was checked")

    monkeypatch.setattr(cli, "verify_degree", never)
    if where == "missing-directory":
        path, reason = tmp_path / "missing" / "x.json", "No such file or directory"
    else:
        path, reason = tmp_path, "Is a directory"
    assert main([*argv, "--out", str(path)]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line == f"error: cannot write {path}: {reason}"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_out_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    from weakid import cli

    class Full(io.StringIO):
        def write(self, text):
            super().write(text)
            with open(path, "w") as fh:  # a partial report on disk
                fh.write(text[:10])
            raise OSError(28, "No space left on device")

    path = tmp_path / "f.json"
    monkeypatch.setattr(cli, "open", lambda *_: Full(), raising=False)
    assert main(["check", "--expr", "[x1,x2]", "--out", str(path)]) == 2
    assert "No space left" in capsys.readouterr().err
    assert not path.exists()


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
    assert main(["decompose", "--space", "gamma", "--degree", "4"]) == 0
    assert capsys.readouterr().out == (
        "gamma at degree 4:\n  (3, 1): 1\n  (2, 2): 1\n  (2, 1, 1): 1\n"
        "  (1, 1, 1, 1): 1\n")
    assert main(["verify", "--degree", "4", "--proper", "--with-decomposition",
                 "--no-timings"]) == 0
    assert ("  quotient decomposition  (((3, 1), 1), ((2, 2), 1))\n"
            in capsys.readouterr().out)


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
    assert main(["hilbert", "--max", "6"]) == 0
    assert capsys.readouterr().out == (
        "computed    [1, 0, 1, 2, 4, 6, 9]\n"
        "closed form [1, 0, 1, 2, 4, 6, 9]\n"
        "equal       True\n")


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
    printed = capsys.readouterr().out
    assert "degree 4: equal=True" in printed and f"wrote {out}" in printed


def test_report_json_to_stdout_is_valid_json(capsys):
    assert main(["report", "--degrees", "4", "--json", "--no-timings"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["toolkit_version"] == __version__
    (record,) = payload["reports"]
    assert set(record) == REPORT_KEYS
    assert record["degree"] == 4 and record["equal"] is True


def test_report_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["report", "--degrees", "4", "--out", str(a), "--no-timings"]) == 0
    assert main(["report", "--degrees", "4", "--out", str(b), "--no-timings"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_without_degrees_is_a_usage_error(capsys):
    for degrees in (",,", "", " , "):
        assert main(["report", "--degrees", degrees]) == 2
        assert "no degree" in capsys.readouterr().err
    assert main(["report", "--degrees", "4,x"]) == 2
    assert "bad degree list '4,x'" in capsys.readouterr().err


def test_report_checks_every_degree_before_verifying(monkeypatch, capsys):
    from weakid import cli

    calls = []
    real = cli.verify_degree
    monkeypatch.setattr(cli, "verify_degree",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    for degrees in ("4,8", "7,8", "3,4", "5,4,9"):
        assert main(["report", "--degrees", degrees]) == 2
        assert "outside 4..7" in capsys.readouterr().err
    assert calls == []


def test_parser_is_built_once_and_keeps_no_state(capsys):
    from weakid import cli

    cli.build_parser.cache_clear()
    assert main(["check", "--expr", "[x1,x2]", "--mode", "consequence",
                 "--json"]) == 1
    first = json.loads(capsys.readouterr().out)
    assert (first["mode"], first["result"]) == ("consequence", False)
    # neither --json nor --mode carries over into the next call
    assert main(["check", "--expr", "[x1,x2]"]) == 1
    second = capsys.readouterr().out
    assert second.startswith("weak identity: False\n")
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_bad_degree_usage_error():
    with pytest.raises(SystemExit) as e:
        main(["verify", "--degree", "9"])
    assert e.value.code == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert __version__ in capsys.readouterr().out
