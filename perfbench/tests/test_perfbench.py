"""Tests of the benchmark's own code: span accounting, the pace of the
reference slices and the check-mix stream.

    python3 -m pytest -q perfbench/tests
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SRC = HERE.parent / "src"
for p in (str(HERE), str(SRC)):
    if p not in sys.path:
        sys.path.insert(0, p)

import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from weakid import parse_poly  # noqa: E402


def test_self_time_of_nested_spans():
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def sizes(_args, _result):
        now[0] += 100.0  # counting is not charged to any span
        return {"rows": 2, "max_bits": 5}

    def leaf():
        now[0] += 2.0

    def middle():
        now[0] += 1.0
        tracer.call("leaf", leaf, (), {}, sizes)
        now[0] += 3.0
        tracer.call("leaf", leaf, (), {}, sizes)

    def outer():
        now[0] += 0.5
        tracer.call("middle", middle, (), {})
        now[0] += 0.25

    tracer.call("outer", outer, (), {})
    assert tracer.calls == {"leaf": 2, "middle": 1, "outer": 1}
    assert tracer.self_s == {"leaf": 4.0, "middle": 4.0, "outer": 0.75}
    assert tracer.counts == {"leaf.rows": 4, "leaf.max_bits": 5}


def test_span_closes_when_the_call_raises():
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def boom():
        now[0] += 1.0
        raise ValueError

    def outer():
        try:
            tracer.call("boom", boom, (), {})
        except ValueError:
            now[0] += 2.0

    tracer.call("outer", outer, (), {})
    assert tracer.self_s == {"boom": 1.0, "outer": 2.0}


def test_instrument_sees_calls_through_imported_names():
    code = (
        "import spans, weakid\n"
        "from weakid import tideal\n"
        "t = spans.Tracer(); spans.instrument(t)\n"
        "tideal.consequences_span(None, 4)\n"
        "m = spans.layer_metrics(t)\n"
        "assert m['linalg.echelonize.calls'] >= 1, m\n"
        "assert m['tideal.consequence_family.members'] > 0, m\n"
        "assert m['matrep.eval_rows.words'] == 24, m\n"
        "assert m['series.image_dims.calls'] == 0, m\n"
    )
    env = {"PYTHONPATH": f"{HERE}:{SRC}", "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_check_mix_stream_is_deterministic_per_seed():
    assert workloads.check_mix_queries(7) == workloads.check_mix_queries(7)
    assert workloads.check_mix_queries(7) != workloads.check_mix_queries(8)
    assert workloads.probes(7) == workloads.probes(7)


def test_check_mix_stays_at_linearized_degree_five():
    for seed in range(5):
        queries = workloads.check_mix_queries(seed)
        assert len(queries) == workloads.EXPRESSIONS
        for text, degree, _expected in queries:
            f = parse_poly(text)
            assert f.is_zero() or f.multidegree() is not None, text
            assert f.is_zero() or f.degree() == degree, text
            assert degree <= workloads.MAX_CONSEQUENCE_DEGREE, text


def test_probes_are_oversized():
    degree7 = parse_poly(workloads.probes(3)[0][1])
    assert degree7.degree() == 7
    assert [mode for mode, _ in workloads.probes(3)] == ["consequence", "identity", "identity"]


def test_tail_keeps_ten_samples_beyond():
    assert run._tail(list(range(100))) == (89, 90.0)
    assert run._tail([3.0, 1.0]) == (3.0, 100.0)


def test_refs_counts_each_stretch_in_the_pace_of_the_slice_that_ends_it():
    marks = [(0.0, 1.0), (3.0, 5.0), (9.0, 10.0)]  # paces 1.5, 1, 1.5
    assert pace.refs(marks, 0.5, 12.0) == 2 / 1 + 4 / 1.5 + 2 / 1.5
    assert pace.busy(marks, 0.5, 12.0) == 0.5 + 2.0 + 1.0
    assert pace.refs(marks, 2.0, 4.0) == 1 / 1
    assert pace.busy(marks, 2.0, 4.0) == 1.0
    assert pace.refs(marks, 5.0, 5.0) == 0.0


def test_refs_ignores_one_delayed_slice():
    marks = [(0.0, 1.0), (3.0, 4.0), (6.0, 10.0), (12.0, 13.0), (15.0, 16.0)]
    assert pace.refs(marks, 0.0, 16.0) == 8.0
    assert pace.busy(marks, 0.0, 16.0) == 8.0


def test_pacer_slices_while_the_calls_run():
    pacer = pace.Pacer(period=0.01)
    pacer.start()
    t0 = pace.time.perf_counter()
    while pace.time.perf_counter() - t0 < 0.2:
        sum(range(1000))
    t1 = pace.time.perf_counter()
    pacer.stop()
    assert len(pacer.marks) >= 5
    assert all(a < b for a, b in pacer.marks)
    # a steady machine runs about (window - slices) / slice reference slices
    slice_s = min(b - a for a, b in pacer.marks)
    assert 0 < pace.refs(pacer.marks, t0, t1) <= (t1 - t0) / slice_s
