"""The benchmark workloads: inputs made from the seed, the calls that are
measured, and the correctness gate on every output.

Each workload is a single-process closed loop with one client: the next call
starts only after the previous one has returned.

verify-d5
    ``tideal.verify_degree(5, generators=...)``, the full proof at degree 5;
    family generation and certification, elimination and basis
    certification dominate it, as they dominate the degree-6 proof of the
    roadmap's headline.  The seed picks the generator presentation (the
    order of the two generators and a relabelling of each one's variables);
    the T-ideal is the same, so the dimensions and the ``--no-timings`` JSON
    are the same for every seed.
hilbert-7
    ``series.image_dims(7)`` against the closed form.  ``matrep`` does nearly
    all the work on two-variable, high-degree, non-multilinear words, and
    ``tideal`` is never touched, so it shows whether an evaluation fast path
    helps beyond the proof.  The seed does not affect this input.
decompose-d5
    ``repthy.decompose_quotient(proper_span(5), proper_kernel(5), 5)``: linalg
    through ``left_kernel`` with augmented rows rather than ``echelonize``
    with ``stop_dim``, ``NcPoly`` accumulation and Sym(5) traces, and no
    consequence family or certification.  The seed does not affect this
    input.
check-mix
    A seeded stream of surface-syntax expressions sent through
    ``cli.main(["check", ...])`` in identity and consequence mode: the
    interactive user, measured per query.  Consequence queries stay at
    linearized degree <= 5, where the main theorem is verified, so both modes
    must give the same answer; the degree-5 span build is the proof's work
    again, paid once per process.  Oversized probes (``probes``) run apart
    from the stream, each in its own process.

The degrees are below the roadmap's (verify 6, Hilbert series to 9,
decomposition at 6): there a single call takes 8 to 35 s, and a run of
25 s could hold one call or none.  At these degrees one call takes under a
second, a run repeats it a few dozen times and reports the median, and each
layer still dominates the workload it is chosen for.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

VERIFY_DIMS = (120, 55, 55)  # dim P_5, weak identities, consequences
HILBERT_7 = [1, 0, 1, 2, 4, 6, 9, 12]
DECOMPOSE_D5 = {(4, 1): 1, (3, 2): 1}

EXPRESSIONS = 64  # per check-mix stream: two of each template
MAX_CONSEQUENCE_DEGREE = 5


def _op(t0, t1, problems):
    """One measured call: its start and end (``perf_counter``) and its gate."""
    op = {"t0": t0, "t1": t1, "ok": not problems}
    if problems:
        op["why"] = "; ".join(problems)
    return op


# -- verify-d5 ---------------------------------------------------------------


def presentation(seed):
    """The two default generators in a seeded order, each with its variables
    relabelled by a seeded permutation."""
    from weakid.freealg import NcPoly, substitute
    from weakid.tideal import default_generators

    rng = random.Random(f"verify:{seed}")
    gens = list(default_generators())
    rng.shuffle(gens)
    out = []
    for f in gens:
        perm = rng.sample(range(1, 5), 4)
        out.append(substitute(f, {i + 1: NcPoly.variable(p) for i, p in enumerate(perm)}))
    return tuple(out)


def verify_d5(seed):
    import weakid
    from weakid import tideal

    gens = presentation(seed)
    t0 = perf_counter()
    report = tideal.verify_degree(5, generators=gens)
    t1 = perf_counter()
    problems = []
    dims = (report.dim_p, report.dim_kernel, report.dim_consequences)
    if dims != VERIFY_DIMS:
        problems.append(f"dims {dims} != {VERIFY_DIMS}")
    if not (report.containment and report.equal):
        problems.append(f"containment={report.containment} equal={report.equal}")
    text = json.dumps(report.to_json_dict(weakid.__version__, with_timings=False),
                      indent=2, sort_keys=True) + "\n"
    if text != (EXPECTED_DIR / "verify-d5.json").read_text():
        problems.append("--no-timings JSON differs from expected/verify-d5.json")
    return [_op(t0, t1, problems)], {}


# -- hilbert-7 and decompose-d5 -----------------------------------------------


def hilbert_7(seed):
    from weakid import series

    t0 = perf_counter()
    dims = series.image_dims(7)
    t1 = perf_counter()
    closed = series.closed_form_series(7)
    problems = []
    if dims != HILBERT_7 or closed != HILBERT_7:
        problems.append(f"image_dims(7)={dims} closed_form_series(7)={closed}")
    return [_op(t0, t1, problems)], {}


def decompose_d5(seed):
    from weakid import freealg, repthy, tideal

    t0 = perf_counter()
    dec = repthy.decompose_quotient(freealg.proper_span(5), tideal.proper_kernel(5), 5)
    t1 = perf_counter()
    problems = [] if dec == DECOMPOSE_D5 else [f"decomposition {dec}"]
    return [_op(t0, t1, problems)], {}


# -- check-mix -----------------------------------------------------------------


class _Vars:
    """Distinct variables of one expression in a seeded order; x1 and x2 are
    sometimes spelled x and y.  Which templates repeat a variable is fixed,
    so the seed changes the labels but not the shape of the work."""

    def __init__(self, rng, degree):
        self.rng = rng
        self.order = rng.sample(range(1, degree + 1), degree)

    def name(self, i):
        alias = {1: "x", 2: "y"}.get(i)
        return alias if alias and self.rng.random() < 0.3 else f"x{i}"

    def pick(self, k):
        taken, self.order = self.order[:k], self.order[k:]
        return [self.name(i) for i in taken]


def _coeff(rng):
    return rng.choice(["", "2*", "3/2*", "1/3*"])


def _sign(rng):
    return rng.choice(["", "-"]) + _coeff(rng)


def _atoms(rng, v, degree):
    """Four Jordan elements on distinct variables, of total degree 4 or 5."""
    atoms = v.pick(4)
    if degree == 5:
        j = rng.randrange(4)
        atoms[j] = f"o({atoms[j]},{v.pick(1)[0]})"
    return atoms


def _generator(name, atoms):
    a, b, c, d = atoms
    return f"S4({a},{b},{c},{d})" if name == "S4" else f"[[{a},{b}],[{c},{d}]]"


def _instance(gen, degree):
    """A generator at Jordan arguments, times a scalar."""
    return lambda rng, v: _sign(rng) + _generator(gen, _atoms(rng, v, degree))


def _pair(gen, degree):
    """A combination of one generator at two orderings of the same arguments."""
    def make(rng, v):
        atoms = _atoms(rng, v, degree)
        return (_sign(rng) + _generator(gen, atoms) + rng.choice([" + ", " - "])
                + _coeff(rng) + _generator(gen, rng.sample(atoms, 4)))
    return make


def _outer(gen, side):
    """A degree-4 generator instance times a variable on one side."""
    def make(rng, v):
        w, core = v.pick(1)[0], _generator(gen, _atoms(rng, v, 4))
        return f"{w}*{core}" if side == "left" else f"{core}*{w}"
    return make


def _plain(pattern):
    """A fixed expression over the distinct variables {a}, {b}, ..."""
    letters = [c for c in "abcde" if "{" + c + "}" in pattern]
    return lambda rng, v: pattern.format(**dict(zip(letters, v.pick(len(letters)))))


# (degree, expected answer, maker): True for weak identities by construction
# (consequences of the two generators), None where the benchmark fixes no
# answer.  Every stream holds each template equally often, so the seed changes
# variables, scalars and order but not the mix of work.
TEMPLATES = (
    [(2, None, _plain(p)) for p in ("[{a},{b}]", "o({a},{b})", "{a}*{b}", "{a}^2")]
    + [(3, None, _plain(p)) for p in ("[{a},{b},{c}]", "S3({a},{b},{c})",
                                      "o({a},{b})*{c}", "ad({a},{b},2)")]
    + [(4, True, make(gen, 4)) for make in (_instance, _pair) for gen in ("S4", "MB")]
    + [(4, None, _plain(p)) for p in (
        "[{a},{b}]*[{c},{d}]", "[{a},{b},{c},{d}]", "o({a},{b})*o({c},{d})",
        "S4({a},{b},{c},{d}) + [{a},{b}]*[{c},{d}]")]
    + [(5, True, make(gen, 5)) for make in (_instance, _pair) for gen in ("S4", "MB")]
    + [(5, True, _outer("S4", "left")), (5, True, _outer("MB", "right")),
       (5, True, _plain("[[{a},{b}]^2,{c}]")), (5, True, _plain("[{c},[{a},{b}]^2]"))]
    + [(5, None, _plain(p)) for p in (
        "[{a},{b}]*[{c},{d}]*{e}", "[{a},{b},{c}]*[{d},{e}]",
        "S4({a},{b},{c},{d})*{e} + [{a},{b}]*[{c},{d}]*{e}",
        "o([{a},{b}],[{c},{d}])*{e}", "[{a},{b},{c},{d},{e}]", "ad({a},{b},4)",
        "o({a},{b})*[{c},{d}]*{e}",
        "[[{a},{b}],[{c},{d}]]*{e} + [{a},{b}]*[{c},{d}]*{e}")]
)


def check_mix_queries(seed):
    """[(expression, degree, expected)] in a seeded order."""
    rng = random.Random(f"check-mix:{seed}")
    out = []
    for k in range(EXPRESSIONS):
        degree, expected, make = TEMPLATES[k % len(TEMPLATES)]
        out.append((make(rng, _Vars(rng, degree)), degree, expected))
    rng.shuffle(out)
    return out


def probes(seed):
    """[(mode, expression)]: oversized input that should fail fast with exit 2."""
    rng = random.Random(f"probes:{seed}")
    v = [f"x{i}" for i in rng.sample(range(1, 8), 7)]
    degree7 = f"[[{v[0]},{v[1]}],[{v[2]},{v[3]}]]*[{v[4]},{v[5]}]*{v[6]}"
    s12 = ",".join(f"x{i}" for i in rng.sample(range(1, 13), 12))
    a, b = rng.sample(["x", "y", "x3"], 2)
    return [("consequence", degree7), ("identity", f"S12({s12})"),
            ("identity", f"({a}+{b})^40")]


def _check(mode, text):
    """(start, end, exit code or exception text, stderr) of one in-process
    CLI query."""
    from weakid import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["check", "--mode", mode, f"--expr={text}"])
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception as exc:  # a crash fails the query, not the benchmark
        code = f"{type(exc).__name__}: {exc}"
    return t0, perf_counter(), code, err.getvalue().strip()


def check_mix(seed):
    ops = []
    for text, _degree, expected in check_mix_queries(seed):
        answers = {}
        for mode in ("identity", "consequence"):
            t0, t1, code, err = _check(mode, text)
            problems = []
            if code not in (0, 1):
                problems.append(f"{mode} {text!r} exited {code} {err}")
            elif expected is True and code != 0:
                problems.append(f"{mode} {text!r}: weak identity by construction, got false")
            elif mode == "consequence" and answers["identity"] in (0, 1) \
                    and code != answers["identity"]:
                problems.append(f"{text!r}: identity and consequence answers differ")
            answers[mode] = code
            ops.append(_op(t0, t1, problems))
    return ops, {"queries": len(ops)}


RUNNERS = {
    "verify-d5": verify_d5,
    "hilbert-7": hilbert_7,
    "decompose-d5": decompose_d5,
    "check-mix": check_mix,
}
