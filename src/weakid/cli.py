"""Command-line interface.

Exit codes: 0 = all checks passed, 1 = a mathematical check failed,
2 = usage or expression error.  Reports go to stdout as human-readable text,
or as JSON with ``--json`` / ``--out FILE``.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import suppress
from functools import cache

from . import __version__
from .expr import ParseError, parse_poly, render
from .freealg import proper_span
from .matrep import weak_identity_witness
from .repthy import decompose, decompose_quotient
from .series import closed_form_series, image_dims
from .tideal import _MAX_DEGREE, is_consequence, proper_kernel, verify_degree

# Degrees ``verify`` and ``report`` accept.
_VERIFY_DEGREES = range(4, _MAX_DEGREE + 1)
_VERIFY_SPAN = f"{_VERIFY_DEGREES.start}..{_MAX_DEGREE}"

# Highest degree ``hilbert --max`` accepts.
_HILBERT_CAP = 10

# Highest linearized degree ``check --mode consequence`` accepts: a degree-7
# query exits 2 at once, and ``verify --degree 7`` (about 2.5 s and 85 MB)
# builds it.
_CONSEQUENCE_CAP = 6


def _emit(payload, args):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        _write(args.out, text)
    elif args.json:
        sys.stdout.write(text)


def _write(path, text):
    """Write text to path, or raise ValueError (a usage error) and leave no
    partial file behind."""
    fh = None
    try:
        fh = open(path, "w")
        with fh:
            fh.write(text)
    except OSError as e:
        if fh is not None:
            with suppress(OSError):
                os.remove(path)
        raise ValueError(f"cannot write {path}: {e.strerror or e}") from None


def _check_out(path):
    """Raise the ValueError ``_write`` would for a path whose directory is
    missing or not writable, or that is a directory, before any work is
    done; creates or truncates nothing."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(parent, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write {path}: {os.strerror(code)}")


def _want_json(args):
    return args.json or args.out


def _report_dict(report, args):
    return report.to_json_dict(__version__, with_timings=not args.no_timings)


def cmd_verify(args):
    report = verify_degree(args.degree, proper=args.proper,
                           with_decomposition=args.with_decomposition)
    if _want_json(args):
        _emit(_report_dict(report, args), args)
    if not _want_json(args) or args.out:
        mode = "proper component" if args.proper else "full multilinear component"
        print(f"degree {report.degree} ({mode})")
        print(f"  dim ambient       {report.dim_p}")
        print(f"  dim kernel        {report.dim_kernel}")
        print(f"  dim consequences  {report.dim_consequences}")
        print(f"  containment       {report.containment}")
        print(f"  equal             {report.equal}")
        if report.decomposition is not None:
            print(f"  quotient decomposition  {report.decomposition}")
        if not args.no_timings:
            print(f"  timings_ms        {report.timings_ms}")
    return 0 if report.equal else 1


def cmd_check(args):
    f = parse_poly(args.expr)
    if args.mode == "identity":
        witness = weak_identity_witness(f)
        ok = witness is None
        if _want_json(args):
            payload = {"expr": args.expr, "canonical": render(f),
                       "mode": "identity", "result": ok,
                       "toolkit_version": __version__}
            if not ok:
                payload["witness"] = {
                    "assignment": {f"x{i}": [[str(v) for v in row] for row in m]
                                   for i, m in sorted(witness.assignment.items())},
                    "value": [[str(v) for v in row] for row in witness.value],
                }
            _emit(payload, args)
        else:
            print(f"weak identity: {ok}")
            if witness is not None:
                print("witness substitution:")
                for line in witness.lines():
                    print(f"  {line}")
        return 0 if ok else 1
    degree = f.degree()
    if degree is not None and degree > _CONSEQUENCE_CAP:
        raise ValueError(f"degree {degree} above cap {_CONSEQUENCE_CAP}; "
                         f"degree 7 is proved by 'weakid verify --degree 7'")
    ok = is_consequence(f)
    if _want_json(args):
        _emit({"expr": args.expr, "canonical": render(f), "mode": "consequence",
               "result": ok, "toolkit_version": __version__}, args)
    else:
        print(f"consequence of the generators: {ok}")
    return 0 if ok else 1


def cmd_decompose(args):
    n = args.degree
    if args.space == "gamma":
        dec = decompose(proper_span(n), n)
    elif args.space == "gamma-kernel":
        dec = decompose(proper_kernel(n), n)
    else:
        dec = decompose_quotient(proper_span(n), proper_kernel(n), n)
    listed = sorted(([list(lam), m] for lam, m in dec.items()), reverse=True)
    if _want_json(args):
        _emit({"space": args.space, "degree": n, "decomposition": listed,
               "toolkit_version": __version__}, args)
    else:
        print(f"{args.space} at degree {n}:")
        for lam, m in listed:
            print(f"  {tuple(lam)}: {m}")
    return 0


def cmd_hilbert(args):
    n_max = args.max
    if n_max > _HILBERT_CAP:
        raise ValueError(f"degree {n_max} above cap {_HILBERT_CAP}")
    computed = image_dims(n_max)
    closed = closed_form_series(n_max)
    equal = computed == closed
    if _want_json(args):
        _emit({"max": n_max,
               "computed": [str(c) for c in computed],
               "closed_form": [str(c) for c in closed],
               "equal": equal,
               "toolkit_version": __version__}, args)
    else:
        print(f"computed    {computed}")
        print(f"closed form {closed}")
        print(f"equal       {equal}")
    return 0 if equal else 1


def cmd_report(args):
    try:
        degrees = [int(d) for d in args.degrees.split(",") if d.strip()]
    except ValueError:
        raise ValueError(f"bad degree list {args.degrees!r}") from None
    if not degrees:
        raise ValueError(f"no degree in {args.degrees!r}")
    bad = [n for n in degrees if n not in _VERIFY_DEGREES]
    if bad:
        raise ValueError(f"degrees {bad} outside {_VERIFY_SPAN}")
    lines = not _want_json(args) or args.out
    reports = []
    all_equal = True
    for n in degrees:
        report = verify_degree(n, with_decomposition=True)
        reports.append(_report_dict(report, args))
        all_equal = all_equal and report.equal
        if lines:
            print(f"degree {n}: equal={report.equal} (kernel {report.dim_kernel}, "
                  f"consequences {report.dim_consequences})")
    if _want_json(args):
        _emit({"reports": reports, "toolkit_version": __version__}, args)
    if args.out:
        print(f"wrote {args.out}")
    return 0 if all_equal else 1


@cache
def build_parser():
    """The argument parser, built on first use and shared by every ``main``
    call in the process (parsing leaves no state on it)."""
    p = argparse.ArgumentParser(
        prog="weakid",
        description="Verify that the weak identities of symmetric 2x2 matrices "
                    "are generated by the degree-4 standard identity and the "
                    "metabelian identity, degree by degree.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true",
                        help="write a JSON report to stdout")
        sp.add_argument("--out", metavar="FILE", help="write a JSON report to FILE")
        sp.add_argument("--no-timings", action="store_true",
                        help="omit timings from JSON output (byte-stable reruns)")

    sp = sub.add_parser("verify", help="compare consequences with weak identities")
    sp.add_argument("--degree", type=int, required=True, choices=_VERIFY_DEGREES,
                    metavar="N", help=f"degree to verify ({_VERIFY_SPAN})")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--full-p", dest="proper", action="store_false",
                       help="verify in the full multilinear component (default)")
    group.add_argument("--proper", dest="proper", action="store_true",
                       help="restrict to the proper component")
    sp.set_defaults(proper=False)
    sp.add_argument("--with-decomposition", action="store_true",
                    help="include the proper-quotient decomposition")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("check", help="test one expression")
    sp.add_argument("--expr", required=True, help="expression to test")
    sp.add_argument("--mode", choices=("identity", "consequence"),
                    default="identity")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("decompose", help="decompose a proper component")
    sp.add_argument("--space", choices=("gamma", "gamma-quotient", "gamma-kernel"),
                    required=True)
    sp.add_argument("--degree", type=int, required=True, choices=range(2, 7),
                    metavar="N")
    common(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("hilbert", help="graded dimensions vs the closed form")
    sp.add_argument("--max", type=int, required=True, metavar="N")
    common(sp)
    sp.set_defaults(func=cmd_hilbert)

    sp = sub.add_parser("report", help="verify several degrees, write JSON")
    sp.add_argument("--degrees", required=True, help="comma-separated, e.g. 4,5,6")
    common(sp)
    sp.set_defaults(func=cmd_report)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except (ValueError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
