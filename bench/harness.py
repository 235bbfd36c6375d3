"""The parts the layer bench scripts share: timing a function's calls, and a
``main`` that runs each degree's measurements in fresh child processes and
prints one JSON object.  A script calls ``main(__file__, __doc__, kinds)``,
where kinds maps "layers" and "verify" to functions of the degree that
return JSON-ready dicts."""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time


def time_calls(module, name, totals, when=None):
    """Rebind module.name to a wrapper that adds each call's wall time to
    totals[name]; given ``when``, only the calls whose arguments it
    accepts."""
    fn = getattr(module, name)

    def timed(*args, **kwargs):
        if when is not None and not when(*args, **kwargs):
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[name] = totals.get(name, 0.0) + time.perf_counter() - t0

    setattr(module, name, timed)


def _child(script, kind, n):
    """Run kind(n) of the script in a fresh interpreter and return its JSON
    output."""
    out = subprocess.run([sys.executable, script, "--child", kind, str(n)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(script, doc, kinds, argv=None):
    p = argparse.ArgumentParser(description=doc.splitlines()[0])
    p.add_argument("--degrees", default="4,5,6",
                   help="comma-separated degrees, 4-7 (default 4,5,6)")
    p.add_argument("--child", nargs=2, metavar=("KIND", "N"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        kind, n = args.child
        print(json.dumps(kinds[kind](int(n))))
        return 0
    degrees = [int(d) for d in args.degrees.split(",") if d.strip()]
    result = {str(n): {k: v for kind in kinds
                       for k, v in _child(script, kind, n).items()}
              for n in degrees}
    print(json.dumps({"python": platform.python_version(), "degrees": result},
                     indent=2, sort_keys=True))
    return 0
