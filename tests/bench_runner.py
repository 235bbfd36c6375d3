"""Run a bench script of the repository in a fresh interpreter, with the
package source on ``PYTHONPATH``, and return the JSON object it prints."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_bench(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(ROOT / "bench" / script), *args],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)
