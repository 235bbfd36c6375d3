"""The family-layer bench script runs and prints one JSON object."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_family_prints_json_at_degree_4():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(ROOT / "bench" / "bench_family.py"),
                          "--degrees", "4"],
                         env=env, capture_output=True, text=True, check=True)
    d4 = json.loads(out.stdout)["degrees"]["4"]
    # S4 and the three commutator pairings; nothing below degree 4
    assert (d4["members"], d4["base"], d4["left"]) == (4, 4, 0)
    assert d4["expanded"] == 0
    assert d4["dim"] == 4 and d4["certified"] and d4["equal"]
    for part in ("family_s", "base_s", "specializations_s", "certify_s",
                 "eliminate_s", "consequences_s", "verify_s"):
        assert d4[part] > 0, part
    assert d4["family_s"] <= d4["consequences_s"]
