"""The package stays pure standard library."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import weakid

ROOT = Path(__file__).resolve().parents[1]

_IMPORT_ALL = """
import json, pkgutil, sys
import weakid
names = ['weakid.' + m.name for m in pkgutil.iter_modules(weakid.__path__)]
for name in names:
    __import__(name)
heavy = sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy', 'sympy'})
print(json.dumps({'modules': names, 'heavy': heavy}))
"""


def test_package_is_pure_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _IMPORT_ALL], env=env,
                         capture_output=True, text=True, check=True)
    result = json.loads(out.stdout)
    assert "weakid.tideal" in result["modules"]
    assert "weakid.cli" in result["modules"]
    assert result["heavy"] == []
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


def test_every_exported_name_resolves():
    modules = [weakid] + [importlib.import_module(f"weakid.{m.name}")
                          for m in pkgutil.iter_modules(weakid.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
