"""The package root: what ``import rpeval`` loads, and what it exports.

The import checks run in a child interpreter with ``-B``, so that this
process's already-loaded modules do not hide what a fresh process pays
for, and no bytecode is written into the checkout.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rpeval

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("numpy", "sqlite3", "concurrent.futures", "rpeval.metrics", "rpeval.pipeline")


def _child(code: str) -> dict:
    """Run ``code`` in a fresh interpreter and return the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-B", "-c", code], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_light_imports_load_neither_numpy_nor_the_pipeline():
    result = _child(f"""
import json, sys
import rpeval
import rpeval.prompts
from rpeval import DEFAULT_EMOTION_LABELS
light = [m for m in {HEAVY!r} if m in sys.modules]
rpeval.evaluate
print(json.dumps({{"light": light,
                  "evaluate": [m for m in ("rpeval.pipeline", "numpy")
                               if m in sys.modules]}}))
""")
    assert result == {"light": [], "evaluate": ["rpeval.pipeline", "numpy"]}


def test_submodules_resolve_after_a_bare_import():
    result = _child("""
import json, types
import rpeval
print(json.dumps([isinstance(rpeval.pipeline, types.ModuleType),
                  rpeval.cli.__name__, rpeval.prompts.__name__]))
""")
    assert result == [True, "rpeval.cli", "rpeval.prompts"]


def test_every_export_is_the_object_its_submodule_defines():
    assert rpeval.__all__ == sorted(set(rpeval.__all__))
    for name in rpeval.__all__:
        module = importlib.import_module(f"rpeval.{rpeval._ORIGIN[name]}")
        value = getattr(rpeval, name)
        assert value is getattr(module, name), name
        # A re-import elsewhere would pass the identity check; the table
        # must name the module that defines the function or class.
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    assert set(rpeval.__all__) <= set(dir(rpeval))
    with pytest.raises(AttributeError, match="no_such_name"):
        rpeval.no_such_name
    namespace = {}
    exec("from rpeval import *", namespace)
    assert all(namespace[name] is getattr(rpeval, name) for name in rpeval.__all__)
