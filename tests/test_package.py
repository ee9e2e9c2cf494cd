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


def test_reading_a_config_loads_no_judges_pipeline_or_numpy(tmp_path):
    def spec(name, kind="http"):
        return {"name": name, "kind": kind, "endpoint": "https://judge.test/v1",
                "model": "m", "credential_env": "KEY", "rate_limit": 2.0,
                "timeout": 5.0, "fixture_dir": ""}

    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "labels": ["happy", "sadness", "neutral"],
        "tendency_map": {"happy": "positive", "sadness": "negative",
                         "neutral": "neutral"},
        "delimiters": "。.", "tau": 0.6, "passes": 3, "max_repair_attempts": 1,
        "concurrency": 2, "seed": 7, "sample_limit": 10, "cache_dir": "cache",
        "smoothing": 1e-6, "divergence_mode": "rows", "rc_floor_unrepairable": True,
        "rc_routing": {"exp": ["profile"], "cha": ["profile", "previous_info"],
                       "rel": ["previous_info"]},
        "judge_sampling": {"temperature": 0.0, "top_p": 1.0, "max_tokens": 256},
        "generation_sampling": {"temperature": 0.9, "top_p": 0.9, "max_tokens": 512},
        "retry": {"max_attempts": 2, "base_delay": 0.1, "max_delay": 1.0},
        "experts": [spec("e0"), spec("e1", "mock")],
        "rc_evaluators": [spec("c0")],
        "repair": spec("fixer", "mock"),
        "generators": [spec("g0")],
    }), encoding="utf-8")
    heavy = ("numpy", "sqlite3", "http.client", "rpeval.judges", "rpeval.pipeline",
             "rpeval.metrics", "rpeval.erc", "rpeval.scheduler")
    result = _child(f"""
import json, sys
import rpeval
config = rpeval.RunConfig.from_file({str(path)!r})
print(json.dumps({{"loaded": [m for m in {heavy!r} if m in sys.modules],
                  "passes": config.passes, "repair": config.repair.kind,
                  "experts": len(config.experts)}}))
""")
    assert result == {"loaded": [], "passes": 3, "repair": "mock", "experts": 2}
