"""Every walkthrough in ``demos/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    """Start every demo at once (each is mostly interpreter start-up)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cwd = tmp_path_factory.mktemp("demos")
    # The suite's interpreter flags (``-X dev``, ``-W error``) reach the
    # demos too.
    flags = [f"-W{option}" for option in sys.warnoptions]
    if sys.flags.dev_mode:
        flags += ["-X", "dev"]
    procs = {
        demo.name: subprocess.Popen(
            [sys.executable, *flags, str(demo)], cwd=cwd, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for demo in DEMOS
    }
    return {name: (proc.communicate(timeout=120)[1], proc.returncode)
            for name, proc in procs.items()}


@pytest.mark.parametrize("name", [demo.name for demo in DEMOS])
def test_demo_exits_cleanly(demo_runs, name):
    stderr, code = demo_runs[name]
    assert code == 0, stderr
