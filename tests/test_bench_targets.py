"""Every function the benchmark's tracer patches is where it looks for it.

``bench/spans.py`` patches each traced function as ``owner.__dict__[attr]``,
so a refactor that renames or moves one would otherwise fail only the
benchmark.  The check runs in a child interpreter with ``-B``, so that
importing the bench modules writes no bytecode into the checkout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_CHECK = """
import json
import spans
targets = spans._targets()
missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
           for _, owner, attr, _, _ in targets if attr not in vars(owner)]
print(json.dumps({"targets": len(targets), "missing": missing}))
"""


def test_every_traced_name_is_in_its_owners_namespace():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run([sys.executable, "-B", "-c", _CHECK], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["targets"] > 0
    assert result["missing"] == []
