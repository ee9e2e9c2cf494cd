"""Self-check of the benchmark harness.

Usage, from the root of a checkout:

    python3 bench/selfcheck.py

Runs every workload at tiny size, untraced and traced, and requires a
correct result whose metrics are exactly the names and units declared in
``BENCHMARK.json``.  Then breaks the judges on purpose, on every
workload, and requires the output check to fail: once with experts
that report wrong emotion labels, once with a repair judge that drops
every sample it should have repaired.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

SECONDS = "0.5"


def bench(workload: str, trace: int, fault: str = "") -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace),
         "--size", "tiny", "--fault", fault],
        capture_output=True, text=True, cwd=run.ROOT, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, result, proc.stdout


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for trace, key, table in ((0, "end_to_end", run.END_TO_END),
                              (1, "per_layer", run.PER_LAYER)):
        want = {m["name"]: m["unit"] for m in declared[key]}
        if want != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
        for workload in (w["name"] for w in declared["workloads"]):
            code, result, out = bench(workload, trace)
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            printed = all(name in out for name in want)
            ok = code == 0 and result.get("correct") is True and got == want and printed
            print(f"{'ok ' if ok else 'BAD'} {workload} --trace {trace}: "
                  f"exit {code}, {len(got)} metrics")
            if not ok:
                problems.append(f"{workload} --trace {trace}")
    for workload in (w["name"] for w in declared["workloads"]):
        for fault in ("wrong-labels", "drop"):
            code, result, _ = bench(workload, 0, fault)
            caught = code == 1 and result.get("correct") is False and result["failed"] > 0
            print(f"{'ok ' if caught else 'BAD'} {workload} --fault {fault}: "
                  f"exit {code}, failed {result.get('failed')}")
            if not caught:
                problems.append(f"{workload} --fault {fault} was not caught")
    for problem in problems:
        print(f"self-check problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
