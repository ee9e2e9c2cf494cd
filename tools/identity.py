"""Byte-identity check of rpeval's outputs against a base revision.

Usage: python3 -B tools/identity.py --base REV

Runs one fixed grid of ``evaluate``, ``gt-stats`` and ``generate`` cells
twice: with
the ``src/`` of git revision REV and with the working tree's ``src/``.
Both sides read the same inputs, written once by the working tree's
``bench/gen.py``, and use the same deterministic judges: the bench's
``replies.Replier``, injected as ``MockBackend``s, with retry delays of 0.
Each side runs in its own ``python3 -B`` child with its own ``src``
first on the path.  REV's source is exported with ``git archive`` into a
temporary directory, so nothing needs the network and no worktree is
left behind.

Compared per cell: the bytes of ``report.json``, ``gt_stats.json`` (as
written with ``--out`` and as printed without it) and the predictions file, the manifest's ``counts``, and each judge's
``replies``, ``backend_calls``, ``transport_failures`` and ``rejected``.

The grid is fixed here.  Cells may be added, never dropped:

- seeds 1-3 (40 samples, 4 roles) x Replier faults ""/wrong-labels/drop
  x concurrency 1 and 4;
- 400 samples with 8 roles, in ``flatten`` mode and in ``rows`` mode
  (smoothing 0);
- corpora with 1 role and with 2 roles;
- seed 2 with the drop fault, unrepairable samples floored at RC score 1
  and every RC question grounded in other role materials than the default;
- ``gt-stats`` on each corpus (and in rows mode on the 400-sample one);
- a run at concurrency 1 that fills a reply cache, and its warm rerun;
  the same at concurrency 4, where sender threads make the attempts,
  with a cache of its own;
- seed 1 with ``expert0`` rate-limited to 2000 requests per second, at
  concurrency 1, 2 and 4 (its asks wait for their due time on the driver
  while the other judges' asks go out);
- seed 1 at concurrency 4 with a retry backoff of 5 ms, so the planted
  transient failures are queued again behind other requests;
- ``generate`` over seed 1 at concurrency 1 and 4, with a generator whose
  reply is built from the SHA-256 of its prompt, so the predictions file
  shows whether samples are written in corpus order;
- seed 1 with one judge that fails every attempt, so each of its asks
  exhausts its retries: ``expert0`` at concurrency 1 and 4, ``critic1``
  and ``fixer`` at concurrency 4;
- seed 1 at concurrency 4 with no repair judge, so every invalid output
  is dropped unasked, and with one repair attempt per sample;
- seed 1 at concurrency 4 with ``expert0`` failing every attempt while a
  reply cache fills, and the warm rerun with ``expert0`` alive, which
  asks again only what was lost, as a lost reply is never cached;
- seed 1 at concurrency 4 with the default delimiters reordered behind a
  ``^``, which generated text never holds, so a splitter that reads the
  set as a regular expression without escaping it splits differently;
- ``s1-raw``: seed 1's corpus and predictions rewritten with a UTF-8
  byte-order mark, CRLF line ends, a blank line after every record and
  integer sample ids (1, 2, ... in corpus order, the same in both
  files), evaluated at concurrency 4 and read by ``gt-stats``.

Exit codes: 0 when every cell matches, 1 with the list of cells that
differ, 2 for a REV that cannot be exported or run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Corpus name -> (bench/gen.py seed, samples, roles).
CORPORA = {
    "s1": (1, 40, 4),
    "s2": (2, 40, 4),
    "s3": (3, 40, 4),
    "400x8": (1, 400, 8),
    "1-role": (1, 40, 1),
    "2-roles": (1, 40, 2),
}
EXPERTS = [f"expert{i}" for i in range(5)]
CRITICS = ["critic0", "critic1"]
# Rewritten input -> the corpus it is rewritten from (see ``write_inputs``).
RAW = {"s1-raw": "s1"}
JUDGE_KEYS = ("replies", "backend_calls", "transport_failures", "rejected")
ROWS = {"divergence_mode": "rows", "smoothing": 0.0}


def grid() -> list[dict]:
    """Every cell, in run order; a warm rerun follows the run that fills its cache."""
    cells = []

    def evaluate(corpus, fault="", concurrency=4, cache="", tag="", limit=0.0,
                 dead="", repair=True, **config):
        name = f"{corpus}/{fault or 'clean'}/c{concurrency}" + (f"/{tag}" if tag else "")
        cells.append({"name": name, "command": "evaluate", "corpus": corpus,
                      "fault": fault, "cache": cache, "limit": limit, "dead": dead,
                      "repair": repair,
                      "config": {"concurrency": concurrency, **config}})

    for corpus in ("s1", "s2", "s3"):
        for fault in ("", "wrong-labels", "drop"):
            for concurrency in (1, 4):
                evaluate(corpus, fault, concurrency)
    evaluate("400x8", tag="flatten")
    evaluate("400x8", tag="rows", **ROWS)
    evaluate("1-role")
    evaluate("2-roles")
    evaluate("s2", "drop", tag="routing-floor", rc_floor_unrepairable=True,
             rc_routing={"exp": ["profile", "previous_info"], "cha": ["previous_info"],
                         "rel": ["profile"]})
    evaluate("s1", concurrency=1, cache="warm-s1", tag="cold-cache")
    evaluate("s1", concurrency=1, cache="warm-s1", tag="warm-cache")
    evaluate("s1", concurrency=4, cache="warm-s1-c4", tag="cold-cache")
    evaluate("s1", concurrency=4, cache="warm-s1-c4", tag="warm-cache")
    for concurrency in (1, 2, 4):
        evaluate("s1", concurrency=concurrency, tag="expert0-2000rps", limit=2000.0)
    evaluate("s1", tag="backoff-5ms",
             retry={"max_attempts": 3, "base_delay": 0.005, "max_delay": 0.01})
    for corpus in CORPORA:
        cells.append({"name": f"{corpus}/gt-stats", "command": "gt-stats",
                      "corpus": corpus, "config": {}})
    cells.append({"name": "400x8/gt-stats/rows", "command": "gt-stats",
                  "corpus": "400x8", "config": dict(ROWS)})
    for concurrency in (1, 4):
        cells.append({"name": f"s1/generate/c{concurrency}", "command": "generate",
                      "corpus": "s1", "config": {"concurrency": concurrency}})
    for concurrency, dead in ((1, "expert0"), (4, "expert0"), (4, "critic1"),
                              (4, "fixer")):
        evaluate("s1", concurrency=concurrency, tag=f"dead-{dead}", dead=dead)
    evaluate("s1", tag="no-repair", repair=False)
    evaluate("s1", tag="one-repair", max_repair_attempts=1)
    evaluate("s1", cache="dead-s1-c4", tag="dead-expert0-cached", dead="expert0")
    evaluate("s1", cache="dead-s1-c4", tag="revived-expert0")
    evaluate("s1", tag="caret-delimiters", delimiters="^" + "。，！？；….,!?;"[::-1])
    for corpus in RAW:
        evaluate(corpus)
        cells.append({"name": f"{corpus}/gt-stats", "command": "gt-stats",
                      "corpus": corpus, "config": {}})
    return cells


# -- child: run the grid with one side's source ------------------------

def _judges(fault: str, limit: float, dead: str = "", repair: bool = True) -> dict:
    """The Replier's judges; ``expert0`` sends at most ``limit`` requests
    per second (0: unlimited), the judge named ``dead`` fails every
    attempt, and without ``repair`` there is no repair judge."""
    import rpeval
    from replies import Replier, Transient

    replier = Replier(fault)

    def judge(name):
        def handler(prompt, sampling):
            if name == dead:
                raise rpeval.TransportError(f"judge {name} is down")
            try:
                return replier.reply(name, prompt)
            except Transient as exc:
                raise rpeval.TransportError(str(exc)) from None
        return rpeval.MockBackend(name, handler=handler,
                                  rate_limit=limit if name == "expert0" else 0.0)

    return {"experts": [judge(n) for n in EXPERTS],
            "rc_evaluators": [judge(n) for n in CRITICS],
            "repair_judge": judge("fixer") if repair else None}


def _run_cell(cell: dict, inputs: Path, work: Path) -> dict:
    import rpeval
    import rpeval.cli

    out = work / "cells" / cell["name"].replace("/", "_")
    corpus = inputs / cell["corpus"]
    config = {"retry": {"max_attempts": 3, "base_delay": 0.0, "max_delay": 0.0},
              **cell["config"]}
    if cell["command"] == "gt-stats":
        out.mkdir(parents=True)
        (out / "config.json").write_text(json.dumps(config), encoding="utf-8")
        argv = ["gt-stats", "--config", str(out / "config.json"),
                "--corpus", str(corpus / "corpus.jsonl")]
        for extra in (["--out", str(out)], []):
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                code = rpeval.cli.main(argv + extra)
            if code != 0:
                raise RuntimeError(f"rpeval gt-stats exited with {code}")
        (out / "stdout.json").write_text(printed.getvalue(), encoding="utf-8")
        return {"files": {"gt_stats.json": str(out / "gt_stats.json"),
                          "stdout": str(out / "stdout.json")}}
    if cell["command"] == "generate":
        def handler(prompt, sampling):
            return "reply " + hashlib.sha256(prompt.encode("utf-8")).hexdigest()

        out.mkdir(parents=True)
        rpeval.generate(rpeval.RunConfig.from_dict(config), "gen",
                        corpus / "corpus.jsonl", out / "predictions.jsonl",
                        generator=rpeval.MockBackend("gen", handler=handler))
        return {"files": {"predictions.jsonl": str(out / "predictions.jsonl")}}
    if cell["cache"]:
        config["cache_dir"] = str(work / "caches" / cell["cache"])
    run = rpeval.evaluate(rpeval.RunConfig.from_dict(config), corpus / "corpus.jsonl",
                          corpus / "predictions.jsonl", out_dir=out,
                          **_judges(cell["fault"], cell["limit"], cell["dead"],
                                    cell["repair"]))
    return {"files": {"report.json": str(out / "report.json")},
            "counts": run.manifest["counts"],
            "judges": {name: {key: stats[key] for key in JUDGE_KEYS}
                       for name, stats in run.manifest["judges"].items()}}


def run_grid(src: Path, inputs: Path, work: Path) -> int:
    """Run every cell with the rpeval in ``src``; write ``work/results.json``."""
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    import rpeval

    if Path(rpeval.__file__).resolve().parent != (src / "rpeval").resolve():
        print(f"imported rpeval from {rpeval.__file__}, not {src}", file=sys.stderr)
        return 2
    logging.disable(logging.CRITICAL)  # planted faults log a warning each
    results = {}
    for cell in grid():
        t0 = time.monotonic()
        try:
            result = _run_cell(cell, inputs, work)
        except Exception as exc:  # a failing cell is a difference, not a crash
            result = {"error": f"{type(exc).__name__}: {exc}"}
        result["seconds"] = round(time.monotonic() - t0, 3)
        results[cell["name"]] = result
    (work / "results.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    return 0


# -- parent: export REV, run both sides, compare ------------------------

def _git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, **kwargs)


def export_source(rev: str, dest: Path) -> str | None:
    """Write REV's ``src/`` under ``dest``; its commit id, or None if unusable."""
    commit = _git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}", text=True)
    if commit.returncode != 0:
        return None
    archive = _git("archive", commit.stdout.strip(), "src")
    if archive.returncode != 0:
        return None
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    if not (dest / "src" / "rpeval" / "__init__.py").is_file():
        return None
    return commit.stdout.strip()


def write_inputs(inputs: Path) -> None:
    for name, (seed, samples, roles) in CORPORA.items():
        subprocess.run(
            [sys.executable, "-B", str(ROOT / "bench" / "gen.py"),
             "--out", str(inputs / name), "--seed", str(seed),
             "--samples", str(samples), "--roles", str(roles)],
            check=True, cwd=ROOT, timeout=300)
    for name, source in RAW.items():
        (inputs / name).mkdir()
        ids: dict = {}
        for file in ("corpus.jsonl", "predictions.jsonl"):
            lines = (inputs / source / file).read_text(encoding="utf-8").split("\n")
            text = ""
            for record in map(json.loads, filter(str.strip, lines)):
                record["sample_id"] = ids.setdefault(record["sample_id"], len(ids) + 1)
                text += json.dumps(record, ensure_ascii=False) + "\r\n\r\n"
            (inputs / name / file).write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))


def compare(base: dict, tree: dict) -> list[str]:
    """One line per differing cell, naming what differs."""
    lines = []
    for cell in grid():
        name = cell["name"]
        a, b = base.get(name, {"error": "not run"}), tree.get(name, {"error": "not run"})
        if "error" in a or "error" in b:
            lines.append(f"{name}: base {a.get('error', 'ok')}; tree {b.get('error', 'ok')}")
            continue
        what = [f for f in a["files"]
                if Path(a["files"][f]).read_bytes() != Path(b["files"][f]).read_bytes()]
        if a.get("counts") != b.get("counts"):
            what.append("counts")
        for judge in sorted(set(a.get("judges", {})) | set(b.get("judges", {}))):
            ja, jb = a["judges"].get(judge, {}), b["judges"].get(judge, {})
            what += [f"{judge}.{key}" for key in JUDGE_KEYS if ja.get(key) != jb.get(key)]
        if what:
            lines.append(f"{name}: {', '.join(what)}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(
        description="compare rpeval outputs on a fixed grid with those of REV")
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--run-grid", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--inputs", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run_grid:
        return run_grid(args.run_grid, args.inputs, args.work)
    if not args.base:
        parser.error("--base is required")

    tmp = Path(tempfile.mkdtemp(prefix="rpeval-identity-"))
    try:
        commit = export_source(args.base, tmp / "base")
        if commit is None:
            print(f"cannot export src/ of {args.base!r}", file=sys.stderr)
            return 2
        t0 = time.monotonic()
        write_inputs(tmp / "inputs")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        children = {}
        for side, src in (("base", tmp / "base" / "src"), ("tree", ROOT / "src")):
            (tmp / side).mkdir(exist_ok=True)
            children[side] = subprocess.Popen(
                [sys.executable, "-B", str(Path(__file__).resolve()),
                 "--run-grid", str(src), "--inputs", str(tmp / "inputs"),
                 "--work", str(tmp / side)],
                cwd=ROOT, env=env, stderr=subprocess.PIPE, text=True)
        errors = {side: child.communicate()[1] for side, child in children.items()}
        results = {}
        for side, child in children.items():
            if child.returncode != 0:
                print(f"the {side} side failed:\n{errors[side]}", file=sys.stderr)
                return 2 if side == "base" else 1
            results[side] = json.loads((tmp / side / "results.json").read_text())
        diffs = compare(results["base"], results["tree"])
        seconds = {side: round(sum(r["seconds"] for r in res.values()), 1)
                   for side, res in results.items()}
        print(f"{len(grid())} cells against {commit[:12]} in "
              f"{time.monotonic() - t0:.1f} s (cells: base {seconds['base']} s, "
              f"tree {seconds['tree']} s)")
        if diffs:
            print(f"{len(diffs)} cells differ:")
            for line in diffs:
                print(f"  {line}")
            return 1
        print("all cells identical")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
