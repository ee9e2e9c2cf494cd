"""The rpeval benchmark: one workload per run, checked and timed.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The harness drives rpeval through its public API and CLI only, with
inputs generated from ``--seed`` (``gen.py``) and judges that all answer
through ``replies.Replier``.  Each workload runs closed-loop passes from
one process: a pass is one whole ``rpeval`` evaluation of the generated
inputs, the next pass starts when it returns, and inside a pass at most
``CONCURRENCY`` judge requests are in flight.  Passes repeat for
``--seconds``; every pass's output is checked against the generator's
plan, and the figures are medians over passes.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the first half of the time runs
untraced and the second half traced (``spans.py``), and the JSON holds
the per-layer metrics.  Human-readable lines come before it.  A run
whose output check fails prints ``"correct": false`` with no metrics
and exits 1; without rpeval's sources next to the benchmark it prints
no result and exits 2.  See ``bench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import urllib.request
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
TRACE_OUT = ROOT / ".bench_out"

CONCURRENCY = 2
EXPERTS = 5
PASSES = 2
RC_EVALUATORS = 2
SETUP_REPEATS = 3
# Samples of the untimed warm-up pass that ends each set-up.
WARMUP_SAMPLES = 10
# The judge that http-ratelimited throttles.
LIMITED = "expert0"

# name -> samples per pass, roles, judge latency (s), transport, and the
# rate limit (requests/s) of the throttled judge.  "tiny" sizes are for
# the self-check.  cold-panel starts every pass with an empty reply
# cache; http-ratelimited runs without one.
WORKLOADS = {
    "cold-panel": dict(samples=40, tiny=16, roles=4, latency=0.01,
                       transport="mock"),
    "http-ratelimited": dict(samples=30, tiny=16, roles=4, latency=0.01,
                             transport="http", rate_limit=35.0),
}

END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
# Printed, not in the JSON result.  CPU per sample is mostly file-system
# work on cold-panel and spread by 26% between runs on a 2-vCPU VM, more
# than any end-to-end bound allows; the others are 0 or undefined on
# some workloads.
REPORTED = {
    "cpu_ms_per_sample": "ms",
    "judge_calls_per_sample": "calls",
    "cache_kib_per_sample": "KiB",
    "failed_ratio": "share",
}
PER_LAYER = {
    "pipeline.format_stage_s": "s",
    "pipeline.panel_stage_s": "s",
    "pipeline.rc_stage_s": "s",
    "pipeline.assemble_s": "s",
    "pipeline.concurrency_util": "share",
    "judges.client_calls": "1/sample",
    "judges.permit_wait_s": "s",
    "judges.retries": "1/sample",
    "judges.transport_failures": "1/sample",
    "judges.backend_calls": "1/sample",
    "judges.backend_busy_s": "s",
    "judges.backend_p50_ms": "ms",
    "judges.backend_p99_ms": "ms",
    "judges.http_overhead_us": "us",
    "judges.throttle_wait_s": "s",
    "judges.limited.p99_ms": "ms",
    "judges.unlimited.p99_ms": "ms",
    "judges.cache_get_us": "us",
    "judges.cache_put_us": "us",
    "judges.cache_hit_ratio": "share",
    "judges.cache_files": "1/sample",
    "judges.cache_kib_per_sample": "KiB",
    "judges.extract_json_calls": "1/sample",
    "judges.extract_json_us": "us",
    "formatter.calls": "1/sample",
    "formatter.self_us": "us",
    "formatter.repair_ratio": "share",
    "formatter.repair_success_ratio": "share",
    "erc.panel_calls": "1/sample",
    "erc.panel_p50_ms": "ms",
    "erc.panel_self_us": "us",
    "erc.reprompt_ratio": "share",
    "erc.aggregate_us": "us",
    "prompts.calls": "1/sample",
    "prompts.build_us": "us",
    "corpus.load_s": "s",
    "corpus.segment_us": "us",
    "metrics.alpha_s": "s",
    "metrics.alpha_units": "count",
    "metrics.transitions_s": "s",
    "metrics.mec_s": "s",
    "metrics.divergence_s": "s",
    "metrics.ed_s": "s",
    "cli.self_ms": "ms",
    "process.cpu_ms_per_sample": "ms",
    "trace.overhead_ratio": "share",
}

# Documented ranges of the report's summary values.
SUMMARY_BOUNDS = {
    "mec": (0.0, 1.0), "cec": (-1.0, 1.0), "edd": (0.0, 1.0),
    "rcd": (-1.0, 1.0), "ed": (0.0, 1.0), "rc": (1.0, 5.0),
}


class CheckFailed(Exception):
    """A pass's output differs from the plan; ``failed`` samples are wrong."""

    def __init__(self, message: str, failed: int):
        super().__init__(message)
        self.failed = failed


def import_rpeval() -> None:
    """Import rpeval from this checkout's sources, or exit 2."""
    if not (SRC / "rpeval" / "__init__.py").is_file():
        print(f"rpeval sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import rpeval

    if Path(rpeval.__file__).resolve().parent != SRC / "rpeval":
        print(f"imported rpeval from {rpeval.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def dir_usage(path: Path) -> tuple[int, int]:
    """(regular files, bytes allocated from st_blocks) under ``path``."""
    files = allocated = 0
    for dirpath, _, names in os.walk(path):
        for name in names:
            files += 1
            allocated += os.stat(os.path.join(dirpath, name)).st_blocks * 512
    return files, allocated


class Stub:
    """The loopback judge server of ``stub.py``, in its own process."""

    def __init__(self, latency: float, fault: str, cpu: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"), "--latency", str(latency),
             "--fault", fault, "--cpu", str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 30)
            line = self.proc.stdout.readline() if ready else ""
            self.port = int(line)
        except ValueError:
            self.close()
            raise RuntimeError("judge stub did not report its port") from None
        self.url = f"http://127.0.0.1:{self.port}"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with self._opener.open(self.url + path, data=data, timeout=10) as resp:
            return json.loads(resp.read())

    def reset(self) -> None:
        self._call("/reset", data=b"{}")

    def stats(self) -> dict:
        return self._call("/stats")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def expected_evaluation(plan: dict) -> dict:
    """Report counts and rc scores that the plan implies."""
    import numpy as np
    from replies import rc_score

    statuses = [status for status, _ in plan["samples"].values()]
    formatted = [tone for status, tone in plan["samples"].values()
                 if status != "unrepairable"]
    scores, dropped = [], 0
    for tone in formatted:
        given = [s for s in (rc_score(tone, e) for e in range(RC_EVALUATORS))
                 if s is not None]
        if given:
            scores.append(float(np.mean(given)))
        else:
            dropped += 1
    counts = {
        "corpus_samples": len(statuses),
        "predictions": len(statuses),
        "missing_predictions": 0,
        "valid_direct": statuses.count("valid_direct"),
        "repaired": statuses.count("repaired"),
        "dropped_format": statuses.count("unrepairable"),
        "dropped_erc": 0,
        "ec_samples": len(formatted),
        "rc_floored": 0,
        "rc_dropped": {m: dropped for m in ("exp", "cha", "rel")},
    }
    return {"counts": counts, "rc": sum(scores) / len(scores) if scores else None}


def check_evaluation(report: dict, expected: dict, samples: int) -> None:
    """Raise ``CheckFailed`` unless the report is what the plan implies."""
    counts = report["counts"]
    # A sample with the wrong outcome moves several tallies by one each,
    # so the largest difference counts the wrong samples.
    wrong = 0
    for key, want in expected["counts"].items():
        if key == "rc_dropped":
            wrong = max([wrong] + [abs(counts[key][m] - n) for m, n in want.items()])
        else:
            wrong = max(wrong, abs(counts[key] - want))
    if wrong:
        raise CheckFailed(f"counts {counts} differ from plan {expected['counts']}",
                          min(samples, wrong))
    summary = report["summary"]
    for key, value in summary.items():
        low, high = SUMMARY_BOUNDS[key.split(".")[0]]
        if value is None or not low - 1e-12 <= value <= high + 1e-12:
            raise CheckFailed(f"summary {key}={value} outside [{low}, {high}]", samples)
    # Every expert votes the gold labels (one dissents on 2 of 10 votes),
    # so emotion recognition is exactly right.
    for key in ("mec.lower", "mec.upper"):
        if summary[key] != 1.0:
            raise CheckFailed(f"{key}={summary[key]}, planned 1.0", samples)
    for key in ("rc.exp", "rc.cha", "rc.rel"):
        if abs(summary[key] - expected["rc"]) > 1e-12:
            raise CheckFailed(f"{key}={summary[key]}, planned {expected['rc']}", samples)


class Workload:
    """Inputs, judges and output checks for one workload and seed.

    ``setup`` builds everything the timed passes need; ``prepare`` does
    a pass's untimed preparation and returns the job to time; ``finish``
    checks that job's output, untimed, and returns per-pass facts.
    """

    def __init__(self, name: str, seed: int, size: str, fault: str, stub_cpu: int):
        self.name = name
        self.stub_cpu = stub_cpu
        self.seed = seed
        self.fault = fault
        spec = WORKLOADS[name]
        self.spec = spec
        self.samples = spec["tiny"] if size == "tiny" else spec["samples"]
        self.dir: Path | None = None
        self.stub: Stub | None = None

    # -- set-up --------------------------------------------------------
    def setup(self) -> None:
        SCRATCH.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=SCRATCH))
        subprocess.run(
            [sys.executable, str(BENCH / "gen.py"), "--out", str(self.dir),
             "--seed", str(self.seed), "--samples", str(self.samples),
             "--roles", str(self.spec["roles"])],
            check=True, cwd=ROOT, timeout=120)
        self.reference: bytes | None = None
        if self.spec["transport"] == "http":
            self.stub = Stub(self.spec["latency"], self.fault, self.stub_cpu)
            for name, limit in (("config.json", None), ("warmup.json", WARMUP_SAMPLES)):
                with open(self.dir / name, "w", encoding="utf-8") as fh:
                    json.dump(self._config(None, limit), fh)
        # A short untimed pass, so that first-use costs (lazy imports in
        # rpeval and requests, the first thread pools, the inputs' file
        # cache) land in set-up and not in the first timed pass.
        self.prepare("warmup", limit=WARMUP_SAMPLES)()
        shutil.rmtree(self.dir / "out-warmup")
        shutil.rmtree(self.dir / "cache-warmup", ignore_errors=True)

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    def expected(self) -> None:
        """Derive what every pass must output; untimed, after set-up."""
        with open(self.dir / "plan.json", encoding="utf-8") as fh:
            self.want = expected_evaluation(json.load(fh))

    def trace_keys(self) -> dict[str, str]:
        """Raw predictions and response contents -> sample ids, for spans."""
        keys: dict[str, str] = {}
        with open(self.dir / "predictions.jsonl", encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                keys.setdefault(record["raw_output"], record["sample_id"])
        with open(self.dir / "corpus.jsonl", encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                keys.setdefault(record["ground_truth"]["content"], record["sample_id"])
        return keys

    # -- judges --------------------------------------------------------
    def _config(self, cache: Path | None, limit: int | None = None) -> dict:
        """The run config, as the JSON object rpeval reads."""
        retry = {"max_attempts": 3, "base_delay": 0.002, "max_delay": 0.01}
        base = {"concurrency": CONCURRENCY, "passes": PASSES, "retry": retry,
                "seed": self.seed, "cache_dir": str(cache) if cache else "",
                "sample_limit": limit}
        if self.spec["transport"] == "http":
            def spec(name):
                return {"name": name, "kind": "http", "model": name, "timeout": 10.0,
                        "endpoint": f"{self.stub.url}/v1/chat/completions",
                        "rate_limit": self.spec["rate_limit"] if name == LIMITED else 0.0}
            base["experts"] = [spec(f"expert{i}") for i in range(EXPERTS)]
            base["rc_evaluators"] = [spec(f"critic{i}") for i in range(RC_EVALUATORS)]
            base["repair"] = spec("fixer")
        return base

    def _mock_judges(self) -> dict:
        import rpeval
        from replies import Replier, Transient

        replier = Replier(self.fault)
        latency = self.spec["latency"]

        def judge(name):
            def handler(prompt, sampling):
                if latency:
                    time.sleep(latency)
                try:
                    return replier.reply(name, prompt)
                except Transient as exc:
                    raise rpeval.TransportError(str(exc)) from None
            return rpeval.MockBackend(name, handler=handler)

        return {"experts": [judge(f"expert{i}") for i in range(EXPERTS)],
                "rc_evaluators": [judge(f"critic{i}") for i in range(RC_EVALUATORS)],
                "repair_judge": judge("fixer")}

    # -- passes --------------------------------------------------------
    def prepare(self, index, limit: int | None = None):
        """Untimed preparation of pass ``index``; returns the job to time.

        Mock judges are injected through the API; HTTP judges come from
        the run config, so that workload runs ``rpeval evaluate``.
        ``limit`` evaluates only that many samples, for the warm-up.
        """
        import rpeval
        import rpeval.cli

        out = self.dir / f"out-{index}"
        corpus, predictions = self.dir / "corpus.jsonl", self.dir / "predictions.jsonl"
        if self.stub is None:
            config = rpeval.RunConfig.from_dict(
                self._config(self.dir / f"cache-{index}", limit))
            judges = self._mock_judges()
            return lambda: rpeval.evaluate(config, corpus, predictions, out_dir=out,
                                           **judges)
        self.stub.reset()
        config_file = "warmup.json" if limit else "config.json"
        argv = ["evaluate", "--config", str(self.dir / config_file),
                "--corpus", str(corpus), "--predictions", str(predictions),
                "--out", str(out)]

        def cli() -> None:
            with contextlib.redirect_stdout(io.StringIO()):
                code = rpeval.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"rpeval evaluate exited with {code}")

        return cli

    def finish(self, index: int) -> dict:
        """Check one pass's output; return facts about it for the metrics."""
        facts = {"cache_files": 0, "cache_bytes": 0, "stub": {}, "backend_calls": 0}
        out = self.dir / f"out-{index}"
        cache = self.dir / f"cache-{index}"
        try:
            if self.stub is not None:
                facts["stub"] = self.stub.stats()
            if cache.exists():
                facts["cache_files"], facts["cache_bytes"] = dir_usage(cache)
            report_bytes = (out / "report.json").read_bytes()
            if self.reference is None:
                self.reference = report_bytes
                check_evaluation(json.loads(report_bytes), self.want, self.samples)
            elif report_bytes != self.reference:
                raise CheckFailed("report.json differs from the first pass", self.samples)
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            facts["backend_calls"] = sum(
                j["backend_calls"] for j in manifest["judges"].values())
            if self.stub is not None:
                served = sum(n for n, _ in facts["stub"].values())
                if served != facts["backend_calls"]:
                    # Attempts that never reached the stub: connection errors.
                    raise CheckFailed(
                        f"{facts['backend_calls']} attempts but {served} served",
                        abs(served - facts["backend_calls"]))
            return facts
        finally:
            shutil.rmtree(out, ignore_errors=True)
            shutil.rmtree(cache, ignore_errors=True)


def measure(workload: Workload, seconds: float, first_index: int, tracer=None) -> list[dict]:
    """Closed-loop passes for ``seconds`` (at least one); one row each."""
    rows = []
    deadline = time.perf_counter() + seconds
    index = first_index
    while not rows or time.perf_counter() < deadline:
        job = workload.prepare(index)
        if tracer is not None:
            tracer.pass_index = len(rows) + 1
        cpu0, start = time.process_time(), time.perf_counter()
        try:
            job()
            raised = False
        except Exception:
            traceback.print_exc()
            raised = True
        end, cpu1 = time.perf_counter(), time.process_time()
        row = {"start": start, "end": end, "cpu": cpu1 - cpu0,
               "samples": workload.samples, "failed": 0}
        try:
            if raised:
                raise CheckFailed("the pass raised", workload.samples)
            row.update(workload.finish(index))
        except CheckFailed as exc:
            print(f"pass {index}: check failed: {exc}", file=sys.stderr)
            row["failed"] = exc.failed
        rows.append(row)
        index += 1
    return rows


def samples_per_s(rows: list[dict]) -> float:
    return statistics.median(r["samples"] / (r["end"] - r["start"]) for r in rows)


def cpu_ms_per_sample(rows: list[dict]) -> float:
    return statistics.median(r["cpu"] * 1e3 / r["samples"] for r in rows)


def end_to_end(rows: list[dict], setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "samples_per_s": samples_per_s(rows),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def reported(rows: list[dict], workload: Workload) -> dict:
    out = {
        "cpu_ms_per_sample": cpu_ms_per_sample(rows),
        "failed_ratio": sum(r["failed"] for r in rows) / sum(r["samples"] for r in rows),
        "judge_calls_per_sample": statistics.median(
            r["backend_calls"] / r["samples"] for r in rows),
    }
    if workload.spec["transport"] == "mock":
        out["cache_kib_per_sample"] = statistics.median(
            r["cache_bytes"] / 1024 / r["samples"] for r in rows)
    return out


def run(args) -> int:
    import_rpeval()
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    # One CPU for this process and its worker threads, another for the
    # stub that stands in for a remote server.  Unpinned, the pipeline's
    # threads hand the interpreter lock across CPUs; on a 2-vCPU VM that
    # cost 40% more CPU per sample on a CPU-bound pass and varied 20%
    # from run to run.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    workload = Workload(args.workload, args.seed, args.size, args.fault, cpus[-1])
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            workload.close()
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        setup_s = statistics.median(setups)
        workload.expected()
        if not args.trace:
            rows = measure(workload, args.seconds, 1)
            metrics = end_to_end(rows, setup_s)
            units = END_TO_END
        else:
            import spans

            rows = measure(workload, args.seconds / 2, 1)
            tracer = spans.Tracer(workload.trace_keys())
            tracer.install()
            tracer.enabled = True
            try:
                traced = measure(workload, args.seconds / 2, len(rows) + 1, tracer)
            finally:
                tracer.enabled = False
                tracer.uninstall()
            ctx = {"concurrency": CONCURRENCY, "experts": EXPERTS, "passes": PASSES,
                   "limited": LIMITED if workload.stub else ""}
            metrics = spans.layer_metrics(tracer.spans, traced, ctx)
            metrics["process.cpu_ms_per_sample"] = cpu_ms_per_sample(rows)
            metrics["trace.overhead_ratio"] = samples_per_s(traced) / samples_per_s(rows)
            tracer.write(TRACE_OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
            rows += traced
            units = PER_LAYER
    finally:
        workload.close()

    attempted = sum(r["samples"] for r in rows)
    failed = sum(r["failed"] for r in rows)
    correct = failed == 0
    print(f"workload {args.workload}, seed {args.seed}: {len(rows)} passes, "
          f"{attempted} samples attempted, {failed} failed")
    if correct:
        for name, value in {**metrics, **reported(rows, workload)}.items():
            unit = units.get(name) or REPORTED[name]
            print(f"  {name:32s} {value:14.6f} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()} if correct else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="rpeval benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-check")
    parser.add_argument("--fault", default="",
                        choices=("", "wrong-labels", "drop"),
                        help="break the judges on purpose, for the self-check")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
