"""Spans around rpeval's public entry points, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper that
records one span per call: name, start, end, parent span, sample id,
pass number, a small detail (a judge name, a cache hit, a format
status) and the class of any exception raised.  The pipeline imports
most of these names directly, so each is patched where it is looked up,
not only where it is defined.  Spans stay in memory until ``write`` and
feed ``layer_metrics``.
"""

from __future__ import annotations

import gzip
import itertools
import json
import math
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

import rpeval.cli
import rpeval.corpus
import rpeval.erc
import rpeval.formatter
import rpeval.judges
import rpeval.metrics
import rpeval.pipeline
from rpeval.judges import HttpBackend, JudgeClient, MockBackend, ReplyCache

# Span tuple fields.
ID, NAME, START, END, PARENT, SAMPLE, PASS, DETAIL, ERROR = range(9)


def _content_of_json(response_json: str) -> str:
    return json.loads(response_json)["content"]


def _targets():
    """(name, owner, attribute, sample-key getter, detail getter) per patch."""
    p, judges = rpeval.pipeline, rpeval.judges
    status = lambda args, result: getattr(result, "status", None)  # noqa: E731
    units = lambda args, result: len(args[0][0]) if args[0] else 0  # noqa: E731
    kind = lambda args, result: args[1].kind  # noqa: E731
    hit = lambda args, result: result is not None  # noqa: E731
    judge = lambda args, result: args[0].name  # noqa: E731
    return [
        ("corpus.load", p, "load_corpus", None, None),
        ("corpus.load", p, "load_predictions", None, None),
        ("corpus.segment", p, "segment_utterances", None, None),
        ("corpus.segment", rpeval.corpus, "segment_utterances", None, None),
        ("formatter.format_response", p, "format_response",
         lambda a: a[0], status),
        ("erc.run_panel", p, "run_panel", lambda a: a[0].content, None),
        ("erc.aggregate", p, "aggregate", None, None),
        ("judges.parse_rc_verdict", p, "parse_rc_verdict", None, None),
        ("prompts.build", rpeval.erc, "build_erc_prompt", None, None),
        ("prompts.build", rpeval.formatter, "build_repair_prompt", None, None),
        ("prompts.build", p, "build_rc_prompt",
         lambda a: _content_of_json(a[4]), None),
        ("judges.extract_json", rpeval.erc, "extract_json_object", None, None),
        ("judges.extract_json", rpeval.formatter, "extract_json_object", None, None),
        ("judges.extract_json", judges, "extract_json_object", None, None),
        ("metrics.transitions", p, "build_transition_matrices", None, None),
        ("metrics.divergence", p, "character_distinctiveness", None, None),
        ("metrics.divergence", p, "edd", None, None),
        ("metrics.divergence", p, "rcd", None, None),
        ("metrics.mec", p, "mec", None, None),
        ("metrics.ed", p, "ed", None, None),
        ("metrics.alpha", p, "krippendorff_alpha", None, units),
        ("metrics.alpha", rpeval.metrics, "krippendorff_alpha", None, units),
        ("judges.call", JudgeClient, "call", None, kind),
        ("judges.cache_get", ReplyCache, "get", None, hit),
        ("judges.cache_put", ReplyCache, "put", None, None),
        ("judges.backend", MockBackend, "complete", None, judge),
        ("judges.http", HttpBackend, "complete", None, judge),
        ("cli.main", rpeval.cli, "main", None, None),
        # The pipeline's worker threads start spans of their own, so the
        # evaluation is a child span, which keeps it out of cli's self time.
        ("pipeline.evaluate", rpeval.cli, "evaluate", None, None),
    ]


class Tracer:
    """Records spans while ``enabled``; ``samples`` maps keys to sample ids.

    A key is a raw prediction or a response's content.  A call whose key
    resolves tags its thread with that sample until another one does,
    which is right because each pipeline worker handles one sample at a
    time.  ``pass_index`` is set by the harness around each timed pass.
    """

    def __init__(self, samples: dict[str, str]):
        self.samples = samples
        self.spans: list[tuple] = []
        self.enabled = False
        self.pass_index = 0
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, key, detail):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            local = tracer._local
            stack = local.__dict__.setdefault("stack", [])
            if key is not None:
                sid = tracer.samples.get(key(args))
                if sid is not None:
                    local.sample = sid
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((
                    span_id, name, start, end, parent,
                    getattr(local, "sample", None), tracer.pass_index,
                    None if detail is None else detail(args, result), error))

        return traced

    def install(self) -> None:
        for name, owner, attr, key, detail in _targets():
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, key, detail))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, passes, ctx) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced passes.

    ``passes`` holds one dict per traced pass: ``start``, ``end``,
    ``samples``, ``cache_files``, ``cache_bytes`` and ``stub`` (the
    stub's per-model ``[requests, service_seconds]`` or ``{}``).  ``ctx``
    gives ``concurrency``, ``experts``, ``passes`` and ``limited``, the
    rate-limited judge's name or ``""``.  Counts are per sample; times
    per call are means unless named as a percentile; times per pass are
    medians over passes.
    """
    by_name: dict[str, list] = defaultdict(list)
    covered: dict[int, float] = defaultdict(float)
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
        if s[PARENT]:
            covered[s[PARENT]] += s[END] - s[START]
            children[s[PARENT]].append(s)

    def dur(s):
        return s[END] - s[START]

    def own(s):
        return dur(s) - covered[s[ID]]

    samples = sum(p["samples"] for p in passes) or 1
    per_pass: dict[str, list[float]] = defaultdict(list)
    for index, p in enumerate(passes, start=1):
        def last_end(name, default):
            ends = [s[END] for s in by_name[name] if s[PASS] == index]
            return max(ends) if ends else default

        def total(name, pick=lambda s: True):
            return sum(dur(s) for s in by_name[name] if s[PASS] == index and pick(s))

        formats = [s for s in by_name["formatter.format_response"] if s[PASS] == index]
        if formats:
            load_end = last_end("corpus.load", p["start"])
            format_end = last_end("formatter.format_response", load_end)
            panel_end = last_end("erc.aggregate", format_end)
            rc_end = last_end("judges.parse_rc_verdict", panel_end)
            stages = {"format": format_end - load_end, "panel": panel_end - format_end,
                      "rc": rc_end - panel_end, "assemble": p["end"] - rc_end}
        else:
            stages = dict.fromkeys(("format", "panel", "rc", "assemble"), 0.0)
        for stage, value in stages.items():
            per_pass[f"stage.{stage}"].append(value)
        # The stub's own service time is the backend's busy time; an
        # http call's duration also covers transport and throttling.
        busy = (sum(v[1] for v in p["stub"].values()) if p["stub"]
                else total("judges.backend"))
        window = (stages["panel"] + stages["rc"]) * ctx["concurrency"]
        per_pass["util"].append(busy / window if window > 0 else 0.0)
        per_pass["busy"].append(busy)
        per_pass["permit_wait"].append(sum(
            own(s) for s in by_name["judges.call"] if s[PASS] == index))
        limited_service = p["stub"].get(ctx["limited"], [0, 0.0])[1]
        per_pass["throttle"].append(
            total("judges.http", lambda s: s[DETAIL] == ctx["limited"])
            - limited_service if ctx["limited"] else 0.0)
        per_pass["load"].append(total("corpus.load"))
        for kernel in ("alpha", "transitions", "mec", "divergence", "ed"):
            per_pass[kernel].append(total(f"metrics.{kernel}"))
        per_pass["alpha_units"].append(sum(
            s[DETAIL] or 0 for s in by_name["metrics.alpha"] if s[PASS] == index))

    backends = by_name["judges.backend"] + by_name["judges.http"]
    calls = by_name["judges.call"]
    reached = sum(1 for s in calls if any(
        c[NAME] in ("judges.backend", "judges.http") for c in children[s[ID]]))
    failures = sum(1 for s in backends if s[ERROR] is not None)
    http = by_name["judges.http"]
    limited = [dur(s) for s in http if s[DETAIL] == ctx["limited"]]
    unlimited = [s for s in http if s[DETAIL] != ctx["limited"]]
    unlimited_service = sum(
        v[1] for p in passes for model, v in p["stub"].items() if model != ctx["limited"])
    gets = by_name["judges.cache_get"]
    formats = by_name["formatter.format_response"]
    repaired = sum(1 for s in formats if s[DETAIL] == "repaired")
    unrepairable = sum(1 for s in formats if s[DETAIL] == "unrepairable")
    panels = by_name["erc.run_panel"]
    first_prompts = ctx["experts"] * ctx["passes"] * len(panels)
    erc_calls = sum(1 for s in calls if s[DETAIL] == "erc")
    us, ms = 1e6, 1e3
    return {
        "pipeline.format_stage_s": _median(per_pass["stage.format"]),
        "pipeline.panel_stage_s": _median(per_pass["stage.panel"]),
        "pipeline.rc_stage_s": _median(per_pass["stage.rc"]),
        "pipeline.assemble_s": _median(per_pass["stage.assemble"]),
        "pipeline.concurrency_util": _median(per_pass["util"]),
        "judges.client_calls": len(calls) / samples,
        "judges.permit_wait_s": _median(per_pass["permit_wait"]),
        "judges.retries": (len(backends) - reached) / samples,
        "judges.transport_failures": failures / samples,
        "judges.backend_calls": len(backends) / samples,
        "judges.backend_busy_s": _median(per_pass["busy"]),
        "judges.backend_p50_ms": _percentile([dur(s) for s in backends], 0.5) * ms,
        "judges.backend_p99_ms": _percentile([dur(s) for s in backends], 0.99) * ms,
        "judges.http_overhead_us": (
            (sum(dur(s) for s in unlimited) - unlimited_service) / len(unlimited) * us
            if unlimited else 0.0),
        "judges.throttle_wait_s": _median(per_pass["throttle"]),
        "judges.limited.p99_ms": _percentile(limited, 0.99) * ms,
        "judges.unlimited.p99_ms": _percentile([dur(s) for s in unlimited], 0.99) * ms,
        "judges.cache_get_us": _mean([dur(s) for s in gets]) * us,
        "judges.cache_put_us": _mean([dur(s) for s in by_name["judges.cache_put"]]) * us,
        "judges.cache_hit_ratio": (
            sum(1 for s in gets if s[DETAIL]) / len(gets) if gets else 0.0),
        "judges.cache_files": sum(p["cache_files"] for p in passes) / samples,
        "judges.cache_kib_per_sample": sum(p["cache_bytes"] for p in passes) / 1024 / samples,
        "judges.extract_json_calls": len(by_name["judges.extract_json"]) / samples,
        "judges.extract_json_us": _mean([dur(s) for s in by_name["judges.extract_json"]]) * us,
        "formatter.calls": len(formats) / samples,
        "formatter.self_us": _mean([own(s) for s in formats]) * us,
        "formatter.repair_ratio": (
            sum(1 for s in formats if s[DETAIL] != "valid_direct") / len(formats)
            if formats else 0.0),
        "formatter.repair_success_ratio": (
            repaired / (repaired + unrepairable) if repaired + unrepairable else 0.0),
        "erc.panel_calls": len(panels) / samples,
        "erc.panel_p50_ms": _percentile([dur(s) for s in panels], 0.5) * ms,
        "erc.panel_self_us": _mean([own(s) for s in panels]) * us,
        "erc.reprompt_ratio": (
            (erc_calls - first_prompts) / first_prompts if first_prompts else 0.0),
        "erc.aggregate_us": _mean([dur(s) for s in by_name["erc.aggregate"]]) * us,
        "prompts.calls": len(by_name["prompts.build"]) / samples,
        "prompts.build_us": _mean([dur(s) for s in by_name["prompts.build"]]) * us,
        "corpus.load_s": _median(per_pass["load"]),
        "corpus.segment_us": _mean([dur(s) for s in by_name["corpus.segment"]]) * us,
        "metrics.alpha_s": _median(per_pass["alpha"]),
        "metrics.alpha_units": _median(per_pass["alpha_units"]),
        "metrics.transitions_s": _median(per_pass["transitions"]),
        "metrics.mec_s": _median(per_pass["mec"]),
        "metrics.divergence_s": _median(per_pass["divergence"]),
        "metrics.ed_s": _median(per_pass["ed"]),
        "cli.self_ms": _mean([own(s) for s in by_name["cli.main"]]) * ms,
    }
