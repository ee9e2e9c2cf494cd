"""Batch evaluation pipeline.

Wires the stages together over a corpus and a predictions file: format
gate with judge repair, emotion-recognition panel with threshold
voting, then the deterministic metric kernels, and finally report and
manifest emission.  Scoring never mutates inputs; per-sample failures
degrade into tallied exclusions instead of aborting the run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import logging
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Optional, Sequence, TypedDict

import numpy as np

from . import __version__
from .config import (
    DEFAULT_RC_ROUTING,
    RC_METRICS,
    BackendSpec,
    ConfigError,
    RunConfig,
    _require_unique_names,
)
from .corpus import (
    AMBIGUOUS,
    CorpusError,
    DialogueSample,
    EmotionTaxonomy,
    PredictionRecord,
    load_corpus,
    load_predictions,
    parse_json,
    read_lines,
    replacing,
    save_jsonl,
    segment_utterances,
)
from .erc import MODALITIES, aggregate, run_panel
from .formatter import REPAIRED, UNREPAIRABLE, VALID_DIRECT, format_response
from .judges import (
    HttpBackend,
    JudgeClient,
    MockBackend,
    ReplyCache,
    TransportError,
    parse_rc_verdict,
)
from .metrics import (
    build_transition_matrices,
    cec,
    character_distinctiveness,
    ed,
    edd,
    krippendorff_alpha,
    mec,
    normalized_entropy,
    rc_score_from_verdict,
    rcd,
)
from .prompts import (
    PROMPT_VERSIONS,
    build_generate_prompt,
    build_rc_prompt,
    render_history,
)
from .scheduler import ask_once, drive

logger = logging.getLogger(__name__)

# Report column -> panel modality, for the indecision metric.
_ED_COLUMNS = {"all": "fusion", "spe": "s", "fac": "f", "bod": "b"}

# An ``rcd`` entry when distinctiveness is undefined.
_NULL_RCD = {"value": None, "cd_gt": None, "cd_rpa": None}

SUMMARY_KEYS = (
    "mec.lower", "mec.upper",
    "cec.lower", "cec.upper",
    "edd.intra", "edd.inter",
    "rcd.intra", "rcd.inter",
    "ed.all", "ed.spe", "ed.fac", "ed.bod",
    "rc.exp", "rc.cha", "rc.rel",
)


def group_role_dialogues(
    samples: Sequence[DialogueSample],
) -> list[tuple[str, list[DialogueSample]]]:
    """Group samples into per-role dialogue threads, order preserved.

    Samples carrying a ``dialogue_id`` group by (dialogue_id, role);
    samples without one form a thread per consecutive same-role run in
    file order, and any interleaved sample breaks such a run.
    """
    groups: dict[tuple, list[DialogueSample]] = {}
    order: list[tuple] = []
    run_counter = 0
    current_run: Optional[tuple] = None
    for sample in samples:
        role_id = sample.role.role_id
        if sample.dialogue_id is not None:
            key = ("explicit", sample.dialogue_id, role_id)
            current_run = None
        else:
            if current_run is not None and current_run[2] == role_id:
                key = current_run
            else:
                run_counter += 1
                key = ("run", run_counter, role_id)
            current_run = key
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(sample)
    return [(key[2], groups[key]) for key in order]


@dataclass
class EvaluationRun:
    """Everything a finished run produced."""

    report: dict
    manifest: dict
    written: list[Path] = field(default_factory=list)


def _file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _dump_json(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def _make_out_dir(out_dir: str | Path) -> Path:
    """Create the output directory; an unusable one is a ``ConfigError``."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot use output directory {out}: {exc.strerror or exc}") from None
    return out


def write_out_file(out_dir: str | Path, name: str, text: str) -> Path:
    """Replace ``out_dir/name`` with ``text``; an ``OSError`` is a ``ConfigError``."""
    path = _make_out_dir(out_dir) / name
    try:
        with replacing(path) as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    return path


def _backend(obj):
    """The backend of a backend spec, or a backend object itself."""
    if isinstance(obj, BackendSpec):
        if obj.kind == "mock":
            return MockBackend(obj.name, fixture_dir=obj.fixture_dir or None,
                               rate_limit=obj.rate_limit)
        return HttpBackend(name=obj.name, endpoint=obj.endpoint, model=obj.model,
                           credential_env=obj.credential_env,
                           rate_limit=obj.rate_limit, timeout=obj.timeout)
    if not hasattr(obj, "complete"):
        raise ConfigError(f"cannot build a judge from {type(obj).__name__}: "
                          "pass a BackendSpec or a backend")
    return obj


@contextlib.contextmanager
def _judging(config: RunConfig, *groups: Sequence):
    """The run's reply cache (``None`` without a ``cache_dir``), then one
    client list per group of backend specs or objects.  On exit every
    client and the cache are closed."""
    cache = ReplyCache(config.cache_dir) if config.cache_dir else None
    judges: list[JudgeClient] = []
    try:
        built = []
        for group in groups:
            built.append([JudgeClient(_backend(obj)) for obj in group])
            judges += built[-1]
        _require_unique_names([c.name for c in judges])
        yield cache, *built
    finally:
        for client in judges:
            client.close()
        if cache is not None:
            cache.close()


def _role_matrices(
    threads: Sequence[tuple[str, list[DialogueSample]]],
    labels_of,
    taxonomy: EmotionTaxonomy,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Per-role intra/inter count arrays, each sample labelled by ``labels_of``."""
    per_role: dict[str, list[list[list[str]]]] = {}
    for role_id, thread in threads:
        per_role.setdefault(role_id, []).append([labels_of(s) for s in thread])
    intra: dict[str, np.ndarray] = {}
    inter: dict[str, np.ndarray] = {}
    for role_id in sorted(per_role):
        intra[role_id], inter[role_id] = build_transition_matrices(
            per_role[role_id], taxonomy)
    return intra, inter


def _ground_truth(samples: Sequence[DialogueSample], taxonomy: EmotionTaxonomy):
    """``(threads, intra, inter)``: the samples' role threads and the ground
    truth's per-role transition counts over them."""
    threads = group_role_dialogues(samples)
    intra, inter = _role_matrices(threads, lambda s: s.gt_emotions, taxonomy)
    return threads, intra, inter


def gt_statistics(config: RunConfig, corpus_path: str | Path) -> dict:
    """Ground-truth-side statistics: per-role transitions, distinctiveness.

    Depends only on the corpus, so its distinctiveness numbers are the
    fixed reference the relative-distinctiveness metric subtracts.
    """
    taxonomy = config.taxonomy()
    samples = load_corpus(corpus_path, taxonomy, config.delimiters)
    _, intra, inter = _ground_truth(samples, taxonomy)
    roles = sorted(intra)
    cd_intra = cd_inter = None
    if len(roles) >= 2:
        cd_intra = character_distinctiveness(
            intra, config.smoothing, config.divergence_mode)
        cd_inter = character_distinctiveness(
            inter, config.smoothing, config.divergence_mode)
    label_counts: dict[str, int] = {lab: 0 for lab in taxonomy.labels}
    per_role_samples: dict[str, int] = {r: 0 for r in roles}
    utterances = 0
    for sample in samples:
        per_role_samples[sample.role.role_id] += 1
        utterances += len(sample.gt_emotions)
        for lab in sample.gt_emotions:
            label_counts[lab] += 1
    return {
        "taxonomy_fingerprint": taxonomy.fingerprint,
        "roles": roles,
        "samples": len(samples),
        "samples_per_role": per_role_samples,
        "utterances": utterances,
        "label_counts": label_counts,
        "cd": {"intra": cd_intra, "inter": cd_inter},
        "transitions": {
            role: {variant: {"variant": variant, "labels": list(taxonomy.labels),
                             "counts": matrices[role].tolist()}
                   for variant, matrices in (("intra", intra), ("inter", inter))}
            for role in roles
        },
    }


def _rc_sources(sample: DialogueSample, response, materials: str,
                history_text: str) -> list[str]:
    return [
        response.facial_expression,
        response.body_movement,
        response.speech_prompt,
        response.content,
        materials,
        history_text,
        sample.user_input.content,
    ]


def _rc_materials(sample: DialogueSample, fields: Sequence[str]) -> str:
    parts = [f"Character name: {sample.role.role_id}"]
    if sample.role.user_name:
        parts.append(f"They are talking to: {sample.role.user_name}")
    for name in fields:
        if name == "profile" and sample.role.profile:
            parts.append(f"Profile: {sample.role.profile}")
        elif name == "previous_info" and sample.previous_info:
            parts.append(f"Background so far: {sample.previous_info}")
    return "\n".join(parts)


def _rc_judge_sample(sample, response, rc_evaluators, config):
    """All three role-consistency questions for one sample.

    A flow for ``scheduler.drive`` that returns ``{metric: {evaluator:
    score or None}}``.  An evaluator with no usable verdict is absent;
    one that abstained is present with ``None``.  Every (question,
    evaluator) query goes out in one batch, then every corrective
    re-prompt that a failed or unusable reply earns in a second.
    """
    history_text = render_history(sample.history)
    response_json = response.to_json()
    cells = []  # (metric, evaluator, prompts, sources), metric-major
    for metric in RC_METRICS:
        routing = config.rc_routing.get(metric, DEFAULT_RC_ROUTING[metric])
        materials = _rc_materials(sample, routing)
        sources = _rc_sources(sample, response, materials, history_text)
        prompts = [
            build_rc_prompt(metric, materials, history_text,
                            sample.user_input.content, response_json,
                            retry=retry)
            for retry in (False, True)
        ]
        cells += [(metric, evaluator, prompts, sources) for evaluator in rc_evaluators]
    verdicts: list = [None] * len(cells)
    for attempt in range(2):
        waiting = [i for i, verdict in enumerate(verdicts) if verdict is None]
        replies = yield [(cells[i][1], "rc", cells[i][2][attempt], 1) for i in waiting]
        for i, reply in zip(waiting, replies):
            if not isinstance(reply, TransportError):
                verdicts[i] = parse_rc_verdict(reply, sources=cells[i][3])
    scores: dict[str, dict] = {metric: {} for metric in RC_METRICS}
    for (metric, evaluator, _, _), verdict in zip(cells, verdicts):
        if verdict is None:
            logger.warning("rc %s: evaluator %s unusable for sample %s",
                           metric, evaluator.name, sample.sample_id)
        else:
            scores[metric][evaluator.name] = rc_score_from_verdict(*verdict)
    return scores


class SampleRecord(TypedDict):
    """All that assembly reads of one judged sample; it round-trips through
    JSON unchanged.  ``labels``/``entropy`` are per-modality cell lists,
    ``None`` when no panel vote landed; ``rc`` is ``{metric: {evaluator:
    score or None}}``, ``None`` when the format gate dropped the sample."""

    status: str
    labels: Optional[dict[str, list[str]]]
    entropy: Optional[dict[str, list[float]]]
    rc: Optional[dict[str, dict[str, Optional[int]]]]


def judge_sample(pred: PredictionRecord, sample: DialogueSample,
                 config: RunConfig, taxonomy: EmotionTaxonomy, experts,
                 rc_evaluators, repair):
    """One prediction through format gate -> emotion panel -> role
    consistency: a flow for ``scheduler.drive``, each stage's independent
    requests in one batch.  The response text and the vote histograms
    end here."""
    status, response = yield from format_response(
        pred.raw_output, repair, max_attempts=config.max_repair_attempts)
    record: SampleRecord = {"status": status, "labels": None,
                            "entropy": None, "rc": None}
    if response is None:
        return record
    utterances = segment_utterances(response.content, config.delimiters)
    votes = yield from run_panel(response, utterances, experts, taxonomy,
                                 passes=config.passes)
    labels, counts = aggregate(votes, tau=config.tau,
                               n_utterances=len(utterances))
    if any(hist for row in counts.values() for hist in row):
        record["labels"] = labels
        record["entropy"] = {
            m: [normalized_entropy(hist, taxonomy.size) for hist in row]
            for m, row in counts.items()}
    record["rc"] = yield from _rc_judge_sample(sample, response, rc_evaluators,
                                               config)
    return record


def evaluate(
    config: RunConfig,
    corpus_path: str | Path,
    predictions_path: str | Path,
    out_dir: Optional[str | Path] = None,
    experts=None,
    rc_evaluators=None,
    repair_judge=None,
) -> EvaluationRun:
    """Run the full pipeline and assemble the report and manifest.

    ``experts``, ``rc_evaluators`` and ``repair_judge`` accept backend
    objects (anything with ``name`` and ``complete``) or ``BackendSpec``s
    and override the config-declared backends, which keeps the whole
    pipeline drivable from tests without HTTP.  Each gets a client of
    this run; ``scheduler.drive`` sends every request with the run's
    retry policy, reply cache and judge sampling.
    """
    t0 = time.monotonic()
    taxonomy = config.taxonomy()
    samples = load_corpus(corpus_path, taxonomy, config.delimiters)
    predictions = load_predictions(predictions_path)
    by_id = {s.sample_id: s for s in samples}
    unknown = sorted(p.sample_id for p in predictions if p.sample_id not in by_id)
    if unknown:
        raise CorpusError(
            f"predictions reference unknown samples: {unknown[:5]}"
            + ("..." if len(unknown) > 5 else "")
        )
    if config.sample_limit is not None and config.sample_limit < len(predictions):
        rng = random.Random(config.seed)
        keep = set(rng.sample(sorted(p.sample_id for p in predictions),
                              config.sample_limit))
        predictions = [p for p in predictions if p.sample_id in keep]
    predictions = sorted(predictions, key=lambda p: p.sample_id)
    if out_dir is not None:
        _make_out_dir(out_dir)  # before the first judge request

    experts = experts if experts is not None else config.experts
    rc_evaluators = rc_evaluators if rc_evaluators is not None else config.rc_evaluators
    for what, group in (("experts", experts), ("rc_evaluators", rc_evaluators)):
        if not group:
            raise ConfigError(f"run config declares no {what}")
    repair = repair_judge if repair_judge is not None else config.repair
    with _judging(config, experts, rc_evaluators,
                  [] if repair is None else [repair]) as (
                      cache, experts, rc_evaluators, repairs):
        repair = repairs[0] if repairs else None
        judged = drive((judge_sample(pred, by_id[pred.sample_id], config, taxonomy,
                                     experts, rc_evaluators, repair)
                        for pred in predictions), config.concurrency,
                       cache=cache, retry=config.retry, sampling=config.judge_sampling)
    judges = experts + rc_evaluators + repairs

    judge_stats = {c.name: dict(c.counts) for c in judges}
    if (sum(s["replies"] for s in judge_stats.values()) == 0
            and sum(s["transport_failures"] + s["rejected"]
                    for s in judge_stats.values()) > 0):
        raise TransportError(
            "no judge request succeeded in this run; backends unreachable")

    records = dict(zip((p.sample_id for p in predictions), judged))
    report = assemble(config, samples, records, [c.name for c in rc_evaluators])
    lookups = sum(s["cache_hits"] + s["cache_misses"]
                  for s in judge_stats.values())
    hits = sum(s["cache_hits"] for s in judge_stats.values())
    manifest = {
        "tool": {"name": "rpeval", "version": __version__},
        "created_at": datetime.now(timezone.utc).isoformat(),
        "wall_clock_seconds": round(time.monotonic() - t0, 3),
        "config_digest": config.digest,
        "corpus_digest": _file_digest(corpus_path),
        "predictions_digest": _file_digest(predictions_path),
        "taxonomy_fingerprint": taxonomy.fingerprint,
        "prompt_versions": dict(PROMPT_VERSIONS),
        "judges": judge_stats,
        "cache": {
            "enabled": bool(config.cache_dir),
            "lookups": lookups,
            "hits": hits,
            "hit_ratio": (hits / lookups) if lookups else 0.0,
        },
        "counts": dict(report["counts"]),
    }
    written: list[Path] = []
    if out_dir is not None:
        written = [write_out_file(out_dir, "report.json", _dump_json(report)),
                   write_out_file(out_dir, "manifest.json", _dump_json(manifest))]
    return EvaluationRun(report=report, manifest=manifest, written=written)


def assemble(config: RunConfig, samples: Sequence[DialogueSample],
             records: Mapping[str, SampleRecord],
             evaluators: Sequence[str]) -> dict:
    """The report of a run, from the corpus and its per-sample records.

    Pure: no I/O and no judge request.  ``records`` maps sample ids to
    records in any order; every sum runs in sample-id order.  A corpus
    sample without a record is tallied as a missing prediction.
    ``evaluators`` names the role-consistency evaluators."""
    records = {sid: records[sid] for sid in sorted(records)}
    statuses = Counter(record["status"] for record in records.values())
    voted = {sid: record for sid, record in records.items()
             if record["labels"] is not None}
    scored = [record["rc"] for record in records.values()
              if record["rc"] is not None]
    floored = statuses[UNREPAIRABLE] if config.rc_floor_unrepairable else 0

    metrics, per_class = _assemble_ec(config, samples, voted)
    # Per metric, a sample where no evaluator scored is dropped, and
    # each floored unrepairable sample adds a 1.0.
    rc = metrics["rc"] = {}
    for metric in RC_METRICS:
        sample_scores: list[float] = []
        per_evaluator: dict[str, list[int]] = {name: [] for name in evaluators}
        for per_sample in scored:
            given = {k: v for k, v in per_sample[metric].items() if v is not None}
            for name, value in given.items():
                per_evaluator[name].append(value)
            if given:
                sample_scores.append(float(np.mean(list(given.values()))))
        dropped = len(scored) - len(sample_scores)
        sample_scores.extend(1.0 for _ in range(floored))
        rc[metric] = {
            "score": (sum(sample_scores) / len(sample_scores)
                      if sample_scores else None),
            "per_evaluator": {name: (sum(v) / len(v) if v else None)
                              for name, v in per_evaluator.items()},
            "scored": len(sample_scores),
            "dropped": dropped,
        }

    summary = {}
    for key in SUMMARY_KEYS:
        section, name = key.split(".")
        value = metrics[section][name]
        summary[key] = (value["value"] if section == "rcd"
                        else value["score"] if section == "rc" else value)
    counts = {
        "corpus_samples": len(samples),
        "predictions": len(records),
        "missing_predictions": len(samples) - len(records),
        "valid_direct": statuses[VALID_DIRECT],
        "repaired": statuses[REPAIRED],
        "dropped_format": statuses[UNREPAIRABLE],
        "dropped_erc": len(scored) - len(voted),
        "ec_samples": len(voted),
        "rc_floored": floored,
        "rc_dropped": {m: rc[m]["dropped"] for m in RC_METRICS},
    }
    return {"summary": summary, "metrics": metrics, "per_class": per_class,
            "counts": counts}


def _assemble_ec(config, samples, voted) -> tuple[dict, dict]:
    """The report's emotion ``metrics`` sections and its ``per_class``;
    ``voted`` maps the ids of voted samples, in order, to their records."""
    if not voted:
        logger.warning("no samples survived to emotion scoring")
        return {
            "mec": {"lower": None, "upper": None},
            "cec": {"lower": None, "upper": None},
            "edd": {"intra": None, "inter": None},
            "rcd": {v: dict(_NULL_RCD) for v in ("intra", "inter")},
            "ed": {column: None for column in _ED_COLUMNS},
        }, {"lower": {}, "upper": {}}
    taxonomy = config.taxonomy()
    gt = {s.sample_id: s.gt_emotions for s in samples}
    mec_samples = [(gt[sid], record["labels"]["fusion"])
                   for sid, record in voted.items()]
    mecs = {level: mec(mec_samples, taxonomy, level=level)
            for level in ("lower", "upper")}

    table = [[lab for record in voted.values() for lab in record["labels"][m]]
             for m in MODALITIES]
    try:
        cecs = {level: cec(table, taxonomy, level=level)
                for level in ("lower", "upper")}
    except ValueError as exc:
        logger.warning("cross-modal agreement undefined: %s", exc)
        cecs = {"lower": None, "upper": None}

    ed_values: dict[str, Optional[float]] = {}
    for column, modality in _ED_COLUMNS.items():
        cells = [e for record in voted.values() for e in record["entropy"][modality]]
        ed_values[column] = ed(cells) if cells else None

    threads, gt_intra, gt_inter = _ground_truth(samples, taxonomy)
    # An absent or dropped prediction breaks the transition chains.
    rpa_intra, rpa_inter = _role_matrices(
        threads,
        lambda s: (voted[s.sample_id]["labels"]["fusion"] if s.sample_id in voted
                   else [AMBIGUOUS]),
        taxonomy)
    divergence = (config.smoothing, config.divergence_mode)
    edds = {"intra": edd(gt_intra, rpa_intra, *divergence),
            "inter": edd(gt_inter, rpa_inter, *divergence)}
    if len(gt_intra) >= 2:
        rcds = {"intra": rcd(gt_intra, rpa_intra, *divergence),
                "inter": rcd(gt_inter, rpa_inter, *divergence)}
    else:
        logger.warning("distinctiveness needs at least two roles; reporting null")
        rcds = {v: dict(_NULL_RCD) for v in ("intra", "inter")}
    metrics = {
        "mec": {level: value for level, (value, _) in mecs.items()},
        "cec": cecs,
        "edd": edds,
        "rcd": rcds,
        "ed": ed_values,
    }
    per_class = {level: table for level, (_, table) in mecs.items()}
    return metrics, per_class


def _generate_prompt(sample: DialogueSample) -> str:
    return build_generate_prompt(
        _rc_materials(sample, ["profile", "previous_info"]),
        render_history(sample.history), sample.role.user_name,
        sample.user_input.content)


def generate(
    config: RunConfig,
    backend_name: str,
    corpus_path: str | Path,
    out_path: str | Path,
    generator=None,
) -> list[PredictionRecord]:
    """Produce a predictions file by role-playing every corpus sample.

    Uses the generation sampling settings (not the greedy judge ones), the
    run's cache and ``scheduler.drive``; the backend is picked by name
    from the config's ``generators``.  ``out_path`` is checked before the
    first request and written, in corpus order, after the last reply.
    """
    taxonomy = config.taxonomy()
    samples = load_corpus(corpus_path, taxonomy, config.delimiters)
    out_path = Path(out_path)
    _make_out_dir(out_path.parent)
    target = out_path if out_path.exists() else out_path.parent
    if out_path.is_dir() or not os.access(target, os.W_OK):
        raise ConfigError(f"cannot write predictions to {out_path}")
    if generator is None:
        generator = next(
            (s for s in config.generators if s.name == backend_name), None)
        if generator is None:
            raise ConfigError(f"no generator backend named {backend_name!r}")
    with _judging(config, [generator]) as (cache, (client,)):
        replies = drive((ask_once(client, "generate", _generate_prompt(sample))
                         for sample in samples), config.concurrency, cache=cache,
                        retry=config.retry, sampling=config.generation_sampling)
    records = [PredictionRecord(sample_id=sample.sample_id, raw_output=reply)
               for sample, reply in zip(samples, replies)]
    try:
        save_jsonl(out_path, [r.to_record() for r in records])
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    return records


def agreement(kind: str, rows: Sequence[Sequence[object]]) -> float:
    """Standalone inter-rater agreement over a raters-by-units table."""
    if kind not in ("nominal", "ordinal"):
        raise ConfigError(f"agreement kind must be nominal or ordinal, got {kind!r}")
    try:
        return krippendorff_alpha(rows, level=kind)
    except ValueError as exc:
        raise CorpusError(str(exc)) from None


def load_agreement_table(path: str | Path) -> list[list]:
    """Read a raters-by-units table from .csv or .json.

    Rows are raters.  Empty CSV cells (and JSON nulls) mark missing
    ratings; numeric-looking CSV cells are parsed as numbers.
    """
    path = Path(path)
    lines = read_lines(path)
    if path.suffix.lower() == ".json":
        obj = parse_json("".join(lines), str(path))
        if (not isinstance(obj, list)
                or not all(isinstance(r, list) for r in obj)):
            raise CorpusError(f"{path}: expected a list of rater rows")
        for i, row in enumerate(obj):
            for j, cell in enumerate(row):
                if isinstance(cell, (list, dict, bool)):
                    raise CorpusError(f"{path}: row {i} cell {j} must be a "
                                      "number, a string or null")
        return obj
    rows: list[list] = []
    for record in csv.reader(lines):
        row: list = []
        for cell in record:
            cell = cell.strip()
            if not cell:
                row.append(None)
                continue
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    if not rows:
        raise CorpusError(f"{path}: table is empty")
    return rows


def flatten_report(report: Mapping) -> dict:
    """Dotted-key view of a report; values are scalars or None."""
    flat: dict = {}
    def walk(node, prefix):
        if isinstance(node, Mapping):
            for key in sorted(node):
                walk(node[key], f"{prefix}.{key}" if prefix else str(key))
        else:
            flat[prefix] = node
    walk(report, "")
    return flat


_CLASS_STATS = ("n", "precision", "recall", "f1")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_report(report: Mapping) -> None:
    """Refuse a report whose rendered parts lack the layout ``evaluate`` writes."""
    summary = report.get("summary")
    ok = isinstance(summary, Mapping) and all(
        key in summary and (summary[key] is None or _is_number(summary[key]))
        for key in SUMMARY_KEYS)
    ok = ok and isinstance(report.get("counts"), Mapping)
    per_class = report.get("per_class")
    ok = ok and isinstance(per_class, Mapping) and all(
        isinstance(table, Mapping) and all(
            isinstance(row, Mapping)
            and all(_is_number(row.get(k)) for k in _CLASS_STATS)
            for row in table.values())
        for table in per_class.values())
    if not ok:
        raise CorpusError("report summary, counts or per_class do not have the "
                          "layout of a finished run")


def render_report(report: Mapping, fmt: str) -> str:
    """Serialize a report document as json, csv, or markdown."""
    _check_report(report)
    if fmt == "json":
        return _dump_json(dict(report))
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in flatten_report(report).items():
            if value is None:
                cell = ""
            elif isinstance(value, float):
                cell = repr(value)
            else:
                cell = str(value)
            writer.writerow([key, cell])
        return buf.getvalue()
    if fmt == "md":
        lines = ["# Evaluation report", "", "| Metric | Value |", "| --- | --- |"]
        summary = report["summary"]
        for key in SUMMARY_KEYS:
            value = summary[key]
            shown = "n/a" if value is None else f"{value:.6f}"
            lines.append(f"| {key} | {shown} |")
        counts = report["counts"]
        if counts:
            lines += ["", "## Exclusions and tallies", "",
                      "| Count | Value |", "| --- | --- |"]
            for key, value in flatten_report(counts).items():
                lines.append(f"| {key} | {value} |")
        per_class = report["per_class"].get("lower", {})
        if per_class:
            lines += ["", "## Per-class emotion F1", "",
                      "| Label | n | precision | recall | f1 |",
                      "| --- | --- | --- | --- | --- |"]
            for label, stats in per_class.items():
                lines.append(
                    f"| {label} | {stats['n']} | {stats['precision']:.4f} "
                    f"| {stats['recall']:.4f} | {stats['f1']:.4f} |"
                )
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown report format: {fmt!r}")


def write_report_files(report: Mapping, out_dir: str | Path,
                       fmt: str) -> Path:
    return write_out_file(out_dir, f"report.{fmt}", render_report(report, fmt))
