"""Pipeline orchestration: config, staging, reports, CLI."""

import csv
import dataclasses
import json
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    _labels_from_prompt,
    echo_prediction,
    fast_config,
    make_experts,
    make_rc_evaluators,
    make_repair_judge,
    make_sample,
    write_corpus,
    write_predictions,
)
from oracles import alpha_pairwise

import rpeval.pipeline
from rpeval.cli import main
from rpeval.corpus import CorpusError, PredictionRecord, load_corpus, load_predictions
from rpeval.erc import MODALITIES
from rpeval.formatter import UNREPAIRABLE, VALID_DIRECT
from rpeval.judges import (
    JudgeClient,
    MockBackend,
    RetryPolicy,
    Sampling,
    TransportError,
    prompt_digest,
)
from rpeval.pipeline import (
    DEFAULT_RC_ROUTING,
    RC_METRICS,
    SUMMARY_KEYS,
    BackendSpec,
    ConfigError,
    RunConfig,
    _rc_judge_sample,
    _rc_materials,
    agreement,
    assemble,
    evaluate,
    flatten_report,
    generate,
    group_role_dialogues,
    gt_statistics,
    judge_sample,
    load_agreement_table,
    render_report,
    write_report_files,
)
from rpeval.prompts import build_erc_prompt, build_rc_prompt, render_history
from rpeval.scheduler import drive


# ------------------------------------------------------------------ config

def test_config_refuses_negative_smoothing():
    with pytest.raises(ConfigError, match="smoothing must be non-negative"):
        RunConfig(smoothing=-1e-9)
    assert RunConfig(smoothing=0.0).smoothing == 0.0


def test_evaluate_needs_experts_and_rc_evaluators(small_world):
    w = small_world
    with pytest.raises(ConfigError, match="run config declares no experts"):
        evaluate(w["config"], w["corpus"], w["predictions"],
                 rc_evaluators=w["rc"])
    with pytest.raises(ConfigError, match="run config declares no rc_evaluators"):
        evaluate(w["config"], w["corpus"], w["predictions"],
                 experts=w["experts"])
    assert sum(e.calls for e in w["experts"]) == 0


def test_rc_prompt_refuses_an_unknown_metric():
    with pytest.raises(ValueError, match="unknown role-consistency metric: 'xyz'"):
        build_rc_prompt("xyz", "materials", "history", "hi", "{}")


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError, match="unknown keys"):
        RunConfig.from_dict({"tau": 0.7, "typo_key": 1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"tau": 1.5})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"passes": 0})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"divergence_mode": "diagonal"})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"rc_routing": {"exp": ["secrets"]}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"rc_routing": {"unknown_metric": ["profile"]}})
    with pytest.raises(ConfigError, match="unique"):
        RunConfig.from_dict({
            "experts": [{"name": "same", "kind": "mock"},
                        {"name": "same", "kind": "mock"}],
        })
    # the repair judge shares the manifest's per-name counters too
    with pytest.raises(ConfigError, match="unique.*'same'"):
        RunConfig.from_dict({
            "rc_evaluators": [{"name": "same", "kind": "mock"}],
            "repair": {"name": "same", "kind": "mock"},
        })
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"labels": ["happy"]})  # taxonomy too small
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"experts": [{"name": "x", "kind": "carrier-pigeon"}]})
    with pytest.raises(ConfigError, match="unknown keys"):
        RunConfig.from_dict({"repair": {"name": "x", "kind": "mock", "url": ""}})
    with pytest.raises(ConfigError, match="unknown keys"):
        RunConfig.from_dict({"judge_sampling": {"temprature": 0.1}})
    # values of the wrong type, checked against the field annotations
    for bad in (
        {"judge_sampling": 5},
        {"retry": 3},
        {"tendency_map": 3},
        {"retry": {"max_attempts": "3"}},
        {"retry": {"max_attempts": 0}},
        {"rc_routing": ["exp"]},
        {"rc_routing": {"exp": 5}},
        {"experts": {"name": "e", "kind": "mock"}},
        {"experts": [{"name": "e", "kind": "http", "rate_limit": "fast"}]},
        {"concurrency": 2.5},
        {"passes": True},
        {"rc_floor_unrepairable": 1},
        {"labels": "happy"},
        {"sample_limit": "10"},
    ):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(bad)
    # out-of-range judge settings: a negative delay would crash the run at
    # its first retry, a negative rate limit would mean no limit
    for bad, match in (
        ({"retry": {"base_delay": -1}}, "base_delay"),
        ({"retry": {"max_delay": -2}}, "max_delay"),
        ({"experts": [{"name": "e", "kind": "http", "timeout": -1}]}, "timeout"),
        ({"experts": [{"name": "e", "kind": "http", "timeout": 0}]}, "timeout"),
        ({"experts": [{"name": "e", "kind": "mock", "rate_limit": -5}]},
         "rate_limit"),
    ):
        with pytest.raises(ConfigError, match=match):
            RunConfig.from_dict(bad)
    # non-finite numbers, which JSON parsing accepts: infinite smoothing
    # flattens every transition distance to 0, an infinite timeout or delay
    # overflows the socket or the sleep
    for bad, match in (
        ({"smoothing": float("inf")}, "smoothing"),
        ({"smoothing": float("nan")}, "smoothing"),
        ({"tau": float("nan")}, "tau"),
        ({"retry": {"base_delay": float("inf")}}, "base_delay"),
        ({"judge_sampling": {"temperature": float("-inf")}}, "temperature"),
        ({"experts": [{"name": "e", "kind": "http", "timeout": float("inf")}]},
         "timeout"),
        ({"experts": [{"name": "e", "kind": "mock", "rate_limit": float("inf")}]},
         "rate_limit"),
    ):
        with pytest.raises(ConfigError, match=match):
            RunConfig.from_dict(bad)
    # built in Python, not parsed: a fractional count would never block, or
    # would fail mid-run after judge requests had started
    for name in ("passes", "max_repair_attempts", "concurrency", "sample_limit"):
        for value in (2.5, 1.5, True, 0):
            with pytest.raises(ConfigError, match=name):
                RunConfig(**{name: value})
            with pytest.raises(ConfigError, match=name):
                dataclasses.replace(RunConfig(), **{name: value})
    with pytest.raises(ConfigError, match="smoothing"):
        RunConfig(smoothing=float("nan"))
    assert RunConfig(sample_limit=None).sample_limit is None
    # a float field takes a JSON integer, an Optional one takes null
    config = RunConfig.from_dict({"tau": 1, "sample_limit": None,
                                  "experts": [{"name": "e", "kind": "mock",
                                               "rate_limit": 2}]})
    assert config.tau == 1 and config.experts[0].rate_limit == 2


_DUPLICATE_GENERATORS = [
    {"name": "actor", "kind": "mock"},
    {"name": "actor", "kind": "http", "endpoint": "http://127.0.0.1:9/v1", "model": "m"},
]

# (config class, field, bad value): each is refused however the config is
# built, through a run config JSON object, directly or by replace().
_BAD_CONFIG_VALUES = [
    (RunConfig, "smoothing", math.inf),
    (RunConfig, "tau", True),
    (RunConfig, "seed", 1.5),
    (RunConfig, "delimiters", 5),
    (RunConfig, "cache_dir", None),
    (RunConfig, "rc_floor_unrepairable", "yes"),
    (RunConfig, "retry", 3),
    (RunConfig, "generators", _DUPLICATE_GENERATORS),
    (RetryPolicy, "base_delay", math.inf),
    (RetryPolicy, "max_attempts", 2.5),
    (RetryPolicy, "max_attempts", True),
    (Sampling, "temperature", -math.inf),
    (Sampling, "temperature", -1),
    (Sampling, "top_p", math.nan),
    (Sampling, "top_p", 5),
    (Sampling, "top_p", -0.5),
    (Sampling, "max_tokens", 2.5),
    (Sampling, "max_tokens", 0),
    (BackendSpec, "timeout", math.inf),
    (BackendSpec, "timeout", True),
    (BackendSpec, "rate_limit", math.inf),
    (BackendSpec, "name", 5),
    (BackendSpec, "kind", "grpc"),
    (RunConfig, "divergence_mode", "x"),
    (RunConfig, "rc_routing", {"exp": 5}),
    (RunConfig, "rc_routing", {"exp": "profile"}),
    (RunConfig, "rc_routing", {"bogus": ["profile"]}),
    (RunConfig, "rc_routing", {"exp": ["x"]}),
    # half a surrogate pair: such text has no UTF-8 form, so no digest
    (RunConfig, "cache_dir", "cache\ud800"),
    (BackendSpec, "model", "\udc80"),
]

# Config class -> (the path of its values in a run config, the fields it
# needs, how a run config nests it).
_CONFIG_PLACES = {
    RunConfig: ("config", {}, lambda obj: obj),
    BackendSpec: ("config.experts[0]", {"name": "e", "kind": "http"},
                  lambda obj: {"experts": [obj]}),
    RetryPolicy: ("config.retry", {}, lambda obj: {"retry": obj}),
    Sampling: ("config.judge_sampling", {}, lambda obj: {"judge_sampling": obj}),
}


@pytest.mark.parametrize("cls,name,value", _BAD_CONFIG_VALUES)
def test_config_refuses_bad_values_however_built(cls, name, value):
    path, needed, nest = _CONFIG_PLACES[cls]
    # a refused JSON value is named by its path from the top of the config,
    # down to the key or item of a mapping or list
    generators = name == "generators"
    with pytest.raises(ConfigError, match="unique.*'actor'" if generators
                       else re.escape(f"{path}.{name}") + r"[ .\[]"):
        RunConfig.from_dict(nest({**needed, name: value}))
    match = "unique" if generators else name
    with pytest.raises(ConfigError, match=match):
        cls(**{**needed, name: value})
    with pytest.raises(ConfigError, match=match):
        dataclasses.replace(cls(**needed), **{name: value})


def test_config_builds_nested_json_objects_however_built():
    labels = RunConfig().labels
    config = RunConfig(judge_sampling={}, retry={"max_attempts": 2},
                       experts=[{"name": "e", "kind": "mock"}], labels=list(labels))
    assert config.judge_sampling == Sampling()
    assert config.retry == RetryPolicy(max_attempts=2)
    assert config.experts == [BackendSpec(name="e", kind="mock")]
    assert config.labels == labels and isinstance(config.labels, tuple)
    with pytest.raises(ConfigError, match=re.escape("retry.max_attempts")):
        RunConfig(retry={"max_attempts": 0})
    with pytest.raises(ConfigError, match="config.experts.0.: .*'kind'"):
        RunConfig.from_dict({"experts": [{"name": "e"}]})


def test_config_roundtrip_and_digest():
    config = RunConfig.from_dict({
        "tau": 0.8,
        "experts": [{"name": "e1", "kind": "mock"}],
        "repair": {"name": "fix", "kind": "mock"},
        "judge_sampling": {"temperature": 0.1},
        "retry": {"max_attempts": 2},
    })
    again = RunConfig.from_dict(config.to_dict())
    assert again == config
    assert again.digest == config.digest
    assert config.experts == [BackendSpec(name="e1", kind="mock")]
    assert config.retry == RetryPolicy(max_attempts=2)
    # Manifests and caches from earlier runs stay comparable: pinned digests.
    assert config.digest == (
        "db09e5f6acc6aacafd9689866c024fa67795a1c7719dde01f68b1bb8a03f9e40")
    assert RunConfig().digest == (
        "a5f996129df361278edc54c727ae5ffc2ba35ff1927310aa89d2bd10a5bbb96c")


def test_config_from_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        RunConfig.from_file(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        RunConfig.from_file(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"tau": 0.75}), encoding="utf-8")
    assert RunConfig.from_file(good).tau == 0.75


# ------------------------------------------------------------- grouping

def test_group_role_dialogues_implicit_runs():
    samples = [
        make_sample("a1", role_id="hero"),
        make_sample("a2", role_id="hero"),
        make_sample("b1", role_id="witch"),
        make_sample("a3", role_id="hero"),
    ]
    groups = group_role_dialogues(samples)
    assert [(r, [s.sample_id for s in ss]) for r, ss in groups] == [
        ("hero", ["a1", "a2"]),
        ("witch", ["b1"]),
        ("hero", ["a3"]),  # the interleaved sample broke the run
    ]


def test_group_role_dialogues_explicit_ids():
    samples = [
        make_sample("a1", role_id="hero", dialogue_id="d1"),
        make_sample("b1", role_id="witch", dialogue_id="d1"),
        make_sample("a2", role_id="hero", dialogue_id="d1"),
        make_sample("c1", role_id="hero", dialogue_id="d2"),
    ]
    groups = group_role_dialogues(samples)
    assert [(r, [s.sample_id for s in ss]) for r, ss in groups] == [
        ("hero", ["a1", "a2"]),
        ("witch", ["b1"]),
        ("hero", ["c1"]),
    ]


def test_group_role_dialogues_explicit_breaks_implicit_run():
    samples = [
        make_sample("a1", role_id="hero"),
        make_sample("x1", role_id="hero", dialogue_id="d1"),
        make_sample("a2", role_id="hero"),
    ]
    groups = group_role_dialogues(samples)
    assert [[s.sample_id for s in ss] for _, ss in groups] == [
        ["a1"], ["x1"], ["a2"]]


# ------------------------------------------------------------- happy path

def test_evaluate_echo_run_is_perfect(small_world):
    run = evaluate(
        small_world["config"], small_world["corpus"],
        small_world["predictions"], out_dir=small_world["out"],
        experts=small_world["experts"], rc_evaluators=small_world["rc"],
    )
    summary = run.report["summary"]
    assert tuple(summary) == SUMMARY_KEYS
    assert summary["mec.lower"] == 1.0
    assert summary["mec.upper"] == 1.0
    assert summary["cec.lower"] == 1.0
    assert summary["cec.upper"] == 1.0
    assert summary["edd.intra"] == 0.0
    assert summary["edd.inter"] == 0.0
    assert summary["rcd.intra"] == 0.0
    assert summary["rcd.inter"] == 0.0
    assert summary["ed.all"] == 0.0
    assert summary["rc.exp"] == 5.0
    assert summary["rc.cha"] == 5.0
    assert summary["rc.rel"] == 5.0
    counts = run.report["counts"]
    assert counts["valid_direct"] == 6
    assert counts["repaired"] == 0
    assert counts["dropped_format"] == 0
    assert counts["dropped_erc"] == 0
    assert counts["ec_samples"] == 6
    assert counts["missing_predictions"] == 0
    assert counts["rc_dropped"] == {"exp": 0, "cha": 0, "rel": 0}
    # distinct roles with distinct emotions keep distinctiveness positive
    assert run.report["metrics"]["rcd"]["intra"]["cd_gt"] > 0
    assert run.report["metrics"]["rcd"]["intra"]["cd_gt"] == \
        run.report["metrics"]["rcd"]["intra"]["cd_rpa"]
    per_class = run.report["per_class"]["lower"]
    assert per_class["happy"]["n"] == 1
    assert per_class["anger"]["n"] == 2
    paths = {p.name for p in run.written}
    assert paths == {"report.json", "manifest.json"}
    manifest = run.manifest
    assert manifest["counts"] == counts
    assert manifest["tool"]["name"] == "rpeval"
    assert set(manifest["prompt_versions"]) == {"repair", "erc", "rc", "generate"}
    assert manifest["corpus_digest"] != manifest["predictions_digest"]
    # 5 experts x 2 passes x 6 samples of erc, plus rc: all misses, no hits yet
    assert manifest["cache"]["hits"] == 0
    assert manifest["cache"]["lookups"] > 0
    # The WAL is folded back only once the last connection closes.
    cache = Path(small_world["config"].cache_dir)
    assert [p.name for p in cache.iterdir()] == ["replies.sqlite3"]


def test_evaluate_repairs_near_miss_output(small_world, tmp_path):
    samples = small_world["samples"]
    records = [echo_prediction(s) for s in samples]
    broken = "face: happy smile / body: leaning / speech: soft / says happy and grateful"
    records[0] = PredictionRecord(sample_id="s01", raw_output=broken)
    fixed = samples[0].ground_truth.to_json()
    predictions = write_predictions(tmp_path / "p2.jsonl", records)
    run = evaluate(
        small_world["config"], small_world["corpus"], predictions,
        experts=small_world["experts"], rc_evaluators=small_world["rc"],
        repair_judge=make_repair_judge({broken: fixed}),
    )
    counts = run.report["counts"]
    assert counts["repaired"] == 1
    assert counts["valid_direct"] == 5
    assert counts["dropped_format"] == 0
    assert run.report["summary"]["mec.lower"] == 1.0


def test_evaluate_drops_unrepairable_and_can_floor_rc(small_world, tmp_path):
    samples = small_world["samples"]
    records = [echo_prediction(s) for s in samples]
    records[0] = PredictionRecord(sample_id="s01", raw_output="@@@@")
    predictions = write_predictions(tmp_path / "p3.jsonl", records)
    run = evaluate(
        small_world["config"], small_world["corpus"], predictions,
        experts=small_world["experts"], rc_evaluators=small_world["rc"],
    )
    counts = run.report["counts"]
    assert counts["dropped_format"] == 1
    assert counts["ec_samples"] == 5
    assert counts["rc_floored"] == 0
    assert run.report["metrics"]["rc"]["exp"]["scored"] == 5
    assert run.report["summary"]["rc.exp"] == 5.0

    floored_config = fast_config(
        cache_dir=str(tmp_path / "cache2"), rc_floor_unrepairable=True)
    floored = evaluate(
        floored_config, small_world["corpus"], predictions,
        experts=small_world["experts"], rc_evaluators=small_world["rc"],
    )
    assert floored.report["counts"]["rc_floored"] == 1
    assert floored.report["metrics"]["rc"]["exp"]["scored"] == 6
    expected = (5 * 5.0 + 1.0) / 6
    assert floored.report["summary"]["rc.exp"] == pytest.approx(expected)


def _rc_records(rc_by_id, unrepairable=0):
    """Records that carry only role-consistency scores, plus dropped ones."""
    records = {sid: {"status": VALID_DIRECT, "labels": None, "entropy": None,
                     "rc": rc} for sid, rc in rc_by_id.items()}
    records.update({f"u{i}": {"status": UNREPAIRABLE, "labels": None,
                              "entropy": None, "rc": None}
                    for i in range(unrepairable)})
    return records


def test_assemble_rc_averages_evaluators():
    samples = [make_sample("s1")]
    records = _rc_records({"s1": {m: {"alpha": 5, "beta": 2} for m in RC_METRICS}})
    report = assemble(fast_config(), samples, records, ["alpha", "beta"])
    assert report["metrics"]["rc"]["exp"] == {
        "score": 3.5, "per_evaluator": {"alpha": 5.0, "beta": 2.0},
        "scored": 1, "dropped": 0}


def test_assemble_rc_drops_abstaining_and_unusable(small_world):
    # alpha quotes no evidence (abstains), beta's replies are unusable
    def replying(name, text):
        backend = MockBackend(name, handler=lambda prompt, sampling: text)
        return JudgeClient(backend)

    evaluators = [replying("alpha", '{"agree_evidence": [], "disagree_evidence": []}'),
                  replying("beta", "no verdict")]
    sample = small_world["samples"][0]
    (scores,) = drive([_rc_judge_sample(sample, sample.ground_truth, evaluators,
                                        fast_config())],
                      retry=RetryPolicy(max_attempts=1, base_delay=0.0))
    assert scores == {m: {"alpha": None} for m in RC_METRICS}
    # a sample where only beta scores is kept; one floored sample adds 1.0
    records = _rc_records(
        {"s1": scores, "s2": {m: {"alpha": None, "beta": 2} for m in RC_METRICS}},
        unrepairable=1)
    samples = [make_sample(sid) for sid in records]
    report = assemble(fast_config(rc_floor_unrepairable=True), samples, records,
                      ["alpha", "beta"])
    assert report["metrics"]["rc"]["cha"] == {
        "score": 1.5, "per_evaluator": {"alpha": None, "beta": 2.0},
        "scored": 2, "dropped": 1}


def test_evaluate_drops_a_prediction_nested_too_deep_to_parse(small_world,
                                                              tmp_path):
    samples = small_world["samples"]
    records = [echo_prediction(s) for s in samples]
    deep = "Here: " + '{"a":' * 5000 + "1" + "}" * 5000 + " done."
    records[0] = PredictionRecord(sample_id="s01", raw_output=deep)
    predictions = write_predictions(tmp_path / "deep.jsonl", records)
    run = evaluate(
        small_world["config"], small_world["corpus"], predictions,
        experts=small_world["experts"], rc_evaluators=small_world["rc"],
    )
    assert run.report["counts"]["dropped_format"] == 1
    assert run.report["counts"]["ec_samples"] == 5


def test_evaluate_drops_sample_when_panel_never_answers(small_world, tmp_path):
    samples = list(small_world["samples"])
    samples.append(make_sample("s99", role_id="hero", gt=("worried",),
                               content="mystery。"))
    corpus = write_corpus(tmp_path / "c4.jsonl", samples)
    predictions = write_predictions(
        tmp_path / "p4.jsonl", [echo_prediction(s) for s in samples])

    def guarded(name):
        def handler(prompt, sampling):
            if "mystery" in prompt:
                return "not an answer"
            labels = _labels_from_prompt(prompt)
            return json.dumps(
                {f"emos_{m}": labels for m in ("f", "b", "s", "fusion")})

        return MockBackend(name, handler=handler)

    run = evaluate(
        fast_config(), corpus, predictions,
        experts=[guarded(f"e{i}") for i in range(5)],
        rc_evaluators=small_world["rc"],
    )
    counts = run.report["counts"]
    assert counts["dropped_erc"] == 1
    assert counts["ec_samples"] == 6
    # role consistency does not depend on the emotion panel
    assert run.report["metrics"]["rc"]["exp"]["scored"] == 7
    assert run.report["summary"]["mec.lower"] == 1.0


def test_judge_keeps_one_plain_record_per_sample():
    samples = [make_sample("s1", gt=("happy", "anger")),
               make_sample("s2", gt=("worried",), content="mystery。"),
               make_sample("s3", gt=("relaxed",))]
    predictions = [echo_prediction(samples[0]), echo_prediction(samples[1]),
                   PredictionRecord("s3", "@@@@")]

    def guarded(name):
        def handler(prompt, sampling):
            if "mystery" in prompt:
                return "not an answer"
            labels = _labels_from_prompt(prompt)
            return json.dumps({f"emos_{m}": labels for m in MODALITIES})

        return MockBackend(name, handler=handler)

    config = fast_config()
    experts = [JudgeClient(guarded(f"e{i}")) for i in range(5)]
    critics = [JudgeClient(b) for b in make_rc_evaluators()]
    judged = drive((judge_sample(pred, sample, config, config.taxonomy(),
                                 experts, critics, None)
                    for pred, sample in zip(predictions, samples)), retry=config.retry)
    records = {pred.sample_id: record for pred, record in zip(predictions, judged)}
    assert json.loads(json.dumps(records)) == records
    assert all(list(r) == ["status", "labels", "entropy", "rc"]
               for r in records.values())
    full_marks = {m: {"critic0": 5, "critic1": 5} for m in RC_METRICS}
    assert records["s1"] == {
        "status": VALID_DIRECT,
        "labels": {m: ["happy", "anger"] for m in MODALITIES},
        "entropy": {m: [0.0, 0.0] for m in MODALITIES},
        "rc": full_marks}
    # formatted, but no vote landed: no labels or entropies, RC still scored
    assert records["s2"] == {"status": VALID_DIRECT, "labels": None,
                             "entropy": None, "rc": full_marks}
    assert records["s3"] == {"status": UNREPAIRABLE, "labels": None,
                             "entropy": None, "rc": None}


def test_evaluate_tallies_missing_predictions(small_world, tmp_path):
    records = [echo_prediction(s) for s in small_world["samples"][:4]]
    predictions = write_predictions(tmp_path / "p5.jsonl", records)
    run = evaluate(
        small_world["config"], small_world["corpus"], predictions,
        experts=small_world["experts"], rc_evaluators=small_world["rc"],
    )
    assert run.report["counts"]["missing_predictions"] == 2
    assert run.report["counts"]["ec_samples"] == 4


def test_evaluate_rejects_unknown_prediction_ids(small_world, tmp_path):
    records = [PredictionRecord("ghost", "{}")]
    predictions = write_predictions(tmp_path / "p6.jsonl", records)
    with pytest.raises(CorpusError, match="ghost"):
        evaluate(small_world["config"], small_world["corpus"], predictions,
                 experts=small_world["experts"],
                 rc_evaluators=small_world["rc"])


def test_evaluate_refuses_a_repair_judge_named_like_another(small_world):
    experts = small_world["experts"]
    with pytest.raises(ConfigError, match="unique.*'expert0'"):
        evaluate(small_world["config"], small_world["corpus"],
                 small_world["predictions"], experts=experts,
                 rc_evaluators=small_world["rc"],
                 repair_judge=make_repair_judge({}, name="expert0"))
    assert sum(b.calls for b in experts + small_world["rc"]) == 0


def test_evaluate_raises_when_no_judge_ever_answers(small_world, tmp_path):
    def dead(name):
        def handler(prompt, sampling):
            raise TransportError("cable cut")
        return MockBackend(name, handler=handler)

    with pytest.raises(TransportError, match="unreachable"):
        evaluate(
            fast_config(), small_world["corpus"], small_world["predictions"],
            experts=[dead("e0")], rc_evaluators=[dead("r0")],
        )


def test_evaluate_sample_limit_is_seeded(small_world):
    config = fast_config(sample_limit=3, seed=5)
    run1 = evaluate(config, small_world["corpus"], small_world["predictions"],
                    experts=small_world["experts"],
                    rc_evaluators=small_world["rc"])
    run2 = evaluate(config, small_world["corpus"], small_world["predictions"],
                    experts=small_world["experts"],
                    rc_evaluators=small_world["rc"])
    assert run1.report["counts"]["predictions"] == 3
    assert run1.report == run2.report


# ------------------------------------------------------------- gt stats

def test_gt_statistics(small_world):
    stats = gt_statistics(small_world["config"], small_world["corpus"])
    assert stats["roles"] == ["hero", "witch"]
    assert stats["samples"] == 6
    assert stats["samples_per_role"] == {"hero": 3, "witch": 3}
    assert stats["utterances"] == 9
    assert stats["label_counts"]["anger"] == 2
    assert stats["cd"]["intra"] > 0
    hero = stats["transitions"]["hero"]["intra"]
    assert hero["variant"] == "intra"
    assert sum(sum(row) for row in hero["counts"]) == 2


# ------------------------------------------------------------- rendering

def test_render_report_formats(small_world, tmp_path):
    run = evaluate(
        small_world["config"], small_world["corpus"],
        small_world["predictions"],
        experts=small_world["experts"], rc_evaluators=small_world["rc"],
    )
    as_json = render_report(run.report, "json")
    assert json.loads(as_json) == run.report
    as_md = render_report(run.report, "md")
    assert "| mec.lower | 1.000000 |" in as_md
    assert "Per-class emotion F1" in as_md
    path = write_report_files(run.report, tmp_path / "render", "csv")
    expected = [["key", "value"]] + [
        [key, "" if value is None
         else repr(value) if isinstance(value, float) else str(value)]
        for key, value in flatten_report(run.report).items()]
    with open(path, encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == expected
    with pytest.raises(ConfigError):
        render_report(run.report, "pdf")
    golden = json.loads((Path(__file__).parent / "data" / "golden_report.json")
                        .read_text(encoding="utf-8"))
    for fmt in ("json", "csv", "md"):  # passes the layout check
        render_report(golden, fmt)
    # Nested tallies get one dotted row each, never a Python dict.
    golden_md = render_report(golden, "md")
    tallies = golden_md.split("## Exclusions and tallies")[1].split("## ")[0]
    for row in ("| rc_dropped.cha | 1 |", "| rc_dropped.exp | 0 |",
                "| rc_dropped.rel | 0 |", "| dropped_format | 1 |"):
        assert row in tallies
    assert "{" not in tallies


# ---------------------------------------------------- agreement + table io

def test_agreement_loads_csv_and_json(tmp_path):
    csv_path = tmp_path / "table.csv"
    csv_path.write_text("1,2,,3\n1,2,4,3\n", encoding="utf-8")
    rows = load_agreement_table(csv_path)
    assert rows == [[1.0, 2.0, None, 3.0], [1.0, 2.0, 4.0, 3.0]]
    json_path = tmp_path / "table.json"
    json_path.write_text(json.dumps([["a", "b"], ["a", None]]),
                         encoding="utf-8")
    assert load_agreement_table(json_path) == [["a", "b"], ["a", None]]
    assert agreement("nominal", rows) == 1.0
    with pytest.raises(ConfigError):
        agreement("interval", rows)
    with pytest.raises(CorpusError):
        agreement("nominal", [["a", "b"]])



def _bom_inputs():
    sample = make_sample("s1")
    corpus = json.dumps(sample.to_record(), ensure_ascii=False) + "\n"
    preds = json.dumps(echo_prediction(sample).to_record(), ensure_ascii=False) + "\n"
    return {
        "table.csv": ("3,1,2,2\n3,1,2,2\n", load_agreement_table),
        "table.json": ('[["a", "b"], ["a", null]]', load_agreement_table),
        "corpus.jsonl": (corpus, load_corpus),
        "preds.jsonl": (preds, load_predictions),
        "run.json": ('{"tau": 0.3}', RunConfig.from_file),
    }


@pytest.mark.parametrize("name", list(_bom_inputs()))
def test_a_leading_byte_order_mark_is_ignored(tmp_path, name):
    """Spreadsheet tools write a UTF-8 BOM; every input file reads past it."""
    text, load = _bom_inputs()[name]
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load(marked) == load(plain)
    if name == "table.csv":
        for kind in ("nominal", "ordinal"):
            assert agreement(kind, load(marked)) == agreement(kind, load(plain)) == 1.0


# ------------------------------------------------------------- generation

def test_generate_writes_loadable_predictions(small_world, tmp_path):
    seen = {}

    def handler(prompt, sampling):
        seen["temperature"] = sampling.temperature
        seen["top_p"] = sampling.top_p
        return json.dumps({
            "facial_expression": "grin", "body_movement": "wave",
            "speech_prompt": "light", "content": "hello there.",
        })

    out = tmp_path / "gen.jsonl"
    records = generate(fast_config(), "gen", small_world["corpus"], out,
                       generator=MockBackend("gen", handler=handler))
    assert len(records) == 6
    loaded = load_predictions(out)
    assert {r.sample_id for r in loaded} == {f"s{i:02d}" for i in range(1, 7)}
    # generation uses the creative sampling profile, not the greedy judge one
    assert seen["temperature"] == 0.7
    assert seen["top_p"] == 0.95
    cache = tmp_path / "cache"
    generate(fast_config(cache_dir=str(cache)), "gen", small_world["corpus"],
             out, generator=MockBackend("gen", handler=handler))
    assert [p.name for p in cache.iterdir()] == ["replies.sqlite3"]  # closed
    with pytest.raises(ConfigError, match="no generator backend"):
        generate(fast_config(), "gen", small_world["corpus"], out)
    with pytest.raises(ConfigError, match="cannot build a judge"):
        generate(fast_config(cache_dir=str(cache)), "gen", small_world["corpus"],
                 out, generator=object())
    assert [p.name for p in cache.iterdir()] == ["replies.sqlite3"]  # closed


def test_generate_checks_its_output_before_the_first_request(small_world, tmp_path,
                                                            monkeypatch):
    generator = MockBackend("gen", handler=lambda prompt, sampling: "reply")
    corpus = small_world["corpus"]
    a_file = tmp_path / "a_file"
    a_file.write_text("", encoding="utf-8")
    for out, named in ((a_file / "p.jsonl", a_file),
                       (a_file / "sub" / "p.jsonl", a_file),
                       (tmp_path, tmp_path)):
        with pytest.raises(ConfigError, match=re.escape(str(named))):
            generate(fast_config(), "gen", corpus, out, generator=generator)
    assert generator.calls == 0
    # an existing file is kept as it is until every sample has its reply
    out = tmp_path / "preds.jsonl"
    out.write_text("earlier run\n", encoding="utf-8")
    with pytest.raises(TransportError):
        generate(fast_config(), "gen", corpus, out, generator=MockBackend("gen"))
    assert out.read_text(encoding="utf-8") == "earlier run\n"

    def disk_full(path, records):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(rpeval.pipeline, "save_jsonl", disk_full)
    with pytest.raises(ConfigError, match=re.escape(f"{out}: No space left")):
        generate(fast_config(), "gen", corpus, out, generator=generator)


@pytest.mark.parametrize("reply", ["x\ud800", None])
@pytest.mark.parametrize("cached", [False, True])
def test_a_reply_that_is_not_utf8_text_costs_that_request(small_world, tmp_path,
                                                        reply, cached):
    experts = make_experts()
    experts[0] = MockBackend("expert0", handler=lambda prompt, sampling: reply)
    config = fast_config(cache_dir=str(tmp_path / "cache") if cached else "")
    run = evaluate(config, small_world["corpus"], small_world["predictions"],
                   experts=experts, rc_evaluators=make_rc_evaluators())
    assert run.report["counts"]["ec_samples"] == 6
    failures = {name: stats["transport_failures"]
                for name, stats in run.manifest["judges"].items()}
    # a first prompt and a corrective re-prompt per (sample, pass)
    assert failures.pop("expert0") == 6 * config.passes * 2
    assert set(failures.values()) == {0}


_FSIZE_CLI = """
import resource, signal, sys
from rpeval.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE,
                   (65536, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE")
def test_a_reply_cache_that_fails_mid_run_is_exit_2(tmp_path):
    # Eight replies of 16 KiB take the cache past a 64 KiB file size
    # limit; the child ignores SIGXFSZ, so that write fails with EFBIG.
    samples = [make_sample(f"s{i:02d}", history=i) for i in range(8)]
    corpus = write_corpus(tmp_path / "corpus.jsonl", samples)
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    for sample in rpeval.pipeline.load_corpus(corpus, RunConfig().taxonomy()):
        prompt = rpeval.pipeline._generate_prompt(sample)
        (fixtures / f"{prompt_digest(prompt)}.txt").write_text(
            f"{sample.sample_id} " + "x" * 16384, encoding="utf-8")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "concurrency": 2, "cache_dir": str(tmp_path / "cache"),
        "generators": [{"name": "g", "kind": "mock", "fixture_dir": str(fixtures)}],
    }), encoding="utf-8")
    out = tmp_path / "preds.jsonl"
    out.write_text("earlier run\n", encoding="utf-8")
    src = Path(rpeval.pipeline.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _FSIZE_CLI, "generate", "--config", str(config),
         "--corpus", corpus, "--backend", "g", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert re.search(r"config error: reply cache .*replies\.sqlite3: ", proc.stderr)
    assert "Traceback" not in proc.stderr
    assert out.read_text(encoding="utf-8") == "earlier run\n"


# -------------------------------------------------------------------- cli

def _write_cli_fixtures(fixture_dir, sample, config_labels):
    """Precompute judge replies for every prompt the run will issue."""
    from rpeval.corpus import segment_utterances

    fixture_dir.mkdir(parents=True, exist_ok=True)
    response = sample.ground_truth
    erc_prompt = build_erc_prompt(response.to_json(),
                                  segment_utterances(response.content),
                                  config_labels)
    erc_reply = json.dumps(
        {f"emos_{m}": list(sample.gt_emotions)
         for m in ("f", "b", "s", "fusion")})
    (fixture_dir / f"{prompt_digest(erc_prompt)}.txt").write_text(
        erc_reply, encoding="utf-8")
    history = render_history(sample.history)
    for metric in ("exp", "cha", "rel"):
        materials = _rc_materials(sample, DEFAULT_RC_ROUTING[metric])
        prompt = build_rc_prompt(metric, materials, history,
                                 sample.user_input.content, response.to_json())
        reply = json.dumps({"agree_evidence": [response.content],
                            "disagree_evidence": []}, ensure_ascii=False)
        (fixture_dir / f"{prompt_digest(prompt)}.txt").write_text(
            reply, encoding="utf-8")


def test_cli_evaluate_end_to_end(tmp_path, capsys):
    sample = make_sample("only", gt=("happy", "worried"))
    corpus = write_corpus(tmp_path / "c.jsonl", [sample])
    predictions = write_predictions(
        tmp_path / "p.jsonl", [echo_prediction(sample)])
    fixtures = tmp_path / "fixtures"
    labels = RunConfig().labels
    _write_cli_fixtures(fixtures, sample, labels)
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({
        "concurrency": 1,
        "cache_dir": str(tmp_path / "cache"),
        "retry": {"max_attempts": 1, "base_delay": 0.0},
        "experts": [{"name": f"e{i}", "kind": "mock",
                     "fixture_dir": str(fixtures)} for i in range(5)],
        "rc_evaluators": [{"name": f"r{i}", "kind": "mock",
                           "fixture_dir": str(fixtures)} for i in range(2)],
    }), encoding="utf-8")
    code = main(["evaluate", "--config", str(config_path),
                 "--corpus", corpus, "--predictions", predictions,
                 "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text("utf-8"))
    assert report["summary"]["mec.lower"] == 1.0
    assert report["summary"]["rc.cha"] == 5.0
    assert (tmp_path / "out" / "manifest.json").exists()
    shown = capsys.readouterr().out
    assert "mec.lower\t1.000000" in shown

    # converting the finished report
    code = main(["report", "--report", str(tmp_path / "out" / "report.json"),
                 "--format", "md", "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "report.md").exists()


def test_cli_gt_stats_and_agreement(tmp_path, capsys):
    sample = make_sample("only", gt=("happy", "worried"))
    corpus = write_corpus(tmp_path / "c.jsonl", [sample])
    config_path = tmp_path / "run.json"
    config_path.write_text("{}", encoding="utf-8")
    assert main(["gt-stats", "--config", str(config_path),
                 "--corpus", corpus]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["roles"] == ["hero"]

    table = tmp_path / "t.csv"
    table.write_text("1,2,3\n1,2,3\n", encoding="utf-8")
    assert main(["agreement", "--kind", "ordinal", "--table", str(table)]) == 0
    assert "alpha\t1.0" in capsys.readouterr().out


def test_cli_agreement_on_a_csv_of_label_strings(tmp_path, capsys):
    rows = [["happy", "sad", None, "anger", "happy"],
            ["happy", "sad", "calm", "anger", "sad"],
            ["happy", None, "calm", "sad", "happy"]]
    csv_path, json_path = tmp_path / "labels.csv", tmp_path / "labels.json"
    csv_path.write_text("".join(",".join(cell or "" for cell in row) + "\n"
                                for row in rows), encoding="utf-8")
    json_path.write_text(json.dumps(rows), encoding="utf-8")
    assert load_agreement_table(csv_path) == rows  # no cell parses as a number
    printed = []
    for table in (csv_path, json_path):
        assert main(["agreement", "--kind", "nominal", "--table", str(table)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed == [f"alpha\t{alpha_pairwise(rows):.9f}\n"] * 2


def test_cli_agreement_on_a_csv_mixing_numbers_and_labels(tmp_path, capsys):
    # Numbers and label strings do not sort together: nominal categories
    # fall back to sorting by repr, and ordinal data is refused.
    csv_path = tmp_path / "mixed.csv"
    csv_path.write_text("1,a,2,,b\n1,a,b,3,b\n2,a,2,3,\n", encoding="utf-8")
    rows = load_agreement_table(csv_path)
    assert rows == [[1.0, "a", 2.0, None, "b"], [1.0, "a", "b", 3.0, "b"],
                    [2.0, "a", 2.0, 3.0, None]]
    assert main(["agreement", "--kind", "nominal", "--table", str(csv_path)]) == 0
    assert capsys.readouterr().out == f"alpha\t{alpha_pairwise(rows):.9f}\n"
    assert main(["agreement", "--kind", "ordinal", "--table", str(csv_path)]) == 3
    assert "mutually orderable" in capsys.readouterr().err


def test_cli_agreement_refuses_a_table_that_is_not_rows(tmp_path, capsys):
    not_rows = "expected a list of rater rows"
    tables = {"object.json": ('{"rows": [[1, 2], [1, 2]]}', not_rows),
              "flat.json": ("[1, 2]", not_rows),
              "empty.csv": ("", "table is empty")}
    for name, (text, error) in tables.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        assert main(["agreement", "--kind", "nominal",
                     "--table", str(tmp_path / name)]) == 3
        assert error in capsys.readouterr().err


def test_cli_generate_writes_predictions_in_corpus_order(tmp_path, capsys,
                                                          judge_server):
    ids = ["s03", "s01", "s06", "s02", "s05", "s04"]
    corpus = write_corpus(tmp_path / "c.jsonl", [make_sample(i) for i in ids])
    judge_server.answer = lambda request: (200, {"choices": [{"message": {
        "content": "reply to " + request["messages"][-1]["content"][-40:]}}]})
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"generators": [
        {"name": "g", "kind": "http", "model": "m", "endpoint": judge_server.url}]}),
        encoding="utf-8")
    out = tmp_path / "predictions.jsonl"
    assert main(["generate", "--config", str(config), "--corpus", corpus,
                 "--backend", "g", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 6 predictions to {out}\n"
    assert [p.sample_id for p in load_predictions(out)] == ids
    sent = [seen["json"] for seen in judge_server.seen]
    assert len(sent) == 6
    assert {(r["temperature"], r["top_p"]) for r in sent} == {(0.7, 0.95)}


def test_cli_corpus_parts_that_are_not_objects_are_data_errors(tmp_path):
    config = tmp_path / "run.json"
    config.write_text("{}", encoding="utf-8")
    good = make_sample("a", history=1).to_record()
    for i, (key, value) in enumerate([
            ("role", 5), ("history", 5), ("history", [5]),
            ("history", [{"user": {"content": "hi"}, "agent": 5}]),
            ("user_input", "content"), ("ground_truth", "face body speech content")]):
        path = tmp_path / f"c{i}.jsonl"
        path.write_text(json.dumps({**good, key: value}) + "\n", encoding="utf-8")
        assert main(["gt-stats", "--config", str(config),
                     "--corpus", str(path)]) == 3, (key, value)
    path = tmp_path / "list.jsonl"
    path.write_text(json.dumps(good) + "\n[1]\n", encoding="utf-8")
    assert main(["gt-stats", "--config", str(config), "--corpus", str(path)]) == 3


def test_cli_exit_codes(tmp_path, capsys, judge_server):
    # 2: broken config
    bad_config = tmp_path / "bad.json"
    bad_config.write_text('{"typo_key": 1}', encoding="utf-8")
    corpus = write_corpus(tmp_path / "c.jsonl", [make_sample("a")])
    predictions = write_predictions(
        tmp_path / "p.jsonl",
        [echo_prediction(make_sample("a"))])
    assert main(["evaluate", "--config", str(bad_config), "--corpus", corpus,
                 "--predictions", predictions,
                 "--out", str(tmp_path / "o1")]) == 2
    # 2: a value of the wrong type, which used to fail only at client build
    mistyped = tmp_path / "mistyped.json"
    mistyped.write_text(json.dumps({
        "experts": [{"name": "e", "kind": "http", "model": "m",
                     "endpoint": "http://127.0.0.1:9/v1", "rate_limit": "fast"}],
        "rc_evaluators": [{"name": "r", "kind": "mock"}],
    }), encoding="utf-8")
    assert main(["evaluate", "--config", str(mistyped), "--corpus", corpus,
                 "--predictions", predictions,
                 "--out", str(tmp_path / "o1")]) == 2
    # 2: a negative retry delay, refused before the first retry sleeps
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps({
        "retry": {"base_delay": -1},
        "experts": [{"name": "e", "kind": "mock"}],
        "rc_evaluators": [{"name": "r", "kind": "mock"}],
    }), encoding="utf-8")
    assert main(["evaluate", "--config", str(negative), "--corpus", corpus,
                 "--predictions", predictions,
                 "--out", str(tmp_path / "o1")]) == 2
    # 2: an infinite timeout, which used to overflow the socket mid-run
    infinite = tmp_path / "infinite.json"
    infinite.write_text(
        '{"experts": [{"name": "e", "kind": "http", "model": "m", '
        '"endpoint": "http://127.0.0.1:9/v1", "timeout": Infinity}], '
        '"rc_evaluators": [{"name": "r", "kind": "mock"}]}', encoding="utf-8")
    assert main(["evaluate", "--config", str(infinite), "--corpus", corpus,
                 "--predictions", predictions,
                 "--out", str(tmp_path / "o1")]) == 2
    # 2: an http backend that cannot be set up, named, before any request
    # (the expert answers on the loopback judge)
    expert = {"name": "e", "kind": "http", "model": "m", "endpoint": judge_server.url}
    for refused in ({"endpoint": judge_server.url}, {"model": "m"},
                    {"endpoint": "ftp://127.0.0.1/v1", "model": "m"},
                    {"endpoint": "http://127.0.0.1:abc/v1", "model": "m"},
                    {"endpoint": "http://127.0.0.1:99999/v1", "model": "m"},
                    {"endpoint": "http://[::1/v1", "model": "m"}):
        unusable = tmp_path / "unusable.json"
        unusable.write_text(json.dumps({
            "experts": [expert],
            "rc_evaluators": [{"name": "refused", "kind": "http", **refused}],
        }), encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(unusable), "--corpus", corpus,
                     "--predictions", predictions,
                     "--out", str(tmp_path / "o1")]) == 2
        assert "config error: backend 'refused'" in capsys.readouterr().err
    assert judge_server.seen == []
    # 2: a config file that is not UTF-8
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"delimiters": "é"}'.encode("latin-1"))
    assert main(["gt-stats", "--config", str(latin1), "--corpus", corpus]) == 2
    # 2: a config nested too deep to parse, which used to end in a traceback
    deep = '{"a":' * 100_000 + "1" + "}" * 100_000
    deep_config = tmp_path / "deep.json"
    deep_config.write_text(deep, encoding="utf-8")
    assert main(["gt-stats", "--config", str(deep_config), "--corpus", corpus]) == 2
    # 2: a config string holding an unpaired surrogate escape
    lone_config = tmp_path / "lone.json"
    lone_config.write_text('{"delimiters": "\\ud800"}', encoding="utf-8")
    assert main(["gt-stats", "--config", str(lone_config), "--corpus", corpus]) == 2

    # 3: corrupt corpus
    ok_config = tmp_path / "ok.json"
    ok_config.write_text("{}", encoding="utf-8")
    broken_corpus = tmp_path / "broken.jsonl"
    broken_corpus.write_text("{oops\n", encoding="utf-8")
    assert main(["gt-stats", "--config", str(ok_config),
                 "--corpus", str(broken_corpus)]) == 3
    # 3: missing or non-UTF-8 input files, which used to end in a traceback
    missing = str(tmp_path / "missing.jsonl")
    not_utf8 = tmp_path / "latin1.jsonl"
    with open(corpus, "rb") as fh:
        not_utf8.write_bytes(fh.read() + b'{"sample_id": "\xff"}\n')
    for bad_corpus in (missing, str(not_utf8)):
        assert main(["gt-stats", "--config", str(ok_config),
                     "--corpus", bad_corpus]) == 3
        assert main(["evaluate", "--config", str(ok_config),
                     "--corpus", bad_corpus, "--predictions", predictions,
                     "--out", str(tmp_path / "o3")]) == 3
    assert main(["evaluate", "--config", str(ok_config), "--corpus", corpus,
                 "--predictions", missing, "--out", str(tmp_path / "o3")]) == 3
    # 3: a corpus or predictions line nested too deep to parse
    deep_lines = tmp_path / "deep.jsonl"
    deep_lines.write_text(deep + "\n", encoding="utf-8")
    assert main(["gt-stats", "--config", str(ok_config),
                 "--corpus", str(deep_lines)]) == 3
    assert main(["evaluate", "--config", str(ok_config), "--corpus", corpus,
                 "--predictions", str(deep_lines),
                 "--out", str(tmp_path / "o3")]) == 3
    # 3: a corpus or predictions line holding an unpaired surrogate escape,
    # which used to abort a cached run or gt-stats with a traceback; it is
    # refused at load, naming the line, before any judge request
    cached = tmp_path / "cached.json"
    cached.write_text(json.dumps({
        "cache_dir": str(tmp_path / "surrogate_cache"),
        "experts": [{"name": "e", "kind": "http", "model": "m",
                     "endpoint": judge_server.url}],
        "rc_evaluators": [{"name": "r", "kind": "http", "model": "m",
                           "endpoint": judge_server.url}],
    }), encoding="utf-8")
    lone_preds = tmp_path / "lone_preds.jsonl"
    lone_preds.write_text(json.dumps(
        {"sample_id": "a", "raw_output": "half \ud800 a pair"}) + "\n",
        encoding="utf-8")
    lone_corpus = tmp_path / "lone_corpus.jsonl"
    record = make_sample("a").to_record()
    record["role"]["role_id"] = "hero\udc00"
    lone_corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cached), "--corpus", corpus,
                 "--predictions", str(lone_preds),
                 "--out", str(tmp_path / "o3")]) == 3
    assert f"{lone_preds}:1: invalid JSON" in capsys.readouterr().err
    assert main(["evaluate", "--config", str(cached), "--corpus", str(lone_corpus),
                 "--predictions", predictions,
                 "--out", str(tmp_path / "o3")]) == 3
    assert f"{lone_corpus}:1: invalid JSON" in capsys.readouterr().err
    assert main(["gt-stats", "--config", str(ok_config),
                 "--corpus", str(lone_corpus)]) == 3
    assert judge_server.seen == []
    latin1_table = tmp_path / "table.csv"
    latin1_table.write_bytes("a,b\né,b\n".encode("latin-1"))
    deep_table = tmp_path / "deep_table.json"
    deep_table.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    # 3: JSON table cells that are not numbers, strings or null; a bool
    # used to be read as the rating 1, an object to end in a traceback
    cell_tables = []
    for i, table in enumerate([[[{"a": 1}, {"a": 1}], [{"a": 1}, {"a": 1}]],
                               [[[1], [1]], [[1], [1]]],
                               [[True, 1], [1, 1]]]):
        cell_tables.append(tmp_path / f"cells{i}.json")
        cell_tables[-1].write_text(json.dumps(table), encoding="utf-8")
    for table in (tmp_path / "missing.csv", tmp_path / "missing.json",
                  latin1_table, deep_table, *cell_tables):
        assert main(["agreement", "--kind", "nominal",
                     "--table", str(table)]) == 3
    # 3: a report that is not a JSON object, not UTF-8, nested too deep to
    # parse, or not of the layout it is rendered from; nothing is written
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]", encoding="utf-8")
    latin1_report = tmp_path / "latin1_report.json"
    latin1_report.write_bytes('{"summary": "é"}'.encode("latin-1"))
    deep_report = tmp_path / "deep_report.json"
    deep_report.write_text(deep, encoding="utf-8")
    reports = [not_object, latin1_report, deep_report]
    for i, layout in enumerate([
            {"summary": [1]},
            {"summary": {"mec.lower": "x"}},
            {"summary": {"rc.exp": True}},
            {"counts": [1]},
            {"per_class": {"lower": {"happy": 3}}},
            {"per_class": {"lower": {"happy": {"n": 1, "precision": 1.0,
                                               "recall": None, "f1": 1.0}}}},
            {"per_class": [1]},
            {},  # lacks every section
            {"tool": {"name": "rpeval", "version": "0"}, "judges": {},
             "counts": {"predictions": 1}}]):  # a manifest
        reports.append(tmp_path / f"layout{i}.json")
        reports[-1].write_text(json.dumps(layout), encoding="utf-8")
    for report in reports:
        for fmt in ("md", "json", "csv"):
            assert main(["report", "--report", str(report), "--format", fmt,
                         "--out", str(tmp_path / "r")]) == 3
    assert not (tmp_path / "r").exists()

    # 4: judges configured but never reachable
    dead_config = tmp_path / "dead.json"
    dead_config.write_text(json.dumps({
        "retry": {"max_attempts": 1, "base_delay": 0.0},
        "experts": [{"name": "e", "kind": "mock"}],
        "rc_evaluators": [{"name": "r", "kind": "mock"}],
    }), encoding="utf-8")
    assert main(["evaluate", "--config", str(dead_config), "--corpus", corpus,
                 "--predictions", predictions,
                 "--out", str(tmp_path / "o2")]) == 4
    # 2: an output directory that cannot be made or written into, refused
    # before any judge request (the dead judges above would give 4)
    a_file = tmp_path / "a_file"
    a_file.write_text("", encoding="utf-8")
    blocked = tmp_path / "blocked"
    (blocked / "report.json").mkdir(parents=True)
    ok_report = Path(__file__).parent / "data" / "golden_report.json"
    for out in (a_file, a_file / "sub"):
        assert main(["evaluate", "--config", str(dead_config), "--corpus", corpus,
                     "--predictions", predictions, "--out", str(out)]) == 2
        assert main(["gt-stats", "--config", str(ok_config), "--corpus", corpus,
                     "--out", str(out)]) == 2
        assert main(["report", "--report", str(ok_report), "--format", "md",
                     "--out", str(out)]) == 2
    experts, critics = make_experts(), make_rc_evaluators()
    with pytest.raises(ConfigError, match="a_file"):
        evaluate(fast_config(), corpus, predictions, out_dir=a_file,
                 experts=experts, rc_evaluators=critics)
    assert sum(b.calls for b in experts + critics) == 0
    # a file that cannot be written into the directory is a config error too
    with pytest.raises(ConfigError, match="report.json"):
        evaluate(fast_config(), corpus, predictions, out_dir=blocked,
                 experts=experts, rc_evaluators=critics)
    (blocked / "gt_stats.json").mkdir()
    (blocked / "report.md").mkdir()
    assert main(["gt-stats", "--config", str(ok_config), "--corpus", corpus,
                 "--out", str(blocked)]) == 2
    assert main(["report", "--report", str(ok_report), "--format", "md",
                 "--out", str(blocked)]) == 2
    # 2: a reply cache file that is not a database, before any judge runs
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / "replies.sqlite3").write_bytes(b"not a database " * 100)
    dead_config.write_text(json.dumps({
        **json.loads(dead_config.read_text(encoding="utf-8")),
        "cache_dir": str(tmp_path / "cache")}), encoding="utf-8")
    assert main(["evaluate", "--config", str(dead_config), "--corpus", corpus,
                 "--predictions", predictions,
                 "--out", str(tmp_path / "o2")]) == 2
    # 2: a cache_dir that is a regular file, which used to end in a
    # traceback; no judge or generator request is made
    dead_config.write_text(json.dumps({
        **json.loads(dead_config.read_text(encoding="utf-8")),
        "cache_dir": str(a_file),
        "generators": [{"name": "g", "kind": "mock"}]}), encoding="utf-8")
    assert main(["evaluate", "--config", str(dead_config), "--corpus", corpus,
                 "--predictions", predictions,
                 "--out", str(tmp_path / "o2")]) == 2
    assert main(["generate", "--config", str(dead_config), "--corpus", corpus,
                 "--backend", "g", "--out", str(tmp_path / "g.jsonl")]) == 2
    experts, critics = make_experts(), make_rc_evaluators()
    with pytest.raises(ConfigError, match=re.escape(str(a_file))):
        evaluate(fast_config(cache_dir=str(a_file)), corpus, predictions,
                 experts=experts, rc_evaluators=critics)
    generator = MockBackend("g", handler=lambda prompt, sampling: "reply")
    with pytest.raises(ConfigError, match=re.escape(str(a_file))):
        generate(fast_config(cache_dir=str(a_file)), "g", corpus,
                 tmp_path / "g.jsonl", generator=generator)
    assert sum(b.calls for b in experts + critics + [generator]) == 0
    # 2: a generate --out that is a directory or under a file, before any
    # generator request (the dead generator would give 4)
    dead_config.write_text(json.dumps({
        **json.loads(dead_config.read_text(encoding="utf-8")),
        "cache_dir": ""}), encoding="utf-8")
    for out in (tmp_path, a_file / "g.jsonl"):
        assert main(["generate", "--config", str(dead_config), "--corpus", corpus,
                     "--backend", "g", "--out", str(out)]) == 2
    assert main(["generate", "--config", str(dead_config), "--corpus", corpus,
                 "--backend", "g", "--out", str(tmp_path / "g.jsonl")]) == 4
    assert not (tmp_path / "g.jsonl").exists()
