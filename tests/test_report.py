"""The layout of ``report.json``: byte-for-byte golden runs and the null shapes.

``tests/data/golden_report.json`` is the report of ``_golden_run`` as
written by ``evaluate``; ``golden_report_rows.json`` is the same run with
``divergence_mode: "rows"``; ``golden_gt_stats.json`` is what
``rpeval gt-stats`` writes for ``_golden_corpus`` under the default
config.  Regenerate one only when a change is meant to alter that
output, by copying the file the run writes into that path, and say why
in the change log.
"""

import json
import random
import zlib
from pathlib import Path

import pytest
from conftest import (
    _labels_from_prompt,
    _response_content,
    echo_prediction,
    fast_config,
    make_experts,
    make_rc_evaluators,
    make_repair_judge,
    make_sample,
    write_corpus,
    write_predictions,
)

import rpeval.pipeline
from rpeval.cli import main
from rpeval.corpus import (
    DEFAULT_EMOTION_LABELS,
    PredictionRecord,
    default_taxonomy,
    load_corpus,
)
from rpeval.judges import MockBackend
from rpeval.pipeline import SUMMARY_KEYS, assemble, evaluate, render_report

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_report.json"

_ALTERNATES = ("astonished", "fear", "relaxed", "worried", "anger")


def _swayed_expert(index: int) -> MockBackend:
    """Echo expert that reads some cells differently, by its index.

    Four of five experts read odd face cells as another label and hear
    sadness as depress; three of five read the first body cell as
    neutral, which leaves that cell short of the vote threshold.  A
    response containing "mystery" gets no usable reply at all.
    """

    def handler(prompt, sampling):
        if "mystery" in prompt:
            return "not an answer"
        labels = _labels_from_prompt(prompt)
        face = [_ALTERNATES[j % 5] if j % 2 and index < 4 else lab
                for j, lab in enumerate(labels)]
        body = ["neutral" if j == 0 and index >= 2 else lab
                for j, lab in enumerate(labels)]
        fusion = ["depress" if lab == "sadness" and index < 4 else
                  "worried" if j == 0 and index == 4 else lab
                  for j, lab in enumerate(labels)]
        return json.dumps({"emos_f": face, "emos_b": body, "emos_s": labels,
                           "emos_fusion": fusion})

    return MockBackend(f"expert{index}", handler=handler)


def _mixed_evaluator(name: str) -> MockBackend:
    """Evaluator whose evidence mix is picked by a checksum of the prompt.

    Agreeing spans quote the response, disagreeing ones the user input,
    so both survive the verbatim check.  Some prompts get an abstention
    and some an unusable reply, which the corrective re-prompt may fix.
    """
    mixes = [(1, 0), (0, 1), (2, 1), (1, 1), (1, 2), (0, 0), None]

    def handler(prompt, sampling):
        mix = mixes[zlib.crc32((name + prompt).encode("utf-8")) % len(mixes)]
        if mix is None:
            return "I cannot decide."
        content = _response_content(prompt)
        agree = [content, "voice"][:mix[0]] if content else []
        disagree = ["How are you", "feeling now"][:mix[1]]
        return json.dumps({"agree_evidence": agree,
                           "disagree_evidence": disagree}, ensure_ascii=False)

    return MockBackend(name, handler=handler)


def _golden_corpus(tmp_path):
    """Three roles over two dialogues: the samples and the corpus path."""
    samples = [
        make_sample("s01", "hero", ("happy", "grateful", "relaxed"), "d1"),
        make_sample("s02", "witch", ("anger", "disgust"), "d1"),
        make_sample("s03", "hero", ("worried", "sadness", "happy"), "d1"),
        make_sample("s04", "witch", ("anger", "neutral", "fear"), "d1"),
        make_sample("s05", "hero", ("relaxed", "grateful"), "d1"),
        make_sample("s06", "bard", ("happy", "astonished"), "d2"),
        make_sample("s07", "witch", ("depress", "sadness", "anger"), "d2"),
        make_sample("s08", "bard", ("worried",), "d2", content="mystery。"),
        make_sample("s09", "witch", ("disgust", "fear"), "d2"),
        make_sample("s10", "bard", ("grateful", "happy"), "d2"),
        make_sample("s11", "bard", ("neutral", "relaxed", "happy"), "d2"),
    ]
    return samples, write_corpus(tmp_path / "corpus.jsonl", samples)


def _golden_run(tmp_path, concurrency=2, **overrides):
    """``_golden_corpus`` judged, with every kind of exclusion.

    s02 is repaired, s05 is unrepairable, the panel never answers s08
    ("mystery"), and s10 has no prediction.
    """
    samples, corpus = _golden_corpus(tmp_path)
    broken = "face: scowl / body: arms crossed / says anger and disgust"
    records = [echo_prediction(s) for s in samples if s.sample_id != "s10"]
    records[1] = PredictionRecord("s02", broken)
    records[4] = PredictionRecord("s05", "@@@@")
    predictions = write_predictions(tmp_path / "preds.jsonl", records)
    return evaluate(
        fast_config(concurrency=concurrency, **overrides), corpus, predictions,
        out_dir=tmp_path / "out",
        experts=[_swayed_expert(i) for i in range(5)],
        rc_evaluators=[_mixed_evaluator("critic0"), _mixed_evaluator("critic1")],
        repair_judge=make_repair_judge(
            {broken: samples[1].ground_truth.to_json()}),
    )


# Concurrency 1 runs every sample on the calling thread; 2 and 4 on the pool.
@pytest.mark.parametrize("concurrency", [1, 2, 4])
def test_report_matches_the_golden_file(tmp_path, concurrency):
    run = _golden_run(tmp_path, concurrency)
    written = (tmp_path / "out" / "report.json").read_bytes()
    assert written == GOLDEN.read_bytes()
    counts = run.report["counts"]
    assert (counts["repaired"], counts["dropped_format"], counts["dropped_erc"],
            counts["missing_predictions"]) == (1, 1, 1, 1)
    # some sample got no RC score from either evaluator on some metric
    assert sum(counts["rc_dropped"].values()) > 0


def test_rows_mode_report_matches_the_golden_file(tmp_path):
    _golden_run(tmp_path, divergence_mode="rows")
    written = (tmp_path / "out" / "report.json").read_bytes()
    assert written == (DATA / "golden_report_rows.json").read_bytes()


@pytest.mark.parametrize("mode, golden", [("flatten", "golden_report.json"),
                                          ("rows", "golden_report_rows.json")])
def test_saved_records_reassemble_to_the_golden_file(tmp_path, monkeypatch,
                                                     mode, golden):
    seen = []

    def spy(config, samples, records, evaluators):
        seen.append((config, records, evaluators))
        return assemble(config, samples, records, evaluators)

    monkeypatch.setattr(rpeval.pipeline, "assemble", spy)
    _golden_run(tmp_path, divergence_mode=mode)
    [(config, records, evaluators)] = seen
    # the records written to a log in shuffled order and read back
    lines = [json.dumps({"sample_id": sid, "record": record})
             for sid, record in records.items()]
    random.Random(7).shuffle(lines)
    log = tmp_path / "records.jsonl"
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    read_back = {}
    for line in log.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        read_back[entry["sample_id"]] = entry["record"]
    assert list(read_back) != sorted(read_back)
    assert read_back == records
    samples = load_corpus(tmp_path / "corpus.jsonl", config.taxonomy(),
                          config.delimiters)
    report = assemble(config, samples, read_back, evaluators)
    assert render_report(report, "json").encode("utf-8") == (DATA / golden).read_bytes()


def test_gt_stats_matches_the_golden_file(tmp_path, capsys):
    _, corpus = _golden_corpus(tmp_path)
    config = tmp_path / "run.json"
    config.write_text("{}", encoding="utf-8")
    assert main(["gt-stats", "--config", str(config), "--corpus", corpus,
                 "--out", str(tmp_path / "out")]) == 0
    written = (tmp_path / "out" / "gt_stats.json").read_bytes()
    assert written == (DATA / "golden_gt_stats.json").read_bytes()
    # Without --out the same bytes go to stdout.
    capsys.readouterr()
    assert main(["gt-stats", "--config", str(config), "--corpus", corpus]) == 0
    assert capsys.readouterr().out.encode("utf-8") == written


def _null_ec_metrics():
    return {
        "mec": {"lower": None, "upper": None},
        "cec": {"lower": None, "upper": None},
        "edd": {"intra": None, "inter": None},
        "rcd": {"intra": {"value": None, "cd_gt": None, "cd_rpa": None},
                "inter": {"value": None, "cd_gt": None, "cd_rpa": None}},
        "ed": {"all": None, "spe": None, "fac": None, "bod": None},
    }


def test_report_null_shape_when_every_prediction_is_unrepairable(small_world,
                                                                  tmp_path):
    records = [PredictionRecord(s.sample_id, "@@@@") for s in small_world["samples"]]
    predictions = write_predictions(tmp_path / "junk.jsonl", records)
    for floor, rc_value, scored in ((False, None, 0), (True, 1.0, 6)):
        run = evaluate(
            fast_config(rc_floor_unrepairable=floor), small_world["corpus"],
            predictions, experts=make_experts(), rc_evaluators=make_rc_evaluators(),
            repair_judge=make_repair_judge({}),
        )
        rc_entry = {"score": rc_value,
                    "per_evaluator": {"critic0": None, "critic1": None},
                    "scored": scored, "dropped": 0}
        assert run.report["metrics"] == {
            **_null_ec_metrics(),
            "rc": {"exp": rc_entry, "cha": rc_entry, "rel": rc_entry},
        }
        assert run.report["summary"] == {
            key: (rc_value if key.startswith("rc.") else None)
            for key in SUMMARY_KEYS}
        assert list(run.report["summary"]) == list(SUMMARY_KEYS)
        assert run.report["per_class"] == {"lower": {}, "upper": {}}
        assert run.report["counts"]["dropped_format"] == 6
        assert run.report["counts"]["rc_floored"] == (6 if floor else 0)
        for fmt in ("json", "csv", "md"):  # passes the layout check
            render_report(run.report, fmt)


def _perfect_per_class(gold_sets, classes):
    """Per-class stats of a run whose predictions equal the gold sets."""
    out = {}
    for x in classes:
        n = sum(1 for labels in gold_sets if x in labels)
        score = 1.0 if n else 0.0
        out[x] = {"n": n, "tp": n, "fp": 0, "fn": 0, "tn": len(gold_sets) - n,
                  "precision": score, "recall": score, "f1": score}
    return out


def test_report_one_role_corpus_has_null_distinctiveness(tmp_path):
    gold = [("happy", "grateful"), ("relaxed", "happy"), ("worried", "sadness")]
    samples = [make_sample(f"s{i}", "hero", gt, "d1") for i, gt in enumerate(gold)]
    corpus = write_corpus(tmp_path / "corpus.jsonl", samples)
    predictions = write_predictions(
        tmp_path / "preds.jsonl", [echo_prediction(s) for s in samples])
    run = evaluate(fast_config(), corpus, predictions, experts=make_experts(),
                   rc_evaluators=make_rc_evaluators())
    rc_entry = {"score": 5.0, "per_evaluator": {"critic0": 5.0, "critic1": 5.0},
                "scored": 3, "dropped": 0}
    null_rcd = {"value": None, "cd_gt": None, "cd_rpa": None}
    assert run.report["metrics"] == {
        "mec": {"lower": 1.0, "upper": 1.0},
        "cec": {"lower": 1.0, "upper": 1.0},
        "edd": {"intra": 0.0, "inter": 0.0},
        "rcd": {"intra": null_rcd, "inter": null_rcd},
        "ed": {"all": 0.0, "spe": 0.0, "fac": 0.0, "bod": 0.0},
        "rc": {"exp": rc_entry, "cha": rc_entry, "rel": rc_entry},
    }
    assert run.report["summary"] == {
        "mec.lower": 1.0, "mec.upper": 1.0, "cec.lower": 1.0, "cec.upper": 1.0,
        "edd.intra": 0.0, "edd.inter": 0.0, "rcd.intra": None, "rcd.inter": None,
        "ed.all": 0.0, "ed.spe": 0.0, "ed.fac": 0.0, "ed.bod": 0.0,
        "rc.exp": 5.0, "rc.cha": 5.0, "rc.rel": 5.0,
    }
    taxonomy = default_taxonomy()
    assert run.report["per_class"] == {
        "lower": _perfect_per_class([set(g) for g in gold], DEFAULT_EMOTION_LABELS),
        "upper": _perfect_per_class(
            [{taxonomy.tendency_of(lab) for lab in g} for g in gold],
            taxonomy.tendencies()),
    }
    for fmt in ("json", "csv", "md"):  # passes the layout check
        render_report(run.report, fmt)
