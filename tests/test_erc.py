"""Emotion-recognition panel: reply parsing, panel runs, threshold voting."""

import json

import pytest

from conftest import label_echo_expert, make_experts, make_response

from rpeval.corpus import AMBIGUOUS, default_taxonomy, segment_utterances
from rpeval.erc import (
    MODALITIES,
    ErcResult,
    aggregate,
    parse_erc_reply,
    run_panel,
    select_label,
)
from rpeval.judges import JudgeClient, MockBackend, RetryPolicy, TransportError

TAX = default_taxonomy()


def _reply(labels):
    return json.dumps({f"emos_{m}": list(labels) for m in MODALITIES})


def _client(backend):
    return JudgeClient(backend, policy=RetryPolicy(max_attempts=1, base_delay=0.0))


def _result(expert_id, labels, pass_index=1):
    return ErcResult(expert_id=expert_id, pass_index=pass_index,
                     votes={m: list(labels) for m in MODALITIES})


def test_parse_erc_reply_valid():
    votes = parse_erc_reply(_reply(["happy", "sadness"]), 2, TAX)
    assert votes == {m: ["happy", "sadness"] for m in MODALITIES}


def test_parse_erc_reply_tolerates_prose_and_fences():
    text = "Sure:\n```json\n" + _reply(["anger"]) + "\n```"
    votes = parse_erc_reply(text, 1, TAX)
    assert votes["fusion"] == ["anger"]


def test_parse_erc_reply_per_modality_failures():
    obj = {
        "emos_f": ["happy", "sadness"],
        "emos_b": ["happy"],                # wrong length
        "emos_s": ["happy", "euphoric"],    # unknown label
        "emos_fusion": "happy",             # not a list
    }
    votes = parse_erc_reply(json.dumps(obj), 2, TAX)
    assert votes["f"] == ["happy", "sadness"]
    assert votes["b"] is None
    assert votes["s"] is None
    assert votes["fusion"] is None


def test_parse_erc_reply_unparseable_is_all_none():
    votes = parse_erc_reply("total garbage", 2, TAX)
    assert all(votes[m] is None for m in MODALITIES)
    deep = '{"emos_f":' * 5000 + '["happy"]' + "}" * 5000
    votes = parse_erc_reply(f"Labels: {deep} Done.", 1, TAX)
    assert all(votes[m] is None for m in MODALITIES)


def test_run_panel_full_vote_matrix():
    response = make_response("happy。sadness。")
    utterances = segment_utterances(response.content)
    experts = [_client(b) for b in make_experts(5)]
    results = run_panel(response, utterances, experts, TAX, passes=2)
    assert len(results) == 10
    assert {(r.expert_id, r.pass_index) for r in results} == {
        (f"expert{i}", p) for i in range(5) for p in (1, 2)
    }
    assert all(r.votes[m] == ["happy", "sadness"]
               for r in results for m in MODALITIES)


def test_run_panel_retry_corrects_bad_reply():
    response = make_response("anger。")
    utterances = segment_utterances(response.content)

    def handler(prompt, sampling):
        if "Reminder:" in prompt:
            return _reply(["anger"])
        return "not json"

    results = run_panel(response, utterances,
                        [_client(MockBackend("e", handler=handler))], TAX, passes=1)
    assert results[0].votes["fusion"] == ["anger"]


def test_run_panel_drops_modalities_that_stay_invalid():
    response = make_response("anger。")
    utterances = segment_utterances(response.content)

    def handler(prompt, sampling):
        return json.dumps({
            "emos_f": ["anger"], "emos_b": ["anger"],
            "emos_s": ["anger"], "emos_fusion": ["anger", "anger"],
        })

    results = run_panel(response, utterances,
                        [_client(MockBackend("e", handler=handler))], TAX, passes=1)
    assert results[0].votes["f"] == ["anger"]
    assert results[0].votes["fusion"] is None


def test_run_panel_transport_failure_records_empty_result():
    response = make_response("anger。")
    utterances = segment_utterances(response.content)

    def handler(prompt, sampling):
        raise TransportError("offline")

    results = run_panel(response, utterances,
                        [_client(MockBackend("e", handler=handler))], TAX, passes=2)
    assert [r.votes for r in results] == [{m: None for m in MODALITIES}] * 2


def test_run_panel_requires_experts_and_passes():
    response = make_response("anger。")
    utterances = segment_utterances(response.content)
    with pytest.raises(ValueError):
        run_panel(response, utterances, [], TAX)
    with pytest.raises(ValueError):
        run_panel(response, utterances, [_client(label_echo_expert("e"))], TAX,
                  passes=0)


def test_select_label_threshold_boundary():
    # 7 of 10 is exactly the default threshold; 6 of 10 is below it.
    assert select_label({"happy": 7, "sadness": 3}, 10) == "happy"
    assert select_label({"happy": 6, "sadness": 4}, 10) == AMBIGUOUS
    assert select_label({"happy": 10}, 10) == "happy"
    assert select_label({}, 0) == AMBIGUOUS


def test_select_label_multiple_winners_is_ambiguous():
    assert select_label({"a": 5, "b": 5}, 10, tau=0.5) == AMBIGUOUS


def test_aggregate_worked_example():
    results = [_result(f"e{i}", ["happy"]) for i in range(8)]
    results += [_result("e8", ["sadness"]), _result("e9", ["worried"])]
    agg = aggregate(results, tau=0.7, n_utterances=1)
    assert agg.counts["fusion"] == [{"happy": 8, "sadness": 1, "worried": 1}]
    assert agg.labels["fusion"] == ["happy"]
    assert agg.fusion_labels == ["happy"]
    assert agg.has_votes


def test_aggregate_histograms_have_sorted_keys():
    results = [_result("a", ["worried", "happy"]), _result("b", ["anger", "happy"]),
               _result("c", ["worried", "sadness"])]
    agg = aggregate(results, n_utterances=2)
    assert agg.counts["f"] == [{"anger": 1, "worried": 2},
                               {"happy": 2, "sadness": 1}]
    assert [list(h) for h in agg.counts["f"]] == [["anger", "worried"],
                                                  ["happy", "sadness"]]
    assert agg.labels == {m: [AMBIGUOUS, AMBIGUOUS] for m in MODALITIES}


def test_aggregate_below_threshold_is_ambiguous():
    results = [_result(f"e{i}", ["happy"]) for i in range(6)]
    results += [_result(f"e{i+6}", ["sadness"]) for i in range(4)]
    agg = aggregate(results, tau=0.7, n_utterances=1)
    assert agg.fusion_labels == [AMBIGUOUS]
    assert agg.counts["fusion"] == [{"happy": 6, "sadness": 4}]


def test_aggregate_counts_only_present_modalities():
    full = [_result(f"e{i}", ["anger"]) for i in range(8)]
    partial = [
        ErcResult(expert_id=f"p{i}", pass_index=1,
                  votes={"f": ["anger"], "b": None, "s": None, "fusion": None})
        for i in range(2)
    ]
    agg = aggregate(full + partial, tau=0.7, n_utterances=1)
    assert agg.counts["f"] == [{"anger": 10}]
    assert agg.counts["fusion"] == [{"anger": 8}]


def test_aggregate_zero_votes_cell_is_ambiguous_and_empty():
    results = [ErcResult(expert_id="e", pass_index=1,
                         votes={m: None for m in MODALITIES})]
    agg = aggregate(results, n_utterances=2)
    assert agg.labels == {m: [AMBIGUOUS, AMBIGUOUS] for m in MODALITIES}
    assert agg.counts == {m: [{}, {}] for m in MODALITIES}
    assert not agg.has_votes
    assert aggregate([], n_utterances=1).counts == {m: [{}] for m in MODALITIES}


def test_aggregate_rejects_conflicting_lengths():
    with pytest.raises(ValueError, match="expected 1"):
        aggregate([_result("a", ["happy"]), _result("b", ["happy", "sadness"])],
                  n_utterances=1)
    with pytest.raises(ValueError, match="expected 3"):
        aggregate([_result("a", ["happy"])], n_utterances=3)
    with pytest.raises(TypeError):
        aggregate([_result("a", ["happy"])])  # the length is never inferred


def test_aggregate_validates_tau():
    with pytest.raises(ValueError):
        aggregate([_result("a", ["happy"])], tau=0.0, n_utterances=1)
    with pytest.raises(ValueError):
        aggregate([_result("a", ["happy"])], tau=1.5, n_utterances=1)


def test_tau_one_requires_unanimity():
    assert select_label({"a": 10}, 10, tau=1.0) == "a"
    assert select_label({"a": 9, "b": 1}, 10, tau=1.0) == AMBIGUOUS
