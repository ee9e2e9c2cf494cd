"""Emotion-recognition panel: reply parsing, panel runs, threshold voting."""

import json

import pytest

from conftest import answer, label_echo_expert, make_experts, make_response

from rpeval.corpus import AMBIGUOUS, default_taxonomy, segment_utterances
from rpeval.erc import (
    MODALITIES,
    aggregate,
    parse_erc_reply,
    run_panel,
    select_label,
)
from rpeval.judges import JudgeClient, MockBackend, RetryPolicy, TransportError
from rpeval.scheduler import drive

TAX = default_taxonomy()


def _reply(labels):
    return json.dumps({f"emos_{m}": list(labels) for m in MODALITIES})


def _client(backend):
    return JudgeClient(backend)


def _panel(*args, **kwargs):
    """``run_panel``'s result, its requests sent by ``drive``."""
    (result,) = drive([run_panel(*args, **kwargs)],
                     retry=RetryPolicy(max_attempts=1, base_delay=0.0))
    return result


def _votes(labels):
    """One (expert, pass) of a panel: the same labels in every modality."""
    return {m: list(labels) for m in MODALITIES}


def test_parse_erc_reply_valid():
    votes = parse_erc_reply(_reply(["happy", "sadness"]), 2, TAX)
    assert votes == {m: ["happy", "sadness"] for m in MODALITIES}


def test_parse_erc_reply_tolerates_prose_and_fences():
    text = "Sure:\n```json\n" + _reply(["anger"]) + "\n```"
    votes = parse_erc_reply(text, 1, TAX)
    assert votes["fusion"] == ["anger"]


def test_parse_erc_reply_reads_the_whole_object_past_a_quoted_fence():
    obj = {**json.loads(_reply(["anger"])), "note": "format: ```{}```"}
    votes = parse_erc_reply(json.dumps(obj), 1, TAX)
    assert votes == {m: ["anger"] for m in MODALITIES}


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
    results = _panel(response, utterances, experts, TAX, passes=2)
    assert results == [_votes(["happy", "sadness"])] * 10


def test_run_panel_results_come_in_expert_pass_order():
    response = make_response("happy。")
    utterances = segment_utterances(response.content)
    labels = ["happy", "sadness", "anger"]

    def expert_pass(expert, kind, prompt, pass_index):
        """Expert i answers labels[i] on pass 1 and labels[i + 1] on pass 2."""
        return _reply([labels[int(expert[1]) + pass_index - 1]])

    results = answer(run_panel(response, utterances, ["e0", "e1"], TAX, passes=2),
                     expert_pass)
    # (e0, 1), (e0, 2), (e1, 1), (e1, 2)
    assert [r["fusion"] for r in results] == [["happy"], ["sadness"],
                                              ["sadness"], ["anger"]]


def test_run_panel_retry_corrects_bad_reply():
    response = make_response("anger。")
    utterances = segment_utterances(response.content)

    def handler(prompt, sampling):
        if "Reminder:" in prompt:
            return _reply(["anger"])
        return "not json"

    results = _panel(response, utterances,
                     [_client(MockBackend("e", handler=handler))], TAX, passes=1)
    assert results[0]["fusion"] == ["anger"]


def test_run_panel_drops_modalities_that_stay_invalid():
    response = make_response("anger。")
    utterances = segment_utterances(response.content)

    def handler(prompt, sampling):
        return json.dumps({
            "emos_f": ["anger"], "emos_b": ["anger"],
            "emos_s": ["anger"], "emos_fusion": ["anger", "anger"],
        })

    results = _panel(response, utterances,
                     [_client(MockBackend("e", handler=handler))], TAX, passes=1)
    assert results == [{"f": ["anger"], "b": ["anger"], "s": ["anger"],
                        "fusion": None}]


def test_run_panel_transport_failure_records_empty_result():
    response = make_response("anger。")
    utterances = segment_utterances(response.content)

    def handler(prompt, sampling):
        raise TransportError("offline")

    results = _panel(response, utterances,
                     [_client(MockBackend("e", handler=handler))], TAX, passes=2)
    assert results == [{m: None for m in MODALITIES}] * 2


def test_run_panel_requires_experts_and_passes():
    response = make_response("anger。")
    utterances = segment_utterances(response.content)
    with pytest.raises(ValueError):
        _panel(response, utterances, [], TAX)
    with pytest.raises(ValueError):
        _panel(response, utterances, [_client(label_echo_expert("e"))], TAX,
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
    results = [_votes(["happy"]) for _ in range(8)]
    results += [_votes(["sadness"]), _votes(["worried"])]
    labels, counts = aggregate(results, tau=0.7, n_utterances=1)
    assert counts == {m: [{"happy": 8, "sadness": 1, "worried": 1}]
                      for m in MODALITIES}
    assert labels == {m: ["happy"] for m in MODALITIES}


def test_aggregate_histograms_have_sorted_keys():
    results = [_votes(["worried", "happy"]), _votes(["anger", "happy"]),
               _votes(["worried", "sadness"])]
    labels, counts = aggregate(results, n_utterances=2)
    assert counts["f"] == [{"anger": 1, "worried": 2},
                           {"happy": 2, "sadness": 1}]
    assert [list(h) for h in counts["f"]] == [["anger", "worried"],
                                              ["happy", "sadness"]]
    assert labels == {m: [AMBIGUOUS, AMBIGUOUS] for m in MODALITIES}


def test_aggregate_below_threshold_is_ambiguous():
    results = [_votes(["happy"]) for _ in range(6)]
    results += [_votes(["sadness"]) for _ in range(4)]
    labels, counts = aggregate(results, tau=0.7, n_utterances=1)
    assert labels["fusion"] == [AMBIGUOUS]
    assert counts["fusion"] == [{"happy": 6, "sadness": 4}]


def test_aggregate_counts_only_present_modalities():
    full = [_votes(["anger"]) for _ in range(8)]
    partial = [{"f": ["anger"], "b": None, "s": None, "fusion": None}
               for _ in range(2)]
    labels, counts = aggregate(full + partial, tau=0.7, n_utterances=1)
    assert counts["f"] == [{"anger": 10}]
    assert counts["fusion"] == [{"anger": 8}]
    assert labels == {m: ["anger"] for m in MODALITIES}


def test_aggregate_zero_votes_cell_is_ambiguous_and_empty():
    labels, counts = aggregate([{m: None for m in MODALITIES}], n_utterances=2)
    assert labels == {m: [AMBIGUOUS, AMBIGUOUS] for m in MODALITIES}
    assert counts == {m: [{}, {}] for m in MODALITIES}
    assert aggregate([], n_utterances=1) == ({m: [AMBIGUOUS] for m in MODALITIES},
                                             {m: [{}] for m in MODALITIES})


def test_aggregate_rejects_conflicting_lengths():
    with pytest.raises(ValueError, match="expected 1"):
        aggregate([_votes(["happy"]), _votes(["happy", "sadness"])],
                  n_utterances=1)
    with pytest.raises(ValueError, match="expected 3"):
        aggregate([_votes(["happy"])], n_utterances=3)
    with pytest.raises(TypeError):
        aggregate([_votes(["happy"])])  # the length is never inferred


def test_aggregate_validates_tau():
    with pytest.raises(ValueError):
        aggregate([_votes(["happy"])], tau=0.0, n_utterances=1)
    with pytest.raises(ValueError):
        aggregate([_votes(["happy"])], tau=1.5, n_utterances=1)


def test_tau_one_requires_unanimity():
    assert select_label({"a": 10}, 10, tau=1.0) == "a"
    assert select_label({"a": 9, "b": 1}, 10, tau=1.0) == AMBIGUOUS
