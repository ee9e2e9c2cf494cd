"""Format gate: strict validation, tolerant extraction, judge repair."""

import json

import pytest

from conftest import make_repair_judge, make_response

from rpeval.formatter import (
    REPAIRED,
    UNREPAIRABLE,
    VALID_DIRECT,
    FormatOutcome,
    format_response,
    validate,
)
from rpeval.judges import JudgeClient, MockBackend, RetryPolicy, TransportError
from rpeval.scheduler import drive

GOOD = json.dumps({
    "facial_expression": "raised eyebrows",
    "body_movement": "steps closer",
    "speech_prompt": "hushed",
    "content": "别担心。",
}, ensure_ascii=False)


def _format(*args, **kwargs):
    """``format_response``'s outcome, its requests sent by ``drive``."""
    (outcome,) = drive([format_response(*args, **kwargs)],
                     retry=RetryPolicy(max_attempts=1, base_delay=0.0))
    return outcome


def _client(backend):
    return JudgeClient(backend)


def test_validate_accepts_clean_object():
    resp = validate(GOOD)
    assert resp is not None
    assert resp.content == "别担心。"


def test_validate_accepts_fenced_and_prosed_output():
    assert validate(f"Sure! Here you go:\n```json\n{GOOD}\n```\nHope it helps.")
    assert validate(f"The answer is {GOOD} as requested.")


def test_validate_accepts_alias_keys_and_mixed_case():
    raw = json.dumps({
        "Face": "wide grin",
        "BODY": "arms open",
        "speech_intonation": "loud",
        "text": "hello there.",
    })
    resp = validate(raw)
    assert resp is not None
    assert resp.facial_expression == "wide grin"
    assert resp.body_movement == "arms open"
    assert resp.speech_prompt == "loud"
    assert resp.content == "hello there."


def test_validate_strips_whitespace():
    raw = json.dumps({
        "facial_expression": "  calm  ",
        "body_movement": "still",
        "speech_prompt": "even",
        "content": "  ok.  ",
    })
    resp = validate(raw)
    assert resp.facial_expression == "calm"
    assert resp.content == "ok."


@pytest.mark.parametrize("raw", [
    "",
    "   ",
    "not json at all",
    "[1, 2, 3]",
    json.dumps({"facial_expression": "x", "body_movement": "y",
                "speech_prompt": "z"}),  # missing content
    json.dumps({"facial_expression": "x", "body_movement": "y",
                "speech_prompt": "z", "content": "hi", "extra": "no"}),
    json.dumps({"facial_expression": "x", "body_movement": "y",
                "speech_prompt": "z", "content": ""}),
    json.dumps({"facial_expression": 1, "body_movement": "y",
                "speech_prompt": "z", "content": "hi"}),
    json.dumps({"face": "x", "facial_expression": "y", "body_movement": "b",
                "speech_prompt": "s", "content": "hi"}),  # alias collision
    pytest.param("Here is my answer: " + '{"content":' * 5000 + '"hi"'
                 + "}" * 5000 + " Thanks.", id="nested-too-deep"),
])
def test_validate_rejects(raw):
    assert validate(raw) is None


def test_format_response_direct():
    outcome = _format(GOOD)
    assert outcome.status == VALID_DIRECT
    assert outcome.repair_attempts == 0
    assert outcome.response.speech_prompt == "hushed"


def test_repair_fixes_on_first_attempt():
    raw = "content: hello there. face: smiling"
    judge = _client(make_repair_judge({raw: GOOD}))
    outcome = _format(raw, judge)
    assert outcome.status == REPAIRED
    assert outcome.repair_attempts == 1
    assert outcome.response == validate(GOOD)


def test_repair_second_attempt_uses_corrective_prompt():
    raw = "still broken {"
    seen = []

    def handler(prompt, sampling):
        seen.append(prompt)
        if "previous rewrite still failed" in prompt:
            return GOOD
        return "nope"

    outcome = _format(raw, _client(MockBackend("fix", handler=handler)),
                      max_attempts=2)
    assert outcome.status == REPAIRED
    assert outcome.repair_attempts == 2
    assert len(seen) == 2
    assert seen[0] != seen[1]


def test_repair_gives_up_after_max_attempts():
    judge = _client(MockBackend("fix", handler=lambda p, s: "garbage"))
    outcome = _format("broken", judge, max_attempts=2)
    assert outcome.status == UNREPAIRABLE
    assert outcome.response is None
    assert outcome.repair_attempts == 2
    assert "failed validation" in outcome.diagnostic


def test_repair_survives_transport_failures():
    def handler(prompt, sampling):
        raise TransportError("down")

    outcome = _format("broken", _client(MockBackend("fix", handler=handler)),
                      max_attempts=2)
    assert outcome.status == UNREPAIRABLE
    assert "down" in outcome.diagnostic


def test_max_attempts_is_checked_only_when_repairing():
    judge = _client(MockBackend("fix", handler=lambda p, s: GOOD))
    assert _format(GOOD, judge, max_attempts=0).status == VALID_DIRECT
    with pytest.raises(ValueError, match="max_attempts"):
        _format("broken", judge, max_attempts=0)


def test_format_without_judge_cannot_repair():
    outcome = _format("broken")
    assert outcome.status == UNREPAIRABLE
    assert "no repair judge" in outcome.diagnostic


def test_outcome_invariants():
    with pytest.raises(ValueError):
        FormatOutcome(status="weird", response=None)
    with pytest.raises(ValueError):
        FormatOutcome(status=VALID_DIRECT, response=None)
    with pytest.raises(ValueError):
        FormatOutcome(status=UNREPAIRABLE, response=make_response("hi."))
