"""Format gate: strict validation, tolerant extraction, judge repair."""

import json

import pytest

from conftest import answer, make_repair_judge

from rpeval.formatter import (
    REPAIRED,
    UNREPAIRABLE,
    VALID_DIRECT,
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
    """``format_response``'s ``(status, response)``, its requests sent by
    ``drive``."""
    (result,) = drive([format_response(*args, **kwargs)],
                      retry=RetryPolicy(max_attempts=1, base_delay=0.0))
    return result


def _gate(raw, fix=None, max_attempts=2):
    """``format_response``'s ``(status, response)`` and the asks it made, as
    ``(judge, kind, pass_index, prompt)``.  ``fix(prompt)`` answers each
    ask of the judge ``"fixer"``; without it there is no repair judge."""
    asks = []

    def reply(judge, kind, prompt, pass_index):
        asks.append((judge, kind, pass_index, prompt))
        return fix(prompt)

    judge = None if fix is None else "fixer"
    return answer(format_response(raw, judge, max_attempts), reply), asks


def _passes(asks):
    return [(judge, kind, pass_index) for judge, kind, pass_index, _ in asks]


def _down(prompt):
    raise TransportError("down")


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
    (status, response), asks = _gate(GOOD, fix=lambda prompt: GOOD)
    assert status == VALID_DIRECT
    assert response.speech_prompt == "hushed"
    assert asks == []


def test_repair_fixes_on_first_attempt():
    raw = "content: hello there. face: smiling"
    (status, response), asks = _gate(raw, fix=lambda prompt: GOOD)
    assert (status, response) == (REPAIRED, validate(GOOD))
    assert _passes(asks) == [("fixer", "repair", 1)]
    # The same repair through ``drive`` and a scripted backend.
    judge = _client(make_repair_judge({raw: GOOD}))
    assert _format(raw, judge) == (REPAIRED, validate(GOOD))
    assert judge.counts["replies"] == 1


def test_repair_second_attempt_uses_corrective_prompt():
    def fix(prompt):
        return GOOD if "previous rewrite still failed" in prompt else "nope"

    (status, response), asks = _gate("still broken {", fix=fix, max_attempts=2)
    assert (status, response) == (REPAIRED, validate(GOOD))
    assert _passes(asks) == [("fixer", "repair", 1), ("fixer", "repair", 2)]
    assert asks[0][3] != asks[1][3]


def test_repair_gives_up_after_max_attempts():
    for attempts in (1, 2, 3):
        result, asks = _gate("broken", fix=lambda prompt: "garbage",
                             max_attempts=attempts)
        assert result == (UNREPAIRABLE, None)
        assert _passes(asks) == [("fixer", "repair", n)
                                 for n in range(1, attempts + 1)]


def test_repair_survives_transport_failures():
    result, asks = _gate("broken", fix=_down, max_attempts=2)
    assert result == (UNREPAIRABLE, None)
    assert len(asks) == 2
    # Through ``drive``: each lost ask costs its one attempt, not the run.
    judge = _client(MockBackend("fix", handler=lambda p, s: _down(p)))
    assert _format("broken", judge, max_attempts=2) == (UNREPAIRABLE, None)
    assert judge.counts["transport_failures"] == 2


def test_max_attempts_is_checked_only_when_repairing():
    judge = _client(MockBackend("fix", handler=lambda p, s: GOOD))
    assert _format(GOOD, judge, max_attempts=0)[0] == VALID_DIRECT
    with pytest.raises(ValueError, match="max_attempts"):
        _format("broken", judge, max_attempts=0)


def test_format_without_judge_cannot_repair():
    result, asks = _gate("broken")
    assert result == (UNREPAIRABLE, None)
    assert asks == []


def test_outcome_invariants():
    def second_try(prompt):
        return GOOD if "previous rewrite still failed" in prompt else "nope"

    branches = [
        _gate(GOOD),                                  # valid direct
        _gate("broken"),                              # no judge
        _gate("broken", fix=lambda prompt: GOOD),     # repaired at once
        _gate("broken", fix=second_try),              # repaired on retry
        _gate("broken", fix=lambda prompt: "nope"),   # never fixed
        _gate("broken", fix=_down),                   # judge down
    ]
    statuses = [status for (status, _), _ in branches]
    assert statuses == [VALID_DIRECT, UNREPAIRABLE, REPAIRED, REPAIRED,
                        UNREPAIRABLE, UNREPAIRABLE]
    for (status, response), _ in branches:
        assert (response is None) == (status == UNREPAIRABLE)
