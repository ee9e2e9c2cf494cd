"""Format gate for raw model output.

Every prediction must become a valid four-field multimodal response
before any scoring happens.  Validation is strict but tolerant of the
usual model tics (code fences, prose around the object, alias key
names).  Output that still fails goes through a bounded judge-assisted
repair loop; what cannot be repaired is excluded from scoring and
tallied, never silently guessed at.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .corpus import RESPONSE_FIELDS, MultimodalResponse
from .judges import TransportError, extract_json_object
from .prompts import build_repair_prompt

VALID_DIRECT = "valid_direct"
REPAIRED = "repaired"
UNREPAIRABLE = "unrepairable"

# Key spellings accepted and rewritten to the canonical field names.
DEFAULT_KEY_ALIASES: dict[str, str] = {
    "face": "facial_expression",
    "facial": "facial_expression",
    "expression": "facial_expression",
    "face_expression": "facial_expression",
    "body": "body_movement",
    "movement": "body_movement",
    "body_language": "body_movement",
    "gesture": "body_movement",
    "speech": "speech_prompt",
    "voice": "speech_prompt",
    "tone": "speech_prompt",
    "speech_intonation": "speech_prompt",
    "text": "content",
    "reply": "content",
    "message": "content",
}


def _normalize_keys(obj: Mapping) -> Optional[dict]:
    out: dict = {}
    for key, value in obj.items():
        if not isinstance(key, str):
            return None
        canon = key.strip().lower()
        canon = DEFAULT_KEY_ALIASES.get(canon, canon)
        if canon in out:
            return None  # two spellings collapsed onto one field
        out[canon] = value
    return out


def validate(raw: str) -> Optional[MultimodalResponse]:
    """Parse raw output into a response, or ``None`` if it fails.

    Accepts the object bare or embedded in fences/prose, accepts alias
    key spellings, and requires exactly the four canonical fields with
    string values and non-empty content after normalization.
    """
    if not raw or not raw.strip():
        return None
    obj = extract_json_object(raw)
    if obj is None:
        return None
    normalized = _normalize_keys(obj)
    if normalized is None or set(normalized) != set(RESPONSE_FIELDS):
        return None
    if not all(isinstance(normalized[k], str) for k in RESPONSE_FIELDS):
        return None
    cleaned = {k: normalized[k].strip() for k in RESPONSE_FIELDS}
    if not cleaned["content"]:
        return None
    return MultimodalResponse(**cleaned)


def format_response(raw: str, judge=None, max_attempts: int = 2):
    """Full gate: direct validation, then up to ``max_attempts`` repairs.

    A flow for ``scheduler.drive`` that returns ``(status, response)``,
    ``response`` being ``None`` exactly when the status is
    ``UNREPAIRABLE``; each repair attempt is one ask of ``judge`` (a
    ``JudgeClient``).  Without a judge, invalid output is unrepairable.
    """
    response = validate(raw)
    if response is not None:
        return VALID_DIRECT, response
    if judge is None:
        return UNREPAIRABLE, None
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    for attempt in range(1, max_attempts + 1):
        prompt = build_repair_prompt(raw, attempt=attempt)
        (reply,) = yield [(judge, "repair", prompt, attempt)]
        response = None if isinstance(reply, TransportError) else validate(reply)
        if response is not None:
            return REPAIRED, response
    return UNREPAIRABLE, None
