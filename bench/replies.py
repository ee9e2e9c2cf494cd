"""The one deterministic judge: a reply for every prompt rpeval sends.

Both transports use this module: the in-process ``MockBackend`` handlers
of the mock workloads and the loopback HTTP stub of ``http-ratelimited``.
So those workloads see the same replies and differ only in transport.

A reply depends only on the asking judge's name and the prompt text.
What the judges should say is planted by the input generator in the
prompts themselves:

- every utterance ends with its emotion label, so an expert reads the
  gold label off each numbered utterance line;
- the tone word of a predicted response's ``speech_prompt`` picks the
  role-consistency verdict (see ``gen.TONE_SHARES``);
- a near-miss prediction is a response object with a trailing comma or
  a missing closing brace, which the repair judge fixes; prose without
  an object cannot be fixed.

Planted judge faults are chosen by request hash and always leave the
report as the generator planned it: a transient failure fails only the
first attempt, and a malformed reply is sent only to a first prompt, so
the corrective re-prompt always succeeds.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading

from rpeval.prompts import (
    ERC_PROMPT,
    ERC_RETRY_SUFFIX,
    RC_PROMPT,
    RC_RETRY_SUFFIX,
    REPAIR_PROMPT,
    REPAIR_RETRY_SUFFIX,
)

# One request in TRANSIENT_EVERY fails its first attempt; likewise for
# the malformed-reply rates of each prompt kind.
TRANSIENT_EVERY = 41
ERC_MALFORMED_EVERY = 9
RC_MALFORMED_EVERY = 7
REPAIR_SECOND_TRY_EVERY = 3

# A wrong label, for the dissenting expert and the wrong-labels fault.
_OTHER = {"anger": "happy"}

FAULTS = ("", "wrong-labels", "drop")


def _fixed_prefix(template: str) -> str:
    """The part of a prompt template before its first placeholder."""
    return template.split("{", 1)[0]


_ERC_HEAD = _fixed_prefix(ERC_PROMPT)
_RC_HEAD = _fixed_prefix(RC_PROMPT)
_REPAIR_HEAD = _fixed_prefix(REPAIR_PROMPT)
_ERC_REMINDER = _fixed_prefix(ERC_RETRY_SUFFIX)
_UTTERANCE_LINE = re.compile(r"^\d+\. (.*)$", re.MULTILINE)


class Transient(Exception):
    """A planted delivery failure; the caller retries it."""


def _other(label: str) -> str:
    return _OTHER.get(label, "anger")


def _hash(judge: str, prompt: str) -> int:
    digest = hashlib.sha256(f"{judge}\0{prompt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Replier:
    """Deterministic judge replies, shared by every judge of one run.

    ``fault`` breaks the replies on purpose, to show that the output
    check catches it: ``wrong-labels`` makes every expert report a wrong
    emotion, ``drop`` makes the repair judge give up on every input.
    Call ``reset`` before each pass so planted transient failures repeat.
    """

    def __init__(self, fault: str = ""):
        if fault not in FAULTS:
            raise ValueError(f"unknown fault {fault!r}")
        self.fault = fault
        self._failed: set[int] = set()
        self._lock = threading.Lock()

    def reset(self) -> None:
        with self._lock:
            self._failed.clear()

    def reply(self, judge: str, prompt: str) -> str:
        h = _hash(judge, prompt)
        if h % TRANSIENT_EVERY == 0:
            with self._lock:
                first = h not in self._failed
                self._failed.add(h)
            if first:
                raise Transient(f"{judge}: planted transient failure")
        if prompt.startswith(_ERC_HEAD):
            return self._erc(judge, prompt, h)
        if prompt.startswith(_RC_HEAD):
            return self._rc(judge, prompt, h)
        if prompt.startswith(_REPAIR_HEAD):
            return self._repair(prompt, h)
        raise ValueError(f"{judge}: unrecognised prompt {prompt[:60]!r}")

    def _erc(self, judge: str, prompt: str, h: int) -> str:
        body = prompt.split("\nFull response:\n", 1)[0]
        labels = [line.rsplit(" ", 1)[-1] for line in _UTTERANCE_LINE.findall(body)]
        if self.fault == "wrong-labels":
            labels = [_other(x) for x in labels]
        fusion = list(labels)
        # The last expert dissents on some first cells: 2 of 10 votes,
        # which moves the indecision metric but never the voted label.
        if judge.endswith("4") and h % 3 == 0:
            fusion[0] = _other(fusion[0])
        reply = {"emos_f": labels, "emos_b": list(labels), "emos_s": labels,
                 "emos_fusion": fusion}
        retry = _ERC_REMINDER in prompt
        if not retry and h % ERC_MALFORMED_EVERY == 0:
            reply["emos_b"] = labels + labels[:1]
        text = json.dumps(reply, ensure_ascii=False)
        if h % 4 == 1:
            return f"```json\n{text}\n```"
        if h % 4 == 2:
            return f"Here is my reading of each channel: {text} Hope it helps."
        return text

    def _rc(self, judge: str, prompt: str, h: int) -> str:
        retry = prompt.endswith(RC_RETRY_SUFFIX)
        if not retry and h % RC_MALFORMED_EVERY == 0:
            return "I would need to think about this character a while longer."
        block = prompt.split("Response under evaluation:\n", 1)[1]
        response = json.loads(block.split("\n\nQuestion:", 1)[0])
        agree = [response["content"]]
        disagree = [response["facial_expression"]]
        tone = response["speech_prompt"].split()[-2]
        if tone == "steady":
            verdict = (agree, [])
        elif tone == "shaky":
            verdict = ([], disagree)
        elif tone == "uneven":
            # critic0 finds more support than objection (score 4),
            # critic1 finds them balanced (score 3).
            extra = [response["body_movement"]] if judge.endswith("0") else []
            verdict = (agree + extra, disagree)
        else:
            verdict = ([], [])
        return json.dumps(
            {"agree_evidence": verdict[0], "disagree_evidence": verdict[1]},
            ensure_ascii=False,
        )

    def _repair(self, prompt: str, h: int) -> str:
        second = prompt.endswith(REPAIR_RETRY_SUFFIX)
        if self.fault == "drop" or (not second and h % REPAIR_SECOND_TRY_EVERY == 0):
            return "Sure, here is the fixed object."
        raw = prompt.split("Text to repair:\n", 1)[1]
        if second:
            raw = raw[: -len(REPAIR_RETRY_SUFFIX)]
        text = re.sub(r",\s*}", "}", raw.strip())
        if text.count("{") > text.count("}"):
            text += "}"
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            return "I cannot find a response object in this text."
        return json.dumps(obj, ensure_ascii=False)


def rc_score(tone: str, evaluator: int):
    """The 1..5 score an evaluator gives for a tone, ``None`` on abstain.

    Mirrors ``Replier._rc`` under rpeval's documented evidence-to-score
    mapping; the output check uses it to predict the rc summary.
    """
    if tone == "steady":
        return 5
    if tone == "shaky":
        return 1
    if tone == "uneven":
        return 4 if evaluator == 0 else 3
    return None
