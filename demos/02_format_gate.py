"""The format gate: validating raw model output and repairing near
misses with a judge before anything gets scored.

Run me with: python3 demos/02_format_gate.py
"""

import json

from rpeval import (
    JudgeClient,
    MockBackend,
    RetryPolicy,
    drive,
    format_response,
    validate,
)

# -------------------------------------------------------------- clean output
# A prediction is one JSON object with exactly four string fields.
# Fenced code blocks, surrounding prose, aliased keys, and mixed case
# are tolerated; anything else needs repair.  format_response is a flow:
# it yields the requests it needs a judge to answer, and drive() runs
# flows to their results: here each result is (status, response).

clean = json.dumps({
    "facial_expression": "soft smile",
    "body_movement": "pours tea without looking up",
    "speech_prompt": "low and even",
    "content": "坐吧。茶还热着。",
}, ensure_ascii=False)

((status, response),) = drive([format_response(clean)])
print("clean output:", status)

fenced = f"Sure! Here is the response:\n```json\n{clean}\n```"
print("fenced output:", drive([format_response(fenced)])[0][0])

aliased = json.dumps({
    "Face": "soft smile",
    "body": "pours tea",
    "tone": "low and even",
    "text": "坐吧。",
}, ensure_ascii=False)
print("aliased keys:", drive([format_response(aliased)])[0][0],
      "->", sorted(validate(aliased).to_dict()))

# ------------------------------------------------------------ broken output
# Without a repair judge a broken string is simply dropped, and the
# exclusion is visible in the status; no response comes back.

broken = "face: smiling / body: pouring tea / she says: sit down"
((status, response),) = drive([format_response(broken)])
print("\nbroken output, no judge:", status, "- response:", response)

# With a judge the gate sends the raw text out for a rewrite and
# re-validates whatever comes back, up to two attempts.

def rewrite(prompt, sampling):
    raw = prompt.split("Text to repair:\n", 1)[1]
    if raw.startswith("face: smiling"):
        return clean
    return "cannot help"

# The run's retry policy for failed deliveries goes to drive().
judge = JudgeClient(backend=MockBackend("fixer", handler=rewrite))
retry = RetryPolicy(max_attempts=2, base_delay=0.0)
((status, repaired),) = drive([format_response(broken, judge)], retry=retry)
print("broken output, judge present:", status,
      "- judge counts:", {k: v for k, v in judge.counts.items() if v})
print("repaired content:", repaired.content)

# A judge that never produces valid JSON exhausts its attempts and the
# sample stays excluded; scoring later counts it under dropped_format.
# The judge's counters show the two more repair asks it answered.

((status, _),) = drive([format_response("%%%% static noise %%%%", judge)], retry=retry)
print("\nunfixable output:", status,
      "- judge counts:", {k: v for k, v in judge.counts.items() if v})
