"""A tour of the data model: emotion taxonomy, utterance segmentation,
and the JSONL corpus format.

Run me with: python3 demos/01_corpus_and_segmentation.py
"""

import tempfile
from pathlib import Path

from rpeval import (
    DialogueSample,
    MultimodalResponse,
    RoleCard,
    UserTurn,
    default_taxonomy,
    load_corpus,
    save_jsonl,
    segment_utterances,
)

# ---------------------------------------------------------------- taxonomy
# Thirteen emotion labels, each mapped to a coarse tendency.  The lower
# scoring level works on the labels themselves; the upper level works on
# the tendencies.

taxonomy = default_taxonomy()
print("labels:", ", ".join(taxonomy.labels))
print("tendencies:", ", ".join(taxonomy.tendencies()))
for label in ("happy", "neutral", "worried"):
    print(f"  {label!r} leans {taxonomy.tendency_of(label)!r}")
print("taxonomy fingerprint:", taxonomy.fingerprint)

# ------------------------------------------------------------ segmentation
# Spoken content is split into utterances on CJK and ASCII sentence
# punctuation.  The result is a plain list of strings, never empty.
# Every utterance carries exactly one gold emotion label, so the list's
# length must match the annotation length.

content = "你来了！我等了你好久。Come in, sit down."
utterances = segment_utterances(content)
print(f"\n{content!r} splits into {len(utterances)} utterances:")
for i, utterance in enumerate(utterances, 1):
    print(f"  {i}. {utterance}")

# ------------------------------------------------------------- one sample
# A sample is one turn to score: who is speaking, what the user said,
# the annotated ground-truth response, and its per-utterance emotions.

response = MultimodalResponse(
    facial_expression="eyes widening into a grin",
    body_movement="rushes forward, arms open",
    speech_prompt="bright, a little breathless",
    content="你来了！我等了你好久。",
)
sample = DialogueSample(
    sample_id="demo-001",
    role=RoleCard(role_id="lin", profile="A warm-hearted innkeeper.",
                  image_ref="img/lin.png", user_name="Traveler"),
    previous_info="The traveler promised to return before winter.",
    history=[],
    user_input=UserTurn(content="I kept my promise."),
    ground_truth=response,
    gt_emotions=["astonished", "happy"],
)
sample.validate_against(taxonomy)
n_utterances = len(segment_utterances(response.content))
print("\nsample", sample.sample_id, "validates: gold labels",
      sample.gt_emotions, "match", n_utterances, "utterances")

# ---------------------------------------------------------------- round trip
# Corpora live on disk as JSONL, one sample per line, with short keys
# for the four response channels.  Loading re-validates everything.

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "corpus.jsonl"
    save_jsonl(path, [sample.to_record()])
    loaded = load_corpus(path, taxonomy)
    print("\nreloaded", len(loaded), "sample(s); identical:",
          loaded[0] == sample)
    print("record keys:", ", ".join(sorted(sample.to_record())))
