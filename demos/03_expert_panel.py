"""The emotion-recognition panel: several judges vote per utterance and
per channel, and a label only wins with a tau share of the votes.

Run me with: python3 demos/03_expert_panel.py
"""

import json

from rpeval import (
    AMBIGUOUS,
    JudgeClient,
    MockBackend,
    MultimodalResponse,
    RetryPolicy,
    aggregate,
    default_taxonomy,
    drive,
    run_panel,
    segment_utterances,
    select_label,
)

taxonomy = default_taxonomy()

# --------------------------------------------------------- the vote kernel
# select_label is the whole decision rule: a label needs at least a tau
# share of the votes, and it must be the only one above the bar.

print("7 of 10 votes:", select_label({"happy": 7, "sadness": 3}, 10, tau=0.7))
print("6 of 10 votes:", select_label({"happy": 6, "sadness": 4}, 10, tau=0.7))
print("5 vs 5 at tau=0.5:",
      select_label({"happy": 5, "anger": 5}, 10, tau=0.5))

# --------------------------------------------------------------- the panel
# Five experts, two passes each, ten ballots per utterance and channel.
# Four of the mock experts read the response one way; the fifth
# disagrees on the second utterance, which is not enough to flip it.

response = MultimodalResponse(
    facial_expression="jaw set, eyes narrowed",
    body_movement="slams the ledger shut",
    speech_prompt="clipped, rising",
    content="你骗了我。给我一个解释。",
)
utterances = segment_utterances(response.content)
print("\nutterances:", utterances)

majority_view = {f"emos_{m}": ["anger", "anger"]
                 for m in ("f", "b", "s", "fusion")}
minority_view = {f"emos_{m}": ["anger", "worried"]
                 for m in ("f", "b", "s", "fusion")}

def expert(name, view):
    backend = MockBackend(name, handler=lambda p, s: json.dumps(view))
    return JudgeClient(backend=backend)

experts = [expert(f"expert{i}", majority_view) for i in range(4)]
experts.append(expert("expert4", minority_view))

# One plain dict per (expert, pass), in (expert, pass) order: each
# channel's labels, or None where the expert's reply was unusable.
# run_panel asks all ten (expert, pass) questions in one batch; drive()
# sends them, each tried once, and hands the replies back.
(results,) = drive([run_panel(response, utterances, experts, taxonomy, passes=2)],
                   retry=RetryPolicy(max_attempts=1, base_delay=0.0))
print("panel returned", len(results), "expert-pass vote dicts")
print("expert4, pass 1:", results[8])

# aggregate returns two plain dicts keyed by channel: the final label of
# each utterance, and its vote histogram (label -> count, keys sorted).
labels, counts = aggregate(results, tau=0.7, n_utterances=len(utterances))
print("fusion labels:", labels["fusion"])
for i, (label, votes) in enumerate(zip(labels["fusion"], counts["fusion"]), 1):
    total = sum(votes.values())
    shares = {lab: f"{count / total:.1f}" for lab, count in votes.items()}
    print(f"  utterance {i}: {label!r} from {total} votes {shares}")

# The second utterance went 8 anger vs 2 worried: 0.8 clears tau.  Had
# three experts dissented (6 vs 4) the cell would come out ambiguous,
# and ambiguous cells never feed the transition statistics.
print("\nthe ambiguous sentinel is", AMBIGUOUS,
      "and it is deliberately not a taxonomy label:",
      AMBIGUOUS not in taxonomy)
