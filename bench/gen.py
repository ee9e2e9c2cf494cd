"""Seeded input generator shared by every workload.

Usage: python3 bench/gen.py --out DIR --seed N --samples S --roles R

Writes a corpus, a predictions file and a plan of the planted faults
into DIR; rpeval sees only the first two.  The same arguments give
byte-identical files.  The harness runs this as its own process during
set-up, so the generator's memory never counts toward the benchmark
process's peak.

The corpus has R role cards; each sample has 1-6 utterances and 0-3
history turns, and about half the samples sit in explicit
``dialogue_id`` threads of 2-5 turns (the rest thread implicitly by
consecutive role).  Every utterance ends with its gold label, and every
prediction echoes its sample's gold content, so the experts of
``replies.Replier`` vote exactly the gold labels.

Planted in the predictions, each in an exact share of the samples so
that seeds differ in content but not in the mix:

- near-miss outputs (trailing comma, missing closing brace) that the
  repair judge fixes, some only at its second attempt;
- prose with no response object, which cannot be repaired;
- duplicates that copy an earlier prediction of the same format status,
  so a few judge prompts repeat within one pass and the reply cache is
  hit even when cold;
- the role-consistency verdict, as the tone word in ``speech_prompt``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rpeval import DEFAULT_EMOTION_LABELS  # noqa: E402

VALID_DIRECT = "valid_direct"
REPAIRED = "repaired"
UNREPAIRABLE = "unrepairable"

STATUS_SHARES = {UNREPAIRABLE: 0.03, REPAIRED: 0.12}
DUPLICATE_SHARE = 0.08
# Tone word -> share of samples; replies.Replier maps each tone to a
# role-consistency verdict: agree, disagree, mixed, abstain.
TONE_SHARES = {"shaky": 0.15, "uneven": 0.2, "muted": 0.1}
DEFAULT_TONE = "steady"

_WORDS = (
    "river", "lantern", "morning", "market", "garden", "letter", "storm",
    "bridge", "window", "harbor", "mountain", "candle", "road", "forest",
    "song", "winter", "field", "station", "tower", "island", "quiet",
    "bright", "old", "distant", "gentle", "heavy", "small", "golden",
    "cold", "hidden", "we", "walked", "again", "tonight", "somehow",
)
_ADJECTIVES = ("calm", "tense", "warm", "wry", "tired", "eager", "stern",
               "playful", "wistful", "guarded")
_JOBS = ("knight", "baker", "sailor", "scholar", "smith", "healer",
         "courier", "painter")
_NAMES = ("Sam", "Ming", "Ada", "Ravi", "Lena", "Tomas")


def _exact(rng: random.Random, n: int, shares: dict, default: str) -> list[str]:
    """``n`` values holding each key in exactly ``round(share * n)`` places."""
    values = [key for key, share in shares.items() for _ in range(round(share * n))]
    values += [default] * (n - len(values))
    rng.shuffle(values)
    return values


def _utterances(rng: random.Random) -> tuple[list[str], list[str]]:
    labels = [rng.choice(DEFAULT_EMOTION_LABELS) for _ in range(rng.randint(1, 6))]
    texts = [" ".join(rng.choices(_WORDS, k=rng.randint(2, 6)) + [label])
             for label in labels]
    return texts, labels


def _history(rng: random.Random) -> list[dict]:
    turns = []
    for i in range(rng.randint(0, 3)):
        words = " ".join(rng.choices(_WORDS, k=4))
        turns.append({
            "user": {"content": f"turn {i} about the {rng.choice(_WORDS)}"},
            "agent": {"face": f"a {rng.choice(_ADJECTIVES)} look",
                      "body": "shrugs", "speech": "even voice",
                      "content": f"{words}."},
        })
    return turns


def _raw_output(rng: random.Random, response: dict, status: str) -> str:
    text = json.dumps(response, ensure_ascii=False)
    if status == REPAIRED:
        return text[:-1] + ",}" if rng.random() < 0.5 else text[:-1]
    if status == UNREPAIRABLE:
        return "I would rather not answer in that format today"
    style = rng.randrange(3)
    if style == 1:
        return "```json\n" + json.dumps(response, ensure_ascii=False, indent=2) + "\n```"
    if style == 2:
        aliased = {"face": response["facial_expression"],
                   "body": response["body_movement"],
                   "speech": response["speech_prompt"],
                   "text": response["content"]}
        return f"Sure! {json.dumps(aliased, ensure_ascii=False)} Anything else?"
    return text


def _roles_and_threads(rng: random.Random, samples: int, roles: int):
    """(role index, dialogue id or None) per sample."""
    out = []
    dialogue = 0
    while len(out) < samples:
        role = rng.randrange(roles)
        if rng.random() < 0.5:
            dialogue += 1
            out += [(role, f"d{dialogue:05d}")] * rng.randint(2, 5)
        else:
            out.append((role, None))
    return out[:samples]


def write_inputs(out_dir: Path, seed: int, samples: int, roles: int) -> None:
    """Write ``corpus.jsonl``, ``predictions.jsonl`` and ``plan.json``.

    The plan maps each sample id to its planted format status and tone.
    """
    rng = random.Random(seed)
    cards = [{"role_id": f"role{r:02d}",
              "profile": f"A {rng.choice(_ADJECTIVES)} {rng.choice(_JOBS)} "
                         f"who loves the {rng.choice(_WORDS)}",
              "image_ref": f"img/role{r:02d}.png",
              "user_name": rng.choice(_NAMES)} for r in range(roles)]
    threads = _roles_and_threads(rng, samples, roles)
    statuses = _exact(rng, samples, STATUS_SHARES, VALID_DIRECT)
    tones = _exact(rng, samples, TONE_SHARES, DEFAULT_TONE)
    duplicate = set(rng.sample(range(1, samples), round(DUPLICATE_SHARE * samples))
                    if samples > 1 else [])

    out_dir.mkdir(parents=True, exist_ok=True)
    # Per sample: raw output, ground truth, gold labels, tone.
    made: list[tuple[str, dict, list[str], str]] = []
    by_status: dict[str, list[int]] = {}
    with open(out_dir / "corpus.jsonl", "w", encoding="utf-8") as corpus, \
            open(out_dir / "predictions.jsonl", "w", encoding="utf-8") as predictions:
        for i, (role, thread_id) in enumerate(threads):
            status = statuses[i]
            earlier = by_status.get(status)
            if i in duplicate and earlier:
                raw, gt, labels, tone = made[rng.choice(earlier)]
            else:
                texts, labels = _utterances(rng)
                tone = tones[i]
                content = ". ".join(texts) + "."
                response = {
                    "facial_expression": f"a {rng.choice(_ADJECTIVES)} expression",
                    "body_movement": f"leans toward the {rng.choice(_WORDS)}",
                    "speech_prompt": f"speaks in a {tone} voice",
                    "content": content,
                }
                raw = _raw_output(rng, response, status)
                gt = {"face": "a neutral expression", "body": "stands still",
                      "speech": "plain voice", "content": content}
            made.append((raw, gt, labels, tone))
            by_status.setdefault(status, []).append(i)
            sid = f"s{i:06d}"
            record = {
                "sample_id": sid,
                "role": cards[role],
                "previous_info": f"Met the traveller near the "
                                 f"{rng.choice(_WORDS)} {rng.randint(1, 9)} days ago",
                "history": _history(rng),
                "user_input": {"content": f"What do you think of the {rng.choice(_WORDS)}"},
                "ground_truth": gt,
                "gt_emotions": labels,
            }
            if thread_id is not None:
                record["dialogue_id"] = thread_id
            corpus.write(json.dumps(record, ensure_ascii=False) + "\n")
            predictions.write(json.dumps({"sample_id": sid, "raw_output": raw},
                                         ensure_ascii=False) + "\n")

    plan = {
        "seed": seed,
        "samples": {f"s{i:06d}": (statuses[i], made[i][3]) for i in range(samples)},
    }
    with open(out_dir / "plan.json", "w", encoding="utf-8") as fh:
        json.dump(plan, fh)


def main() -> int:
    parser = argparse.ArgumentParser(description="write seeded rpeval inputs")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--samples", required=True, type=int)
    parser.add_argument("--roles", required=True, type=int)
    args = parser.parse_args()
    if args.samples < 1 or args.roles < 1:
        parser.error("--samples and --roles must be positive")
    write_inputs(args.out, args.seed, args.samples, args.roles)
    return 0


if __name__ == "__main__":
    sys.exit(main())
