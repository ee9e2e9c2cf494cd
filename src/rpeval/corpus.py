"""Data model for multimodal role-play evaluation corpora.

A corpus is a JSONL file of dialogue samples.  Each sample carries a role
card, the dialogue so far, the latest user input, and a ground-truth
multimodal response whose utterances are annotated with gold emotion
labels.  Predictions live in a separate JSONL file keyed by sample id.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence

POSITIVE = "positive"
NEUTRAL = "neutral"
NEGATIVE = "negative"
TENDENCIES = (POSITIVE, NEUTRAL, NEGATIVE)

# Sentinel emitted when expert voting cannot settle on a single label.
# Deliberately not a member of any taxonomy.
AMBIGUOUS = "ambiguous"

# Default 13-category utterance emotion scheme (the CPED labelling scheme).
DEFAULT_EMOTION_LABELS = (
    "happy",
    "grateful",
    "relaxed",
    "positive-other",
    "neutral",
    "anger",
    "sadness",
    "fear",
    "depress",
    "disgust",
    "astonished",
    "worried",
    "negative-other",
)

DEFAULT_TENDENCY_MAP = {
    "happy": POSITIVE,
    "grateful": POSITIVE,
    "relaxed": POSITIVE,
    "positive-other": POSITIVE,
    "neutral": NEUTRAL,
    "anger": NEGATIVE,
    "sadness": NEGATIVE,
    "fear": NEGATIVE,
    "depress": NEGATIVE,
    "disgust": NEGATIVE,
    "astonished": NEGATIVE,
    "worried": NEGATIVE,
    "negative-other": NEGATIVE,
}

# Utterance boundaries: CJK sentence punctuation plus ASCII counterparts.
DEFAULT_DELIMITERS = "。，！？；….,!?;"


class CorpusError(ValueError):
    """Raised when corpus or prediction data violates the schema."""


def read_lines(path: str | Path, error: type[Exception] = CorpusError) -> Iterator[str]:
    """Stream a UTF-8 file's lines as written, less a leading byte-order
    mark; an unreadable file raises ``error``."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield from fh
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


# Where an escape may decode to half of a UTF-16 surrogate pair.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def parse_json(text: str, where: str, error: type[Exception] = CorpusError):
    """The value ``text`` holds; invalid or too deeply nested JSON, or a
    string that is not valid Unicode (an unpaired surrogate escape), raises
    ``error``."""
    try:
        obj = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except (ValueError, RecursionError) as exc:  # UnicodeEncodeError included
        raise error(f"{where}: invalid JSON: {exc}") from None
    return obj


def _check_object(obj, what: str) -> None:
    if not isinstance(obj, Mapping):
        raise CorpusError(f"{what} must be an object")


def _text(obj: Mapping, key: str, owner: str, required: bool = False) -> str:
    """``obj[key]`` as text: a string, or a number (not a boolean) so that
    numeric ids load.  An absent or null optional field reads as ``""``;
    a null required one, or a value of any other type, is an error."""
    value = obj.get(key)
    if value is None:
        if required:
            raise CorpusError(f"{owner} field {key!r} must not be null")
        return ""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise CorpusError(f"{owner} field {key!r} must be a string or a number")
    return str(value)


@dataclass(frozen=True)
class EmotionTaxonomy:
    """Closed label set plus a label -> tendency collapse map.

    ``labels`` fixes both membership and the canonical ordering used for
    matrix axes and report columns.  Every label must map to one of
    positive / neutral / negative.  The ambiguous sentinel is never a
    member; it marks votes that failed to reach consensus.
    """

    labels: tuple[str, ...] = DEFAULT_EMOTION_LABELS
    tendency_map: Mapping[str, str] = field(
        default_factory=lambda: dict(DEFAULT_TENDENCY_MAP)
    )

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 2:
            raise CorpusError("taxonomy needs at least two labels")
        if len(set(labels)) != len(labels):
            raise CorpusError("taxonomy labels must be distinct")
        if AMBIGUOUS in labels:
            raise CorpusError(f"{AMBIGUOUS!r} is reserved and cannot be a label")
        missing = [x for x in labels if x not in self.tendency_map]
        if missing:
            raise CorpusError(f"labels without a tendency: {missing}")
        extra = [x for x in self.tendency_map if x not in labels]
        if extra:
            raise CorpusError(f"tendency map covers unknown labels: {extra}")
        bad = {x: t for x, t in self.tendency_map.items() if t not in TENDENCIES}
        if bad:
            raise CorpusError(f"tendencies must be one of {TENDENCIES}: {bad}")
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(labels)})

    @property
    def size(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise CorpusError(f"unknown emotion label: {label!r}") from None

    def tendency_of(self, label: str) -> str:
        """Collapse a label to its coarse tendency; ambiguous passes through."""
        if label == AMBIGUOUS:
            return AMBIGUOUS
        tendency = self.tendency_map.get(label)
        if tendency is None:
            raise CorpusError(f"unknown emotion label: {label!r}")
        return tendency

    def tendencies(self) -> tuple[str, ...]:
        """Tendency categories present, in canonical positive/neutral/negative order."""
        present = set(self.tendency_map.values())
        return tuple(t for t in TENDENCIES if t in present)

    @property
    def fingerprint(self) -> str:
        """Stable digest of the ordered label list, for manifests."""
        payload = "\n".join(self.labels).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]


def default_taxonomy() -> EmotionTaxonomy:
    return EmotionTaxonomy()


@dataclass
class RoleCard:
    """Identity and grounding material for one character."""

    role_id: str
    profile: str = ""
    image_ref: str = ""
    user_name: str = ""

    @classmethod
    def from_dict(cls, obj: Mapping) -> "RoleCard":
        _check_object(obj, "role card")
        if "role_id" not in obj:
            raise CorpusError("role card is missing 'role_id'")
        role_id = _text(obj, "role_id", "role card", required=True)
        if not role_id:
            raise CorpusError("role_id must be non-empty")
        return cls(
            role_id=role_id,
            profile=_text(obj, "profile", "role card"),
            image_ref=_text(obj, "image_ref", "role card"),
            user_name=_text(obj, "user_name", "role card"),
        )


@dataclass
class UserTurn:
    """One user-side turn; media refs are optional."""

    content: str
    audio_ref: str = ""
    video_ref: str = ""

    def to_dict(self) -> dict:
        out: dict = {"content": self.content}
        if self.audio_ref:
            out["audio_ref"] = self.audio_ref
        if self.video_ref:
            out["video_ref"] = self.video_ref
        return out

    @classmethod
    def from_dict(cls, obj: Mapping) -> "UserTurn":
        _check_object(obj, "user turn")
        if "content" not in obj:
            raise CorpusError("user turn is missing 'content'")
        return cls(
            content=_text(obj, "content", "user turn", required=True),
            audio_ref=_text(obj, "audio_ref", "user turn"),
            video_ref=_text(obj, "video_ref", "user turn"),
        )


# Canonical field names of an agent response, in serialization order.
RESPONSE_FIELDS = ("facial_expression", "body_movement", "speech_prompt", "content")

# Short keys used by the corpus file format, in the same order.
_SHORT_KEYS = ("face", "body", "speech", "content")


@dataclass
class MultimodalResponse:
    """An agent turn: facial expression, body movement, speech prompt, text."""

    facial_expression: str
    body_movement: str
    speech_prompt: str
    content: str

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in RESPONSE_FIELDS}

    def to_json(self) -> str:
        """Canonical JSON form: the four fields, fixed order, no ASCII escaping."""
        return json.dumps(self.to_dict(), ensure_ascii=False)

    @classmethod
    def from_dict(cls, obj: Mapping) -> "MultimodalResponse":
        _check_object(obj, "response")
        missing = [k for k in RESPONSE_FIELDS if k not in obj]
        if missing:
            raise CorpusError(f"response is missing fields: {missing}")
        values = {}
        for name in RESPONSE_FIELDS:
            value = obj[name]
            if not isinstance(value, str):
                raise CorpusError(f"response field {name!r} must be a string")
            values[name] = value
        if not values["content"].strip():
            raise CorpusError("response 'content' must be non-empty")
        return cls(**values)

    @classmethod
    def from_short_dict(cls, obj: Mapping) -> "MultimodalResponse":
        """Parse the corpus file form (face / body / speech / content keys)."""
        _check_object(obj, "response")
        missing = [k for k in _SHORT_KEYS if k not in obj]
        if missing:
            raise CorpusError(f"response is missing fields: {missing}")
        return cls.from_dict(
            {long: obj[short] for short, long in zip(_SHORT_KEYS, RESPONSE_FIELDS)}
        )

    def to_short_dict(self) -> dict:
        return {
            short: getattr(self, long)
            for short, long in zip(_SHORT_KEYS, RESPONSE_FIELDS)
        }


def segment_utterances(
    content: str, delimiters: str = DEFAULT_DELIMITERS
) -> list[str]:
    """Split text into utterances on sentence punctuation.

    Fragments are stripped of surrounding whitespace and empty fragments
    are discarded.  Text with no delimiter at all is a single utterance,
    so the result is never empty.
    """
    if not content or not content.strip():
        raise CorpusError("cannot segment empty content")
    parts: list[str] = []
    buf: list[str] = []
    for ch in content:
        if ch in delimiters:
            frag = "".join(buf).strip()
            if frag:
                parts.append(frag)
            buf = []
        else:
            buf.append(ch)
    frag = "".join(buf).strip()
    if frag:
        parts.append(frag)
    if not parts:
        # content was made of delimiters/whitespace only
        parts = [content.strip()]
    return parts


@dataclass
class DialogueSample:
    """One evaluation unit: context plus the gold multimodal response."""

    sample_id: str
    role: RoleCard
    previous_info: str
    history: list[tuple[UserTurn, MultimodalResponse]]
    user_input: UserTurn
    ground_truth: MultimodalResponse
    gt_emotions: list[str]
    dialogue_id: Optional[str] = None

    def to_record(self) -> dict:
        record: dict = {
            "sample_id": self.sample_id,
            "role": asdict(self.role),
            "previous_info": self.previous_info,
            "history": [
                {"user": user.to_dict(), "agent": agent.to_short_dict()}
                for user, agent in self.history
            ],
            "user_input": self.user_input.to_dict(),
            "ground_truth": self.ground_truth.to_short_dict(),
            "gt_emotions": list(self.gt_emotions),
        }
        if self.dialogue_id is not None:
            record["dialogue_id"] = self.dialogue_id
        return record

    @classmethod
    def from_record(cls, record: Mapping) -> "DialogueSample":
        _check_object(record, "sample")
        for key in ("sample_id", "role", "user_input", "ground_truth", "gt_emotions"):
            if key not in record:
                raise CorpusError(f"sample is missing field {key!r}")
        sample_id = _text(record, "sample_id", "sample", required=True)
        if not sample_id:
            raise CorpusError("sample_id must be non-empty")
        turns = record.get("history", [])
        if not isinstance(turns, list):
            raise CorpusError("history must be a list")
        history = []
        for i, turn in enumerate(turns):
            _check_object(turn, f"history turn {i}")
            if "user" not in turn or "agent" not in turn:
                raise CorpusError(
                    f"history turn {i} needs both 'user' and 'agent' sides"
                )
            history.append(
                (
                    UserTurn.from_dict(turn["user"]),
                    MultimodalResponse.from_short_dict(turn["agent"]),
                )
            )
        gt_emotions = record["gt_emotions"]
        if not isinstance(gt_emotions, list) or not all(
            isinstance(x, str) for x in gt_emotions
        ):
            raise CorpusError("gt_emotions must be a list of strings")
        return cls(
            sample_id=sample_id,
            role=RoleCard.from_dict(record["role"]),
            previous_info=_text(record, "previous_info", "sample"),
            history=history,
            user_input=UserTurn.from_dict(record["user_input"]),
            ground_truth=MultimodalResponse.from_short_dict(record["ground_truth"]),
            gt_emotions=list(gt_emotions),
            dialogue_id=(None if record.get("dialogue_id") is None
                         else _text(record, "dialogue_id", "sample")),
        )

    def validate_against(
        self, taxonomy: EmotionTaxonomy, delimiters: str = DEFAULT_DELIMITERS
    ) -> None:
        """Check gold labels line up with the segmented ground-truth content."""
        n_utterances = len(segment_utterances(self.ground_truth.content, delimiters))
        if len(self.gt_emotions) != n_utterances:
            raise CorpusError(
                f"sample {self.sample_id!r}: {len(self.gt_emotions)} gold labels "
                f"for {n_utterances} utterances"
            )
        for label in self.gt_emotions:
            if label not in taxonomy:
                raise CorpusError(
                    f"sample {self.sample_id!r}: unknown emotion label {label!r}"
                )


@dataclass
class PredictionRecord:
    """Raw model output for one sample, before any format checking."""

    sample_id: str
    raw_output: str

    def to_record(self) -> dict:
        return {"sample_id": self.sample_id, "raw_output": self.raw_output}

    @classmethod
    def from_record(cls, record: Mapping) -> "PredictionRecord":
        _check_object(record, "prediction")
        for key in ("sample_id", "raw_output"):
            if key not in record:
                raise CorpusError(f"prediction is missing field {key!r}")
        sample_id = _text(record, "sample_id", "prediction", required=True)
        if not sample_id:
            raise CorpusError("prediction sample_id must be non-empty")
        if not isinstance(record["raw_output"], str):
            raise CorpusError("raw_output must be a string")
        return cls(sample_id=sample_id, raw_output=record["raw_output"])


def _iter_jsonl(path: Path) -> Iterator[tuple[int, dict]]:
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        obj = parse_json(line, f"{path}:{lineno}")
        if not isinstance(obj, dict):
            raise CorpusError(f"{path}:{lineno}: expected a JSON object")
        yield lineno, obj


def load_corpus(
    path: str | Path,
    taxonomy: Optional[EmotionTaxonomy] = None,
    delimiters: str = DEFAULT_DELIMITERS,
) -> list[DialogueSample]:
    """Load and validate a corpus JSONL file.

    Enforces unique sample ids, one consistent role card per role id, and
    per-sample agreement between gold labels and utterance segmentation.
    """
    taxonomy = taxonomy or default_taxonomy()
    path = Path(path)
    samples: list[DialogueSample] = []
    seen_ids: set[str] = set()
    role_cards: dict[str, RoleCard] = {}
    for lineno, obj in _iter_jsonl(path):
        try:
            sample = DialogueSample.from_record(obj)
            sample.validate_against(taxonomy, delimiters)
        except CorpusError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from None
        if sample.sample_id in seen_ids:
            raise CorpusError(
                f"{path}:{lineno}: duplicate sample_id {sample.sample_id!r}"
            )
        seen_ids.add(sample.sample_id)
        known = role_cards.get(sample.role.role_id)
        if known is None:
            role_cards[sample.role.role_id] = sample.role
        elif known != sample.role:
            raise CorpusError(
                f"{path}:{lineno}: role {sample.role.role_id!r} appears with "
                "conflicting role cards"
            )
        samples.append(sample)
    if not samples:
        raise CorpusError(f"{path}: corpus is empty")
    return samples


def load_predictions(path: str | Path) -> list[PredictionRecord]:
    """Load a predictions JSONL file; sample ids must be unique."""
    path = Path(path)
    records: list[PredictionRecord] = []
    seen: set[str] = set()
    for lineno, obj in _iter_jsonl(path):
        try:
            record = PredictionRecord.from_record(obj)
        except CorpusError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from None
        if record.sample_id in seen:
            raise CorpusError(
                f"{path}:{lineno}: duplicate prediction for {record.sample_id!r}"
            )
        seen.add(record.sample_id)
        records.append(record)
    if not records:
        raise CorpusError(f"{path}: predictions file is empty")
    return records


@contextmanager
def replacing(path: str | Path) -> Iterator:
    """A UTF-8 text file that takes the place of ``path`` once fully written.

    The text goes to a temporary file in the same directory, which is
    moved onto ``path`` on success and removed on any exception, so a
    failed or killed write leaves the previous file as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):  # absent when open failed
            os.unlink(tmp)
        raise


def save_jsonl(path: str | Path, records: Sequence[Mapping]) -> None:
    """Write records as one JSON object per line (UTF-8, no ASCII escaping)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with replacing(path) as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
