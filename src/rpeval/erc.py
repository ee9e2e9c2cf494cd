"""Expert-panel emotion recognition and threshold voting.

Each formatted response is shown to a panel of judge experts, each
queried over multiple passes.  Every usable reply contributes one vote
per (modality, utterance) cell: facial expression, body movement,
speech tone, and the all-channel fusion.  A cell's final label is the
unique label holding at least a ``tau`` share of its votes, else the
ambiguous sentinel.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Optional, Sequence

from .corpus import (
    AMBIGUOUS,
    EmotionTaxonomy,
    MultimodalResponse,
    UtteranceSegmentation,
)
from .judges import TransportError, extract_json_object
from .prompts import build_erc_prompt

logger = logging.getLogger(__name__)

# Modality order is fixed; it is also the rater order fed to agreement.
MODALITIES = ("f", "b", "s", "fusion")

_REPLY_KEYS = {m: f"emos_{m}" for m in MODALITIES}

DEFAULT_TAU = 0.7
DEFAULT_PASSES = 2

# Guards the vote-share comparison against float artifacts such as
# 7/10 < 0.7 * 10 / 10 evaluating the wrong way after division.
_TAU_EPSILON = 1e-9


@dataclass
class EmotionDistribution:
    """Vote histogram for one (modality, utterance) cell."""

    counts: dict[str, int] = field(default_factory=dict)
    total_votes: int = 0

    def __post_init__(self) -> None:
        if any(c <= 0 for c in self.counts.values()):
            raise ValueError("vote counts must be positive")
        if sum(self.counts.values()) != self.total_votes:
            raise ValueError("total_votes must equal the summed counts")

    def probability(self, label: str) -> float:
        if self.total_votes == 0:
            return 0.0
        return self.counts.get(label, 0) / self.total_votes

    def probabilities(self) -> dict[str, float]:
        return {lab: c / self.total_votes for lab, c in sorted(self.counts.items())}


@dataclass
class ErcResult:
    """One expert pass over one response: a vote list per modality.

    A modality whose reply could not be coerced to valid labels (after
    one corrective re-prompt) is ``None``: its votes are simply absent,
    shrinking the denominators for the affected cells.
    """

    expert_id: str
    pass_index: int
    votes: dict[str, Optional[list[str]]]

    def __post_init__(self) -> None:
        extra = set(self.votes) - set(MODALITIES)
        if extra:
            raise ValueError(f"unknown modalities: {sorted(extra)}")
        for m in MODALITIES:
            self.votes.setdefault(m, None)

    @property
    def all_missing(self) -> bool:
        return all(self.votes[m] is None for m in MODALITIES)


def parse_erc_reply(
    text: str, n_utterances: int, taxonomy: EmotionTaxonomy
) -> dict[str, Optional[list[str]]]:
    """Coerce a panel reply to per-modality vote lists.

    A modality is kept only if its value is a list of exactly
    ``n_utterances`` labels, all members of the taxonomy.  Anything else
    for that modality becomes ``None``; an unparseable reply yields all
    ``None``.
    """
    out: dict[str, Optional[list[str]]] = {m: None for m in MODALITIES}
    obj = extract_json_object(text)
    if obj is None:
        return out
    for modality in MODALITIES:
        value = obj.get(_REPLY_KEYS[modality])
        if not isinstance(value, list) or len(value) != n_utterances:
            continue
        labels = []
        for item in value:
            if not isinstance(item, str):
                break
            item = item.strip()
            if item not in taxonomy:
                break
            labels.append(item)
        else:
            out[modality] = labels
    return out


def run_panel(
    response: MultimodalResponse,
    segmentation: UtteranceSegmentation,
    experts: Sequence,
    taxonomy: EmotionTaxonomy,
    passes: int = DEFAULT_PASSES,
    fan_out: Optional[Callable[[list], list]] = None,
) -> list[ErcResult]:
    """Query every expert ``passes`` times over one response.

    Experts are ``JudgeClient``-shaped (``name`` attribute plus
    ``ask(kind, prompt, pass_index)``).  A malformed reply earns one
    corrective re-prompt restating the closed label set and the exact
    list length; modalities still invalid after that are dropped for
    that (expert, pass) with a logged shortfall.  Transport failures are
    treated the same way.  The (expert, pass) queries are independent:
    ``fan_out``, given a list of zero-argument callables, runs them and
    returns their results in order (concurrently, in the pipeline); by
    default they run one after another.  Results come in (expert, pass)
    order either way.
    """
    if not experts:
        raise ValueError("panel needs at least one expert")
    if passes < 1:
        raise ValueError("passes must be at least 1")
    response_json = response.to_json()
    prompts = (
        build_erc_prompt(response_json, segmentation.utterances, taxonomy.labels),
        build_erc_prompt(
            response_json, segmentation.utterances, taxonomy.labels, retry=True
        ),
    )
    calls = [
        partial(_expert_pass, expert, prompts, pass_index, segmentation.count,
                taxonomy)
        for expert in experts
        for pass_index in range(1, passes + 1)
    ]
    if fan_out is None:
        return [call() for call in calls]
    return fan_out(calls)


def _expert_pass(expert, prompts, pass_index, n_utterances, taxonomy) -> ErcResult:
    prompt, retry_prompt = prompts
    votes = _query_once(expert, prompt, pass_index, n_utterances, taxonomy)
    if any(votes[m] is None for m in MODALITIES):
        retried = _query_once(
            expert, retry_prompt, pass_index, n_utterances, taxonomy
        )
        for m in MODALITIES:
            if votes[m] is None:
                votes[m] = retried[m]
    dropped = [m for m in MODALITIES if votes[m] is None]
    if dropped:
        logger.warning(
            "expert %s pass %d: dropping modalities %s",
            getattr(expert, "name", "?"),
            pass_index,
            dropped,
        )
    return ErcResult(
        expert_id=getattr(expert, "name", "expert"),
        pass_index=pass_index,
        votes=votes,
    )


def _query_once(expert, prompt, pass_index, n_utterances, taxonomy):
    try:
        text = expert.ask("erc", prompt, pass_index=pass_index)
    except TransportError as exc:
        logger.warning("expert %s pass %d: %s", getattr(expert, "name", "?"),
                       pass_index, exc)
        return {m: None for m in MODALITIES}
    return parse_erc_reply(text, n_utterances, taxonomy)


def select_label(counts: Mapping[str, int], total: int, tau: float = DEFAULT_TAU) -> str:
    """Threshold vote for one cell: unique label with share >= tau, else ambiguous."""
    if total <= 0:
        return AMBIGUOUS
    threshold = tau - _TAU_EPSILON
    winners = [lab for lab, c in counts.items() if c / total >= threshold]
    if len(winners) == 1:
        return winners[0]
    return AMBIGUOUS


@dataclass
class VoteCell:
    """Final label plus the vote histogram behind it, for one cell."""

    label: str
    distribution: EmotionDistribution


@dataclass
class AggregatedEmotions:
    """Voting outcome for one response: per-modality cell lists."""

    cells: dict[str, list[VoteCell]]
    n_utterances: int

    def labels(self, modality: str) -> list[str]:
        return [cell.label for cell in self.cells[modality]]

    def distributions(self, modality: str) -> list[EmotionDistribution]:
        return [cell.distribution for cell in self.cells[modality]]

    @property
    def fusion_labels(self) -> list[str]:
        return self.labels("fusion")

    @property
    def has_votes(self) -> bool:
        return any(
            cell.distribution.total_votes > 0
            for cells in self.cells.values()
            for cell in cells
        )


def aggregate(
    results: Sequence[ErcResult],
    tau: float = DEFAULT_TAU,
    n_utterances: Optional[int] = None,
) -> AggregatedEmotions:
    """Fold panel results into per-cell distributions and final labels.

    Vote lists must agree on length; ``n_utterances`` is inferred when
    any vote list is present and must be supplied otherwise.  Cells with
    zero votes come out ambiguous with an empty distribution.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must be in (0, 1]")
    inferred = None
    for result in results:
        for m in MODALITIES:
            votes = result.votes[m]
            if votes is None:
                continue
            if inferred is None:
                inferred = len(votes)
            elif len(votes) != inferred:
                raise ValueError(
                    f"vote list length {len(votes)} conflicts with {inferred}"
                )
    if inferred is None:
        if n_utterances is None:
            raise ValueError("no votes present and n_utterances not given")
        inferred = n_utterances
    elif n_utterances is not None and n_utterances != inferred:
        raise ValueError(
            f"votes cover {inferred} utterances, expected {n_utterances}"
        )
    cells: dict[str, list[VoteCell]] = {}
    for modality in MODALITIES:
        row: list[VoteCell] = []
        for u in range(inferred):
            counts: dict[str, int] = {}
            for result in results:
                votes = result.votes[modality]
                if votes is not None:
                    counts[votes[u]] = counts.get(votes[u], 0) + 1
            counts = dict(sorted(counts.items()))
            total = sum(counts.values())
            row.append(
                VoteCell(
                    label=select_label(counts, total, tau),
                    distribution=EmotionDistribution(counts=counts, total_votes=total),
                )
            )
        cells[modality] = row
    return AggregatedEmotions(cells=cells, n_utterances=inferred)
