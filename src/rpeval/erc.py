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
from collections import Counter
from typing import Mapping, Optional, Sequence

from .config import DEFAULT_PASSES, DEFAULT_TAU
from .corpus import AMBIGUOUS, EmotionTaxonomy, MultimodalResponse
from .judges import TransportError, extract_json_object
from .prompts import build_erc_prompt

logger = logging.getLogger(__name__)

# Modality order is fixed; it is also the rater order fed to agreement.
MODALITIES = ("f", "b", "s", "fusion")

_REPLY_KEYS = {m: f"emos_{m}" for m in MODALITIES}

# Guards the vote-share comparison against float artifacts such as
# 7/10 < 0.7 * 10 / 10 evaluating the wrong way after division.
_TAU_EPSILON = 1e-9


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
    utterances: Sequence[str],
    experts: Sequence,
    taxonomy: EmotionTaxonomy,
    passes: int = DEFAULT_PASSES,
):
    """Query every expert ``passes`` times over one response.

    A flow for ``scheduler.drive`` that returns one ``{modality: labels
    or None}`` dict per (expert, pass), in (expert, pass) order.  A
    modality whose reply could not be coerced to valid labels is
    ``None``: its votes are simply absent, shrinking the denominators
    for the affected cells.

    The first queries go out in one batch.  A malformed or lost reply
    earns one corrective re-prompt restating the closed label set and the
    exact list length, all in a second batch, which fills in only the
    modalities still missing; those still missing after it are dropped
    for that (expert, pass) with a logged shortfall.
    """
    if not experts:
        raise ValueError("panel needs at least one expert")
    if passes < 1:
        raise ValueError("passes must be at least 1")
    response_json = response.to_json()
    cells = [(expert, pass_index) for expert in experts
             for pass_index in range(1, passes + 1)]
    prompts = [build_erc_prompt(response_json, utterances, taxonomy.labels, retry=retry)
               for retry in (False, True)]
    votes = [dict.fromkeys(MODALITIES) for _ in cells]
    for prompt in prompts:
        waiting = [i for i, v in enumerate(votes) if None in v.values()]
        replies = yield [(cells[i][0], "erc", prompt, cells[i][1]) for i in waiting]
        for i, reply in zip(waiting, replies):
            if isinstance(reply, TransportError):
                continue
            parsed = parse_erc_reply(reply, len(utterances), taxonomy)
            for m in MODALITIES:
                if votes[i][m] is None:
                    votes[i][m] = parsed[m]
    for (expert, pass_index), v in zip(cells, votes):
        dropped = [m for m in MODALITIES if v[m] is None]
        if dropped:
            logger.warning("expert %s pass %d: dropping modalities %s",
                           expert.name, pass_index, dropped)
    return votes


def select_label(counts: Mapping[str, int], total: int, tau: float = DEFAULT_TAU) -> str:
    """Threshold vote for one cell: unique label with share >= tau, else ambiguous."""
    if total <= 0:
        return AMBIGUOUS
    threshold = tau - _TAU_EPSILON
    winners = [lab for lab, c in counts.items() if c / total >= threshold]
    if len(winners) == 1:
        return winners[0]
    return AMBIGUOUS


def aggregate(
    results: Sequence[Mapping[str, Optional[list[str]]]],
    tau: float = DEFAULT_TAU,
    *,
    n_utterances: int,
) -> tuple[dict[str, list[str]], dict[str, list[dict[str, int]]]]:
    """Fold panel votes into per-cell final labels and vote histograms.

    Returns ``(labels, counts)``: ``labels[m][u]`` is the final label of
    a cell and ``counts[m][u]`` its vote histogram, keys sorted; a cell
    nobody voted on has an empty histogram and the ambiguous label.
    Every vote list present must hold ``n_utterances`` labels.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must be in (0, 1]")
    for votes in results:
        for m in MODALITIES:
            if votes[m] is not None and len(votes[m]) != n_utterances:
                raise ValueError(
                    f"vote list length {len(votes[m])}, expected {n_utterances}"
                )
    labels: dict[str, list[str]] = {}
    counts: dict[str, list[dict[str, int]]] = {}
    for modality in MODALITIES:
        row = counts[modality] = []
        for u in range(n_utterances):
            hist = Counter(votes[modality][u] for votes in results
                           if votes[modality] is not None)
            row.append(dict(sorted(hist.items())))
        labels[modality] = [select_label(h, sum(h.values()), tau) for h in row]
    return labels, counts
