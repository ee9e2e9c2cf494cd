"""Deterministic metric kernels.

Everything here is pure computation over already-judged data: Hellinger
distance, emotion-transition matrices and their divergences, set-based
multi-label F1, Krippendorff's alpha, vote-entropy, and the mapping
from evidence verdicts to role-consistency scores.  No judge calls, no
randomness, no I/O.
"""

from __future__ import annotations

import itertools
import logging
import math
from typing import Mapping, Optional, Sequence

import numpy as np

from .config import DEFAULT_SMOOTHING
from .corpus import AMBIGUOUS, CorpusError, EmotionTaxonomy

logger = logging.getLogger(__name__)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def hellinger(p: Sequence[float], q: Sequence[float]) -> float:
    """Hellinger distance between two discrete distributions.

    H(p, q) = (1/sqrt(2)) * ||sqrt(p) - sqrt(q)||_2, which is 0 exactly
    for identical inputs and 1 for disjoint support.  The result is
    clamped to [0, 1] because the raw float expression can overshoot 1
    by an ulp on disjoint support.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 1 or q.ndim != 1 or p.shape != q.shape:
        raise ValueError("inputs must be 1-d arrays of equal length")
    if p.size == 0:
        raise ValueError("inputs must be non-empty")
    if (p < 0).any() or (q < 0).any():
        raise ValueError("probabilities must be non-negative")
    if abs(p.sum() - 1.0) > 1e-9 or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("inputs must each sum to 1 within 1e-9")
    d = _INV_SQRT2 * math.sqrt(((np.sqrt(p) - np.sqrt(q)) ** 2).sum())
    return min(1.0, max(0.0, d))


def build_transition_matrices(
    dialogues: Sequence[Sequence[Sequence[str]]],
    taxonomy: EmotionTaxonomy,
) -> tuple[np.ndarray, np.ndarray]:
    """Count intra- and inter-response transitions for one role.

    ``dialogues`` is a list of dialogues; each dialogue is the ordered
    list of that role's responses; each response is its per-utterance
    label list.  Returns ``(intra, inter)``: int64 n*n count arrays with
    rows (source) and columns (target) in ``taxonomy.labels`` order.
    ``intra`` pairs are adjacent utterances inside one response;
    ``inter`` pairs connect the last utterance of a response to the
    first utterance of the same role's next response in the dialogue.
    The ambiguous sentinel contributes no pairs at all: it breaks chains
    instead of bridging them, on both boundaries.
    """
    n = taxonomy.size
    intra = np.zeros((n, n), dtype=np.int64)
    inter = np.zeros((n, n), dtype=np.int64)
    index = taxonomy.index
    for dialogue in dialogues:
        prev_last: Optional[str] = None
        for labels in dialogue:
            labels = list(labels)
            if not labels:
                prev_last = None
                continue
            for a, b in zip(labels, labels[1:]):
                if a != AMBIGUOUS and b != AMBIGUOUS:
                    intra[index(a), index(b)] += 1
            first, last = labels[0], labels[-1]
            if prev_last is not None and prev_last != AMBIGUOUS and first != AMBIGUOUS:
                inter[index(prev_last), index(first)] += 1
            prev_last = last
    return intra, inter


def _row_probabilities(counts: np.ndarray) -> np.ndarray:
    """Rows normalized to 1; all-zero rows fall back to uniform."""
    n = len(counts)
    probs = counts.astype(float)
    sums = probs.sum(axis=1, keepdims=True)
    uniform = np.full((1, n), 1.0 / n)
    return np.where(sums > 0, probs / np.where(sums > 0, sums, 1.0), uniform)


def _flattened_distribution(counts: np.ndarray, smooth: float) -> np.ndarray:
    """All n*n cells as one distribution over the total pair count."""
    total = int(counts.sum())
    if total == 0:
        raise ValueError("cannot normalize an empty transition matrix")
    flat = counts.astype(float).ravel()
    if smooth > 0:
        return (flat + smooth) / (total + smooth * flat.size)
    return flat / total


def matrix_distance(
    a: np.ndarray,
    b: np.ndarray,
    smooth: float = DEFAULT_SMOOTHING,
    mode: str = "flatten",
) -> float:
    """Hellinger distance between two transition count matrices.

    ``flatten`` (the default) treats each matrix as one distribution
    over all n*n cells, normalized by the total pair count.  ``rows``
    averages per-row distances over row-normalized probabilities
    instead (zero rows uniform, no smoothing).
    """
    if a.shape != b.shape:
        raise ValueError("matrices have different shapes")
    if mode == "flatten":
        return hellinger(_flattened_distribution(a, smooth),
                         _flattened_distribution(b, smooth))
    if mode == "rows":
        rows_a = _row_probabilities(a)
        rows_b = _row_probabilities(b)
        return float(np.mean([hellinger(rows_a[i], rows_b[i])
                              for i in range(len(a))]))
    raise ValueError(f"bad mode: {mode!r}")


def edd(
    gt: Mapping[str, np.ndarray],
    rpa: Mapping[str, np.ndarray],
    smooth: float = DEFAULT_SMOOTHING,
    mode: str = "flatten",
) -> Optional[float]:
    """Mean per-role divergence between gold and predicted transitions.

    Roles where either side has no transition pairs are excluded; with
    every role excluded the metric is undefined and ``None`` is
    returned (the caller reports it as missing, not as 0).
    """
    if set(gt) != set(rpa):
        raise ValueError("role sets differ between the two sides")
    if not gt:
        raise ValueError("no roles given")
    distances = []
    for role in sorted(gt):
        if not gt[role].any() or not rpa[role].any():
            logger.info("divergence: role %r skipped (empty side)", role)
            continue
        distances.append(matrix_distance(gt[role], rpa[role], smooth, mode))
    if not distances:
        logger.warning("divergence undefined: every role had an empty side")
        return None
    return float(np.mean(distances))


def character_distinctiveness(
    matrices: Mapping[str, np.ndarray],
    smooth: float = DEFAULT_SMOOTHING,
    mode: str = "flatten",
) -> Optional[float]:
    """Mean pairwise transition distance across roles (how unalike they are)."""
    if len(matrices) < 2:
        raise ValueError("need at least two roles")
    usable = [role for role in sorted(matrices) if matrices[role].any()]
    skipped = sorted(set(matrices) - set(usable))
    if skipped:
        logger.info("distinctiveness: skipping empty roles %s", skipped)
    if len(usable) < 2:
        logger.warning("distinctiveness undefined: fewer than two usable roles")
        return None
    distances = [
        matrix_distance(matrices[a], matrices[b], smooth, mode)
        for a, b in itertools.combinations(usable, 2)
    ]
    return float(np.mean(distances))


def rcd(
    gt: Mapping[str, np.ndarray],
    rpa: Mapping[str, np.ndarray],
    smooth: float = DEFAULT_SMOOTHING,
    mode: str = "flatten",
) -> dict:
    """Relative distinctiveness: does the model keep roles as distinct as gold?

    Returns ``{"value", "cd_gt", "cd_rpa"}``; ``value`` is predicted
    minus gold cross-role distance, ``None`` when either side is.
    """
    if len(gt) < 2 or len(rpa) < 2:
        raise ValueError("need at least two roles on both sides")
    cd_gt = character_distinctiveness(gt, smooth, mode)
    cd_rpa = character_distinctiveness(rpa, smooth, mode)
    value = None if cd_gt is None or cd_rpa is None else cd_rpa - cd_gt
    return {"value": value, "cd_gt": cd_gt, "cd_rpa": cd_rpa}


def _ratio(num: int, denom: int) -> float:
    return num / denom if denom else 0.0


def mec(
    samples: Sequence[tuple[Sequence[str], Sequence[str]]],
    taxonomy: EmotionTaxonomy,
    level: str = "lower",
) -> tuple[float, dict[str, dict]]:
    """Emotion correctness over (gold labels, predicted labels) pairs.

    Per sample both sides are reduced to label *sets*; ambiguous
    predictions are discarded first.  At the ``upper`` level labels
    collapse to tendencies before the set comparison.  Per-class F1 is
    computed from corpus-aggregated confusion counts (0/0 taken as 0)
    and weighted by class support n_x, the number of samples whose gold
    set contains the class.

    Returns ``(value, per_class)``; ``per_class[x]`` is the report row
    ``{n, tp, fp, fn, tn, precision, recall, f1}``.
    """
    if level not in ("lower", "upper"):
        raise ValueError(f"bad level: {level!r}")
    if not samples:
        raise ValueError("no samples")
    upper = level == "upper"
    classes = taxonomy.tendencies() if upper else taxonomy.labels
    counts = {x: {"n": 0, "tp": 0, "fp": 0, "fn": 0, "tn": 0} for x in classes}
    for gt_labels, pred_labels in samples:
        if not gt_labels:
            raise ValueError("sample with empty ground-truth labels")
        gt_set = set()
        for lab in gt_labels:
            if lab not in taxonomy:
                raise CorpusError(f"unknown ground-truth label: {lab!r}")
            gt_set.add(taxonomy.tendency_of(lab) if upper else lab)
        pd_set = set()
        for lab in pred_labels:
            if lab == AMBIGUOUS:
                continue
            if lab not in taxonomy:
                raise CorpusError(f"unknown predicted label: {lab!r}")
            pd_set.add(taxonomy.tendency_of(lab) if upper else lab)
        for x in classes:
            c = counts[x]
            if x in gt_set:
                c["n"] += 1
                if x in pd_set:
                    c["tp"] += 1
                else:
                    c["fn"] += 1
            elif x in pd_set:
                c["fp"] += 1
            else:
                c["tn"] += 1
    per_class = {}
    for x, c in counts.items():
        tp, fp, fn = c["tp"], c["fp"], c["fn"]
        per_class[x] = {**c, "precision": _ratio(tp, tp + fp),
                        "recall": _ratio(tp, tp + fn),
                        "f1": _ratio(2 * tp, 2 * tp + fp + fn)}
    total_support = sum(row["n"] for row in per_class.values())
    value = sum(row["n"] * row["f1"] for row in per_class.values()) / total_support
    return value, per_class


def _is_missing(value: object) -> bool:
    return value is None or (isinstance(value, float) and value != value)


def krippendorff_alpha(
    rows: Sequence[Sequence[object]], level: str = "nominal"
) -> float:
    """Krippendorff's alpha over a raters-by-units table.

    ``rows`` is one list per rater, all the same length; ``None`` (or
    NaN) marks a missing rating.  Units rated by fewer than two raters
    are ignored.  Computed from the coincidence matrix with the small-
    sample (n - 1) correction; perfect observed agreement and degenerate
    tables with no expected disagreement both return 1.0.
    """
    if level not in ("nominal", "ordinal"):
        raise ValueError(f"bad level: {level!r}")
    rows = [list(r) for r in rows]
    if len(rows) < 2:
        raise ValueError("need at least two raters")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("rater rows must have equal length")
    units = []
    for j in range(width):
        ratings = [row[j] for row in rows if not _is_missing(row[j])]
        if len(ratings) >= 2:
            units.append(ratings)
    if not units:
        raise ValueError("no unit has two or more ratings")
    values = {v for unit in units for v in unit}
    try:
        categories = sorted(values)
    except TypeError:
        if level == "ordinal":
            raise ValueError("ordinal data must be mutually orderable") from None
        categories = sorted(values, key=repr)
    index = {v: i for i, v in enumerate(categories)}
    k = len(categories)
    coincidence = np.zeros((k, k))
    for unit in units:
        m = len(unit)
        for a, b in itertools.permutations(unit, 2):
            coincidence[index[a], index[b]] += 1.0 / (m - 1)
    n_c = coincidence.sum(axis=1)
    n = n_c.sum()
    if level == "nominal":
        delta = 1.0 - np.eye(k)
    else:
        cum = np.cumsum(n_c)
        delta = np.zeros((k, k))
        for c in range(k):
            for d in range(c + 1, k):
                span = cum[d] - cum[c] + n_c[c]
                gap = (span - (n_c[c] + n_c[d]) / 2.0) ** 2
                delta[c, d] = delta[d, c] = gap
    observed = (coincidence * delta).sum()
    if observed == 0.0:
        return 1.0
    expected = (np.outer(n_c, n_c) * delta).sum()
    if expected == 0.0:
        return 1.0
    return float(1.0 - (n - 1.0) * observed / expected)


def cec(
    modality_rows: Sequence[Sequence[str]],
    taxonomy: EmotionTaxonomy,
    level: str = "lower",
) -> float:
    """Cross-modal emotion agreement: alpha with modalities as raters.

    Rows are per-modality final label sequences over the same utterance
    columns.  Ambiguous cells count as missing ratings at both levels;
    at the ``upper`` level surviving labels collapse to tendencies.
    """
    if level not in ("lower", "upper"):
        raise ValueError(f"bad level: {level!r}")
    table = []
    for row in modality_rows:
        mapped: list[Optional[str]] = []
        for lab in row:
            if lab == AMBIGUOUS:
                mapped.append(None)
            elif lab not in taxonomy:
                raise CorpusError(f"unknown emotion label: {lab!r}")
            elif level == "upper":
                mapped.append(taxonomy.tendency_of(lab))
            else:
                mapped.append(lab)
        table.append(mapped)
    return krippendorff_alpha(table, level="nominal")


def normalized_entropy(counts: Mapping[str, int], num_categories: int) -> float:
    """Shannon entropy of the vote histogram, scaled to [0, 1].

    Normalization is by log(num_categories), so 1.0 means votes spread
    uniformly over the whole taxonomy.  An empty histogram carries no
    spread and contributes 0.
    """
    if num_categories < 2:
        raise ValueError("need at least two categories")
    total = sum(counts.values())
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * math.log(p)
    return entropy / math.log(num_categories)


def ed(entropies: Sequence[float]) -> float:
    """Mean of the cells' ``normalized_entropy``: expert indecision, 0 is crisp."""
    if not entropies:
        raise ValueError("no cell entropies")
    return float(np.mean(entropies))


def rc_score_from_verdict(
    agree: Sequence[str], disagree: Sequence[str]
) -> Optional[int]:
    """Map an evidence verdict onto the 1..5 scale; ``None`` means dropped.

    No evidence either way is an abstention (dropped).  One-sided
    evidence pins the extremes: agree-only is 5, disagree-only is 1.
    Mixed evidence compares span counts: more agreement 4, balanced 3,
    more disagreement 2.
    """
    if not agree and not disagree:
        return None
    if not disagree:
        return 5
    if not agree:
        return 1
    if len(agree) > len(disagree):
        return 4
    if len(agree) == len(disagree):
        return 3
    return 2
