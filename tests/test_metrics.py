"""Metric kernels against worked examples and independent oracles."""

import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest

from oracles import alpha_pairwise, hellinger_via_bhattacharyya, transition_pairs

import rpeval.metrics
from rpeval.corpus import AMBIGUOUS, CorpusError, EmotionTaxonomy, default_taxonomy
from rpeval.metrics import (
    build_transition_matrices,
    cec,
    character_distinctiveness,
    ed,
    edd,
    hellinger,
    krippendorff_alpha,
    matrix_distance,
    mec,
    normalized_entropy,
    rc_score_from_verdict,
    rcd,
)

TAX = default_taxonomy()

TINY_TAX = EmotionTaxonomy(
    labels=("up", "flat", "down"),
    tendency_map={"up": "positive", "flat": "neutral", "down": "negative"},
)


# ---------------------------------------------------------------- hellinger

def test_hellinger_identical_is_exactly_zero():
    assert hellinger([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == 0.0


def test_hellinger_disjoint_is_exactly_one():
    assert hellinger([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert hellinger([0.5, 0.5, 0.0], [0.0, 0.0, 1.0]) == 1.0


def test_hellinger_known_value():
    # H([1,0],[.5,.5])^2 = 1 - BC = 1 - sqrt(0.5)
    expected = math.sqrt(1.0 - math.sqrt(0.5))
    assert hellinger([1.0, 0.0], [0.5, 0.5]) == pytest.approx(expected, abs=1e-15)


def test_hellinger_symmetry_and_range():
    rng = random.Random(7)
    for _ in range(50):
        k = rng.randint(2, 12)
        p = [rng.random() for _ in range(k)]
        q = [rng.random() for _ in range(k)]
        p = [x / sum(p) for x in p]
        q = [x / sum(q) for x in q]
        d = hellinger(p, q)
        assert d == hellinger(q, p)
        assert 0.0 <= d <= 1.0


def test_hellinger_matches_bhattacharyya_route():
    rng = random.Random(13)
    for _ in range(200):
        k = rng.randint(2, 30)
        p = [rng.expovariate(1.0) for _ in range(k)]
        q = [rng.expovariate(1.0) for _ in range(k)]
        p = [x / sum(p) for x in p]
        q = [x / sum(q) for x in q]
        assert hellinger(p, q) == pytest.approx(
            hellinger_via_bhattacharyya(p, q), abs=1e-12)


def test_hellinger_input_validation():
    with pytest.raises(ValueError):
        hellinger([0.5, 0.5], [1.0])
    with pytest.raises(ValueError):
        hellinger([0.7, 0.4], [0.5, 0.5])  # does not sum to 1
    with pytest.raises(ValueError):
        hellinger([-0.1, 1.1], [0.5, 0.5])
    with pytest.raises(ValueError):
        hellinger([], [])


# ------------------------------------------------------- transition matrices

def _counts(*pairs, taxonomy=TINY_TAX):
    """A count matrix with one count per (source, target) label pair."""
    m = np.zeros((taxonomy.size, taxonomy.size), dtype=np.int64)
    for src, dst in pairs:
        m[taxonomy.index(src), taxonomy.index(dst)] += 1
    return m


def test_matrix_add_and_errors():
    intra, inter = build_transition_matrices(
        [[["up", "down", "down"], ["flat", "up"]]], TINY_TAX)
    assert intra.dtype == inter.dtype == np.int64
    assert intra.shape == inter.shape == (3, 3)
    assert intra.sum() == 3
    assert intra[0, 2] == 1 and intra[2, 2] == 1 and intra[1, 0] == 1
    assert inter.sum() == 1 and inter[2, 1] == 1
    with pytest.raises(CorpusError, match="unknown emotion label: 'sideways'"):
        build_transition_matrices([[["sideways", "up"]]], TINY_TAX)
    with pytest.raises(CorpusError, match="unknown emotion label: 'sideways'"):
        build_transition_matrices([[["up"], ["sideways"]]], TINY_TAX)


def test_matrix_row_probabilities_uniform_for_zero_rows():
    # Row "up" differs: [1, 0, 0] against [0, 0, 1], distance 1.  Row
    # "flat" is empty on both sides, so both are uniform: distance 0.  Row
    # "down" is empty on one side only: [0, 1, 0] against uniform.
    a = _counts(("up", "up"), ("down", "flat"))
    b = _counts(("up", "down"))
    against_uniform = math.sqrt(1.0 - math.sqrt(1.0 / 3.0))
    assert matrix_distance(a, b, mode="rows") == pytest.approx(
        (1.0 + 0.0 + against_uniform) / 3.0, abs=1e-12)


def test_matrix_flattened_distribution_and_smoothing():
    a = _counts(("up", "down"))
    b = _counts(("down", "up"))
    assert matrix_distance(a, b, smooth=0.0) == 1.0
    smoothed = matrix_distance(a, b, smooth=1e-9)
    assert 0.9999 < smoothed < 1.0
    empty = np.zeros((3, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="empty"):
        matrix_distance(empty, a)
    with pytest.raises(ValueError, match="empty"):
        matrix_distance(a, empty, smooth=0.0)


def test_build_transitions_worked_example():
    # one dialogue, three responses of one role
    dialogue = [
        ["happy", "happy", "sadness"],
        ["sadness"],
        ["anger", "worried"],
    ]
    intra, inter = build_transition_matrices([dialogue], TAX)
    h, s, a, w = (TAX.index(x) for x in ("happy", "sadness", "anger", "worried"))
    assert intra[h, h] == 1
    assert intra[h, s] == 1
    assert intra[a, w] == 1
    assert intra.sum() == 3
    assert inter[s, s] == 1
    assert inter[s, a] == 1
    assert inter.sum() == 2


def test_build_transitions_ambiguous_breaks_chains():
    dialogue = [
        ["happy", AMBIGUOUS, "sadness"],   # both intra pairs vanish
        [AMBIGUOUS],                        # kills both inter pairs around it
        ["anger"],
    ]
    intra, inter = build_transition_matrices([dialogue], TAX)
    assert intra.sum() == 0
    assert inter.sum() == 0
    # and no bridging: happy->anger must not appear either
    assert inter[TAX.index("happy"), TAX.index("anger")] == 0


def test_build_transitions_matches_pair_listing_oracle():
    rng = random.Random(99)
    labels = list(TAX.labels)
    for _ in range(100):
        dialogues = []
        for _ in range(rng.randint(1, 4)):
            dialogue = []
            for _ in range(rng.randint(1, 5)):
                length = rng.randint(1, 4)
                dialogue.append([
                    rng.choice(labels + [AMBIGUOUS]) for _ in range(length)
                ])
            dialogues.append(dialogue)
        intra, inter = build_transition_matrices(dialogues, TAX)
        o_intra, o_inter = transition_pairs(dialogues)
        for (a, b), count in o_intra.items():
            assert intra[TAX.index(a), TAX.index(b)] == count
        assert intra.sum() == sum(o_intra.values())
        for (a, b), count in o_inter.items():
            assert inter[TAX.index(a), TAX.index(b)] == count
        assert inter.sum() == sum(o_inter.values())


def test_matrix_distance_identical_is_zero_disjoint_is_one():
    a = _counts(("up", "down"), ("down", "up"))
    assert matrix_distance(a, a.copy()) == 0.0
    c = _counts(("flat", "flat"))
    # smoothing keeps the supports overlapping a little
    assert matrix_distance(a, c) == pytest.approx(1.0, abs=1e-4)
    assert matrix_distance(a, c, smooth=0.0) == 1.0


def test_matrix_distance_modes_and_errors():
    a = _counts(("up", "down"))
    b = _counts(("up", "up"))
    assert 0.0 < matrix_distance(a, b, mode="rows") <= 1.0
    other = np.ones((2, 2), dtype=np.int64)
    for mode in ("flatten", "rows"):
        with pytest.raises(ValueError, match="shape"):
            matrix_distance(a, other, mode=mode)
    with pytest.raises(ValueError):
        matrix_distance(a, b, mode="diagonal")


def test_edd_averages_roles_and_skips_empty_sides():
    gt = {"a": _counts(("up", "up")),
          "b": _counts(("down", "down"))}
    rpa = {"a": _counts(("up", "up")),
           "b": _counts()}
    value = edd(gt, rpa)
    assert value == 0.0  # role b skipped, role a identical
    rpa["b"] = _counts(("up", "down"))
    both = edd(gt, rpa)
    assert both == pytest.approx(
        matrix_distance(gt["b"], rpa["b"]) / 2.0, abs=1e-12)


def test_edd_undefined_when_every_role_empty():
    gt = {"a": _counts()}
    rpa = {"a": _counts(("up", "up"))}
    assert edd(gt, rpa) is None


def test_edd_validates_role_sets():
    gt = {"a": _counts(("up", "up"))}
    with pytest.raises(ValueError):
        edd(gt, {"b": _counts(("up", "up"))})
    with pytest.raises(ValueError):
        edd({}, {})


def test_character_distinctiveness():
    matrices = {
        "a": _counts(("up", "up")),
        "b": _counts(("down", "down")),
        "c": _counts(("up", "up")),
    }
    value = character_distinctiveness(matrices, smooth=0.0)
    # pairs: (a,b)=1, (a,c)=0, (b,c)=1
    assert value == pytest.approx(2.0 / 3.0, abs=1e-12)
    with pytest.raises(ValueError):
        character_distinctiveness({"a": matrices["a"]})


def test_character_distinctiveness_undefined_with_one_usable_role():
    matrices = {
        "a": _counts(("up", "up")),
        "b": _counts(),
    }
    assert character_distinctiveness(matrices) is None


def test_rcd_is_difference_of_distinctiveness():
    gt = {"a": _counts(("up", "up")),
          "b": _counts(("down", "down"))}
    rpa = {"a": _counts(("up", "up")),
           "b": _counts(("up", "up"))}
    result = rcd(gt, rpa, smooth=0.0)
    assert result["cd_gt"] == pytest.approx(1.0)
    assert result["cd_rpa"] == 0.0
    assert result["value"] == pytest.approx(result["cd_rpa"] - result["cd_gt"])
    with pytest.raises(ValueError):
        rcd({"a": gt["a"]}, rpa)
    # an undefined side (every predicted role empty) leaves the gap undefined
    empty = {r: _counts() for r in rpa}
    assert rcd(gt, empty, smooth=0.0) == {"value": None, "cd_gt": result["cd_gt"],
                              "cd_rpa": None}


# -------------------------------------------------------------------- mec

def test_mec_perfect_predictions():
    samples = [(["happy", "sadness"], ["sadness", "happy"])]
    value, per_class = mec(samples, TAX)
    assert value == 1.0
    assert per_class["happy"]["tp"] == 1
    assert per_class["anger"]["tn"] == 1


def test_mec_ambiguous_predictions_are_discarded():
    samples = [(["happy"], [AMBIGUOUS, "happy", AMBIGUOUS])]
    assert mec(samples, TAX)[0] == 1.0
    value, per_class = mec([(["happy"], [AMBIGUOUS])], TAX)
    assert value == 0.0
    assert per_class["happy"]["fn"] == 1
    assert per_class["happy"]["fp"] == 0


def test_mec_support_weighting_worked_example():
    samples = [
        (["happy"], ["happy"]),
        (["happy"], ["happy"]),
        (["anger"], ["sadness"]),
    ]
    value, per_class = mec(samples, TAX)
    # happy: n=2 f1=1; anger: n=1 f1=0; sadness: n=0 (fp only)
    assert value == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert per_class["sadness"] == {"n": 0, "tp": 0, "fp": 1, "fn": 0, "tn": 2,
                                    "precision": 0.0, "recall": 0.0, "f1": 0.0}
    assert per_class["happy"]["f1"] == 1.0


def test_mec_upper_collapses_to_tendencies():
    samples = [(["happy"], ["grateful"])]
    lower, _ = mec(samples, TAX, level="lower")
    upper, upper_per_class = mec(samples, TAX, level="upper")
    assert lower == 0.0
    assert upper == 1.0
    assert set(upper_per_class) == {"positive", "neutral", "negative"}


def test_mec_duplicate_labels_collapse_to_sets():
    a = mec([(["happy", "happy", "anger"], ["happy", "happy"])], TAX)
    b = mec([(["happy", "anger"], ["happy"])], TAX)
    assert a == b
    assert a[1]["happy"]["tp"] == 1


def test_mec_errors():
    with pytest.raises(ValueError):
        mec([], TAX)
    with pytest.raises(ValueError):
        mec([([], ["happy"])], TAX)
    with pytest.raises(CorpusError):
        mec([(["joyful"], ["happy"])], TAX)
    with pytest.raises(CorpusError):
        mec([(["happy"], ["joyful"])], TAX)
    with pytest.raises(ValueError):
        mec([(["happy"], ["happy"])], TAX, level="middle")


def test_mec_matches_precision_recall_route():
    from oracles import mec_via_precision_recall
    rng = random.Random(11)
    labels = list(TAX.labels)
    for _ in range(50):
        samples = []
        for _ in range(rng.randint(1, 8)):
            gt = [rng.choice(labels) for _ in range(rng.randint(1, 4))]
            pd = [rng.choice(labels + [AMBIGUOUS])
                  for _ in range(rng.randint(0, 4))]
            samples.append((gt, pd))
        for level in ("lower", "upper"):
            assert mec(samples, TAX, level)[0] == pytest.approx(
                mec_via_precision_recall(samples, TAX, level), abs=1e-12)


# ------------------------------------------------------------------- alpha

# Four observers, twelve units; a classic worked example for alpha.
_CLASSIC_TABLE = [
    [1, 2, 3, 3, 2, 1, 4, 1, 2, None, None, None],
    [1, 2, 3, 3, 2, 2, 4, 1, 2, 5, None, 3],
    [None, 3, 3, 3, 2, 3, 4, 2, 2, 5, 1, None],
    [1, 2, 3, 3, 2, 4, 4, 1, 2, 5, 1, None],
]


def test_alpha_classic_nominal_value():
    assert krippendorff_alpha(_CLASSIC_TABLE, "nominal") == pytest.approx(
        0.7434210526315789, abs=1e-12)


def test_alpha_matches_pairwise_oracle_on_classic_table():
    for level in ("nominal", "ordinal"):
        assert krippendorff_alpha(_CLASSIC_TABLE, level) == pytest.approx(
            alpha_pairwise(_CLASSIC_TABLE, level), abs=1e-12)


def test_alpha_perfect_agreement_is_one():
    rows = [["a", "b", "c"], ["a", "b", "c"], ["a", "b", None]]
    assert krippendorff_alpha(rows, "nominal") == 1.0


def test_alpha_degenerate_single_category_is_one():
    rows = [["x", "x"], ["x", "x"]]
    assert krippendorff_alpha(rows, "nominal") == 1.0


def test_alpha_two_categories_ordinal_equals_nominal():
    rng = random.Random(3)
    for _ in range(20):
        rows = [[rng.choice([1, 2, None]) for _ in range(8)] for _ in range(3)]
        usable = [j for j in range(8) if sum(
            r[j] is not None for r in rows) >= 2]
        present = {r[j] for r in rows for j in usable if r[j] is not None}
        if not usable or len(present) < 2:
            continue
        assert krippendorff_alpha(rows, "ordinal") == pytest.approx(
            krippendorff_alpha(rows, "nominal"), abs=1e-12)


def test_alpha_ordinal_rewards_near_misses():
    adjacent = [[1, 2, 3, 4], [2, 1, 4, 3]]
    extreme = [[1, 2, 3, 4], [4, 3, 2, 1]]
    assert krippendorff_alpha(adjacent, "ordinal") > krippendorff_alpha(
        extreme, "ordinal")


def test_alpha_column_duplication_follows_small_sample_correction():
    # Duplicating every column halves the (n-1) correction exactly:
    # alpha' = alpha - (1 - alpha) / (2 (n - 1)).
    rows = [r * 2 for r in _CLASSIC_TABLE]
    base = krippendorff_alpha(_CLASSIC_TABLE, "nominal")
    doubled = krippendorff_alpha(rows, "nominal")
    n = 40  # pairable values in the classic table
    assert doubled == pytest.approx(base - (1 - base) / (2 * (n - 1)),
                                    abs=1e-12)


def test_alpha_input_validation():
    with pytest.raises(ValueError):
        krippendorff_alpha([["a", "b"]], "nominal")
    with pytest.raises(ValueError):
        krippendorff_alpha([["a"], ["a", "b"]], "nominal")
    with pytest.raises(ValueError):
        krippendorff_alpha([["a", None], [None, "b"]], "nominal")
    with pytest.raises(ValueError):
        krippendorff_alpha(_CLASSIC_TABLE, "interval")
    with pytest.raises(ValueError):
        krippendorff_alpha([["a", 1], [1, "a"]], "ordinal")


# -------------------------------------------------------------------- cec

def test_cec_identical_modalities_agree_perfectly():
    rows = [["happy", "sadness"]] * 4
    assert cec(rows, TAX) == 1.0


def test_cec_rejects_an_unknown_level():
    with pytest.raises(ValueError, match="bad level: 'x'"):
        cec([["happy"], ["happy"]], TAX, level="x")


def test_cec_ambiguous_counts_as_missing():
    rows = [
        ["happy", AMBIGUOUS],
        ["happy", AMBIGUOUS],
        ["happy", AMBIGUOUS],
        ["happy", AMBIGUOUS],
    ]
    # column 2 has no ratings at all; column 1 agrees perfectly
    assert cec(rows, TAX) == 1.0
    with pytest.raises(ValueError):
        cec([[AMBIGUOUS], [AMBIGUOUS], [AMBIGUOUS], [AMBIGUOUS]], TAX)


def test_cec_upper_softens_within_tendency_disagreement():
    rows = [
        ["happy", "anger"],
        ["grateful", "sadness"],
        ["relaxed", "fear"],
        ["happy", "worried"],
    ]
    lower = cec(rows, TAX, level="lower")
    upper = cec(rows, TAX, level="upper")
    assert upper == 1.0
    assert lower < upper


def test_cec_rejects_unknown_labels():
    with pytest.raises(CorpusError):
        cec([["happy"], ["joyful"], ["happy"], ["happy"]], TAX)


# --------------------------------------------------------------------- ed

def test_normalized_entropy_extremes():
    point = {"happy": 10}
    assert normalized_entropy(point, 13) == 0.0
    uniform = {lab: 1 for lab in TAX.labels}
    assert normalized_entropy(uniform, 13) == pytest.approx(1.0, abs=1e-12)
    assert normalized_entropy({}, 13) == 0.0
    with pytest.raises(ValueError):
        normalized_entropy(point, 1)


def test_normalized_entropy_known_value():
    assert normalized_entropy({"a": 5, "b": 5}, 4) == pytest.approx(0.5, abs=1e-12)


def test_ed_averages_cells():
    cells = [normalized_entropy({"happy": 10}, TAX.size),
             normalized_entropy({"anger": 5, "happy": 5}, TAX.size)]
    expected = (0.0 + math.log(2) / math.log(13)) / 2.0
    assert ed(cells) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        ed([])


# ---------------------------------------------------------------- rc scores

def test_rc_verdict_mapping_table():
    assert rc_score_from_verdict([], []) is None
    assert rc_score_from_verdict(["a"], []) == 5
    assert rc_score_from_verdict(["a", "b"], ["c"]) == 4
    assert rc_score_from_verdict(["a"], ["c"]) == 3
    assert rc_score_from_verdict(["a"], ["c", "d"]) == 2
    assert rc_score_from_verdict([], ["c"]) == 1


# ---------------------------------------------------------------- layering

def test_metrics_depend_on_corpus_and_config_only():
    source = Path(rpeval.metrics.__file__).read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = ("rpeval." if node.level else "") + (node.module or "")
            imported.add(module.rstrip("."))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    # ``config`` imports only ``corpus`` in turn (tests/test_package.py).
    assert {m for m in imported if m.split(".")[0] == "rpeval"} == {
        "rpeval.config", "rpeval.corpus"}
