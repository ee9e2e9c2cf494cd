"""The deterministic metric kernels, one by one, on tiny hand-checked
inputs: distribution distance, transition divergence, distinctiveness,
emotion correctness, agreement, indecision, and the role score.

Run me with: python3 demos/04_metric_kernels.py
"""

import math

from rpeval import (
    AMBIGUOUS,
    build_transition_matrices,
    cec,
    character_distinctiveness,
    default_taxonomy,
    edd,
    hellinger,
    krippendorff_alpha,
    matrix_distance,
    mec,
    normalized_entropy,
    rc_score_from_verdict,
    rcd,
)

taxonomy = default_taxonomy()

# ------------------------------------------------------------------ distance
# Hellinger distance between distributions: 0 when identical, 1 when
# the supports are disjoint, in between otherwise.

print("identical:", hellinger([0.5, 0.5], [0.5, 0.5]))
print("disjoint:", hellinger([1, 0], [0, 1]))
print("half overlap:", round(hellinger([1, 0], [0.5, 0.5]), 6),
      "= sqrt(1 - sqrt(0.5)) =", round(math.sqrt(1 - math.sqrt(0.5)), 6))

# --------------------------------------------------------------- transitions
# Per-role emotion flow is summarized as two count arrays, rows and
# columns in taxonomy order: pairs of adjacent labels inside one response
# (intra) and across the boundary between consecutive responses (inter).
# Ambiguous labels break chains.

dialogue = [
    ["happy", "happy", "anger"],      # intra: happy->happy, happy->anger
    ["anger"],                        # inter: anger->anger, anger->sadness
    ["sadness", AMBIGUOUS, "fear"],   # the ambiguous cell contributes nothing
]
intra, inter = build_transition_matrices([dialogue], taxonomy)
print("\nintra pairs counted:", intra.sum(), "| inter pairs counted:", inter.sum())
h, a = taxonomy.index("happy"), taxonomy.index("anger")
print("happy->anger count:", intra[h, a])

other = [["sadness", "sadness"], ["fear", "worried"]]
other_intra, _ = build_transition_matrices([other], taxonomy)
print("distance between the two intra matrices:",
      round(matrix_distance(intra, other_intra), 4))

# The divergence metric averages that distance per role between ground
# truth and prediction; distinctiveness is the mean pairwise distance
# across roles, and the relative form subtracts truth from prediction.

gt = {"hero": intra, "witch": other_intra}
print("edd (gt vs itself):", edd(gt, gt))
print("cd across roles:", round(character_distinctiveness(gt), 4))
print("rcd (gt vs itself):", rcd(gt, gt)["value"])

# ---------------------------------------------------------------- correctness
# Emotion correctness compares per-sample label sets and weights each
# class F1 by how many samples carry the class.  Ambiguous predictions
# are discarded before the comparison; at the upper level both sides
# collapse to positive / neutral / negative first.

samples = [
    (["happy", "grateful"], ["happy", "grateful"]),  # exact
    (["anger"], ["anger", AMBIGUOUS]),               # sentinel dropped
    (["sadness"], ["fear"]),                         # miss
]
lower, per_class = mec(samples, taxonomy, level="lower")
upper, _ = mec(samples, taxonomy, level="upper")
print("\nmec lower:", round(lower, 4), "| upper:", round(upper, 4))
print("per-class row (sadness):", per_class["sadness"])

# ------------------------------------------------------------------ agreement
# Cross-channel agreement treats the four channels as raters over all
# utterance cells and computes Krippendorff's alpha; an ambiguous cell
# counts as a missing rating.  The raw kernel also stands alone for any
# raters-by-units table, with None marking the holes.

channels = [
    ["happy", "anger", "sadness", "happy"],
    ["happy", "anger", "sadness", "happy"],
    ["happy", "anger", "fear", AMBIGUOUS],
    ["happy", "anger", "sadness", "happy"],
]
print("\ncec lower:", round(cec(channels, taxonomy, level="lower"), 4),
      "| cec upper:", round(cec(channels, taxonomy, level="upper"), 4))
ordinal = [[1, 2, 4, None], [1, 2, 5, 1], [1, 2, 4, 1]]
print("ordinal alpha rewards near misses:",
      round(krippendorff_alpha(ordinal, "ordinal"), 4), ">",
      round(krippendorff_alpha(ordinal, "nominal"), 4))

# ------------------------------------------------------------------ indecision
# A vote cell is a plain histogram, label -> count.  A unanimous cell
# has zero normalized entropy; an even split over two labels lands
# partway up the scale set by the taxonomy size.

unanimous = {"happy": 10}
split = {"anger": 5, "happy": 5}
print("\nentropy unanimous:", normalized_entropy(unanimous, taxonomy.size))
print("entropy 5/5 split:", round(normalized_entropy(split, taxonomy.size), 4))

# ------------------------------------------------------------------ role score
# Each role-consistency verdict is two lists of verbatim evidence, for
# and against.  One-sided evidence pins the extremes (5 or 1), mixed
# evidence compares the counts (4, 3 or 2), and a verdict with no
# evidence at all abstains.  The pipeline scores each verdict as soon
# as it is parsed and keeps only the score.

for agree, disagree in [(2, 0), (3, 1), (2, 2), (1, 2), (0, 1), (0, 0)]:
    score = rc_score_from_verdict(["a"] * agree, ["d"] * disagree)
    print(f"agree={agree} disagree={disagree} -> {score}")
