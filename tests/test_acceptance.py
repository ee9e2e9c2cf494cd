"""Acceptance gate: one test per release criterion, at fixed tolerances.

Each criterion is a single test, so a verbose run prints exactly one
pass or fail line per criterion.  Tests also print a summary line with
the measured volume and wall time for anyone reading captured output.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from conftest import (
    _UTTERANCE_LINE,
    _response_content,
    echo_prediction,
    fast_config,
    make_experts,
    make_rc_evaluators,
    make_sample,
    write_corpus,
    write_predictions,
)
from oracles import (
    alpha_pairwise,
    hellinger_via_bhattacharyya,
    mec_via_precision_recall,
    transition_pairs,
    vote_compositions,
)

from rpeval.corpus import AMBIGUOUS, PredictionRecord, default_taxonomy
from rpeval.erc import MODALITIES, select_label
from rpeval.judges import MockBackend, TransportError
from rpeval.metrics import (
    build_transition_matrices,
    hellinger,
    krippendorff_alpha,
    mec,
    rc_score_from_verdict,
)
from rpeval.pipeline import evaluate

TAXONOMY = default_taxonomy()


def _passed(criterion: int, detail: str) -> None:
    print(f"acceptance criterion {criterion:02d}: PASS ({detail})")


def test_criterion_01_rc_mapping_table_exact():
    """Evidence-count combinations map onto {dropped, 5, 4, 3, 2, 1}."""
    t0 = time.perf_counter()
    seen = set()
    for n_agree in range(6):
        for n_disagree in range(6):
            agree = [f"a{i}" for i in range(n_agree)]
            disagree = [f"d{i}" for i in range(n_disagree)]
            if n_agree == 0 and n_disagree == 0:
                expected = None
            elif n_disagree == 0:
                expected = 5
            elif n_agree == 0:
                expected = 1
            elif n_agree > n_disagree:
                expected = 4
            elif n_agree == n_disagree:
                expected = 3
            else:
                expected = 2
            got = rc_score_from_verdict(agree, disagree)
            assert got == expected, (n_agree, n_disagree, got, expected)
            seen.add(expected)
    assert seen == {None, 5, 4, 3, 2, 1}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(1, f"36/36 evidence combinations, all 6 outcomes, {elapsed:.3f}s")


def _random_distribution(rng: random.Random, k: int) -> list[float]:
    weights = [rng.random() for _ in range(k)]
    if rng.random() < 0.3:
        keep = rng.randrange(k)
        weights = [w if (i == keep or rng.random() < 0.5) else 0.0
                   for i, w in enumerate(weights)]
    total = sum(weights)
    if total <= 0.0:
        weights[0] = 1.0
        total = 1.0
    return [w / total for w in weights]


def test_criterion_02_hellinger_against_bhattacharyya():
    """Identity 0, disjoint 1, and 1e-12 agreement with the oracle."""
    t0 = time.perf_counter()
    assert hellinger([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == 0.0
    assert hellinger([1.0, 0.0], [0.0, 1.0]) == 1.0
    rng = random.Random(20260814)
    worst = 0.0
    for _ in range(10_000):
        k = rng.randint(2, 13)
        p = _random_distribution(rng, k)
        q = _random_distribution(rng, k)
        worst = max(worst, abs(hellinger(p, q)
                               - hellinger_via_bhattacharyya(p, q)))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(2, f"10000 pairs, worst gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_alpha_against_pair_enumeration():
    """Both agreement kernels match the brute-force oracle within 1e-9."""
    t0 = time.perf_counter()
    unanimous = [[1, 2, 3, None, 2], [1, 2, 3, 1, 2], [1, 2, 3, 1, 2]]
    assert krippendorff_alpha(unanimous, level="nominal") == 1.0
    assert krippendorff_alpha(unanimous, level="ordinal") == 1.0
    rng = random.Random(3)
    worst = 0.0
    checked = 0
    while checked < 1000:
        n_raters = rng.randint(2, 6)
        n_units = rng.randint(2, 20)
        n_categories = rng.randint(2, 5)
        rows = [
            [rng.randint(1, n_categories) if rng.random() >= 0.3 else None
             for _ in range(n_units)]
            for _ in range(n_raters)
        ]
        if not any(sum(row[j] is not None for row in rows) >= 2
                   for j in range(n_units)):
            continue
        for level in ("nominal", "ordinal"):
            got = krippendorff_alpha(rows, level=level)
            want = alpha_pairwise(rows, level=level)
            worst = max(worst, abs(got - want))
        checked += 1
    assert worst <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(3, f"1000 tables x 2 levels, worst gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_04_tau_vote_exhaustive():
    """Every split of 10 votes over 13 labels agrees with integer math."""
    assert select_label({"happy": 7, "sadness": 3}, 10, 0.7) == "happy"
    assert select_label({"happy": 6, "sadness": 4}, 10, 0.7) == AMBIGUOUS
    labels = TAXONOMY.labels
    t0 = time.perf_counter()
    n_checked = 0
    for comp in vote_compositions(10, 13):
        counts = {}
        best = 0
        best_label = None
        ties = 0
        for label, c in zip(labels, comp):
            if not c:
                continue
            counts[label] = c
            if c > best:
                best, best_label, ties = c, label, 1
            elif c == best:
                ties += 1
        # integer threshold: c/10 >= 0.7 iff c >= 7, winner must be unique
        expected = best_label if (ties == 1 and best >= 7) else AMBIGUOUS
        assert select_label(counts, 10, 0.7) == expected, comp
        n_checked += 1
    assert n_checked == 646_646
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(4, f"{n_checked} vote splits, {elapsed:.2f}s")


def test_criterion_05_mec_confusion_cells():
    """Confusion cells and the weighted score match brute-force scoring."""
    t0 = time.perf_counter()
    rng = random.Random(55)
    labels = TAXONOMY.labels
    perfect = []
    for _ in range(10):
        gold = rng.sample(labels, rng.randint(1, 4))
        perfect.append((list(gold), list(gold)))
    assert mec(perfect, TAXONOMY, level="lower")[0] == 1.0

    for _ in range(500):
        samples = []
        for _ in range(rng.randint(1, 20)):
            n_utt = rng.randint(1, 4)
            gold = [rng.choice(labels) for _ in range(n_utt)]
            pred = [AMBIGUOUS if rng.random() < 0.15 else rng.choice(labels)
                    for _ in range(n_utt)]
            if rng.random() < 0.2:  # scoring never requires equal lengths
                pred = pred[:-1]
            samples.append((gold, pred))
        for level in ("lower", "upper"):
            value, per_class = mec(samples, TAXONOMY, level=level)
            assert 0.0 <= value <= 1.0
            oracle = mec_via_precision_recall(samples, TAXONOMY, level)
            assert abs(value - oracle) <= 1e-12
            upper = level == "upper"
            pairs = []
            for gold, pred in samples:
                g = {TAXONOMY.tendency_of(x) if upper else x for x in gold}
                p = {TAXONOMY.tendency_of(x) if upper else x
                     for x in pred if x != AMBIGUOUS}
                pairs.append((g, p))
            classes = TAXONOMY.tendencies() if upper else labels
            for x in classes:
                cell = per_class[x]
                assert cell["tp"] == sum(1 for g, p in pairs if x in g and x in p)
                assert cell["fn"] == sum(
                    1 for g, p in pairs if x in g and x not in p)
                assert cell["fp"] == sum(
                    1 for g, p in pairs if x not in g and x in p)
                assert cell["tn"] == sum(
                    1 for g, p in pairs if x not in g and x not in p)
                assert cell["n"] == cell["tp"] + cell["fn"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(5, f"500 corpora x 2 levels, cells exact, {elapsed:.2f}s")


def test_criterion_06_transition_pair_oracle():
    """Intra/inter counts reproduce a literal pair listing."""
    t0 = time.perf_counter()
    rng = random.Random(66)
    vocabulary = list(TAXONOMY.labels) + [AMBIGUOUS] * 3
    for _ in range(500):
        dialogues = []
        for _ in range(rng.randint(1, 4)):
            dialogues.append([
                [rng.choice(vocabulary) for _ in range(rng.randint(0, 3))]
                for _ in range(rng.randint(1, 5))
            ])
        intra, inter = build_transition_matrices(dialogues, TAXONOMY)
        want_intra, want_inter = transition_pairs(dialogues)
        assert intra.sum() == sum(want_intra.values())
        assert inter.sum() == sum(want_inter.values())
        for (a, b), count in want_intra.items():
            assert intra[TAXONOMY.index(a), TAXONOMY.index(b)] == count
        for (a, b), count in want_inter.items():
            assert inter[TAXONOMY.index(a), TAXONOMY.index(b)] == count
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(6, f"500 dialogue sets, {elapsed:.2f}s")


def test_criterion_07_ground_truth_fixed_point(tmp_path):
    """Scoring a corpus against itself lands every metric on its ideal."""
    pools = {
        "hero": ("happy", "grateful", "relaxed"),
        "witch": ("anger", "disgust", "fear"),
        "sage": ("neutral", "astonished", "depress"),
    }
    samples = []
    for r, (role, pool) in enumerate(pools.items()):
        for j in range(10):
            gt = (pool[j % 3], pool[(j + 1) % 3])
            samples.append(make_sample(f"s{r}{j:02d}", role_id=role, gt=gt))
    corpus = write_corpus(tmp_path / "corpus.jsonl", samples)
    predictions = write_predictions(
        tmp_path / "preds.jsonl", [echo_prediction(s) for s in samples])
    t0 = time.perf_counter()
    run = evaluate(fast_config(), corpus, predictions,
                   experts=make_experts(), rc_evaluators=make_rc_evaluators())
    elapsed = time.perf_counter() - t0
    summary = run.report["summary"]
    assert summary["mec.lower"] == 1.0
    assert summary["cec.lower"] == 1.0
    assert summary["edd.intra"] == 0.0
    assert summary["edd.inter"] == 0.0
    assert summary["rcd.intra"] == 0.0
    assert summary["rcd.inter"] == 0.0
    for column in ("all", "spe", "fac", "bod"):
        assert summary[f"ed.{column}"] == 0.0
    counts = run.report["counts"]
    assert counts["ec_samples"] == 30  # nothing was excluded on the way
    assert counts["dropped_format"] == 0
    assert counts["dropped_erc"] == 0
    assert elapsed < 30.0
    _passed(7, f"3 roles x 30 samples, all ideals exact, {elapsed:.2f}s")


def _fuzz_world(rng: random.Random):
    labels = TAXONOMY.labels
    roles = [f"role{r}" for r in range(rng.randint(1, 3))]
    samples = []
    for i in range(rng.randint(2, 6)):
        gt = tuple(rng.choice(labels) for _ in range(rng.randint(1, 3)))
        words = [rng.choice((*gt, "blargh", "zonk")) for _ in gt]
        samples.append(make_sample(
            f"f{i:02d}", role_id=rng.choice(roles), gt=gt,
            content="。".join(words) + "。",
        ))
    records = []
    for sample in samples:
        roll = rng.random()
        if roll < 0.15:
            continue  # missing prediction
        if roll < 0.35:
            records.append(PredictionRecord(
                sample.sample_id, f"line noise {rng.random():.3f}"))
        elif roll < 0.55:
            donor = rng.choice(samples)
            records.append(PredictionRecord(
                sample.sample_id, donor.ground_truth.to_json()))
        else:
            records.append(echo_prediction(sample))
    if not records:
        records.append(echo_prediction(samples[0]))
    return samples, records


def _adversarial_expert(name: str, rng: random.Random) -> MockBackend:
    vocabulary = list(TAXONOMY.labels) + ["gibberish", AMBIGUOUS]

    def handler(prompt, sampling):
        roll = rng.random()
        if roll < 0.08:
            raise TransportError("flaky judge")
        if roll < 0.2:
            return "I refuse to answer in JSON."
        n = len(_UTTERANCE_LINE.findall(prompt))
        if roll < 0.35:
            n = max(0, n + rng.choice((-1, 1)))
        labels = [rng.choice(vocabulary) for _ in range(n)]
        return json.dumps({f"emos_{m}": labels for m in MODALITIES})

    return MockBackend(name, handler=handler)


def _adversarial_rc(name: str, rng: random.Random) -> MockBackend:
    def handler(prompt, sampling):
        roll = rng.random()
        if roll < 0.2:
            return "mumble mumble"
        content = _response_content(prompt)
        spans = [content] if content else []
        agree = spans * rng.randint(0, 2)
        disagree = spans * rng.randint(0, 2)
        if roll < 0.35:
            disagree = disagree + ["this quote appears nowhere"]
        return json.dumps(
            {"agree_evidence": agree, "disagree_evidence": disagree},
            ensure_ascii=False,
        )

    return MockBackend(name, handler=handler)


def _assert_unit(value, lo, hi, key):
    if value is not None:
        assert lo <= value <= hi, (key, value)


def test_criterion_08_metric_bounds_under_fuzz(tmp_path):
    """Bounds survive 1000 randomized runs with adversarial judges."""
    rng = random.Random(88)
    config = fast_config(passes=1, concurrency=1)
    t0 = time.perf_counter()
    for i in range(1000):
        samples, records = _fuzz_world(rng)
        corpus = write_corpus(tmp_path / "fuzz_corpus.jsonl", samples)
        predictions = write_predictions(tmp_path / "fuzz_preds.jsonl", records)
        experts = [
            _adversarial_expert(f"e{j}", random.Random(rng.randrange(2 ** 32)))
            for j in range(2)
        ]
        rc = [_adversarial_rc("r0", random.Random(rng.randrange(2 ** 32)))]
        run = evaluate(config, corpus, predictions,
                       experts=experts, rc_evaluators=rc)
        summary = run.report["summary"]
        for key in ("mec.lower", "mec.upper", "edd.intra", "edd.inter",
                    "ed.all", "ed.spe", "ed.fac", "ed.bod"):
            _assert_unit(summary[key], 0.0, 1.0, key)
        for key in ("rcd.intra", "rcd.inter"):
            _assert_unit(summary[key], -1.0, 1.0, key)
        for key in ("rc.exp", "rc.cha", "rc.rel"):
            _assert_unit(summary[key], 1.0, 5.0, key)
        counts = run.report["counts"]
        assert (counts["valid_direct"] + counts["repaired"]
                + counts["dropped_format"]) == counts["predictions"]
        assert counts["missing_predictions"] == len(samples) - len(records)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(8, f"1000 fuzz runs, all bounds held, {elapsed:.1f}s")


def test_criterion_09_determinism_and_cache_transparency(tmp_path):
    """A warm rerun is byte-identical and never touches the backends."""
    samples = [
        make_sample("d01", role_id="hero", gt=("happy", "grateful")),
        make_sample("d02", role_id="hero", gt=("relaxed",)),
        make_sample("d03", role_id="witch", gt=("anger", "disgust")),
        make_sample("d04", role_id="witch", gt=("fear",)),
    ]
    corpus = write_corpus(tmp_path / "corpus.jsonl", samples)
    predictions = write_predictions(
        tmp_path / "preds.jsonl", [echo_prediction(s) for s in samples])
    config = fast_config(cache_dir=str(tmp_path / "cache"))
    experts = make_experts()
    rc = make_rc_evaluators()

    evaluate(config, corpus, predictions, out_dir=tmp_path / "out1",
             experts=experts, rc_evaluators=rc)
    calls_after_first = [b.calls for b in experts + rc]
    assert sum(calls_after_first) > 0

    run2 = evaluate(config, corpus, predictions, out_dir=tmp_path / "out2",
                    experts=experts, rc_evaluators=rc)
    assert [b.calls for b in experts + rc] == calls_after_first
    first = (tmp_path / "out1" / "report.json").read_bytes()
    second = (tmp_path / "out2" / "report.json").read_bytes()
    assert first == second
    cache_stats = run2.manifest["cache"]
    assert cache_stats["lookups"] > 0
    assert cache_stats["hits"] == cache_stats["lookups"]
    _passed(9, f"byte-identical rerun, {cache_stats['hits']} cache hits, "
               "0 new backend calls")


def test_criterion_10_exclusion_accounting(tmp_path):
    """k unrepairable predictions shrink every denominator to n - k."""
    n = 8
    golds = [
        ("happy", "grateful"), ("relaxed",), ("worried", "sadness"),
        ("anger",), ("disgust", "anger"), ("neutral",),
        ("fear", "depress"), ("astonished",),
    ]
    samples = [
        make_sample(f"x{i:02d}", role_id="hero" if i < 4 else "witch",
                    gt=golds[i])
        for i in range(n)
    ]
    for k in (0, 1, 3):
        corpus = write_corpus(tmp_path / f"corpus{k}.jsonl", samples)
        records = [echo_prediction(s) for s in samples]
        for i in range(k):
            records[i] = PredictionRecord(
                samples[i].sample_id, f"broken output {i}")
        predictions = write_predictions(tmp_path / f"preds{k}.jsonl", records)
        run = evaluate(fast_config(), corpus, predictions,
                       experts=make_experts(),
                       rc_evaluators=make_rc_evaluators())
        counts = run.report["counts"]
        assert counts["dropped_format"] == k
        assert counts["dropped_erc"] == 0
        assert counts["ec_samples"] == n - k
        survivors = samples[k:]
        support = sum(len(set(s.gt_emotions)) for s in survivors)
        per_class = run.report["per_class"]["lower"]
        assert sum(stats["n"] for stats in per_class.values()) == support
        for metric in ("exp", "cha", "rel"):
            assert run.report["metrics"]["rc"][metric]["scored"] == n - k
    _passed(10, "k in {0, 1, 3}: dropped_format == k, denominators == n - k")
