"""Boundary fuzz: seeded mutations of everything a run reads from outside.

Corpus records, prediction lines, judge replies and run-config objects
are mutated from valid ones with fixed seeds, so that a failure replays.
The parsers return a value or ``None``; the loaders raise only
``CorpusError`` and the config only ``ConfigError``; a judge that answers
mutated replies changes the records of those samples alone; and a 1 MiB
reply parses in linear time.  Standard library only.
"""

import copy
import json
import random
import time

import pytest

from conftest import (
    echo_prediction,
    label_echo_expert,
    make_repair_judge,
    make_sample,
    rc_agree_evaluator,
)
from rpeval.config import ConfigError, RetryPolicy, RunConfig
from rpeval.corpus import (
    CorpusError,
    PredictionRecord,
    default_taxonomy,
    load_corpus,
    load_predictions,
)
from rpeval.erc import MODALITIES, parse_erc_reply
from rpeval.formatter import validate
from rpeval.judges import JudgeClient, extract_json_object, parse_rc_verdict
from rpeval.pipeline import judge_sample
from rpeval.scheduler import drive

# Stand-ins for a value: wrong types, extremes and awkward text.
ODD_VALUES = [
    None, True, False, 0, -1, 2, 1.5, -0.0, 10**30, float("inf"), float("nan"),
    "", " ", "\ud800", "\x00", "😀", "x" * 200, "{", '"}', "happy", "profile",
    "http", [], [None], [[]], ["happy"], {}, {"": {}}, {"name": "x"},
]
# Pieces of text that move a JSON scan or a loader.
ODD_TEXT = ["{", "}", "[", "]", '"', "\\", ",", ":", "```", "```json\n", "null",
            '{"a": ', "\ud800", "\x00", "😀", "\n", "\r", "﻿", " " * 50]


def _slots(node, out):
    """Every (container, key) inside ``node``, depth first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return out
    for key, child in items:
        out.append((node, key))
        _slots(child, out)
    return out


def mutate_object(obj, rng):
    """A deep copy of ``obj`` with one to three values replaced, dropped,
    added or wrapped."""
    obj = copy.deepcopy(obj)
    for _ in range(rng.randint(1, 3)):
        slots = _slots(obj, [])
        if not slots:
            return copy.deepcopy(rng.choice(ODD_VALUES))
        container, key = rng.choice(slots)
        odd = copy.deepcopy(rng.choice(ODD_VALUES))
        op = rng.randrange(4)
        if op == 0:
            container[key] = odd
        elif op == 1:
            del container[key]
        elif op == 2 and isinstance(container, dict):
            container[rng.choice(["extra", "", "name", "kind", "\ud800"])] = odd
        elif op == 2:
            container.insert(key, odd)
        else:
            container[key] = [container[key]] if rng.random() < 0.5 else {"v": container[key]}
    return obj


def mutate_text(text, rng):
    """``text`` with one to four slices cut, doubled or replaced by odd text."""
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randrange(12))
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:j] + text[i:j] + text[j:]
        elif op == 2:
            text = text[:i] + rng.choice(ODD_TEXT) + text[j:]
        else:
            text = text[:i]
    return text


def mutants(valid_objects, rng, count):
    """``count`` texts, each a valid object mutated as an object or as text."""
    for _ in range(count):
        obj = rng.choice(valid_objects)
        if rng.random() < 0.5:
            yield json.dumps(mutate_object(obj, rng), ensure_ascii=rng.random() < 0.5)
        else:
            yield mutate_text(json.dumps(obj, ensure_ascii=False), rng)


def _write(path, lines):
    # Lone surrogates become invalid UTF-8 bytes, which the loaders must refuse.
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass"))
    return path


SAMPLES = [make_sample("s1", gt=("happy", "grateful")),
           make_sample("s2", role_id="witch", gt=("anger",), history=2),
           make_sample("s3", gt=("relaxed", "worried"), dialogue_id="d1")]


@pytest.mark.parametrize("what", ["corpus", "predictions"])
def test_loaders_raise_only_corpus_errors(what, tmp_path):
    if what == "corpus":
        valid = [s.to_record() for s in SAMPLES]
        load = lambda path: load_corpus(path, default_taxonomy())  # noqa: E731
    else:
        valid = [echo_prediction(s).to_record() for s in SAMPLES]
        load = load_predictions
    rng = random.Random(f"loaders-{what}")
    path = tmp_path / "input.jsonl"
    for i, line in enumerate(mutants(valid, rng, 400)):
        lines = [json.dumps(r, ensure_ascii=False) for r in valid]
        lines[i % len(lines)] = line
        try:
            load(_write(path, lines))
        except CorpusError:
            pass
        except Exception as exc:  # pragma: no cover - reports the input
            pytest.fail(f"{what} mutant {i} raised {exc!r} on {line!r}")


def _replies():
    """Valid replies of each kind, bare, fenced and in prose."""
    erc = json.dumps({f"emos_{m}": ["happy", "grateful"] for m in MODALITIES})
    rc = json.dumps({"agree_evidence": ["happy"], "disagree_evidence": []})
    formatted = SAMPLES[0].ground_truth.to_json()
    out = []
    for text in (erc, rc, formatted):
        out += [text, f"```json\n{text}\n```", f'Here it is: {text} "done" {{']
    return out


def test_reply_parsers_return_a_value_or_none():
    taxonomy = default_taxonomy()
    sources = ["happy。grateful。", "A cheerful knight"]
    rng = random.Random("replies")
    texts = _replies()
    for i in range(1500):
        base = rng.choice(texts)
        if rng.random() < 0.3:
            try:
                obj = json.loads(base)
            except ValueError:
                obj = base
            text = json.dumps(mutate_object(obj, rng))
        else:
            text = mutate_text(base, rng)
        try:
            obj = extract_json_object(text)
            assert obj is None or isinstance(obj, dict)
            verdict = parse_rc_verdict(text, sources)
            assert verdict is None or (isinstance(verdict, tuple) and len(verdict) == 2)
            votes = parse_erc_reply(text, 2, taxonomy)
            assert set(votes) == set(MODALITIES)
            assert all(v is None or len(v) == 2 for v in votes.values())
            response = validate(text)
            assert response is None or response.content
        except Exception as exc:  # pragma: no cover - reports the input
            pytest.fail(f"reply mutant {i} raised {exc!r} on {text!r}")


def _full_config():
    def spec(name, kind="http"):
        return {"name": name, "kind": kind, "endpoint": "https://judge.test/v1",
                "model": "m", "credential_env": "KEY", "rate_limit": 2.0,
                "timeout": 5.0, "fixture_dir": ""}
    config = RunConfig(cache_dir="cache", sample_limit=5).to_dict()
    config.update(experts=[spec("e0"), spec("e1", "mock")],
                  rc_evaluators=[spec("c0")], repair=spec("fixer", "mock"),
                  generators=[spec("g0")])
    return json.loads(json.dumps(config))


def test_config_from_dict_raises_only_config_errors():
    valid = _full_config()
    assert RunConfig.from_dict(valid).to_dict() == RunConfig.from_dict(valid).to_dict()
    rng = random.Random("config")
    for i in range(1200):
        obj = mutate_object(valid, rng)
        try:
            config = RunConfig.from_dict(obj)
        except ConfigError:
            continue
        except Exception as exc:  # pragma: no cover - reports the input
            pytest.fail(f"config mutant {i} raised {exc!r} on {obj!r}")
        # What was accepted reads back as the same config.
        again = RunConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert again.digest == config.digest, i


# One marker per sample, in its response content and so in every prompt
# about it; a marker is an utterance that the echo experts read as neutral.
MARKERS = [f"zq{i}x" for i in range(6)]


def _judged_world():
    samples = [make_sample(f"s{i}", role_id=("hero", "witch")[i % 2],
                           gt=("happy", "neutral"), content=f"happy。{marker}。")
               for i, marker in enumerate(MARKERS)]
    predictions = [echo_prediction(s) for s in samples]
    # The last prediction only passes the format gate through the repair judge.
    predictions[-1] = PredictionRecord(samples[-1].sample_id, f"@@ {MARKERS[-1]}")
    backends = ([label_echo_expert(f"e{i}") for i in range(3)]
                + [rc_agree_evaluator(f"c{i}") for i in range(2)]
                + [make_repair_judge({f"@@ {MARKERS[-1]}":
                                      samples[-1].ground_truth.to_json()})])
    return samples, predictions, backends


def _records(samples, predictions, backends, config):
    clients = [JudgeClient(b) for b in backends]
    return drive((judge_sample(pred, sample, config, config.taxonomy(),
                               clients[:3], clients[3:5], clients[5])
                  for pred, sample in zip(predictions, samples)), config.concurrency,
                 retry=config.retry, sampling=config.judge_sampling)


def test_a_judge_with_mutated_replies_changes_only_the_samples_it_answered():
    config = RunConfig(concurrency=2, retry=RetryPolicy(max_attempts=2, base_delay=0.0))
    samples, predictions, backends = _judged_world()
    clean = _records(samples, predictions, backends, config)
    assert all(r["labels"] is not None for r in clean)
    rng = random.Random("one-judge")
    for trial in range(24):
        samples, predictions, backends = _judged_world()
        judge = backends[trial % len(backends)]
        hit = set(rng.sample(MARKERS, rng.randint(1, 3)))
        answer = judge.handler

        def mutated(prompt, sampling, answer=answer, hit=hit, trial=trial):
            reply = answer(prompt, sampling)
            if not any(marker in prompt for marker in hit):
                return reply
            # Seeded by the prompt, so the reply does not depend on send order.
            return mutate_text(reply, random.Random(f"{trial}:{prompt}"))

        judge.handler = mutated
        records = _records(samples, predictions, backends, config)
        for marker, before, after in zip(MARKERS, clean, records):
            assert json.loads(json.dumps(after)) == after
            if marker not in hit:
                assert after == before, (trial, judge.name, marker)


# Texts of 1 MiB that once cost a quadratic scan, each through one parser.
_BIG = 1 << 20
_BIG_TEXTS = {
    "open braces": ("{" * _BIG, lambda t: parse_erc_reply(t, 2, default_taxonomy())),
    "fenced keys": (("```json\n" + '{"a": ' * (_BIG // 6))[:_BIG - 3] + "```",
                    lambda t: parse_rc_verdict(t, ["x"])),
    "quoted prose": (('{"quote": "it {was} \\"fine\\"", ' * (_BIG // 30 + 1))[:_BIG],
                     validate),
}


@pytest.mark.parametrize("name", list(_BIG_TEXTS))
def test_a_mebibyte_reply_parses_in_linear_time(name):
    text, parse = _BIG_TEXTS[name]
    assert len(text) == _BIG
    started = time.perf_counter()
    parse(text)
    assert time.perf_counter() - started < 2.0
