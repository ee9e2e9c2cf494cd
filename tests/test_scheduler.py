"""Judge scheduling: the driver's slots, pacing, retries, single flight, aborts."""

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from conftest import (
    _response_content,
    answer,
    echo_prediction,
    fast_config,
    make_experts,
    make_rc_evaluators,
    make_repair_judge,
    make_sample,
    write_corpus,
    write_predictions,
)

import rpeval.pipeline
import rpeval.scheduler
from rpeval.cli import main
from rpeval.corpus import PredictionRecord, segment_utterances
from rpeval.erc import MODALITIES, run_panel
from rpeval.judges import (
    JudgeClient,
    MockBackend,
    ReplyCache,
    RequestRejected,
    RetryPolicy,
    Sampling,
    TransportError,
)
from rpeval.pipeline import RC_METRICS, ConfigError, evaluate, generate, judge_sample
from rpeval.prompts import _RC_QUESTIONS
from rpeval.scheduler import drive

SRC = Path(__file__).resolve().parents[1] / "src"


def _asking(*asks):
    """A flow that sends ``asks`` in one batch and returns their replies."""
    return (yield list(asks))


def _in_turn(judge, prompts):
    """A flow that asks ``judge`` each prompt after the last one's reply."""
    replies = []
    for prompt in prompts:
        (reply,) = yield [(judge, "erc", prompt, 1)]
        replies.append(reply)
    return replies


class _Active:
    """Counts the backend attempts in flight and their peak."""

    def __init__(self):
        self.now = self.peak = 0
        self.lock = threading.Lock()

    def __enter__(self):
        with self.lock:
            self.now += 1
            self.peak = max(self.peak, self.now)

    def __exit__(self, *exc):
        with self.lock:
            self.now -= 1


def _sender_threads():
    return [t for t in threading.enumerate() if t.name.startswith("rpeval")]


def test_rate_limited_judge_does_not_starve_the_others():
    # A's ten sends take 0.225 s; B's asks, queued in the same batch,
    # use both slots meanwhile.
    limited = JudgeClient(MockBackend("A", handler=lambda p, s: "a", rate_limit=40.0))
    b_done = []

    def ten_ms(prompt, sampling):
        time.sleep(0.01)
        b_done.append(time.monotonic())
        return "b"

    free = JudgeClient(MockBackend("B", handler=ten_ms))
    started = time.monotonic()
    (replies,) = drive([_asking(*[(limited, "erc", f"a{i}", 1) for i in range(10)],
                                *[(free, "erc", f"b{i}", 1) for i in range(10)])], 2)
    assert replies == ["a"] * 10 + ["b"] * 10
    assert max(b_done) - started < 0.15  # about 0.05 s: ten 10 ms calls on two slots
    assert time.monotonic() - started >= 9 / 40.0
    assert limited.counts["replies"] == free.counts["replies"] == 10


class _Stamped(JudgeClient):
    """Records each time the driver sends one of this judge's requests."""

    def __init__(self, *args, **kwargs):
        self.sends = []
        super().__init__(*args, **kwargs)

    @property
    def last_send(self):
        return self.sends[-1] if self.sends else float("-inf")

    @last_send.setter
    def last_send(self, value):
        if value != float("-inf"):
            self.sends.append(value)


def test_rate_limited_sends_are_spaced_under_contention():
    rate = 200.0
    handled = []

    def record(prompt, sampling):
        handled.append(prompt)
        return "ok"

    client = _Stamped(MockBackend("A", handler=record, rate_limit=rate))
    flows = [_asking(*[(client, "erc", f"{w}-{i}", 1) for i in range(4)])
             for w in range(5)]
    assert drive(flows, 3) == [["ok"] * 4] * 5
    assert len(handled) == len(client.sends) == 20
    assert min(b - a for a, b in zip(client.sends, client.sends[1:])) >= 1.0 / rate


def test_permits_and_counters_hold_under_thread_stress():
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        active = _Active()

        def handler(prompt, sampling):
            with active:
                time.sleep(0)
            return "ok"

        backends = [MockBackend(f"j{i}", handler=handler,
                                rate_limit=5000.0 if i == 0 else 0.0)
                    for i in range(3)]
        clients = [JudgeClient(b) for b in backends]

        def work(worker):
            replies = []
            for k in range(0, 30, 3):  # three judges per batch, ten batches
                replies += yield [(clients[(k + j) % 3], "erc", f"{worker}-{k + j}", 1)
                                  for j in range(3)]
            return replies

        results = drive((work(w) for w in range(8)), 3)
        assert _sender_threads() == []
    finally:
        sys.setswitchinterval(old_interval)
    assert results == [["ok"] * 30] * 8
    assert active.peak <= 3
    assert sum(b.calls for b in backends) == 240
    assert sum(c.counts["replies"] for c in clients) == 240
    assert sum(c.counts["backend_calls"] for c in clients) == 240


class _Clock:
    """A monotonic clock that only sleeps and ``advance`` move."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds

    advance = sleep


def test_paced_waiter_takes_the_next_permit_first(monkeypatch):
    # At concurrency 1 every attempt runs inline, so a fake clock that
    # only the attempts move makes the order exact: the paced judge P
    # (one send per 30 ms) goes first whenever it is due, ahead of the
    # unpaced asks queued before it, and U's 20 ms asks fill its waits.
    clock = _Clock()
    monkeypatch.setattr(rpeval.scheduler, "time", clock)
    order = []

    def judge(name, rate):
        def handler(prompt, sampling):
            order.append(name)
            clock.advance(0.02 if name == "U" else 0.0)
            return name
        return JudgeClient(MockBackend(name, handler=handler, rate_limit=rate))

    paced, free = judge("P", 1 / 0.03), judge("U", 0.0)
    drive([_asking(*[(free, "erc", f"u{i}", 1) for i in range(4)],
                   *[(paced, "erc", f"p{i}", 1) for i in range(2)])])
    # P at 0; U at 0-20 and 20-40; P due at 30, sent at 40; U, U.
    assert order == ["P", "U", "U", "P", "U", "U"]


def test_a_due_paced_ask_does_not_wait_for_an_unrelated_reply():
    # P's first reply comes back at once while S's takes 0.6 s: P's second
    # ask falls due 50 ms later and goes out on the free slot then, not
    # when S's reply ends the driver's wait.
    def slow(prompt, sampling):
        time.sleep(0.6)
        return "s"

    paced = _Stamped(MockBackend("P", handler=lambda p, s: "p", rate_limit=20.0))
    other = JudgeClient(MockBackend("S", handler=slow))
    assert drive([_asking((paced, "erc", "p0", 1), (paced, "erc", "p1", 1),
                          (other, "erc", "s", 1))], 2) == [["p", "p", "s"]]
    first, second = paced.sends
    assert 0.05 <= second - first < 0.3


def test_permits_need_a_positive_integer_count():
    for count in (2.5, True, 0, "2"):
        with pytest.raises(ValueError, match="concurrency"):
            drive([], count)


def test_single_permit_run_over_many_samples_completes(tmp_path):
    golds = [("happy", "grateful"), ("anger",), ("worried", "sadness"), ("fear",)]
    samples = [make_sample(f"m{i:03d}", role_id=f"r{i % 3}", gt=golds[i % 4])
               for i in range(30)]
    corpus = write_corpus(tmp_path / "corpus.jsonl", samples)
    predictions = write_predictions(
        tmp_path / "preds.jsonl", [echo_prediction(s) for s in samples])
    experts = make_experts()
    experts[0].rate_limit = 2000.0  # one throttled judge among the panel
    outcome = {}

    def run():
        outcome["run"] = evaluate(fast_config(concurrency=1), corpus, predictions,
                                  experts=experts,
                                  rc_evaluators=make_rc_evaluators())

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "evaluate with concurrency=1 deadlocked"
    counts = outcome["run"].report["counts"]
    assert counts["ec_samples"] == 30
    assert outcome["run"].report["summary"]["mec.lower"] == 1.0


def test_evaluate_runs_injected_backends_under_its_permits(tmp_path):
    samples = [make_sample(f"p{i}", role_id=f"r{i % 2}") for i in range(6)]
    corpus = write_corpus(tmp_path / "corpus.jsonl", samples)
    predictions = write_predictions(
        tmp_path / "preds.jsonl", [echo_prediction(s) for s in samples])
    active = _Active()

    def counted(backend):
        handler = backend.handler

        def counting(prompt, sampling):
            with active:
                time.sleep(0.002)
            return handler(prompt, sampling)

        backend.handler = counting
        return backend

    experts = [counted(b) for b in make_experts(3)]
    critics = [counted(b) for b in make_rc_evaluators()]
    run = evaluate(fast_config(concurrency=2), corpus, predictions,
                   experts=experts, rc_evaluators=critics)
    assert run.report["counts"]["ec_samples"] == 6
    assert sum(b.calls for b in experts + critics) == 6 * (3 * 2 + 3 * 2)
    assert active.peak == 2
    # A ready-made client would bypass the run's retries and cache.
    cache = tmp_path / "cache"
    with pytest.raises(ConfigError, match="JudgeClient"):
        evaluate(fast_config(concurrency=2, cache_dir=str(cache)), corpus,
                 predictions, experts=[JudgeClient(b) for b in make_experts(3)],
                 rc_evaluators=make_rc_evaluators())
    assert [p.name for p in cache.iterdir()] == ["replies.sqlite3"]  # closed


def _slowed(backend, seconds, on_call=lambda: None):
    handler = backend.handler

    def slow(prompt, sampling):
        on_call()
        time.sleep(seconds)
        return handler(prompt, sampling)

    backend.handler = slow
    return backend


@pytest.mark.parametrize("concurrency", [1, 2, 4])
def test_run_starts_at_most_concurrency_sender_threads(tmp_path, concurrency):
    samples = [make_sample(f"t{i}", role_id=f"r{i % 2}") for i in range(8)]
    corpus = write_corpus(tmp_path / "corpus.jsonl", samples)
    records = [echo_prediction(s) for s in samples]
    broken = "face: calm / body: still / speech: soft / says happy"
    records[0] = PredictionRecord(sample_id="t0", raw_output=broken)
    predictions = write_predictions(tmp_path / "preds.jsonl", records)
    seen, gate = {"peak": 0}, threading.Lock()

    def count_threads():
        with gate:
            seen["peak"] = max(seen["peak"], len(_sender_threads()))

    experts = make_experts(5)
    experts[0].rate_limit = 500.0
    repair = make_repair_judge({broken: samples[0].ground_truth.to_json()})
    judges = experts + make_rc_evaluators() + [repair]
    for backend in judges:
        _slowed(backend, 0.002, count_threads)
    run = evaluate(fast_config(concurrency=concurrency), corpus, predictions,
                   experts=judges[:5], rc_evaluators=judges[5:7],
                   repair_judge=repair)
    assert run.report["counts"]["repaired"] == 1
    assert run.report["counts"]["ec_samples"] == 8
    # Senders only: none at concurrency 1, where each attempt runs inline.
    assert seen["peak"] == (0 if concurrency == 1 else concurrency)
    assert _sender_threads() == []


class _Recording(JudgeClient):
    """Records, per paced judge, when each ask was sent; the test adds
    when each was queued."""

    events = []  # (time, judge name, "queued" | "sent")

    @property
    def last_send(self):
        return getattr(self, "_sent", float("-inf"))

    @last_send.setter
    def last_send(self, value):
        self._sent = value
        if value != float("-inf"):
            self.events.append((value, self.name, "sent"))


def test_paced_judge_leaves_the_others_their_concurrency(tmp_path, monkeypatch):
    # A paced ask waits on the driver for its due time, not in a slot:
    # while it waits, the other judges' attempts fill every slot.
    # Checked on the driver's events, not on wall time: each paced ask's
    # wait runs from when it was queued to when it was sent, and the
    # backends record each attempt's start and end.
    monkeypatch.setattr(_Recording, "events", [])
    monkeypatch.setattr(rpeval.pipeline, "JudgeClient", _Recording)
    queue = rpeval.scheduler._Driver._queue

    def queued(driver, job):
        if job.judge.interval > 0:
            _Recording.events.append((time.monotonic(), job.judge.name, "queued"))
        queue(driver, job)

    monkeypatch.setattr(rpeval.scheduler._Driver, "_queue", queued)
    attempts, lock = [], threading.Lock()

    def timed(backend):
        handler = backend.handler

        def run(prompt, sampling):
            start = time.monotonic()
            time.sleep(latency)
            with lock:
                attempts.append((start, time.monotonic(), backend.name))
            return handler(prompt, sampling)

        backend.handler = run
        return backend

    samples = [make_sample(f"w{i}", role_id=f"r{i % 2}") for i in range(8)]
    corpus = write_corpus(tmp_path / "corpus.jsonl", samples)
    predictions = write_predictions(
        tmp_path / "preds.jsonl", [echo_prediction(s) for s in samples])
    latency, rate, concurrency = 0.01, 40.0, 2
    experts = [timed(b) for b in make_experts(5)]
    experts[0].rate_limit = rate
    critics = [timed(b) for b in make_rc_evaluators()]
    evaluate(fast_config(concurrency=concurrency), corpus, predictions,
             experts=experts, rc_evaluators=critics)
    assert sum(b.calls for b in experts + critics) == 8 * (5 * 2 + 2 * 3)
    queued = [t for t, _, what in _Recording.events if what == "queued"]
    sent = [t for t, _, what in _Recording.events if what == "sent"]
    assert len(queued) == len(sent) == 8 * 2
    waits = [(q, s) for q, s in zip(queued, sent) if s - q > latency]
    # Each sample asks the paced judge twice in one batch, so one of the
    # two waits out the 25 ms interval.
    assert len(waits) >= 8

    def peak_of_others(start, end):
        # Attempts of the unpaced judges in flight at some point of the wait.
        points = [a for a, b, name in attempts if name != "expert0" and start <= a < end]
        return max((sum(1 for a, b, name in attempts
                        if name != "expert0" and a <= t < b) for t in points),
                   default=0)

    assert max(peak_of_others(q, s) for q, s in waits) == concurrency
    overall = max(sum(1 for a, b, _ in attempts if a <= t < b)
                  for t, _, _ in attempts)
    assert overall == concurrency


def test_each_sample_sends_its_requests_in_dependency_order(tmp_path):
    # Every request names its sample through the role id, which the
    # panel prompts carry in the response and the others in the role
    # materials or the raw output.  Some first replies are malformed, so
    # those asks earn a corrective re-prompt.
    golds = [("happy", "grateful"), ("anger",), ("worried", "sadness"), ("fear",)]
    samples = [make_sample(f"t{i}", role_id=f"sample-{i}", gt=golds[i % 4])
               for i in range(8)]
    corpus = write_corpus(tmp_path / "corpus.jsonl", samples)
    records = [echo_prediction(s) for s in samples]
    repaired = {0, 5}
    table = {}
    for i in repaired:
        broken = f"sample-{i} looks calm and says {golds[i % 4][0]}"
        records[i] = PredictionRecord(sample_id=f"t{i}", raw_output=broken)
        table[broken] = samples[i].ground_truth.to_json()
    predictions = write_predictions(tmp_path / "preds.jsonl", records)
    seen, lock, active = [], threading.Lock(), _Active()
    malformed = {("expert1", "2"), ("expert2", "5"), ("critic0", "3")}

    def step(name, prompt):
        again = "Reminder:" in prompt
        if name == "fixer":
            return ("format",)
        if name.startswith("expert"):
            return ("panel", name, again)
        metric = next(m for m, q in _RC_QUESTIONS.items() if q in prompt)
        return ("rc", metric, name, again)

    def recorded(backend):
        handler = backend.handler

        def record(prompt, sampling):
            (sid,) = set(re.findall(r"\bsample-(\d+)\b", prompt))
            with active:
                start = time.monotonic()
                time.sleep(0.002)
                end = time.monotonic()
            with lock:
                seen.append((sid, start, end, step(backend.name, prompt)))
            if (backend.name, sid) in malformed and "Reminder:" not in prompt:
                return "not a verdict"
            return handler(prompt, sampling)

        backend.handler = record
        return backend

    experts = [recorded(b) for b in make_experts(3)]
    experts[0].rate_limit = 500.0
    critics = [recorded(b) for b in make_rc_evaluators()]
    repair = recorded(make_repair_judge(table))
    run = evaluate(fast_config(concurrency=2), corpus, predictions,
                   experts=experts, rc_evaluators=critics, repair_judge=repair)
    assert run.report["counts"]["repaired"] == len(repaired)
    assert run.report["counts"]["ec_samples"] == 8
    assert active.peak == 2
    overlapped = 0
    for i in range(8):
        mine = sorted((entry for entry in seen if entry[0] == str(i)),
                      key=lambda entry: entry[1])
        kinds = [s[0] for _, _, _, s in mine]
        assert kinds.count("format") == (i in repaired), i
        formats = [e for e in mine if e[3][0] == "format"]
        panel = [e for e in mine if e[3][0] == "panel"]
        rc = [e for e in mine if e[3][0] == "rc"]
        assert len(panel) == 3 * 2 + 2 * sum(1 for n, s in malformed
                                             if s == str(i) and n.startswith("expert"))
        assert len(rc) == 3 * 2 + 3 * sum(1 for n, s in malformed
                                          if s == str(i) and n.startswith("critic"))
        # repair comes before any panel ask, the panel before any RC ask
        assert max((e[2] for e in formats), default=0) <= min(e[1] for e in panel)
        assert max(e[2] for e in panel) <= min(e[1] for e in rc)
        # each re-prompt comes after its own first reply
        for entry in panel + rc:
            *who, again = entry[3]
            if again:
                first = [e for e in panel + rc if e[3] == (*who, False)]
                assert max(e[2] for e in first) <= entry[1], (i, who)
        # a batch puts several of one sample's asks in flight at once
        overlapped += any(b[1] < a[2] for a, b in zip(panel, panel[1:]))
    assert overlapped > 0


def test_a_transient_failure_does_not_delay_other_judges(tmp_path):
    # The failed ask waits out its 0.5 s backoff off the slots; the
    # other judges' asks go on being sent meanwhile.
    failed, sends = [], []

    def flaky(prompt, sampling):
        if not failed:
            failed.append(time.monotonic())
            raise TransportError("connection reset")
        sends.append(("F", time.monotonic()))
        return "f"

    def steady(prompt, sampling):
        time.sleep(0.005)
        sends.append(("S", time.monotonic()))
        return "s"

    f = JudgeClient(MockBackend("F", handler=flaky))
    s = JudgeClient(MockBackend("S", handler=steady))
    started = time.monotonic()
    results = drive([_asking((f, "erc", "f", 1))]
                    + [_in_turn(s, [f"s{i}-{k}" for k in range(4)]) for i in range(3)], 2,
                    retry=RetryPolicy(max_attempts=2, base_delay=0.5))
    assert results == [["f"]] + [["s"] * 4] * 3
    steady_done = max(t for who, t in sends if who == "S")
    (retried,) = [t for who, t in sends if who == "F"]
    assert steady_done - started < 0.3
    assert retried - failed[0] >= 0.5
    assert f.counts == {"cache_hits": 0, "cache_misses": 0, "backend_calls": 2,
                         "replies": 1, "retries": 1, "transport_failures": 0,
                         "rejected": 0}


def test_a_retried_failure_logs_no_warning_and_counts_a_retry(caplog):
    # A transient failure that is sent again is routine: it shows under
    # -v and in the judge's counters, not as a warning.  The failure
    # that ends an ask still warns.
    failures = []

    def once(prompt, sampling):
        if not failures:
            failures.append(prompt)
            raise TransportError("connection reset")
        return "ok"

    def down(prompt, sampling):
        raise TransportError("connection refused")

    flaky = JudgeClient(MockBackend("F", handler=once))
    dead = JudgeClient(MockBackend("D", handler=down))
    retry = RetryPolicy(max_attempts=2, base_delay=0.0)
    with caplog.at_level("INFO", logger="rpeval.scheduler"):
        assert drive([_asking((flaky, "erc", "f", 1))], retry=retry) == [["ok"]]
    assert [r.levelname for r in caplog.records] == ["INFO"]
    assert flaky.counts["retries"] == 1
    assert flaky.counts["transport_failures"] == 0
    caplog.clear()
    with caplog.at_level("INFO", logger="rpeval.scheduler"):
        (replies,) = drive([_asking((dead, "erc", "d", 1))], retry=retry)
    assert isinstance(replies[0], TransportError)
    assert [r.levelname for r in caplog.records] == ["INFO", "WARNING"]
    assert "attempt 2/2 failed" in caplog.records[-1].getMessage()
    assert dead.counts["retries"] == 1
    assert dead.counts["transport_failures"] == 1


def test_a_lost_ask_is_told_once(caplog):
    # The driver warns once per lost or rejected ask, naming its error;
    # the panel and the role questions report only what they lost.
    sample = make_sample("c1", gt=("happy", "anger"))
    response = sample.ground_truth
    config = fast_config()
    taxonomy = config.taxonomy()

    def down(prompt, sampling):
        raise TransportError("connection refused")

    def too_large(prompt, sampling):
        raise RequestRejected("backend 'critic1': request rejected (HTTP 413): too large")

    dead = JudgeClient(MockBackend("dead", handler=down))
    echo = JudgeClient(make_experts(1)[0])
    utterances = segment_utterances(response.content)
    with caplog.at_level("WARNING", logger="rpeval"):
        drive([run_panel(response, utterances, [dead, echo], taxonomy, passes=2)],
              retry=RetryPolicy(max_attempts=1))
    warned = Counter(r.name for r in caplog.records if r.levelname == "WARNING")
    assert warned == {"rpeval.scheduler": 4, "rpeval.erc": 2}
    assert all("dropping modalities" in r.getMessage()
               for r in caplog.records if r.name == "rpeval.erc")
    assert all("judge dead erc pass" in r.getMessage() and "refused" in r.getMessage()
               for r in caplog.records if r.name == "rpeval.scheduler")
    caplog.clear()
    critics = [JudgeClient(make_rc_evaluators(1)[0]),
               JudgeClient(MockBackend("critic1", handler=too_large))]
    with caplog.at_level("WARNING", logger="rpeval"):
        (record,) = drive([judge_sample(echo_prediction(sample), sample, config,
                                        taxonomy, [echo], critics, None)])
    assert all(list(by_critic) == ["critic0"] for by_critic in record["rc"].values())
    rejected = [r.getMessage() for r in caplog.records if r.name == "rpeval.scheduler"]
    assert len(rejected) == 2 * len(RC_METRICS)  # each question, then its re-prompt
    assert all("critic1" in line and "HTTP 413" in line for line in rejected)
    assert critics[1].counts["rejected"] == len(rejected)
    assert not any("413" in r.getMessage() for r in caplog.records
                   if r.name != "rpeval.scheduler")


class _NamedJudge:
    """All a flow reads of a judge: its name."""

    def __init__(self, name):
        self.name = name


def test_a_sample_can_be_driven_from_canned_replies():
    # No thread, no backend: each ask is answered from a dict keyed by
    # (judge, kind, pass), whatever the prompt.
    sample = make_sample("c1", gt=("happy", "anger"))
    pred = echo_prediction(sample)
    panel_reply = json.dumps({f"emos_{m}": ["happy", "anger"] for m in MODALITIES})
    rc_reply = json.dumps({"agree_evidence": [sample.ground_truth.content],
                           "disagree_evidence": []})
    experts = [_NamedJudge(f"expert{i}") for i in range(5)]
    critics = [_NamedJudge(f"critic{i}") for i in range(2)]
    canned = {**{(e.name, "erc", p): panel_reply for e in experts for p in (1, 2)},
              **{(c.name, "rc", 1): rc_reply for c in critics}}
    batches, threads = [], threading.active_count()

    def reply(judge, kind, prompt, pass_index):
        batches.append((judge.name, kind, pass_index))
        return canned[judge.name, kind, pass_index]

    config = fast_config()
    record = answer(judge_sample(pred, sample, config, config.taxonomy(),
                                 experts, critics, None), reply)
    assert threading.active_count() == threads
    assert record == {
        "status": "valid_direct",
        "labels": {m: ["happy", "anger"] for m in MODALITIES},
        "entropy": {m: [0.0, 0.0] for m in MODALITIES},
        "rc": {m: {"critic0": 5, "critic1": 5} for m in RC_METRICS}}
    assert batches == ([(e.name, "erc", p) for e in experts for p in (1, 2)]
                       + [(c.name, "rc", 1) for _ in RC_METRICS for c in critics])


def test_report_is_identical_at_any_concurrency_with_or_without_pacing(tmp_path):
    golds = [("happy", "grateful"), ("anger",), ("worried", "sadness"), ("fear",)]
    samples = [make_sample(f"r{i:02d}", role_id=f"r{i % 3}", gt=golds[i % 4])
               for i in range(12)]
    corpus = write_corpus(tmp_path / "corpus.jsonl", samples)
    records = [echo_prediction(s) for s in samples]
    broken = "face: calm / says anger"
    records[1] = PredictionRecord(sample_id="r01", raw_output=broken)
    predictions = write_predictions(tmp_path / "preds.jsonl", records)
    def judges(rate):
        experts = make_experts()
        experts[0].rate_limit = rate
        handler = experts[2].handler

        def sometimes_malformed(prompt, sampling):
            # a malformed first reply for every other sample: a re-prompt
            if "Reminder:" not in prompt and "grateful" in prompt:
                return "no idea"
            return handler(prompt, sampling)

        experts[2].handler = sometimes_malformed
        critics = make_rc_evaluators(drop_marker="fear")
        repair = make_repair_judge({broken: samples[1].ground_truth.to_json()})
        return dict(experts=experts, rc_evaluators=critics, repair_judge=repair)

    reports = set()
    for rate in (0.0, 400.0):
        for concurrency in (1, 2, 4):
            out = tmp_path / f"out-{rate}-{concurrency}"
            evaluate(fast_config(concurrency=concurrency), corpus, predictions,
                     out_dir=out, **judges(rate))
            reports.add((out / "report.json").read_bytes())
    assert len(reports) == 1


def test_identical_asks_in_flight_coalesce_under_a_cache(tmp_path):
    # Duplicate predictions of identical samples ask the same requests;
    # under a cache the concurrent copies wait for one reply, so the
    # backend sees what it sees at concurrency 1, however they overlap.
    samples = [make_sample(f"d{i}") for i in range(6)]
    corpus = write_corpus(tmp_path / "corpus.jsonl", samples)
    predictions = write_predictions(
        tmp_path / "preds.jsonl", [echo_prediction(s) for s in samples])

    def run(concurrency, index):
        judges = [_slowed(b, 0.001) for b in make_experts(3) + make_rc_evaluators()]
        config = fast_config(concurrency=concurrency,
                             cache_dir=str(tmp_path / f"cache-{concurrency}-{index}"))
        result = evaluate(config, corpus, predictions, experts=judges[:3],
                          rc_evaluators=judges[3:])
        calls = {name: stats["backend_calls"]
                 for name, stats in result.manifest["judges"].items()}
        assert sum(b.calls for b in judges) == sum(calls.values())
        return calls, result.manifest["cache"]

    once, cache = run(1, 0)
    assert sum(once.values()) == 3 * 2 + 3 * 2
    for index in range(20):
        calls, shared = run(4, index)
        assert calls == once, index
        assert shared == cache, index


@pytest.mark.parametrize("concurrency", [1, 2])
def test_a_failed_ask_sends_the_asks_waiting_on_it_again(tmp_path, concurrency):
    # Two identical asks in one batch share one request under a cache.
    # Its failure is the first ask's; the second is asked again, as if it
    # had come after, and its reply is the one cached.
    attempts = []

    def flaky(prompt, sampling):
        attempts.append(prompt)
        if len(attempts) == 1:
            raise TransportError("connection reset")
        return "ok"

    judge = JudgeClient(MockBackend("F", handler=flaky))
    ask = (judge, "erc", "same prompt", 1)
    cache = ReplyCache(tmp_path / "cache")
    try:
        ((lost, reply),) = drive([_asking(ask, ask)], concurrency, cache=cache,
                                 retry=RetryPolicy(max_attempts=1))
        cached = cache.get(judge.key("erc", "same prompt", Sampling(), 1))
    finally:
        cache.close()
    assert isinstance(lost, TransportError)
    assert reply == "ok" == cached
    assert judge.counts == {"cache_hits": 0, "cache_misses": 2, "backend_calls": 2,
                            "replies": 1, "retries": 0, "transport_failures": 1,
                            "rejected": 0}


def test_auth_failure_in_a_worker_aborts_the_run(judge_server, tmp_path):
    samples = [make_sample(f"a{i:02d}", gt=("happy", "grateful")) for i in range(10)]
    corpus = write_corpus(tmp_path / "corpus.jsonl", samples)
    predictions = write_predictions(
        tmp_path / "preds.jsonl", [echo_prediction(s) for s in samples])
    # Replies other than the 401 take 50 ms, so the driver has stopped
    # dispatch before the request beside it in flight returns its slot.
    ok = (200, {"choices": [{"message": {"content": "{}"}}]}, 0.05)
    judge_server.script.extend([ok] * 4 + [(401, None)] + [ok] * 100)

    def spec(name):
        return {"name": name, "kind": "http", "model": name,
                "endpoint": judge_server.url}

    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "concurrency": 2,
        "retry": {"max_attempts": 1, "base_delay": 0.0},
        "experts": [spec(f"e{i}") for i in range(3)],
        "rc_evaluators": [spec("r0")],
    }), encoding="utf-8")
    code = main(["evaluate", "--config", str(config), "--corpus", corpus,
                 "--predictions", predictions, "--out", str(tmp_path / "out")])
    assert code == 2
    assert _sender_threads() == []  # the senders are joined on the way out
    # The 401 was the fifth request; at most one other was then in flight.
    assert 5 <= len(judge_server.seen) <= 6
    time.sleep(0.05)
    assert len(judge_server.seen) <= 6


def test_rejected_request_costs_one_request_not_the_run(judge_server, tmp_path):
    golds = [("happy", "grateful"), ("anger",), ("worried", "sadness"),
             ("fear",), ("relaxed",), ("disgust", "anger")]
    samples = [make_sample(f"s{i}", role_id=f"r{i % 2}", gt=gold)
               for i, gold in enumerate(golds)]
    corpus = write_corpus(tmp_path / "corpus.jsonl", samples)
    predictions = write_predictions(
        tmp_path / "preds.jsonl", [echo_prediction(s) for s in samples])
    judges = {b.name: b.handler for b in make_experts(3) + make_rc_evaluators()}
    rejected, lock = [], threading.Lock()

    def answer_request(request, reject=False):
        model, prompt = request["model"], request["messages"][0]["content"]
        with lock:
            if (reject and not rejected and model == "critic0"
                    and _response_content(prompt).startswith("fear")):
                rejected.append(prompt)
                return 400, {"error": "context length exceeded"}
        text = judges[model](prompt, None)
        return 200, {"choices": [{"message": {"content": text}}]}

    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "concurrency": 2,
        "retry": {"max_attempts": 3, "base_delay": 0.0},
        "experts": [{"name": name, "kind": "http", "model": name,
                     "endpoint": judge_server.url} for name in list(judges)[:3]],
        "rc_evaluators": [{"name": name, "kind": "http", "model": name,
                           "endpoint": judge_server.url}
                          for name in list(judges)[3:]],
    }), encoding="utf-8")

    def run(out, reject):
        judge_server.answer = lambda request: answer_request(request, reject)
        code = main(["evaluate", "--config", str(config), "--corpus", corpus,
                     "--predictions", predictions, "--out", str(out)])
        assert code == 0
        return [json.loads((out / name).read_text("utf-8"))
                for name in ("report.json", "manifest.json")]

    clean, _ = run(tmp_path / "clean", reject=False)
    judge_server.seen.clear()
    report, manifest = run(tmp_path / "out", reject=True)
    assert len(rejected) == 1
    sent = [seen["json"]["messages"][0]["content"] for seen in judge_server.seen
            if seen["json"]["model"] == "critic0"]
    assert sent.count(rejected[0]) == 1  # not retried
    assert manifest["judges"]["critic0"]["rejected"] == 1
    assert manifest["judges"]["critic0"]["transport_failures"] == 0
    # The corrective re-prompt recovered the verdict: no score moved.
    assert report == clean


def _returns(value):
    return value
    yield  # a flow that asks nothing


def test_map_keeps_no_state_per_item():
    items, shared = range(20_000), object()
    tracemalloc.start()
    try:
        results = drive((_returns(shared) for _ in items), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results) == len(items)
    assert all(result is shared for result in results)
    # The result list itself is 8 bytes per item.
    assert peak / len(items) < 100, peak


def test_map_runs_each_item_once_in_order_under_thread_stress():
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs, lock = Counter(), threading.Lock()

        def handler(prompt, sampling):
            with lock:
                runs[prompt] += 1
            return str(2 * int(prompt))

        client = JudgeClient(MockBackend("j", handler=handler))

        def flow(item):
            (reply,) = yield [(client, "erc", str(item), 1)]
            return int(reply)

        # 4 slots: 4 senders on fewer cores, all answering one driver.
        results = drive((flow(i) for i in range(2000)), 4)
    finally:
        sys.setswitchinterval(old_interval)
    assert results == [2 * i for i in range(2000)]
    assert set(runs.values()) == {1} and len(runs) == 2000
    assert _sender_threads() == []


def test_interrupt_in_a_sample_is_reraised_with_the_permits_closed():
    calls = {"n": 0}

    def slow(prompt, sampling):
        calls["n"] += 1
        time.sleep(0.001)
        return "ok"

    client = JudgeClient(MockBackend("j", handler=slow))

    def flow(item):
        (reply,) = yield [(client, "erc", str(item), 1)]
        if item == 5:
            raise KeyboardInterrupt
        return reply

    with pytest.raises(KeyboardInterrupt):
        drive((flow(i) for i in range(200)), 2)
    assert _sender_threads() == []
    stopped = calls["n"]
    assert stopped < 200
    time.sleep(0.01)
    assert calls["n"] == stopped  # no attempt starts after the interrupt


_INTERRUPTED_RUN = """
import json, signal, threading, time
from rpeval.judges import JudgeClient, MockBackend
from rpeval.scheduler import drive

signal.signal(signal.SIGINT, signal.default_int_handler)
started = threading.Event()
calls = [0]

def slow(prompt, sampling):
    calls[0] += 1
    if not started.is_set():
        started.set()
        print("started", flush=True)
    time.sleep(0.02)
    return "ok"

client = JudgeClient(MockBackend("j", handler=slow))

def flow(i):
    for k in range(3):
        yield [(client, "erc", f"{i}-{k}", 1)]

try:
    drive((flow(i) for i in range(100_000)), 2)
except KeyboardInterrupt:
    stopped = calls[0]
    time.sleep(0.05)
    print(json.dumps({"stopped": calls[0] == stopped, "threads": [
        t.name for t in threading.enumerate() if t.name.startswith("rpeval")]}))
"""


def test_sigint_to_the_main_thread_ends_the_run():
    child = subprocess.Popen([sys.executable, "-B", "-c", _INTERRUPTED_RUN],
                             stdout=subprocess.PIPE, text=True, env=_child_env())
    try:
        assert child.stdout.readline().strip() == "started"
        child.send_signal(signal.SIGINT)
        sent = time.monotonic()
        out, _ = child.communicate(timeout=5)
        assert time.monotonic() - sent < 5
    finally:
        child.kill()
        child.wait()
    assert child.returncode == 0
    assert json.loads(out.splitlines()[-1]) == {"stopped": True, "threads": []}


def test_failed_run_ends_every_retry_backoff(tmp_path, monkeypatch):
    # Three transient failures put three asks into a 4 s backoff; the
    # fourth request's configuration error must not wait for them.
    samples = [make_sample(f"b{i}", role_id=f"r{i % 2}") for i in range(8)]
    corpus = write_corpus(tmp_path / "corpus.jsonl", samples)
    predictions = write_predictions(
        tmp_path / "preds.jsonl", [echo_prediction(s) for s in samples])
    complete, calls, lock = MockBackend.complete, {"n": 0}, threading.Lock()

    def failing(backend, prompt, sampling):
        with lock:
            calls["n"] += 1
            n = calls["n"]
        if n <= 3:
            raise TransportError(f"{backend.name}: connection reset")
        if n == 4:
            raise ConfigError(f"{backend.name}: authentication rejected")
        return complete(backend, prompt, sampling)

    monkeypatch.setattr(MockBackend, "complete", failing)
    config = fast_config(concurrency=2,
                         retry=RetryPolicy(max_attempts=3, base_delay=4.0))
    started = time.monotonic()
    with pytest.raises(ConfigError, match="authentication rejected"):
        evaluate(config, corpus, predictions, experts=make_experts(),
                 rc_evaluators=make_rc_evaluators())
    assert time.monotonic() - started < 2.0
    assert calls["n"] == 4
    assert _sender_threads() == []


def test_a_paced_wait_ends_with_the_run(tmp_path):
    # expert0 sends once per 5 s; expert1 answers its first request, 0.2 s
    # later, with a configuration error, which must end the run then, not
    # after every queued paced ask has waited out its turn.
    samples = [make_sample(f"q{i:02d}", role_id=f"r{i % 2}") for i in range(16)]
    corpus = write_corpus(tmp_path / "corpus.jsonl", samples)
    predictions = write_predictions(
        tmp_path / "preds.jsonl", [echo_prediction(s) for s in samples])
    experts = make_experts()
    experts[0].rate_limit = 0.2

    def revoked(prompt, sampling):
        time.sleep(0.2)
        raise ConfigError("backend 'expert1': authentication rejected")

    experts[1].handler = revoked
    started = time.monotonic()
    with pytest.raises(ConfigError, match="authentication rejected"):
        evaluate(fast_config(concurrency=2), corpus, predictions, experts=experts,
                 rc_evaluators=make_rc_evaluators())
    assert time.monotonic() - started < 1.0
    assert _sender_threads() == []


def _generation_corpus(tmp_path, n):
    samples = [make_sample(f"g{i:02d}", role_id=f"r{i % 3}", history=i % 4)
               for i in range(n)]
    return write_corpus(tmp_path / "corpus.jsonl", samples)


def _hashing_generator(on_call=lambda: None):
    def handler(prompt, sampling):
        on_call()
        return hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    return MockBackend("gen", handler=handler)


def test_generate_runs_under_the_permits_in_corpus_order(tmp_path):
    corpus = _generation_corpus(tmp_path, 20)
    active = _Active()

    def counted():
        with active:
            time.sleep(0.005)

    generate(fast_config(concurrency=1), "gen", corpus, tmp_path / "c1.jsonl",
             generator=_hashing_generator())
    records = generate(fast_config(concurrency=2), "gen", corpus,
                       tmp_path / "c2.jsonl", generator=_hashing_generator(counted))
    assert active.peak == 2
    assert [r.sample_id for r in records] == [f"g{i:02d}" for i in range(20)]
    assert ((tmp_path / "c2.jsonl").read_bytes()
            == (tmp_path / "c1.jsonl").read_bytes())


def test_config_error_stops_generate(tmp_path, monkeypatch):
    corpus = _generation_corpus(tmp_path, 20)
    concurrency = 3
    calls, lock = {"n": 0}, threading.Lock()

    def complete(backend, prompt, sampling):
        with lock:
            calls["n"] += 1
            if calls["n"] == 3:
                raise ConfigError("backend 'gen': authentication rejected")
        time.sleep(0.005)
        return "reply"

    out = tmp_path / "preds.jsonl"
    out.write_text("earlier run\n", encoding="utf-8")
    monkeypatch.setattr(MockBackend, "complete", complete)
    with pytest.raises(ConfigError, match="authentication rejected"):
        generate(fast_config(concurrency=concurrency), "gen", corpus, out,
                 generator=MockBackend("gen"))
    # dispatch has stopped: no call can start after this
    assert 3 <= calls["n"] <= 3 + concurrency - 1
    assert out.read_text(encoding="utf-8") == "earlier run\n"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "concurrency": concurrency,
        "generators": [{"name": "gen", "kind": "mock"}],
    }), encoding="utf-8")
    calls["n"] = 0
    assert main(["generate", "--config", str(config), "--corpus", corpus,
                 "--backend", "gen", "--out", str(out)]) == 2
    assert _sender_threads() == []
    assert out.read_text(encoding="utf-8") == "earlier run\n"


def _child_env():
    # A copy of this environment, so PYTHONDONTWRITEBYTECODE carries over.
    return {**os.environ, "PYTHONPATH": str(SRC)}


def test_import_leaves_requests_unloaded():
    probe = "import sys, rpeval; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=_child_env())
    assert out.stdout.strip() == "False"


def test_import_leaves_sqlite3_unloaded():
    # Only a run with a reply cache loads it.
    probe = "import sys, rpeval; print('sqlite3' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=_child_env())
    assert out.stdout.strip() == "False"
