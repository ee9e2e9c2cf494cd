"""Judge scheduling: permits, per-judge rate limits, per-sample order, aborts."""

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
from types import SimpleNamespace

import pytest
from conftest import (
    _response_content,
    echo_prediction,
    fast_config,
    make_experts,
    make_rc_evaluators,
    make_repair_judge,
    make_sample,
    write_corpus,
    write_predictions,
)

import rpeval.judges
import rpeval.pipeline
from rpeval.cli import main
from rpeval.corpus import PredictionRecord
from rpeval.judges import (
    JudgeClient,
    MockBackend,
    Permits,
    RetryPolicy,
    RunAborted,
    TransportError,
)
from rpeval.pipeline import RC_METRICS, ConfigError, evaluate, generate
from rpeval.prompts import _RC_QUESTIONS
from rpeval.scheduler import Scheduler

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_all(targets):
    threads = [threading.Thread(target=fn, args=args) for fn, args in targets]
    for t in threads:
        t.start()
    return threads


def test_rate_limited_judge_does_not_starve_the_others():
    permits = Permits(2)
    # A's ten sends take 0.225 s; a B queued behind A's waits would too.
    limited = JudgeClient(MockBackend("A", handler=lambda p, s: "a", rate_limit=40.0),
                          limiter=permits)

    def ten_ms(prompt, sampling):
        time.sleep(0.01)
        return "b"

    free = JudgeClient(MockBackend("B", handler=ten_ms), limiter=permits)
    a_threads = _run_all([(limited.ask, ("erc", f"a{i}")) for i in range(10)])
    started = time.monotonic()
    b_threads = _run_all([(free.ask, ("erc", f"b{i}")) for i in range(10)])
    for t in b_threads:
        t.join()
    b_elapsed = time.monotonic() - started
    for t in a_threads:
        t.join()
    assert b_elapsed < 0.15  # about 0.05 s: ten 10 ms calls on two permits
    assert limited.stats()["replies"] == free.stats()["replies"] == 10


def test_rate_limited_sends_are_spaced_under_contention():
    rate = 200.0
    sends, handled = [], []

    class StampedPermits(Permits):
        # A rate-limited client takes its permit ahead, under its pace
        # lock, as it decides a send: that is when the send is stamped.
        def acquire(self, ahead=False):
            super().acquire(ahead)
            if ahead:
                sends.append(time.monotonic())

    def record(prompt, sampling):
        handled.append(prompt)
        return "ok"

    client = JudgeClient(MockBackend("A", handler=record, rate_limit=rate),
                         limiter=StampedPermits(3))

    def burst(worker):
        for i in range(4):
            client.ask("erc", f"{worker}-{i}")

    for t in _run_all([(burst, (w,)) for w in range(5)]):
        t.join()
    assert len(handled) == len(sends) == 20
    assert min(b - a for a, b in zip(sends, sends[1:])) >= 1.0 / rate


def test_permits_and_counters_hold_under_thread_stress():
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        permits = Permits(3)
        active = {"now": 0, "peak": 0}
        gate = threading.Lock()

        def handler(prompt, sampling):
            with gate:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            time.sleep(0)
            with gate:
                active["now"] -= 1
            return "ok"

        backends = [MockBackend(f"j{i}", handler=handler,
                                rate_limit=5000.0 if i == 0 else 0.0)
                    for i in range(3)]
        clients = [JudgeClient(b, limiter=permits) for b in backends]

        def work(worker):
            for k in range(30):
                clients[k % 3].ask("erc", f"{worker}-{k}")

        threads = _run_all([(work, (w,)) for w in range(8)])
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old_interval)
    assert active["peak"] <= 3
    assert sum(b.calls for b in backends) == 240
    assert sum(c.stats()["replies"] for c in clients) == 240
    assert sum(c.stats()["backend_calls"] for c in clients) == 240


def _until(condition):
    deadline = time.monotonic() + 5
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)


def test_paced_waiter_takes_the_next_permit_first():
    permits = Permits(1)
    permits.acquire()
    order = []

    def take(tag, ahead):
        permits.acquire(ahead=ahead)
        order.append(tag)
        permits.release()

    queued = _run_all([(take, (f"in turn {i}", False)) for i in range(3)])
    _until(lambda: permits._waiting == [3, 0])
    queued += _run_all([(take, ("paced", True))])
    _until(lambda: permits._waiting == [3, 1])
    permits.release()
    for t in queued:
        t.join()
    assert order[0] == "paced"
    assert len(order) == 4


def test_permits_need_a_positive_integer_count():
    for count in (2.5, True, 0, "2"):
        with pytest.raises(ValueError):
            Permits(count)


def test_closed_permits_refuse_waiting_and_new_acquires():
    permits = Permits(1)
    permits.acquire()
    refused = []

    def take():
        try:
            permits.acquire()
        except RunAborted:
            refused.append(True)

    waiters = _run_all([(take, ())] * 2)
    _until(lambda: permits._waiting == [2, 0])
    permits.close()
    for t in waiters:
        t.join(timeout=5)
    assert refused == [True, True]
    with pytest.raises(RunAborted):
        permits.acquire()


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
    active = {"now": 0, "peak": 0}
    gate = threading.Lock()

    def counted(backend):
        handler = backend.handler

        def counting(prompt, sampling):
            with gate:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            time.sleep(0.002)
            with gate:
                active["now"] -= 1
            return handler(prompt, sampling)

        backend.handler = counting
        return backend

    experts = [counted(b) for b in make_experts(3)]
    critics = [counted(b) for b in make_rc_evaluators()]
    run = evaluate(fast_config(concurrency=2), corpus, predictions,
                   experts=experts, rc_evaluators=critics)
    assert run.report["counts"]["ec_samples"] == 6
    assert sum(b.calls for b in experts + critics) == 6 * (3 * 2 + 3 * 2)
    assert active["peak"] <= 2
    # A ready-made client would bypass the run's permits, retries and cache.
    cache = tmp_path / "cache"
    with pytest.raises(ConfigError, match="JudgeClient"):
        evaluate(fast_config(concurrency=2, cache_dir=str(cache)), corpus,
                 predictions, experts=[JudgeClient(b) for b in make_experts(3)],
                 rc_evaluators=make_rc_evaluators())
    assert [p.name for p in cache.iterdir()] == ["replies.sqlite3"]  # closed


def _pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("rpeval")]


def _slowed(backend, seconds, on_call=lambda: None):
    handler = backend.handler

    def slow(prompt, sampling):
        on_call()
        time.sleep(seconds)
        return handler(prompt, sampling)

    backend.handler = slow
    return backend


def test_pool_has_two_threads_per_permit_and_one_per_paced_judge(tmp_path):
    samples = [make_sample(f"t{i}", role_id=f"r{i % 2}") for i in range(8)]
    corpus = write_corpus(tmp_path / "corpus.jsonl", samples)
    records = [echo_prediction(s) for s in samples]
    broken = "face: calm / body: still / speech: soft / says happy"
    records[0] = PredictionRecord(sample_id="t0", raw_output=broken)
    predictions = write_predictions(tmp_path / "preds.jsonl", records)
    seen, gate = {"peak": 0}, threading.Lock()

    def count_threads():
        with gate:
            seen["peak"] = max(seen["peak"], len(_pool_threads()))

    experts = make_experts(5)
    experts[0].rate_limit = 500.0
    repair = make_repair_judge({broken: samples[0].ground_truth.to_json()})
    judges = experts + make_rc_evaluators() + [repair]
    for backend in judges:
        _slowed(backend, 0.002, count_threads)
    run = evaluate(fast_config(concurrency=2), corpus, predictions,
                   experts=judges[:5], rc_evaluators=judges[5:7],
                   repair_judge=repair)
    assert run.report["counts"]["repaired"] == 1
    assert run.report["counts"]["ec_samples"] == 8
    # 2 x concurrency + 1 paced judge, not concurrency x (judges + 1) = 18
    assert 1 <= seen["peak"] <= 2 * 2 + 1
    assert _pool_threads() == []


def test_paced_judge_leaves_the_others_their_concurrency(tmp_path, monkeypatch):
    # A paced judge waits out its rate limit before it takes a permit, so
    # its wait never idles one of the run's permits.  Checked on the
    # events themselves, not on wall time: the run's permits record which
    # threads hold one, and the pacing sleep records whether its thread does.
    holders = Counter()
    seen = {"peak": 0, "waits": 0, "waits_holding": 0}
    lock = threading.Lock()

    class RecordingPermits(Permits):
        def acquire(self, ahead=False):
            super().acquire(ahead)
            with lock:
                holders[threading.get_ident()] += 1
                seen["peak"] = max(seen["peak"], sum(holders.values()))

        def release(self):
            with lock:
                holders[threading.get_ident()] -= 1
            super().release()

    def pacing_sleep(seconds):
        with lock:
            seen["waits"] += 1
            seen["waits_holding"] += holders[threading.get_ident()] > 0
        time.sleep(seconds)

    monkeypatch.setattr(rpeval.pipeline, "Permits", RecordingPermits)
    monkeypatch.setattr(rpeval.judges, "time",
                        SimpleNamespace(monotonic=time.monotonic, sleep=pacing_sleep))
    samples = [make_sample(f"w{i}", role_id=f"r{i % 2}") for i in range(8)]
    corpus = write_corpus(tmp_path / "corpus.jsonl", samples)
    predictions = write_predictions(
        tmp_path / "preds.jsonl", [echo_prediction(s) for s in samples])
    latency, rate, concurrency = 0.01, 40.0, 2
    experts = [_slowed(b, latency) for b in make_experts(5)]
    experts[0].rate_limit = rate
    critics = [_slowed(b, latency) for b in make_rc_evaluators()]
    evaluate(fast_config(concurrency=concurrency), corpus, predictions,
             experts=experts, rc_evaluators=critics)
    assert sum(b.calls for b in experts + critics) == 8 * (5 * 2 + 2 * 3)
    # Each sample asks the paced judge twice within its 25 ms interval
    # (10 ms apart), so it waited.
    assert seen["waits"] >= 8
    assert seen["waits_holding"] == 0, seen
    assert seen["peak"] == concurrency
    assert sum(holders.values()) == 0


def test_each_sample_sends_its_requests_in_order_from_one_thread(tmp_path):
    # Every request names its sample through the role id, which the
    # panel prompts carry in the response and the others in the role
    # materials or the raw output.
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
    seen, in_flight, lock = [], Counter(), threading.Lock()

    def step(name, prompt):
        if name == "fixer":
            return ("format",)
        if name.startswith("expert"):
            return ("panel", name)
        return ("rc", next(m for m, q in _RC_QUESTIONS.items() if q in prompt), name)

    def recorded(backend):
        handler = backend.handler

        def record(prompt, sampling):
            (sid,) = set(re.findall(r"\bsample-(\d+)\b", prompt))
            with lock:
                in_flight[sid] += 1
                seen.append((sid, threading.get_ident(), in_flight[sid],
                             step(backend.name, prompt)))
            time.sleep(0.002)
            with lock:
                in_flight[sid] -= 1
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
    panel = [("panel", b.name) for b in experts for _ in range(2)]
    judged = panel + [("rc", m, b.name) for m in RC_METRICS for b in critics]
    for i in range(8):
        mine = [entry for entry in seen if entry[0] == str(i)]
        assert len({thread for _, thread, _, _ in mine}) == 1, i
        assert max(count for _, _, count, _ in mine) == 1, i
        expected = [("format",)] * (i in repaired) + judged
        assert [step for _, _, _, step in mine] == expected, i


def test_auth_failure_in_a_worker_aborts_the_run(judge_server, tmp_path):
    samples = [make_sample(f"a{i:02d}", gt=("happy", "grateful")) for i in range(10)]
    corpus = write_corpus(tmp_path / "corpus.jsonl", samples)
    predictions = write_predictions(
        tmp_path / "preds.jsonl", [echo_prediction(s) for s in samples])
    # Replies other than the 401 take 50 ms, so the client has handled
    # the 401 before the request beside it in flight returns its permit.
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
    assert _pool_threads() == []  # the pool is shut down on the way out
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

    def answer(request, reject=False):
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
        judge_server.answer = lambda request: answer(request, reject)
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


def test_map_keeps_no_state_per_item():
    items, shared = list(range(20_000)), object()
    scheduler = Scheduler(Permits(2), 2, [])
    tracemalloc.start()
    try:
        results = scheduler.map(lambda item: shared, items)
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

        def fn(item):
            with lock:
                runs[item] += 1
            return 2 * item

        # 4 permits: 8 workers on fewer cores, all taking from one counter.
        results = Scheduler(Permits(4), 4, []).map(fn, list(range(5000)))
    finally:
        sys.setswitchinterval(old_interval)
    assert results == [2 * i for i in range(5000)]
    assert set(runs.values()) == {1} and len(runs) == 5000
    assert _pool_threads() == []


def test_interrupt_in_a_sample_is_reraised_with_the_permits_closed():
    permits = Permits(2)

    def fn(item):
        if item == 5:
            raise KeyboardInterrupt
        time.sleep(0.001)
        return item

    with pytest.raises(KeyboardInterrupt):
        Scheduler(permits, 2, []).map(fn, list(range(200)))
    assert permits.closed
    assert _pool_threads() == []


_INTERRUPTED_RUN = """
import json, signal, threading, time
from rpeval.judges import JudgeClient, MockBackend, Permits
from rpeval.scheduler import Scheduler

signal.signal(signal.SIGINT, signal.default_int_handler)
started = threading.Event()

def slow(prompt, sampling):
    if not started.is_set():
        started.set()
        print("started", flush=True)
    time.sleep(0.02)
    return "ok"

permits = Permits(2)
client = JudgeClient(MockBackend("j", handler=slow), limiter=permits,
                     sleep=permits.sleep)
try:
    Scheduler(permits, 2, [client]).map(
        lambda i: [client.ask("erc", f"{i}-{k}") for k in range(3)],
        range(100_000))
except KeyboardInterrupt:
    print(json.dumps({"closed": permits.closed, "threads": [
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
    assert json.loads(out.splitlines()[-1]) == {"closed": True, "threads": []}


def test_failed_run_ends_every_retry_backoff(tmp_path, monkeypatch):
    # Three transient failures put three workers into a 4 s backoff; the
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
    assert _pool_threads() == []
    permits = Permits(1)
    permits.close()
    with pytest.raises(RunAborted):
        permits.sleep(30.0)


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
    active, gate = {"now": 0, "peak": 0}, threading.Lock()

    def counted():
        with gate:
            active["now"] += 1
            active["peak"] = max(active["peak"], active["now"])
        time.sleep(0.005)
        with gate:
            active["now"] -= 1

    generate(fast_config(concurrency=1), "gen", corpus, tmp_path / "c1.jsonl",
             generator=_hashing_generator())
    records = generate(fast_config(concurrency=2), "gen", corpus,
                       tmp_path / "c2.jsonl", generator=_hashing_generator(counted))
    assert active["peak"] == 2
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
    # the pool has shut down: no call can start after this
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
    assert _pool_threads() == []
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
