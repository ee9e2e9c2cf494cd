"""Shared test fixtures: corpus builders and scripted judge backends."""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from rpeval.corpus import (
    DEFAULT_EMOTION_LABELS,
    DialogueSample,
    MultimodalResponse,
    PredictionRecord,
    RoleCard,
    UserTurn,
    save_jsonl,
)
from rpeval.judges import MockBackend, ReplyCache, RetryPolicy, TransportError
from rpeval.pipeline import RunConfig

LABEL_SET = set(DEFAULT_EMOTION_LABELS)


@pytest.fixture(autouse=True)
def _reply_caches_closed(monkeypatch):
    """Fail a test that leaves a ``ReplyCache`` open.

    Python 3.13 warns about an unclosed ``sqlite3`` connection, but 3.10
    and 3.11 do not, so ``-W error`` alone would not catch one there.
    """
    opened = []
    init, close = ReplyCache.__init__, ReplyCache.close

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        opened.append(self)

    def tracked_close(self):
        close(self)
        if self in opened:
            opened.remove(self)

    monkeypatch.setattr(ReplyCache, "__init__", tracked_init)
    monkeypatch.setattr(ReplyCache, "close", tracked_close)
    yield
    left = [str(cache.root) for cache in opened]
    for cache in opened:
        close(cache)
    if left:
        pytest.fail(f"ReplyCache left open: {left}")


def make_response(content: str, flavor: str = "calm") -> MultimodalResponse:
    return MultimodalResponse(
        facial_expression=f"a {flavor} expression",
        body_movement=f"{flavor} gestures",
        speech_prompt=f"{flavor} voice",
        content=content,
    )


def make_sample(
    sample_id: str,
    role_id: str = "hero",
    gt: tuple[str, ...] = ("happy", "grateful"),
    dialogue_id: str | None = None,
    profile: str = "A cheerful knight who never lies.",
    previous_info: str = "Met the traveler at the gate yesterday.",
    user_name: str = "Sam",
    history: int = 0,
    content: str | None = None,
) -> DialogueSample:
    # By default content is the gold labels joined by a CJK period: one
    # utterance per label, so echo-style judges can read labels off the text.
    if content is None:
        content = "。".join(gt) + "。"
    turns = []
    for i in range(history):
        turns.append(
            (
                UserTurn(content=f"hello {i}"),
                make_response("neutral。", flavor=f"turn{i}"),
            )
        )
    return DialogueSample(
        sample_id=sample_id,
        role=RoleCard(role_id=role_id, profile=profile,
                      image_ref=f"img/{role_id}.png", user_name=user_name),
        previous_info=previous_info,
        history=turns,
        user_input=UserTurn(content="How are you feeling now"),
        ground_truth=make_response(content, flavor=role_id),
        gt_emotions=list(gt),
        dialogue_id=dialogue_id,
    )


def echo_prediction(sample: DialogueSample) -> PredictionRecord:
    return PredictionRecord(
        sample_id=sample.sample_id,
        raw_output=sample.ground_truth.to_json(),
    )


def write_corpus(path, samples) -> str:
    save_jsonl(path, [s.to_record() for s in samples])
    return str(path)


def write_predictions(path, records) -> str:
    save_jsonl(path, [r.to_record() for r in records])
    return str(path)


_UTTERANCE_LINE = re.compile(r"^\d+\.\s(.*)$", re.MULTILINE)


def _labels_from_prompt(prompt: str) -> list[str]:
    utterances = _UTTERANCE_LINE.findall(prompt)
    return [u if u in LABEL_SET else "neutral" for u in utterances]


def label_echo_expert(name: str) -> MockBackend:
    """Expert that reads each utterance as its own emotion label."""

    def handler(prompt, sampling):
        labels = _labels_from_prompt(prompt)
        return json.dumps(
            {f"emos_{m}": labels for m in ("f", "b", "s", "fusion")},
            ensure_ascii=False,
        )

    return MockBackend(name, handler=handler)


def make_experts(n: int = 5) -> list[MockBackend]:
    return [label_echo_expert(f"expert{i}") for i in range(n)]


def _response_content(prompt: str) -> str:
    tail = prompt.split("Response under evaluation:", 1)[-1]
    match = re.search(r'"content":\s*"([^"]*)"', tail)
    return match.group(1) if match else ""


def rc_agree_evaluator(name: str, drop_marker: str | None = None) -> MockBackend:
    """Evaluator that quotes the response content as agreeing evidence.

    Responses whose content contains ``drop_marker`` get empty evidence
    on both sides, which abstains (and drops the sample if every
    evaluator does it).
    """

    def handler(prompt, sampling):
        content = _response_content(prompt)
        if drop_marker is not None and drop_marker in content:
            return json.dumps(
                {"agree_evidence": [], "disagree_evidence": []})
        spans = [content] if content else []
        return json.dumps(
            {"agree_evidence": spans, "disagree_evidence": []},
            ensure_ascii=False,
        )

    return MockBackend(name, handler=handler)


def make_rc_evaluators(n: int = 2, drop_marker: str | None = None):
    return [rc_agree_evaluator(f"critic{i}", drop_marker) for i in range(n)]


def make_repair_judge(table: dict[str, str], name: str = "fixer") -> MockBackend:
    """Repair judge scripted by raw-output prefix lookup."""

    def handler(prompt, sampling):
        tail = prompt.split("Text to repair:\n", 1)[-1]
        for raw, fixed in table.items():
            if tail.startswith(raw):
                return fixed
        return "no idea"

    return MockBackend(name, handler=handler)


def answer(flow, reply):
    """Run ``flow`` on the calling thread with no thread, cache or retry:
    each ask is answered by ``reply(judge, kind, prompt, pass_index)``,
    and a ``TransportError`` it raises is sent in place of its reply."""
    replies = None
    while True:
        try:
            batch = flow.send(replies)
        except StopIteration as stop:
            return stop.value
        replies = []
        for ask in batch:
            try:
                replies.append(reply(*ask))
            except TransportError as exc:
                replies.append(exc)


def fast_config(**overrides) -> RunConfig:
    """Run config tuned for tests: no backoff sleeps, modest concurrency."""
    base = dict(
        concurrency=2,
        retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0),
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture
def small_world(tmp_path):
    """Two roles, three samples each, echo predictions, scripted judges."""
    samples = [
        make_sample("s01", role_id="hero", gt=("happy", "grateful")),
        make_sample("s02", role_id="hero", gt=("relaxed",)),
        make_sample("s03", role_id="hero", gt=("worried", "sadness")),
        make_sample("s04", role_id="witch", gt=("anger",)),
        make_sample("s05", role_id="witch", gt=("disgust", "anger")),
        make_sample("s06", role_id="witch", gt=("neutral",)),
    ]
    corpus_path = write_corpus(tmp_path / "corpus.jsonl", samples)
    predictions_path = write_predictions(
        tmp_path / "preds.jsonl", [echo_prediction(s) for s in samples]
    )
    config = fast_config(cache_dir=str(tmp_path / "cache"))
    return {
        "samples": samples,
        "corpus": corpus_path,
        "predictions": predictions_path,
        "config": config,
        "out": tmp_path / "out",
        "experts": make_experts(),
        "rc": make_rc_evaluators(),
    }


class _Judge(BaseHTTPRequestHandler):
    """Loopback chat-completions endpoint answering from ``server.script``.

    Once the script is empty, ``server.answer(request_json)`` gives the
    reply.  A ``None`` status hangs up after reading the request, unanswered.
    A ``bytes`` payload is sent as it is, for bodies ``json`` cannot write.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # no delayed-ACK stall between head and body

    def log_message(self, *args):
        pass

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        request = json.loads(body)
        self.server.seen.append({
            "path": self.path, "json": request, "body": body,
            "peer": self.client_address, "headers": dict(self.headers)})
        status, payload, *delay = (self.server.script.pop(0) if self.server.script
                                   else self.server.answer(request))
        time.sleep(delay[0] if delay else 0)
        if status is None:
            self.close_connection = True
            return
        if payload is None or isinstance(payload, bytes):
            data = payload or b""
        else:
            data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@pytest.fixture
def judge_server(monkeypatch):
    """A loopback judge; ``script`` queues (status, payload[, delay]) replies."""
    for var in ("http_proxy", "https_proxy", "all_proxy",
                "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Judge)
    server.daemon_threads = True
    server.script, server.seen = [], []
    server.answer = lambda request: (
        200, {"choices": [{"message": {"content": "ok"}}]})
    thread = threading.Thread(target=server.serve_forever, args=(0.01,),
                              daemon=True)
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    yield server
    server.shutdown()
    server.server_close()
