"""Loopback OpenAI-compatible chat-completions stub, run as its own process.

Usage: python3 bench/stub.py --latency SECONDS [--fault NAME] [--cpu N]

Binds 127.0.0.1 on a free port and prints that port as its first line
of output.  ``POST /v1/chat/completions`` sleeps the fixed service
latency, then answers with ``replies.Replier``, using the request's
``model`` as the judge name; a planted transient failure answers 503.

The stub counts its own service time per model, from the parsed request
to the written response.  ``GET /stats`` returns
``{"<model>": [requests, service_seconds], ...}`` and ``POST /reset``
zeroes the counts and re-arms the planted transient failures.

The stub exits when its standard input reaches end of file, so it never
outlives the process that started it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from replies import FAULTS, Replier, Transient  # noqa: E402


def make_handler(replier: Replier, latency: float):
    stats: dict[str, list] = {}
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args) -> None:
            pass

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:
            if self.path != "/stats":
                self._send(404, {"error": "not found"})
                return
            with lock:
                snapshot = {k: list(v) for k, v in stats.items()}
            self._send(200, snapshot)

        def do_POST(self) -> None:
            started = time.perf_counter()
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                with lock:
                    stats.clear()
                replier.reset()
                self._send(200, {})
                return
            if self.path != "/v1/chat/completions":
                self._send(404, {"error": "not found"})
                return
            request = json.loads(body)
            model = request["model"]
            time.sleep(latency)
            try:
                text = replier.reply(model, request["messages"][0]["content"])
            except Transient as exc:
                self._send(503, {"error": str(exc)})
            else:
                self._send(200, {"choices": [
                    {"message": {"role": "assistant", "content": text}}]})
            elapsed = time.perf_counter() - started
            with lock:
                entry = stats.setdefault(model, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--latency", type=float, required=True)
    parser.add_argument("--fault", default="", choices=FAULTS)
    parser.add_argument("--cpu", type=int, help="pin the stub to this CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    server = ThreadingHTTPServer(
        ("127.0.0.1", 0), make_handler(Replier(args.fault), args.latency))
    server.daemon_threads = True

    def watch_stdin() -> None:
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=watch_stdin, daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
