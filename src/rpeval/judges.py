"""Judge backends, the client that describes a judge of a run, and reply parsing.

A judge is anything that turns a prompt into text: a remote
OpenAI-compatible endpoint in production, a fixture-backed mock in
tests.  ``JudgeClient`` gives a backend the identity, pacing and counters
that ``scheduler.drive`` keeps when it sends the client's requests with
the run's retry policy, reply cache (keyed by ``JudgeClient.key``) and
sampling.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
import re
import select
import threading
import time
from pathlib import Path
from typing import Callable, Optional, Sequence
from urllib.parse import unquote, urlsplit

from .config import _SAMPLING_FIELDS, ConfigError, RetryPolicy, Sampling

logger = logging.getLogger(__name__)


class TransportError(RuntimeError):
    """A transient delivery failure; eligible for retry."""


class RequestRejected(TransportError):
    """The backend refused this one request (HTTP 400/413/422); never retried."""


# Version of the reply-cache key layout; bumping it orphans old entries.
CACHE_SCHEMA = 2


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class MockBackend:
    """Deterministic stand-in for a remote judge.

    Replies come from a handler callable or, without one, from
    ``<digest>.txt`` files in a fixture directory, keyed by prompt
    digest.  A prompt with no fixture, or one whose fixture is not UTF-8
    text, raises ``TransportError`` so exhaustion paths stay testable.
    ``rate_limit`` (requests per second) is kept by ``scheduler.drive``,
    as for HTTP backends.
    """

    def __init__(
        self,
        name: str = "mock",
        fixture_dir: Optional[str | Path] = None,
        handler: Optional[Callable[[str, Sampling], str]] = None,
        rate_limit: float = 0.0,
    ):
        self.name = name
        self.identity = ("mock", name)
        self.rate_limit = rate_limit
        self.fixture_dir = Path(fixture_dir) if fixture_dir else None
        self.handler = handler
        self.calls = 0
        self._calls_lock = threading.Lock()

    def complete(self, prompt: str, sampling: Sampling) -> str:
        with self._calls_lock:
            self.calls += 1
        if self.handler is not None:
            return self.handler(prompt, sampling)
        key = prompt_digest(prompt)
        if self.fixture_dir is not None:
            path = self.fixture_dir / f"{key}.txt"
            if path.exists():
                try:
                    return path.read_bytes().decode("utf-8")
                except UnicodeDecodeError:
                    raise TransportError(f"{self.name}: fixture for prompt digest "
                                         f"{key[:12]} is not UTF-8 text") from None
        raise TransportError(f"{self.name}: no fixture for prompt digest {key[:12]}")


# Most bytes of a reply body read; a longer body is a ``TransportError``.
# A 1024-token completion is tens of KB, and a reply of this size parses
# in well under a second.
MAX_REPLY_BYTES = 1 << 20

# HTTP statuses worth retrying.
_RETRIABLE_STATUSES = {408, 409, 425, 429, 500, 502, 503, 504}
# Statuses that reject one request (too long, malformed), not the backend;
# never retried.  Any other non-200 status is a configuration error.
_REJECTED_STATUSES = {400, 413, 422}


def _proxy_for(name: str, scheme: str, host: str) -> Optional[tuple[str, int, dict]]:
    """(host, port, auth headers) of the proxy the environment names, or ``None``.

    Reads ``HTTP_PROXY``, ``HTTPS_PROXY``, ``ALL_PROXY`` and ``NO_PROXY``
    (either case) the way urllib does.
    """
    import urllib.request

    proxies = urllib.request.getproxies()
    url = proxies.get(scheme) or proxies.get("all")
    if not url or urllib.request.proxy_bypass(host):
        return None
    shown = url.rpartition("@")[2]  # an error names no proxy password
    try:
        parts = urlsplit(url if "://" in url else f"http://{url}")
        port = parts.port or 80
    except ValueError as exc:
        raise ConfigError(f"backend {name!r}: proxy {shown!r}: {exc}") from None
    if parts.scheme != "http" or not parts.hostname:
        raise ConfigError(
            f"backend {name!r}: unsupported proxy {shown!r}: only http:// proxies")
    auth = {}
    if parts.username:
        pair = f"{unquote(parts.username)}:{unquote(parts.password or '')}"
        auth["Proxy-Authorization"] = (
            "Basic " + base64.b64encode(pair.encode("utf-8")).decode("ascii"))
    return parts.hostname, port, auth


def _dropped(sock) -> bool:
    """Whether an idle keep-alive socket was closed (or written to) by the peer."""
    try:
        if hasattr(select, "poll"):
            poller = select.poll()
            poller.register(sock, select.POLLIN)
            return bool(poller.poll(0))
        return bool(select.select([sock], [], [], 0)[0])
    except (OSError, ValueError):
        return True


class HttpBackend:
    """OpenAI-compatible chat-completions backend over ``http.client``.

    Credentials come from the environment variable named by
    ``credential_env``, read on each call; a missing credential, one that
    is not printable ASCII, or an auth rejection is a configuration
    error, not a transient fault, and no error shows the credential.
    ``rate_limit`` (requests per second) is kept by ``scheduler.drive``.
    Connections are kept alive for reuse when the server allows it; each
    call checks one out, so no more stay open than calls ever overlapped.
    Proxies come from the environment, and TLS verifies against the
    system trust store (``SSL_CERT_FILE``).
    """

    def __init__(
        self,
        name: str,
        endpoint: str,
        model: str,
        credential_env: str = "",
        rate_limit: float = 0.0,
        timeout: float = 60.0,
    ):
        if not endpoint:
            raise ConfigError(f"backend {name!r}: endpoint is required")
        if not model:
            raise ConfigError(f"backend {name!r}: model is required")
        try:
            url = urlsplit(endpoint)
            port = url.port
        except ValueError as exc:
            raise ConfigError(
                f"backend {name!r}: endpoint {endpoint!r}: {exc}") from None
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ConfigError(
                f"backend {name!r}: endpoint {endpoint!r} is not an http(s) URL")
        self.name = name
        self.model = model
        self.identity = ("http", model, endpoint)
        self.credential_env = credential_env
        self.rate_limit = rate_limit
        self.timeout = timeout
        self._https = url.scheme == "https"
        self._host = url.hostname
        self._port = port or (443 if self._https else 80)
        self._target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._headers = {"Content-Type": "application/json", "User-Agent": "rpeval"}
        self._proxy = _proxy_for(name, url.scheme, url.hostname)
        if self._proxy is not None and not self._https:
            # A plain-HTTP proxy takes the absolute URL as the target.
            self._target = endpoint
            self._headers.update(self._proxy[2])
        self._tls = None
        if self._https:
            import ssl

            self._tls = ssl.create_default_context()
        self._idle: list = []
        self._pool_lock = threading.Lock()

    def _connect(self):
        import http.client

        host, port = self._host, self._port
        if self._proxy is not None:
            host, port, auth = self._proxy
        if not self._https:
            return http.client.HTTPConnection(host, port, timeout=self.timeout)
        conn = http.client.HTTPSConnection(
            host, port, timeout=self.timeout, context=self._tls)
        if self._proxy is not None:
            conn.set_tunnel(self._host, self._port, headers=auth)
        return conn

    def _checkout(self):
        with self._pool_lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            return self._connect()
        if conn.sock is not None and _dropped(conn.sock):
            conn.close()  # reopens on the next request
        return conn

    def _checkin(self, conn) -> None:
        with self._pool_lock:
            self._idle.append(conn)

    def close(self) -> None:
        """Close the idle keep-alive connections; later calls reconnect."""
        with self._pool_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def complete(self, prompt: str, sampling: Sampling) -> str:
        import http.client

        headers = dict(self._headers)
        if self.credential_env:
            token = os.environ.get(self.credential_env, "")
            if not token:
                raise ConfigError(
                    f"backend {self.name!r}: environment variable "
                    f"{self.credential_env!r} is not set"
                )
            if not (token.isascii() and token.isprintable()):
                # http.client would refuse the header with its value shown.
                raise ConfigError(
                    f"backend {self.name!r}: environment variable "
                    f"{self.credential_env!r} is not printable ASCII "
                    f"(a stray newline?)")
            headers["Authorization"] = f"Bearer {token}"
        body = json.dumps({
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            **{name: getattr(sampling, name) for name in _SAMPLING_FIELDS},
        }).encode("utf-8")
        conn = self._checkout()
        reused = conn.sock is not None
        try:
            try:
                conn.request("POST", self._target, body=body, headers=headers)
                resp = conn.getresponse()
            except ConnectionError:  # RemoteDisconnected, BrokenPipe, reset
                if not reused:
                    raise
                # The server closed the idle connection as it was reused,
                # before answering: send once more on a fresh connection.
                conn.close()
                conn.request("POST", self._target, body=body, headers=headers)
                resp = conn.getresponse()
            with resp:
                status = resp.status
                # A Content-Length over the bound fails before any byte is read.
                too_long = (resp.length or 0) > MAX_REPLY_BYTES
                if not too_long:
                    data = resp.read(MAX_REPLY_BYTES + 1)
                    too_long = len(data) > MAX_REPLY_BYTES
            if too_long:  # the connection is closed below, never pooled
                raise TransportError(f"backend {self.name!r}: reply body is "
                                     f"longer than {MAX_REPLY_BYTES} bytes")
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise TransportError(f"backend {self.name!r}: {exc}") from exc
        except BaseException:
            conn.close()
            raise
        self._checkin(conn)
        if status in (401, 403):
            raise ConfigError(
                f"backend {self.name!r}: authentication rejected "
                f"(HTTP {status})"
            )
        if status in _RETRIABLE_STATUSES:
            raise TransportError(
                f"backend {self.name!r}: HTTP {status}"
            )
        if status in _REJECTED_STATUSES:
            raise RequestRejected(
                f"backend {self.name!r}: request rejected (HTTP {status}): "
                f"{data.decode('utf-8', 'replace')[:200]}"
            )
        if status != 200:
            raise ConfigError(
                f"backend {self.name!r}: unexpected HTTP {status}: "
                f"{data.decode('utf-8', 'replace')[:200]}"
            )
        try:
            content = json_object(data)["choices"][0]["message"]["content"]
            # A refusal can have null content; text holding an unpaired
            # surrogate escape could be neither cached nor sent on.
            content.encode("utf-8")
        except (KeyError, IndexError, TypeError, AttributeError, UnicodeEncodeError):
            raise TransportError(
                f"backend {self.name!r}: malformed completion payload") from None
        return content


class ReplyCache:
    """Content-addressed reply store: one SQLite database per cache root.

    Layout is stable: ``<root>/replies.sqlite3`` holds one table,
    ``replies(key TEXT PRIMARY KEY, kind TEXT NOT NULL, text TEXT NOT
    NULL)``, where ``key`` is an ask's ``JudgeClient.key``.  The database
    runs in WAL mode; each ``put`` is its own transaction, so readers
    never see a partial record, and runs sharing a root wait out each
    other's opens and writes instead of failing.  ``close`` checkpoints
    the WAL into the database file.  A database that fails, on opening or mid-run, is a
    ``ConfigError`` that names the file.  Only the thread that opened a
    cache uses it: in a run, that is the driver.
    """

    FILE = "replies.sqlite3"

    def __init__(self, root: str | Path):
        import sqlite3

        self.root = Path(root)
        self.path = self.root / self.FILE
        self._errors = (OSError, sqlite3.Error)
        self._db = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            # The timeout is how long a write waits out another process's.
            timeout = 30.0
            self._db = sqlite3.connect(self.path, timeout=timeout)
            # Turning a new database to WAL needs it alone, and SQLite says
            # "locked" at once, without waiting, while another connection
            # opens it too; so the wait is made here.
            deadline = time.monotonic() + timeout
            while True:
                try:
                    self._db.execute("PRAGMA journal_mode=WAL")
                    break
                except sqlite3.OperationalError as exc:
                    if "locked" not in str(exc) or time.monotonic() > deadline:
                        raise
                    time.sleep(0.005)
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.execute("CREATE TABLE IF NOT EXISTS replies (key TEXT PRIMARY KEY,"
                             " kind TEXT NOT NULL, text TEXT NOT NULL)")
        except self._errors as exc:
            if self._db is not None:
                self._db.close()
            raise self._unusable(exc) from exc

    def _unusable(self, exc: Exception) -> ConfigError:
        return ConfigError(f"reply cache {self.path}: {exc}")

    def get(self, key: str) -> Optional[str]:
        try:
            row = self._db.execute(
                "SELECT text FROM replies WHERE key = ?", (key,)).fetchone()
        except self._errors as exc:
            raise self._unusable(exc) from exc
        if row is None:
            return None
        if not isinstance(row[0], str):
            logger.warning("discarding unreadable cache entry %s", key)
            return None
        return row[0]

    def put(self, key: str, kind: str, text: str) -> None:
        try:
            with self._db:
                self._db.execute("INSERT OR REPLACE INTO replies VALUES (?, ?, ?)",
                                 (key, kind, text))
        except self._errors as exc:
            raise self._unusable(exc) from exc

    def close(self) -> None:
        """Close the connection; the last one to close folds the WAL back in.

        A failure while another error is being raised is only logged, so
        that it never replaces that error."""
        try:
            self._db.close()
        except self._errors as exc:
            if exc.__context__ is None:
                raise self._unusable(exc) from exc
            logger.warning("%s", self._unusable(exc))


_COUNTERS = ("cache_hits", "cache_misses", "backend_calls", "replies",
             "retries", "transport_failures", "rejected")


class JudgeClient:
    """A judge of a run: a backend with its identity, pacing and counters.

    ``backend`` is anything with a ``name`` and ``complete(prompt,
    sampling)``.  ``scheduler.drive`` sends the client's requests and
    keeps its ``counts`` and ``last_send``; only ``attempt`` runs on a
    sender thread.
    """

    def __init__(self, backend):
        self.backend = backend
        self.identity = tuple(getattr(backend, "identity", None)
                              or (type(backend).__name__, backend.name))
        rate = getattr(backend, "rate_limit", 0.0) or 0.0
        # Least seconds between two sends; 0 for an unlimited backend.
        self.interval = 1.0 / rate if rate > 0 else 0.0
        self.last_send = float("-inf")
        self.counts = dict.fromkeys(_COUNTERS, 0)

    @property
    def name(self) -> str:
        return self.backend.name

    def key(self, kind: str, prompt: str, sampling: Sampling, pass_index: int) -> str:
        """The cache key of this judge's ask: a digest of the cache schema,
        the backend's identity, the judge's name, and the ask's kind,
        prompt, sampling and pass.

        The name keeps panel members from sharing replies: the same prompt
        sent to two judges is two opinions.  The identity (kind, model,
        endpoint; a mock's name) keeps a judge switched to another model
        from getting the old model's replies."""
        payload = json.dumps(
            [CACHE_SCHEMA, list(self.identity), self.name, kind, prompt,
             *(getattr(sampling, name) for name in _SAMPLING_FIELDS), pass_index],
            ensure_ascii=False)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def attempt(self, prompt: str, sampling: Sampling) -> str:
        """One backend attempt.

        A reply that is not UTF-8 text (not a ``str``, or one holding a
        lone surrogate) is a ``TransportError``: it costs this request,
        never the run."""
        text = self.backend.complete(prompt, sampling)
        if isinstance(text, str):
            try:
                text.encode("utf-8")
                return text
            except UnicodeEncodeError:
                pass
        raise TransportError(f"judge {self.name!r}: reply is not UTF-8 text")

    def close(self) -> None:
        """Close the backend's idle connections, if it keeps any."""
        if hasattr(self.backend, "close"):
            self.backend.close()

    def call(self, kind: str, prompt: str, pass_index: int = 1, *,
             sampling: Sampling = Sampling(), cache: Optional[ReplyCache] = None,
             retry: RetryPolicy = RetryPolicy()) -> str:
        """The reply to one ask of this judge, sent through ``scheduler.drive``."""
        from .scheduler import ask_once, drive

        return drive([ask_once(self, kind, prompt, pass_index)],
                     cache=cache, retry=retry, sampling=sampling)[0]


_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)


def json_object(text: str | bytes) -> Optional[dict]:
    """The JSON object ``text`` holds; ``None`` if it holds none or nests too deep.

    Judge output goes through here, so a bad reply costs that reply, never the run.
    """
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError):
        return None
    return obj if isinstance(obj, dict) else None


def extract_json_object(text: str) -> Optional[dict]:
    """Parse the first complete JSON object out of free-form judge text.

    Tries the whole text first, so a fence quoted inside one object's
    string never stands in for the object; then scans the code fences,
    and then the text, for a balanced top-level ``{...}`` while respecting
    string literals.  ``None`` when there is no such ``{...}`` or it does
    not parse.
    """
    obj = json_object(text)
    if obj is not None:
        return obj
    candidates = [m.group(1) for m in _FENCE_RE.finditer(text)]
    # A first fence that holds one JSON object is what the scan would find.
    obj = json_object(candidates[0]) if candidates else None
    if obj is not None:
        return obj
    blob = _scan_json_object(candidates + [text])
    return None if blob is None else json_object(blob)


# The only characters that move the scan; it skips the others.
_SCAN_STOPS = re.compile(r'[{}"\\]')


def _scan_json_object(candidates: Sequence[str]) -> Optional[str]:
    """The first balanced ``{...}`` in the first candidate that has one."""
    for candidate in candidates:
        blob = _first_balanced(candidate)
        if blob is not None:
            return blob
    return None


def _merge(a: Optional[list], b: Optional[list]) -> Optional[list]:
    """Two stacks of open braces that from now on see the same characters:
    their tops close together, so each level keeps the earlier start."""
    if a is None or b is None:
        return a if b is None else b
    if len(a) < len(b):
        a, b = b, a
    for k in range(1, len(b) + 1):
        a[-k] = min(a[-k], b[-k])
    return a


def _first_balanced(text: str) -> Optional[str]:
    """``text[s:e + 1]`` for the first ``{`` at ``s`` whose scan closes, at ``e``.

    A scan starts outside a string at its ``{`` and counts braces outside
    string literals until the count is back at 0.  Rescanning from each
    ``{`` in turn takes time quadratic in the length; this pass runs every
    scan at once.  The scans that are in the same string state at some
    character see the same characters from then on, so at most three
    groups remain (outside a string, in one, just after a backslash in
    one).  Each group is a stack of open braces, one level per depth,
    which holds the earliest start at that depth: the scans at one level
    close together.
    """
    first = text.find("{")
    if first < 0:
        return None
    out = inside = escaped = None  # the groups, by string state
    best = None  # (start, end) of the earliest start closed so far
    last = first - 1
    for match in _SCAN_STOPS.finditer(text, first):
        i = match.start()
        if escaped is not None and i > last + 1:  # an escaped plain character
            inside, escaped = _merge(inside, escaped), None
        last = i
        ch = text[i]
        if ch == '"':
            out, inside, escaped = inside, _merge(out, escaped), None
        elif ch == "\\":
            inside, escaped = escaped, inside
        else:
            if escaped is not None:
                inside, escaped = _merge(inside, escaped), None
            if ch == "{":
                if out is None:
                    out = []
                out.append(i)
            elif out is not None:
                start = out.pop()
                if not out:
                    out = None
                if best is None or start < best[0]:
                    best = (start, i)
                if start == first or (out is None and inside is None
                                       and escaped is None):
                    break  # no scan still open started before ``best``
    return None if best is None else text[best[0]:best[1] + 1]


def _coerce_spans(value: object) -> Optional[list[str]]:
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, list):
        return None
    spans = []
    for item in value:
        if not isinstance(item, str):
            return None
        item = item.strip()
        if item:
            spans.append(item)
    return spans


def parse_rc_verdict(
    text: str, sources: Optional[Sequence[str]] = None
) -> Optional[tuple[list[str], list[str]]]:
    """Parse a role-consistency reply into ``(agree_spans, disagree_spans)``.

    ``None`` means the reply is unusable.  When ``sources`` is given,
    every evidence span must occur verbatim in at least one source
    string; spans that do not are dropped, which can empty a side.
    """
    obj = extract_json_object(text)
    if obj is None:
        return None
    agree = _coerce_spans(obj.get("agree_evidence"))
    disagree = _coerce_spans(obj.get("disagree_evidence"))
    if agree is None or disagree is None:
        return None
    if sources is not None:
        agree = [s for s in agree if any(s in src for src in sources)]
        disagree = [s for s in disagree if any(s in src for src in sources)]
    return agree, disagree
