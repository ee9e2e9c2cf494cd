"""The one loop that sends a run's judge requests.

A sample is a flow: a generator that yields batches of independent asks,
each ``(judge, kind, prompt, pass_index)``, is sent each batch's replies
in order (the text, or the ``TransportError`` that ended the ask) and
returns its result.  ``drive`` runs a run's flows on the calling thread,
which alone reads the run's reply cache, retry policy and sampling, and
keeps the pacing, counters and the bound on requests in flight; up to
``concurrency`` sender threads (none at 1) only make backend attempts.
At most ``2 * concurrency`` flows are open.
An ask whose request is already on its way waits for its reply and
counts as a cache hit.  A rate-limited judge's ask goes out ``interval``
after that judge's last send at the earliest and, once due, takes the
next free slot first; a transient failure is queued again
``retry.delay(attempt)`` later; neither holds a slot while it waits.
The first exception that is not a ``TransportError``, Ctrl-C included,
stops dispatch and is re-raised once the senders have stopped.
Only the driver logs a lost ask: a WARNING per rejected request and per
exhausted ask, an INFO per failed attempt that is sent again.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import queue
import threading
import time
from collections import deque
from typing import Generator, Iterable, Optional

from .config import RetryPolicy, Sampling
from .judges import ReplyCache, RequestRejected, TransportError

logger = logging.getLogger(__name__)

Flow = Generator[list, list, object]  # yields asks, is sent replies


def drive(flows: Iterable[Flow], concurrency: int = 1, *,
          cache: Optional[ReplyCache] = None, retry: RetryPolicy = RetryPolicy(),
          sampling: Sampling = Sampling()) -> list:
    """The result of each flow, in order, with at most ``concurrency``
    backend attempts in flight; ``flows`` is read lazily.  Every ask is
    sent with ``sampling``, looked up in and stored to ``cache`` when
    there is one, and tried up to ``retry.max_attempts`` times."""
    return _Driver(concurrency, cache, retry, sampling).run(flows)


def ask_once(judge, kind: str, prompt: str, pass_index: int = 1):
    """A flow of one ask: its reply text, or the ``TransportError`` raised."""
    (reply,) = yield [(judge, kind, prompt, pass_index)]
    if isinstance(reply, TransportError):
        raise reply
    return reply


class _Sample:
    """An open flow, its place in the results and its current batch."""

    __slots__ = ("flow", "slot", "replies", "missing")

    def __init__(self, flow: Flow, slot: int):
        self.flow, self.slot, self.replies, self.missing = flow, slot, [], 0


class _Job:
    """A request on its way: the ask that sent it, its judge and cache key;
    ``askers`` holds (ask, sample, index) of that ask, then of each
    identical ask that waits on it."""

    __slots__ = ("ask", "judge", "key", "askers", "attempt")

    def __init__(self, key, asker):
        self.ask, self.judge, self.key = asker[0], asker[0][0], key
        self.askers, self.attempt = [asker], 0


class _Driver:
    """The state of one ``drive`` call."""

    def __init__(self, concurrency: int, cache: Optional[ReplyCache],
                 retry: RetryPolicy, sampling: Sampling):
        # A fractional bound would never be reached, so it would bound nothing.
        if (isinstance(concurrency, bool) or not isinstance(concurrency, int)
                or concurrency < 1):
            raise ValueError(
                f"concurrency must be a positive integer, got {concurrency!r}")
        self.concurrency, self.results, self.open = concurrency, [], 0
        self.cache, self.retry, self.sampling = cache, retry, sampling
        self.resumable: deque[_Sample] = deque()  # their batch is answered
        self.ready: deque[_Job] = deque()  # unpaced, in turn
        self.paced: dict = {}  # judge -> deque of its jobs
        self.timers: list = []  # (due, seq, job): retries waiting out a backoff
        self.seq = itertools.count()  # orders timers that fall due together
        self.flying: dict[str, _Job] = {}  # cache key -> its job
        self.in_flight, self.stopped = 0, False
        self.senders: list[threading.Thread] = []
        self.jobs, self.done = queue.SimpleQueue(), queue.SimpleQueue()

    def run(self, flows: Iterable[Flow]) -> list:
        pending = iter(flows)
        try:
            while True:
                while self.resumable:
                    sample = self.resumable.popleft()
                    self._step(sample, sample.replies)
                flow = next(pending, None) if self.open < 2 * self.concurrency else None
                if flow is not None:
                    self.results.append(None)
                    self.open += 1
                    self._step(_Sample(flow, len(self.results) - 1), None)
                    continue
                self._dispatch()
                if not self.resumable and not self._wait():
                    return self.results
        except BaseException:
            self.stopped = True
            raise
        finally:
            for _ in self.senders:
                self.jobs.put(None)
            for sender in self.senders:
                if sender.ident is not None:  # it started
                    sender.join()

    def _step(self, sample: _Sample, replies) -> None:
        """Send ``replies`` to ``sample`` and submit the batch it yields next."""
        while True:
            try:
                batch = sample.flow.send(replies)
            except StopIteration as stop:
                self.results[sample.slot] = stop.value
                self.open -= 1
                return
            if batch:
                break
            replies = []
        sample.replies, sample.missing = [None] * len(batch), len(batch)
        for index, ask in enumerate(batch):
            self._submit((ask, sample, index))

    def _submit(self, asker) -> None:
        (judge, kind, prompt, pass_index), key = asker[0], None
        if self.cache is not None:
            key = judge.key(kind, prompt, self.sampling, pass_index)
            if key in self.flying:
                self.flying[key].askers.append(asker)
                return
            cached = self.cache.get(key)
            judge.counts["cache_misses" if cached is None else "cache_hits"] += 1
            if cached is not None:
                judge.counts["replies"] += 1
                self._deliver(asker, cached)
                return
        job = _Job(key, asker)
        if key is not None:
            self.flying[key] = job
        self._queue(job)

    def _queue(self, job: _Job) -> None:
        if job.judge.interval > 0:
            self.paced.setdefault(job.judge, deque()).append(job)
        else:
            self.ready.append(job)

    def _deliver(self, asker, value) -> None:
        _, sample, index = asker
        sample.replies[index] = value
        sample.missing -= 1
        if not sample.missing:
            self.resumable.append(sample)

    def _paced(self) -> tuple[float, deque | None]:
        """The queued jobs of the paced judge due first, and when it is due."""
        return min(((judge.last_send + judge.interval, jobs)
                    for judge, jobs in self.paced.items() if jobs),
                   key=lambda pair: pair[0], default=(math.inf, None))

    def _dispatch(self) -> None:
        now = time.monotonic()
        while self.timers and self.timers[0][0] <= now:
            self._queue(heapq.heappop(self.timers)[2])
        while self.in_flight < self.concurrency and not self.stopped:
            due, jobs = self._paced()
            if due <= time.monotonic():
                job = jobs.popleft()
                job.judge.last_send = time.monotonic()
            elif self.ready:
                job = self.ready.popleft()
            else:
                return
            job.attempt += 1
            if self.concurrency == 1:
                self._finish(job, self._attempt(job))
                continue
            if self.in_flight == len(self.senders):
                sender = threading.Thread(target=self._send,
                                          name=f"rpeval-sender-{len(self.senders)}")
                self.senders.append(sender)  # before it starts: it is joined
                sender.start()
            self.in_flight += 1
            self.jobs.put(job)

    def _attempt(self, job: _Job):
        """One backend attempt: the reply text, or the exception it raised."""
        try:
            return job.judge.attempt(job.ask[2], self.sampling)
        except BaseException as exc:
            return exc

    def _send(self) -> None:
        while True:
            job = self.jobs.get()
            if job is None or self.stopped:
                return
            outcome = self._attempt(job)
            if not isinstance(outcome, (str, TransportError)):
                self.stopped = True  # no attempt starts after this one
            self.done.put((job, outcome))

    def _wait(self) -> bool:
        """Wait for a reply or the next due time; ``False`` once all is done."""
        due = math.inf
        if self.in_flight < self.concurrency:  # else only a reply frees a slot
            due = min(self._paced()[0], self.timers[0][0] if self.timers else math.inf)
        if self.in_flight:
            try:
                job, outcome = self.done.get(
                    timeout=None if due == math.inf else max(0.0, due - time.monotonic()))
            except queue.Empty:
                return True
            self.in_flight -= 1
            self._dispatch()  # refill the slot before the reply's own work
            self._finish(job, outcome)
        elif due < math.inf:
            time.sleep(max(0.0, due - time.monotonic()))
        elif self.open:
            raise RuntimeError("open samples wait on no request")
        return bool(self.open)

    def _finish(self, job: _Job, outcome) -> None:
        (judge, kind, _, pass_index), retry = job.ask, self.retry
        judge.counts["backend_calls"] += 1
        about = (judge.name, kind, pass_index)
        if isinstance(outcome, RequestRejected):
            judge.counts["rejected"] += 1
            logger.warning("judge %s %s pass %d rejected: %s", *about, outcome)
        elif isinstance(outcome, TransportError):
            again = job.attempt < retry.max_attempts
            logger.log(logging.INFO if again else logging.WARNING,
                       "judge %s %s pass %d attempt %d/%d failed: %s", *about,
                       job.attempt, retry.max_attempts, outcome)
            if again:
                judge.counts["retries"] += 1
                due = time.monotonic() + retry.delay(job.attempt)
                heapq.heappush(self.timers, (due, next(self.seq), job))
                return
            judge.counts["transport_failures"] += 1
            outcome = TransportError(f"judge {judge.name!r} exhausted "
                                     f"{retry.max_attempts} attempts: {outcome}")
        elif not isinstance(outcome, str):
            raise outcome
        elif job.key is not None:
            self.cache.put(job.key, kind, outcome)
        if job.key is not None:
            del self.flying[job.key]
        if isinstance(outcome, str):
            for n, asker in enumerate(job.askers):
                counts = asker[0][0].counts
                counts["replies"] += 1
                counts["cache_hits"] += n > 0
                self._deliver(asker, outcome)
            return
        # The error is the first asker's; each waiting ask is asked again,
        # as it would have been had it come after this one ended.
        first, *waiting = job.askers
        self._deliver(first, outcome)
        for asker in waiting:
            self._submit(asker)
