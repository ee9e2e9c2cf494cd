"""The one thread pool of an evaluation run.

Every sample flows format gate -> emotion panel -> role-consistency
questions on its own, and fans each stage's independent judge requests
out over the same pool, so no sample waits for another and no stage
waits for the whole corpus.  How many requests are in flight is bounded
separately, by ``judges.Permits``; a worker thread that waits on a
judge's rate limit or on a permit holds no permit.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable, Optional, Sequence

from .judges import Permits, RunAborted


class Scheduler:
    """Samples and their judge requests on one bounded thread pool.

    At most ``concurrency`` samples are in flight.  The pool has
    ``2 * concurrency`` threads plus one per rate-limited judge, whatever
    the corpus size: ``concurrency`` threads run the samples in flight,
    ``concurrency`` more keep ``concurrency`` requests in flight while
    every sample waits on a request another thread started, and a thread
    waiting out a judge's rate limit holds no permit, so each such judge
    gets a thread of its own.  More threads would not put more requests
    in flight, which ``permits`` bounds, but each one that allocates gets
    a glibc malloc arena of its own that stays resident: over eight
    passes of 40 samples, 18 threads held about 1.5 MiB more RSS than 4,
    and the gap grew with every pass.  A sample never blocks on a request
    no thread has started yet: it runs that request itself, so the pool
    cannot deadlock whatever its size.  The first exception that escapes
    a task closes ``permits`` and is re-raised by ``map``.  With one
    permit and no rate-limited judge no two requests can overlap, so
    everything runs on the calling thread instead: pool threads would
    add only thread switches, which make a run of a few samples about a
    third slower.
    """

    def __init__(self, permits: Permits, concurrency: int, judges: Sequence):
        self.permits = permits
        self._samples = threading.Semaphore(concurrency)
        self._pool = None
        paced = sum(1 for judge in judges if judge.interval > 0)
        if concurrency > 1 or paced:
            self._pool = ThreadPoolExecutor(
                max_workers=2 * concurrency + paced,
                thread_name_prefix="rpeval")
        self._error: Optional[BaseException] = None
        self._error_lock = threading.Lock()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is not None:
            self.permits.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)

    def _run(self, fn: Callable, *args):
        try:
            return fn(*args)
        except RunAborted:
            raise
        except BaseException as exc:
            with self._error_lock:
                if self._error is None:
                    self._error = exc
            self.permits.close()
            raise

    def map(self, fn: Callable, items: Iterable) -> list:
        """``fn`` over ``items`` concurrently; results in item order."""
        if self._pool is None:
            return [fn(item) for item in items]
        futures = []
        for item in items:
            self._samples.acquire()
            if self.permits.closed:
                break
            future = self._pool.submit(self._run, fn, item)
            future.add_done_callback(lambda _: self._samples.release())
            futures.append(future)
        wait(futures)
        if self._error is not None:
            raise self._error
        return [f.result() for f in futures]

    def fan_out(self, calls: Sequence[Callable[[], object]]) -> list:
        """Run independent zero-argument ``calls``; results in call order.

        The caller runs the first call itself and any call that is still
        queued when it gets to it.
        """
        if self._pool is None or not calls:
            return [call() for call in calls]
        futures = [self._pool.submit(self._run, call) for call in calls[1:]]
        results = [self._run(calls[0])]
        for call, future in zip(calls[1:], futures):
            results.append(self._run(call) if future.cancel() else future.result())
        return results
