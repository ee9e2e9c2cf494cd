"""The one thread pool of a run that sends judge requests.

``Scheduler.map`` runs any per-sample function: ``evaluate``'s format
gate -> emotion panel -> role-consistency questions, or ``generate``'s
one request.  Each sample runs from start to finish on the worker thread
that picked it up, sending its requests one after another, so no sample
waits for another and no stage waits for the whole corpus.  How many
requests are in flight is bounded separately, by ``judges.Permits``; a
worker thread that waits on a judge's rate limit or on a permit holds no
permit.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable, Optional, Sequence

from .judges import Permits, RunAborted


class Scheduler:
    """Samples on one bounded thread pool, one worker per sample in flight.

    The pool has ``2 * concurrency`` threads plus one per rate-limited
    judge, whatever the corpus size, and runs as many samples at once:
    ``concurrency`` workers hold the run's permits while their requests
    are in flight, ``concurrency`` more do the work between requests
    (parsing replies, voting, building the next prompt) so that work
    idles no permit, and a worker waiting out a judge's rate limit holds
    no permit, so each such judge gets a worker of its own.  More threads
    would not put more requests in flight, which ``permits`` bounds, but
    each one that allocates gets a glibc malloc arena of its own that
    stays resident: over eight passes of 40 samples, 18 threads held
    about 1.5 MiB more RSS than 4, and the gap grew with every pass.  The
    first exception that escapes a sample closes ``permits`` and is
    re-raised by ``map``.  With one permit and no rate-limited judge no
    two requests can overlap, so every sample runs on the calling thread
    instead: pool threads would add only thread switches, which make a
    run of a few samples about a third slower.
    """

    def __init__(self, permits: Permits, concurrency: int, judges: Sequence):
        self.permits = permits
        paced = sum(1 for judge in judges if judge.interval > 0)
        workers = 2 * concurrency + paced
        self._samples = threading.Semaphore(workers)
        self._pool = None
        if concurrency > 1 or paced:
            self._pool = ThreadPoolExecutor(max_workers=workers,
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

    def _run(self, fn: Callable, item):
        try:
            return fn(item)
        except RunAborted:
            raise
        except BaseException as exc:
            with self._error_lock:
                if self._error is None:
                    self._error = exc
            self.permits.close()
            raise

    def map(self, fn: Callable, items: Iterable) -> list:
        """``fn`` over ``items``, each on one worker; results in item order.

        ``fn`` is any per-sample function whose requests go through
        clients of this run's ``permits``."""
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
