"""The worker threads of a run that send judge requests.

``Scheduler.map`` runs any per-sample function: ``evaluate``'s format
gate -> emotion panel -> role-consistency questions, or ``generate``'s
one request.  Each sample runs from start to finish on the worker thread
that picked it up, sending its requests one after another, so no sample
waits for another and no stage waits for the whole corpus.  How many
requests are in flight is bounded separately, by ``judges.Permits``; a
worker thread that waits on a judge's rate limit or on a permit holds no
permit.  Beside each sample's result, a run keeps no state per sample.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

from .judges import Permits, RunAborted


class Scheduler:
    """Samples on ``2 * concurrency`` worker threads plus one per paced judge.

    The count holds whatever the corpus size: ``concurrency`` workers
    hold the run's permits while their requests are in flight,
    ``concurrency`` more do the work between requests (parsing replies,
    voting, building the next prompt) so that work idles no permit, and
    a worker waiting out a judge's rate limit holds no permit, so each
    such judge gets a worker of its own.  More threads would not put more
    requests in flight, which ``permits`` bounds, but each one that
    allocates gets a glibc malloc arena of its own that stays resident:
    over eight passes of 40 samples, 18 threads held about 1.5 MiB more
    RSS than 4, and the gap grew with every pass.  The first exception
    that escapes a sample closes ``permits`` and is re-raised by ``map``.
    With one permit and no rate-limited judge no two requests can
    overlap, so every sample runs on the calling thread: workers would
    add only thread switches, which make a run of a few samples about a
    third slower.
    """

    def __init__(self, permits: Permits, concurrency: int, judges: Sequence):
        self.permits = permits
        paced = sum(1 for judge in judges if judge.interval > 0)
        self.workers = 2 * concurrency + paced if concurrency > 1 or paced else 0

    def map(self, fn: Callable, items: Sequence) -> list:
        """``fn`` over ``items``, each on one worker; results in item order.

        ``fn`` sends its requests through this run's ``permits``.  An
        interrupt of the calling thread (Ctrl-C, a thread that cannot
        start) closes them and is re-raised once every worker stopped."""
        if not self.workers:
            return [fn(item) for item in items]
        results, errors = [None] * len(items), []
        pending, lock = iter(range(len(items))), threading.Lock()

        def work():
            while not self.permits.closed:
                with lock:
                    i = next(pending, None)
                if i is None:
                    return
                try:
                    results[i] = fn(items[i])
                except BaseException as exc:
                    if not isinstance(exc, RunAborted):
                        errors.append(exc)  # the first one is re-raised
                        self.permits.close()
                    return

        threads = []
        try:
            for n in range(min(self.workers, len(items))):
                thread = threading.Thread(target=work, name=f"rpeval-{n}")
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join()
        except BaseException:
            self.permits.close()
            for thread in threads:
                thread.join()
            raise
        if errors or self.permits.closed:
            raise errors[0] if errors else RunAborted()
        return results
