"""One execution contract under the stream pipeline and the service.

Both front ends run ``detect()`` through an *executor*; they differ only
in how they order, admit and account frames, which they do on their own
side with :class:`~repro.stream.ledger.OrderedLedger`.  The contract:

``start(deliver)``
    Start the workers.  ``deliver(tag, status, result, error, worker,
    busy_s, cpu_s)`` is then called exactly once per submitted frame,
    from an executor thread: ``status`` is ``"ok"`` (``result`` is the
    :class:`~repro.detect.DetectionResult`) or ``"failed"`` (``error``
    says why); ``busy_s``/``cpu_s`` are the worker's wall and CPU
    seconds on the frame.
``submit_batch(items)``
    Hand over ``(tag, frame)`` pairs as one task.  Never blocks.
``capacity``
    Frames worth keeping in flight: one batch per worker plus hand-off
    headroom.  Callers stop submitting at this many.
``healthy``
    False once the executor is closed or its workers failed.
``close(telemetry)``
    Stop the workers and fold what they measured into ``telemetry``.
    Idempotent.  Frames still queued are discarded undelivered; the
    caller's ledger settles them.

A worker that fails to start does not lose frames: every frame it would
have served, and on the process executor every frame in flight and
every later submit, is delivered ``"failed"`` with ``worker failed to
start: …``.
"""

from __future__ import annotations

import collections
import queue
import threading
import time
from typing import Any, Callable, Iterable

import numpy as np

from repro.parallel.pool import ProcessWorkerPool
from repro.parallel.spec import DetectorSpec
from repro.telemetry import NULL_TELEMETRY, MetricsRegistry

#: Hands one finished frame back to the executor's owner:
#: ``(tag, status, result, error, worker, busy_s, cpu_s)``.
DeliverFn = Callable[
    [int, str, Any, "str | None", "int | None", float, float], None
]

#: Seconds the receive thread waits per poll before re-checking health.
_POLL_S = 0.05

#: Seconds to wait for an executor thread to exit during close.
_JOIN_TIMEOUT_S = 5.0


class ThreadExecutor:
    """Worker threads in this process, one detector each.

    ``build`` runs once in each worker thread and returns that worker's
    detector.  A worker whose build raises fails every frame it takes.
    One ``submit_batch`` is one task, served in order by one worker;
    fault isolation stays per frame.
    """

    def __init__(self, build: Callable[[], Any], workers: int, *,
                 max_batch: int = 1, name: str = "worker") -> None:
        self.workers = workers
        self.capacity = (workers + 2) * max_batch
        self._build = build
        self._name = name
        self._tasks: queue.Queue = queue.Queue()
        self._threads: list[threading.Thread] = []
        self._failure: str | None = None
        self._closed = False

    @property
    def healthy(self) -> bool:
        return not self._closed and self._failure is None

    def start(self, deliver: DeliverFn) -> None:
        for wid in range(self.workers):
            thread = threading.Thread(
                target=self._run, args=(wid, deliver),
                name=f"{self._name}-{wid}", daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _run(self, wid: int, deliver: DeliverFn) -> None:
        detector, failure = None, None
        try:
            detector = self._build()
        except Exception as exc:  # fail its frames, never the caller
            failure = f"worker failed to start: {type(exc).__name__}: {exc}"
            self._failure = failure
        while (task := self._tasks.get()) is not None and not self._closed:
            for tag, frame in task:
                if failure is not None:
                    deliver(tag, "failed", None, failure, wid, 0.0, 0.0)
                    continue
                start = time.perf_counter()
                cpu_start = time.thread_time()
                try:
                    result = detector.detect(frame)
                except Exception as exc:  # per-frame fault isolation
                    status, result = "failed", None
                    error = f"{type(exc).__name__}: {exc}"
                else:
                    status, error = "ok", None
                deliver(tag, status, result, error, wid,
                        time.perf_counter() - start,
                        time.thread_time() - cpu_start)

    def submit_batch(self, items: Iterable[tuple[int, np.ndarray]]) -> None:
        self._tasks.put(list(items))

    def close(self, telemetry: MetricsRegistry = NULL_TELEMETRY) -> None:
        """Stop the workers once their current frame is done.

        Thread workers record into their detectors' own registries, so
        there is nothing to fold into ``telemetry``.
        """
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._tasks.put(None)
        for thread in self._threads:
            thread.join(timeout=_JOIN_TIMEOUT_S)
        self._threads.clear()


class ProcessExecutor:
    """A warm :class:`~repro.parallel.ProcessWorkerPool` behind two
    threads: a dispatch thread stages tasks into the pool's ring (which
    may wait for a slot) and a receive thread turns its messages into
    deliveries.  Tags are the indices the pool sees.

    ``start`` may be called again to begin a new run on the warm pool:
    it bumps the pool generation, so a frame submitted before — by a
    run its consumer abandoned, say — never reaches the new callback,
    and a worker skips the ``detect()`` of any such frame it has not
    begun (``parallel.frames_stale``).
    """

    def __init__(self, spec: DetectorSpec, workers: int, *,
                 max_batch: int = 1, start_method: str | None = None,
                 name: str = "executor") -> None:
        self.workers = workers
        self.capacity = (workers + 2) * max_batch
        # The ring holds every frame in flight, or a full-size batch
        # could wait on slots its own batchmates hold.
        self._pool = ProcessWorkerPool(
            spec, workers, start_method=start_method, slots=self.capacity
        )
        self._name = name
        self._tasks: queue.Queue = queue.Queue()
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        # Guarded by _lock: the current run, and its undelivered tags.
        self._run: tuple[int, DeliverFn | None] = (0, None)
        self._inflight: set[int] = set()
        self._failure: str | None = None
        self._frames: collections.Counter = collections.Counter()
        self._closed = False

    @property
    def healthy(self) -> bool:
        return (not self._closed and self._failure is None
                and self._pool.healthy)

    def start(self, deliver: DeliverFn) -> None:
        with self._lock:
            self._run = (self._run[0] + 1, deliver)
            self._inflight.clear()
            self._pool.begin_run(self._run[0])
        if self._threads:
            return
        for target, role in ((self._dispatch, "dispatch"),
                             (self._receive, "receive")):
            thread = threading.Thread(
                target=target, name=f"{self._name}-{role}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def submit_batch(self, items: Iterable[tuple[int, np.ndarray]]) -> None:
        items = list(items)
        with self._lock:
            generation = self._run[0]
            self._inflight.update(tag for tag, _ in items)
        self._tasks.put((generation, items))

    def _claim(self, generation: int,
               tags: list[int]) -> tuple[DeliverFn | None, list[int]]:
        """Take ``tags`` out of flight; each is delivered exactly once."""
        with self._lock:
            current, deliver = self._run
            if generation != current:
                return None, []
            claimed = [tag for tag in tags if tag in self._inflight]
            self._inflight.difference_update(claimed)
            return deliver, claimed

    def _fail(self, generation: int, tags: list[int], error: str) -> None:
        deliver, claimed = self._claim(generation, tags)
        for tag in claimed:
            deliver(tag, "failed", None, error, None, 0.0, 0.0)

    def _fail_all(self, error: str) -> None:
        """Fail every frame in flight now, and every later submit."""
        with self._lock:
            self._failure = self._failure or error
            generation = self._run[0]
            tags = list(self._inflight)
        self._fail(generation, tags, self._failure)

    def _dispatch(self) -> None:
        while (task := self._tasks.get()) is not None and not self._closed:
            generation, items = task
            if generation != self._run[0]:
                continue  # submitted by an abandoned run
            error = self._failure
            if error is None:
                now = time.perf_counter()
                try:
                    self._frames.update(self._pool.submit_batch(
                        generation, [(tag, frame, now) for tag, frame in items]
                    ))
                    continue
                except Exception as exc:
                    # All-or-nothing: no frame of the batch reached a
                    # worker, so each fails here, frame for frame.
                    error = f"{type(exc).__name__}: {exc}"
            self._fail(generation, [tag for tag, _ in items], error)

    def _receive(self) -> None:
        while not self._closed:
            try:
                message = self._pool.next_message(timeout=_POLL_S)
            except Exception as exc:  # a reply that cannot be decoded
                self._fail_all(f"{type(exc).__name__}: {exc}")
                continue
            if message is None:
                if not self._pool.healthy and not self._closed:
                    self._fail_all("worker pool lost its processes")
            elif message[0] == "dead":
                self._fail_all(f"worker failed to start: {message[2]}")
            elif message[0] == "result":
                (_, generation, tag, status, result, error, worker,
                 busy_s, cpu_s, _) = message
                deliver, claimed = self._claim(generation, [tag])
                if claimed:
                    deliver(tag, status, result, error, worker, busy_s,
                            cpu_s)

    def close(self, telemetry: MetricsRegistry = NULL_TELEMETRY) -> None:
        """Stop the threads and the pool; fold the pool's transport
        tallies and the workers' telemetry snapshots into ``telemetry``.
        """
        if self._closed:
            return
        self._closed = True
        self._tasks.put(None)
        for thread in self._threads:
            thread.join(timeout=_JOIN_TIMEOUT_S)
        self._threads.clear()
        snapshots = self._pool.close()
        if not telemetry.enabled:
            return
        telemetry.set_gauge("parallel.workers", self.workers)
        counts = self._pool.transport_counts()
        for name, count in (
            ("parallel.frames_shm", self._frames["shm"]),
            ("parallel.frames_pickled", self._frames["pickle"]),
            ("parallel.results_shm", counts["results_shm"]),
            ("parallel.results_pickled", counts["results_pickled"]),
            ("parallel.batches", counts["batches"]),
            ("parallel.frames_stale", self._pool.frames_stale),
        ):
            if count:
                telemetry.inc(name, count)
        for snapshot in snapshots:
            telemetry.absorb_snapshot(snapshot)
        if snapshots:
            telemetry.inc("parallel.worker_snapshots_merged",
                          len(snapshots))
