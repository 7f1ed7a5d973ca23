"""The bounded-queue producer / worker / collector frame pipeline.

Turns single-frame :meth:`MultiScalePedestrianDetector.detect` calls
into a continuous, fault-tolerant stream consumer (the form the paper's
60 fps HDTV requirement actually takes — §5, and cf. the pipelined
stream architectures of Wasala & Kryjak and Campmany et al. in
PAPERS.md):

* a **producer** thread reads frames from a
  :class:`~repro.stream.sources.FrameSource` into a
  :class:`~repro.stream.queues.BoundedFrameQueue` under an explicit
  backpressure policy;
* an **intake** thread moves frames from that queue into an executor
  (:mod:`repro.parallel.executor`) while fewer than its capacity are
  in flight; the executor's workers run the detector with per-frame
  fault isolation — a corrupt frame becomes a
  ``FrameResult(status=FAILED)`` record, never a dead stream;
* the **collector** (the caller's thread, inside :meth:`process`)
  settles each outcome in an :class:`~repro.stream.ledger.OrderedLedger`,
  which re-orders results by frame index before emission, so
  downstream frame-order consumers (``das.tracking.IouTracker``) can
  read the stream directly, and feeds a configurable
  consecutive-failure circuit breaker.

Threading notes.  Multi-worker mode clones the detector per worker
(sharing the read-only SVM model but nothing mutable); per-stage
``detect.*``/``hog.*`` telemetry therefore only accumulates in
single-worker mode, where the one detector instance is used as-is.
Stream-level telemetry (``stream.*`` counters, gauges and histograms)
is recorded only from the producer and collector threads, each writing
disjoint keys, so a plain :class:`~repro.telemetry.MetricsRegistry`
stays safe without locking the hot path.

Execution backends.  ``backend="thread"`` (default) runs a
:class:`~repro.parallel.ThreadExecutor`, one worker thread per
``workers``, for the length of one run.  ``backend="process"`` runs a
:class:`~repro.parallel.ProcessExecutor`: a warm
:class:`~repro.parallel.ProcessWorkerPool` whose worker *processes*
detect frames staged in shared-memory ring slots.  The service in
:mod:`repro.serve` runs the same two executors and the same ledger, so
ordering, DROPPED-gapless emission, per-frame fault isolation and the
circuit breaker are backend-independent by construction.  The process
pool outlives individual runs (worker warm start is paid once); call
:meth:`close` — or use the pipeline as a context manager — to shut it
down and merge the workers' telemetry snapshots into the parent
registry.
"""

from __future__ import annotations

import dataclasses
import queue as _queue
import threading
import time
from collections.abc import Iterable, Iterator
from typing import Callable

from repro.errors import CircuitBreakerOpen, ParameterError, StreamError
from repro.parallel.executor import ProcessExecutor, ThreadExecutor
from repro.parallel.spec import DetectorSpec
from repro.stream.ledger import OrderedLedger
from repro.stream.queues import BoundedFrameQueue
from repro.stream.sources import FrameSource
from repro.stream.types import (
    BackpressurePolicy,
    ExecutionBackend,
    FrameResult,
    FrameStatus,
    StreamReport,
    validate_backend,
)
from repro.telemetry import Histogram, MetricsRegistry, NULL_TELEMETRY

#: Seconds the collector and intake threads wait per poll before
#: re-checking whether the run ended.
_POLL_S = 0.05

#: Seconds to wait for threads on shutdown before giving up the join.
_JOIN_TIMEOUT_S = 5.0

#: Most frames the process-backend intake coalesces into one
#: submit_batch (further capped by the executor's capacity, workers+2).
_DISPATCH_BATCH_CAP = 4


@dataclasses.dataclass(frozen=True)
class StreamRun:
    """Everything :meth:`StreamPipeline.run` collected: results + report."""

    results: list[FrameResult]
    report: StreamReport


class StreamPipeline:
    """Stream frames from a source through a detector, in order.

    Parameters
    ----------
    detector:
        A :class:`~repro.core.MultiScalePedestrianDetector` (anything
        with ``detect(image) -> DetectionResult``).  With ``workers >
        1`` the pipeline builds one clone per worker from
        ``detector.model`` / ``detector.config``; pass
        ``detector_factory`` instead for detector types that cannot be
        cloned that way.
    workers:
        Detection workers: threads, or processes with
        ``backend="process"``.  NumPy releases the GIL inside the large
        dot-products that dominate ``detect``, so modest thread counts
        raise throughput without processes.
    queue_size:
        Capacity of the frame intake queue.
    policy:
        Backpressure discipline — see
        :class:`~repro.stream.types.BackpressurePolicy`.
    max_consecutive_failures:
        Circuit breaker: abort the stream with
        :class:`~repro.errors.CircuitBreakerOpen` once this many
        *consecutive* frames fail (in emission order; a dropped frame
        neither trips nor resets the streak).  ``None`` disables the
        breaker — isolated failures then never stop the stream.
    telemetry:
        Optional :class:`~repro.telemetry.MetricsRegistry` receiving
        ``stream.*`` counters/gauges/histograms (see docs/STREAMING.md).
        With the process backend it additionally receives the workers'
        merged per-stage telemetry (and ``parallel.*`` transport
        counters) when the pool is closed.
    detector_factory:
        Builds one detector per worker; overrides clone-from-``detector``.
        Thread backend only — a factory closure need not pickle.
    backend:
        ``"thread"`` (default) or ``"process"`` — see
        :class:`~repro.stream.types.ExecutionBackend` and
        docs/STREAMING.md for selection guidance.  The process backend
        requires ``detector.model`` / ``detector.config`` (they form
        the picklable :class:`~repro.parallel.DetectorSpec` hand-off).
    mp_start_method:
        Multiprocessing start method for the process backend; default
        per :func:`repro.parallel.default_start_method`.
    """

    def __init__(
        self,
        detector=None,
        *,
        workers: int = 1,
        queue_size: int = 8,
        policy: BackpressurePolicy | str = BackpressurePolicy.BLOCK,
        max_consecutive_failures: int | None = None,
        telemetry: MetricsRegistry | None = None,
        detector_factory: Callable[[], object] | None = None,
        backend: ExecutionBackend | str = ExecutionBackend.THREAD,
        mp_start_method: str | None = None,
    ) -> None:
        if detector is None and detector_factory is None:
            raise ParameterError("provide a detector or a detector_factory")
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        if queue_size < 1:
            raise ParameterError(f"queue_size must be >= 1, got {queue_size}")
        if max_consecutive_failures is not None and max_consecutive_failures < 1:
            raise ParameterError(
                f"max_consecutive_failures must be >= 1 or None, got "
                f"{max_consecutive_failures}"
            )
        self.backend = validate_backend(backend)
        if (self.backend is ExecutionBackend.PROCESS
                and detector_factory is not None):
            raise ParameterError(
                "detector_factory is thread-backend only; the process "
                "backend rebuilds workers from detector.model/.config "
                "(a factory closure would have to pickle)"
            )
        self.detector = detector
        self.detector_factory = detector_factory
        self.workers = int(workers)
        self.queue_size = int(queue_size)
        self.policy = BackpressurePolicy(policy)
        self.max_consecutive_failures = max_consecutive_failures
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.mp_start_method = mp_start_method
        self._executor: ProcessExecutor | None = None
        self._reset_stats()

    # -- Executor ------------------------------------------------------------

    def _worker_build(self) -> Callable[[], object]:
        """What each thread worker calls to get its detector."""
        if self.detector_factory is not None:
            return self.detector_factory
        if self.workers == 1:
            return lambda: self.detector
        model = getattr(self.detector, "model", None)
        config = getattr(self.detector, "config", None)
        if model is None or config is None:
            raise ParameterError(
                "multi-worker streaming needs detector.model/.config to "
                "clone per-worker detectors; pass detector_factory instead"
            )
        # Clones share the read-only SVM weights but get their own
        # extractor/scaler state; per-stage telemetry is disabled on
        # clones because MetricsRegistry is not thread-safe.
        cfg = dataclasses.replace(config, telemetry=False)
        return lambda: type(self.detector)(model, cfg)

    def _open_executor(self):
        """This run's executor: fresh threads, or the warm process
        pool (rebuilt when absent or broken)."""
        if self.backend is ExecutionBackend.THREAD:
            return ThreadExecutor(self._worker_build(), self.workers,
                                  name="stream-worker")
        if self._executor is not None and not self._executor.healthy:
            self.close()
        if self._executor is None:
            self._executor = ProcessExecutor(
                DetectorSpec.from_detector(self.detector), self.workers,
                start_method=self.mp_start_method, name="stream",
            )
        return self._executor

    def close(self) -> None:
        """Shut the process-backend pool down (no-op for threads).

        Collects every worker's final telemetry snapshot and merges it
        into this pipeline's registry
        (:meth:`~repro.telemetry.MetricsRegistry.absorb_snapshot`), so
        the parent profile includes the per-stage costs paid inside the
        worker processes.  Idempotent; the next process-backend run
        simply warm-starts a fresh pool.
        """
        if self._executor is not None:
            self._executor.close(self.telemetry)
            self._executor = None

    def __enter__(self) -> "StreamPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- Statistics ---------------------------------------------------------

    def _reset_stats(self) -> None:
        self._frames_in = 0
        self._ledger = OrderedLedger()
        self._latency = Histogram()
        self._depth = Histogram()
        self._busy_s = [0.0] * self.workers
        self._cpu_s = [0.0] * self.workers
        self._elapsed_s = 0.0

    def report(self) -> StreamReport:
        """Aggregate view of the most recent (or in-progress) run."""
        lat = self._latency.summary()
        depth = self._depth.summary()
        elapsed = self._elapsed_s
        counts = self._ledger.counts
        emitted = sum(counts.values())
        return StreamReport(
            frames_in=self._frames_in,
            frames_ok=counts[FrameStatus.OK],
            frames_failed=counts[FrameStatus.FAILED],
            frames_dropped=counts[FrameStatus.DROPPED],
            workers=self.workers,
            policy=self.policy.value,
            backend=self.backend.value,
            elapsed_s=elapsed,
            achieved_fps=emitted / elapsed if elapsed > 0 else 0.0,
            latency_p50_ms=lat.p50 * 1e3,
            latency_p95_ms=lat.p95 * 1e3,
            latency_max_ms=(lat.maximum if lat.count else 0.0) * 1e3,
            queue_depth_max=depth.maximum if depth.count else 0.0,
            queue_depth_mean=depth.mean,
            worker_utilization=(
                sum(self._busy_s) / (elapsed * self.workers)
                if elapsed > 0 else 0.0
            ),
            worker_cpu_s=sum(self._cpu_s),
        )

    # -- The pipeline -------------------------------------------------------

    def process(self, source: FrameSource) -> Iterator[FrameResult]:
        """Yield one :class:`FrameResult` per frame, in frame-index order.

        The generator owns the producer/intake threads: exhausting it
        (or closing it early with ``break``) always shuts the pipeline
        down and joins the threads.  Raises
        :class:`~repro.errors.CircuitBreakerOpen` after emitting the
        failure that tripped the breaker.
        """
        self._reset_stats()
        tm = self.telemetry
        ledger = self._ledger
        # Built (or reused) before any thread of ours starts: with the
        # fork start method, forking from a single-threaded parent is
        # the safe order.
        executor = self._open_executor()
        in_q = BoundedFrameQueue(self.queue_size, self.policy)
        settled: _queue.Queue = _queue.Queue()
        room = threading.Semaphore(executor.capacity)
        t0s: dict[int, float] = {}
        abort = threading.Event()
        producer_done = threading.Event()
        # Thread workers take one frame per task, so no thread idles
        # while another holds a batch; process tasks coalesce whatever
        # backlog is already queued into one message.
        batch_cap = (min(_DISPATCH_BATCH_CAP, self.workers + 2)
                     if self.backend is ExecutionBackend.PROCESS else 1)

        def deliver(tag, status, result, error, worker, busy_s, cpu_s):
            if worker is not None:
                self._busy_s[worker] += busy_s
                self._cpu_s[worker] += cpu_s
            settled.put((tag, t0s.pop(tag), status, result, error, worker))
            room.release()

        def produce() -> None:
            count = 0
            try:
                for image in source:
                    if abort.is_set():
                        break
                    count += 1
                    self._frames_in = count
                    if tm.enabled:
                        tm.inc("stream.frames_in")
                    try:
                        displaced = in_q.put(
                            (count - 1, image, time.perf_counter())
                        )
                    except StreamError:
                        break  # queue closed under us: consumer aborted
                    if displaced is not None:
                        settled.put((displaced[0], None, "dropped", None,
                                     None, None))
                    self._depth.observe(in_q.depth)
                    if tm.enabled:
                        tm.observe("stream.queue_depth", in_q.depth)
            finally:
                producer_done.set()
                in_q.close()

        def intake() -> None:
            # Moves frames from the policy queue into the executor while
            # fewer than its capacity are in flight.
            while True:
                while not room.acquire(timeout=_POLL_S):
                    if abort.is_set():
                        return
                taken = 1
                while taken < batch_cap and room.acquire(blocking=False):
                    taken += 1
                batch = in_q.get_many(taken)
                for _ in range(taken - len(batch)):
                    room.release()
                if not batch:
                    return
                for index, _, t0 in batch:
                    t0s[index] = t0
                executor.submit_batch(
                    [(index, image) for index, image, _ in batch]
                )

        executor.start(deliver)
        threads = [
            threading.Thread(target=produce, name="stream-producer",
                             daemon=True),
            threading.Thread(target=intake, name="stream-intake",
                             daemon=True),
        ]
        start_time = time.perf_counter()
        try:
            for t in threads:
                t.start()
            while not (producer_done.is_set()
                       and ledger.next_seq == self._frames_in):
                try:
                    index, t0, status, result, error, worker = settled.get(
                        timeout=_POLL_S
                    )
                except _queue.Empty:
                    continue
                ledger.settle(index, status, t0, result=result, error=error,
                              worker=worker)
                while (fr := ledger.pop()) is not None:
                    if fr.status is not FrameStatus.DROPPED:
                        self._latency.observe(fr.latency_s)
                    if tm.enabled:
                        tm.inc(f"stream.frames_{fr.status.value}")
                        if fr.status is not FrameStatus.DROPPED:
                            tm.observe("stream.latency_ms",
                                       fr.latency_s * 1e3)
                    yield fr
                    if (self.max_consecutive_failures is not None
                            and ledger.streak
                            >= self.max_consecutive_failures):
                        raise CircuitBreakerOpen(
                            f"{ledger.streak} consecutive frames failed "
                            f"(limit {self.max_consecutive_failures}); "
                            f"last error: {fr.error}"
                        )
        finally:
            abort.set()
            in_q.close(drain=True)
            for t in threads:
                t.join(timeout=_JOIN_TIMEOUT_S)
            if self.backend is ExecutionBackend.THREAD:
                executor.close()
            # An early exit (circuit breaker, caller break) leaves frames
            # queued, in flight or awaiting reorder; the generator is
            # past yielding, so they are counted straight into the
            # dropped tally rather than vanishing from the report's
            # reconciliation.
            abandoned = self._frames_in - ledger.next_seq
            if abandoned > 0:
                ledger.counts[FrameStatus.DROPPED] += abandoned
                if tm.enabled:
                    tm.inc(f"stream.frames_{FrameStatus.DROPPED.value}",
                           abandoned)
            self._elapsed_s = time.perf_counter() - start_time
            if tm.enabled:
                report = self.report()
                tm.set_gauge("stream.workers", self.workers)
                tm.set_gauge("stream.achieved_fps", report.achieved_fps)
                tm.set_gauge("stream.worker_utilization",
                             report.worker_utilization)
                tm.set_gauge("stream.queue_depth_max", in_q.depth_peak)

    def run(
        self,
        source: FrameSource,
        *,
        on_result: Callable[[FrameResult], None] | None = None,
    ) -> StreamRun:
        """Drain ``source`` and return all results plus the final report.

        ``on_result`` is invoked per emitted frame (e.g. a tracker
        update) while keeping the convenience of one blocking call.
        """
        results: list[FrameResult] = []
        for fr in self.process(source):
            results.append(fr)
            if on_result is not None:
                on_result(fr)
        return StreamRun(results=results, report=self.report())


def track_stream(
    results: Iterable[FrameResult],
    tracker,
) -> list:
    """Feed an in-order result stream into a tracker; returns live tracks.

    Thin functional wrapper over
    :meth:`repro.das.IouTracker.consume` for pipeline-style call sites.
    """
    return tracker.consume(results)
