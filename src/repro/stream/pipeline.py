"""The producer / executor / collector frame pipeline.

Turns single-frame :meth:`MultiScalePedestrianDetector.detect` calls
into a continuous, fault-tolerant stream consumer (the form the paper's
60 fps HDTV requirement actually takes — §5, and cf. the pipelined
stream architectures of Wasala & Kryjak and Campmany et al. in
PAPERS.md):

* a **producer** thread reads frames from a
  :class:`~repro.stream.sources.FrameSource` and admits each into an
  :class:`~repro.stream.ledger.AdmissionCore`, which applies the
  backpressure policy against the ``queue_size`` quota of frames
  admitted but not yet emitted;
* admitted frames go to an executor (:mod:`repro.parallel.executor`)
  while fewer than its capacity are in flight — dispatched on
  admission, and again whenever a worker delivers a frame; the
  executor's workers run the detector with per-frame fault isolation —
  a corrupt frame becomes a ``FrameResult(status=FAILED)`` record,
  never a dead stream;
* the **collector** (the caller's thread, inside :meth:`process`)
  emits from the core's :class:`~repro.stream.ledger.OrderedLedger`,
  which re-orders results by frame index before emission, so
  downstream frame-order consumers (``das.tracking.IouTracker``) can
  read the stream directly, and feeds a configurable
  consecutive-failure circuit breaker.

Threading notes.  One ``threading.Condition`` guards the core; the
producer, the executor's delivering threads and the collector each
take it briefly.  Multi-worker mode clones the detector per worker
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
circuit breaker are backend-independent by construction, and it
admits frames through the same core.  The process pool outlives
individual runs (worker warm start is paid once); call :meth:`close`
— or use the pipeline as a context manager — to shut it down and
merge the workers' telemetry snapshots into the parent registry.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections.abc import Iterable, Iterator
from typing import Callable

from repro.errors import CircuitBreakerOpen, ParameterError
from repro.parallel.executor import ProcessExecutor, ThreadExecutor
from repro.parallel.spec import DetectorSpec
from repro.stream.ledger import AdmissionCore
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

#: Seconds to wait for the producer on shutdown before giving up the
#: join.
_JOIN_TIMEOUT_S = 5.0

#: Most frames the process backend coalesces into one
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
        Quota of frames admitted but not yet emitted — queued, on a
        worker, or awaiting reorder; the ``policy`` decides what
        happens to a frame that would exceed it.
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
        self._core = AdmissionCore(self.queue_size, self.policy)
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
        counts = self._core.ledger.counts
        emitted = sum(counts.values())
        return StreamReport(
            frames_in=self._core.submitted,
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

        The generator owns the producer thread: exhausting it (or
        closing it early with ``break``) always shuts the pipeline down
        and joins the thread.  Raises
        :class:`~repro.errors.CircuitBreakerOpen` after emitting the
        failure that tripped the breaker.
        """
        self._reset_stats()
        tm = self.telemetry
        core = self._core
        # Built (or reused) before any thread of ours starts: with the
        # fork start method, forking from a single-threaded parent is
        # the safe order.
        executor = self._open_executor()
        cond = threading.Condition()
        producer_done = False
        # Thread workers take one frame per task, so no thread idles
        # while another holds a batch; process tasks coalesce whatever
        # backlog is already queued into one message.
        batch_cap = (min(_DISPATCH_BATCH_CAP, self.workers + 2)
                     if self.backend is ExecutionBackend.PROCESS else 1)

        def dispatch() -> None:
            # Under cond, wherever work (an admission) or executor room
            # (a delivery) appears; submit_batch never blocks.
            while (room := executor.capacity - core.inflight) > 0:
                batch = core.take(min(batch_cap, room))
                if not batch:
                    return
                executor.submit_batch(batch)

        def deliver(tag, status, result, error, worker, busy_s, cpu_s):
            with cond:
                if worker is not None:
                    self._busy_s[worker] += busy_s
                    self._cpu_s[worker] += cpu_s
                core.settle(tag, status, result=result, error=error,
                            worker=worker)
                dispatch()
                cond.notify_all()

        def produce() -> None:
            nonlocal producer_done
            try:
                # The source may block between frames, so it is read
                # outside the lock.
                for image in source:
                    with cond:
                        if self.policy is BackpressurePolicy.BLOCK:
                            while core.full and not core.closed:
                                cond.wait()
                        if core.closed:
                            break  # the consumer stopped the run
                        core.admit(image)
                        self._depth.observe(core.pending)
                        if tm.enabled:
                            tm.inc("stream.frames_in")
                            tm.observe("stream.queue_depth", core.pending)
                        dispatch()
                        cond.notify_all()
            finally:
                with cond:
                    producer_done = True
                    cond.notify_all()

        def next_result() -> tuple[FrameResult | None, int]:
            with cond:
                while (fr := core.ledger.pop()) is None:
                    if producer_done and core.pending == 0:
                        return None, 0
                    cond.wait()
                cond.notify_all()  # an emission frees quota
                return fr, core.ledger.streak

        executor.start(deliver)
        producer = threading.Thread(target=produce, name="stream-producer",
                                    daemon=True)
        start_time = time.perf_counter()
        try:
            producer.start()
            while True:
                fr, streak = next_result()
                if fr is None:
                    break
                if fr.status is not FrameStatus.DROPPED:
                    self._latency.observe(fr.latency_s)
                if tm.enabled:
                    tm.inc(f"stream.frames_{fr.status.value}")
                    if fr.status is not FrameStatus.DROPPED:
                        tm.observe("stream.latency_ms", fr.latency_s * 1e3)
                yield fr
                if (self.max_consecutive_failures is not None
                        and streak >= self.max_consecutive_failures):
                    raise CircuitBreakerOpen(
                        f"{streak} consecutive frames failed "
                        f"(limit {self.max_consecutive_failures}); "
                        f"last error: {fr.error}"
                    )
        finally:
            with cond:
                core.close(drain=False)
                cond.notify_all()
            producer.join(timeout=_JOIN_TIMEOUT_S)
            if self.backend is ExecutionBackend.THREAD:
                executor.close()
            # An early exit (circuit breaker, caller break) leaves frames
            # queued, in flight or awaiting reorder; the generator is
            # past yielding, so they are counted straight into the
            # dropped tally rather than vanishing from the report's
            # reconciliation.
            with cond:
                abandoned = core.pending
                core.ledger.counts[FrameStatus.DROPPED] += abandoned
            if abandoned > 0 and tm.enabled:
                tm.inc(f"stream.frames_{FrameStatus.DROPPED.value}",
                       abandoned)
            self._elapsed_s = time.perf_counter() - start_time
            if tm.enabled:
                report = self.report()
                tm.set_gauge("stream.workers", self.workers)
                tm.set_gauge("stream.achieved_fps", report.achieved_fps)
                tm.set_gauge("stream.worker_utilization",
                             report.worker_utilization)
                tm.set_gauge("stream.queue_depth_max",
                             report.queue_depth_max)

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
