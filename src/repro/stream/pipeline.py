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
* **N worker** threads run the detector with per-frame fault isolation
  — a corrupt frame becomes a ``FrameResult(status=FAILED)`` record,
  never a dead stream;
* the **collector** (the caller's thread, inside :meth:`process`)
  re-orders results by frame index before emission, so downstream
  frame-order consumers (``das.tracking.IouTracker``) can read the
  stream directly, and trips a configurable consecutive-failure
  circuit breaker.

Threading notes.  Multi-worker mode clones the detector per worker
(sharing the read-only SVM model but nothing mutable); per-stage
``detect.*``/``hog.*`` telemetry therefore only accumulates in
single-worker mode, where the one detector instance is used as-is.
Stream-level telemetry (``stream.*`` counters, gauges and histograms)
is recorded only from the producer and collector threads, each writing
disjoint keys, so a plain :class:`~repro.telemetry.MetricsRegistry`
stays safe without locking the hot path.

Execution backends.  ``backend="thread"`` (default) runs the workers as
threads as described above.  ``backend="process"`` swaps the worker
threads for a warm :class:`~repro.parallel.ProcessWorkerPool`: a
dispatcher thread feeds frames into shared-memory ring slots, worker
*processes* detect, and a receiver thread converts their messages back
into results for the same collector — so ordering, DROPPED-gapless
emission, per-frame fault isolation and the circuit breaker are
backend-independent by construction.  The pool outlives individual
runs (worker warm start is paid once); call :meth:`close` — or use the
pipeline as a context manager — to shut it down and merge the workers'
telemetry snapshots into the parent registry.
"""

from __future__ import annotations

import dataclasses
import queue as _queue
import threading
import time
from collections.abc import Iterable, Iterator
from typing import Callable

from repro.errors import (
    CircuitBreakerOpen,
    ParallelError,
    ParameterError,
    StreamError,
)
from repro.stream.queues import BoundedFrameQueue, CLOSED
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

#: Seconds the collector waits on the result queue per poll; each
#: timeout re-checks liveness so a wedged worker cannot hang the stream.
_POLL_S = 0.05

#: Seconds to wait for threads on shutdown before giving up the join.
_JOIN_TIMEOUT_S = 5.0

#: Most frames the process-backend dispatcher coalesces into one
#: submit_batch (further capped by the ring's slot budget, workers+2).
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
        Detection threads.  NumPy releases the GIL inside the large
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
        self._pool = None
        self._generation = 0
        self._backend_error: str | None = None
        self._reset_stats()

    # -- Worker detector construction ---------------------------------------

    def _worker_detectors(self) -> list:
        if self.detector_factory is not None:
            return [self.detector_factory() for _ in range(self.workers)]
        if self.workers == 1:
            return [self.detector]
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
        return [type(self.detector)(model, cfg) for _ in range(self.workers)]

    # -- Process-backend pool management ------------------------------------

    def _ensure_pool(self):
        """The warm worker pool, (re)built when absent or broken."""
        from repro.parallel import DetectorSpec, ProcessWorkerPool

        if self._pool is not None and not self._pool.healthy:
            self.close()
        if self._pool is None:
            spec = DetectorSpec.from_detector(self.detector)
            self._pool = ProcessWorkerPool(
                spec, self.workers, start_method=self.mp_start_method
            )
            if self.telemetry.enabled:
                self.telemetry.set_gauge("parallel.workers", self.workers)
        return self._pool

    def close(self) -> None:
        """Shut the process-backend pool down (no-op for threads).

        Collects every worker's final telemetry snapshot and merges it
        into this pipeline's registry
        (:meth:`~repro.telemetry.MetricsRegistry.absorb_snapshot`), so
        the parent profile includes the per-stage costs paid inside the
        worker processes.  Idempotent; the next process-backend run
        simply warm-starts a fresh pool.
        """
        if self._pool is None:
            return
        if self.telemetry.enabled:
            # Result-transport tallies live in the pool (it decodes the
            # lane); fold them into the registry before the pool dies so
            # profiles show which return path the results actually took.
            counts = self._pool.transport_counts()
            if counts["results_shm"]:
                self.telemetry.inc(
                    "parallel.results_shm", counts["results_shm"]
                )
            if counts["results_pickled"]:
                self.telemetry.inc(
                    "parallel.results_pickled", counts["results_pickled"]
                )
            if counts.get("batches"):
                self.telemetry.inc(
                    "parallel.batches", counts["batches"]
                )
        snapshots = self._pool.close()
        self._pool = None
        if self.telemetry.enabled and snapshots:
            for snapshot in snapshots:
                self.telemetry.absorb_snapshot(snapshot)
            self.telemetry.inc(
                "parallel.worker_snapshots_merged", len(snapshots)
            )

    def __enter__(self) -> "StreamPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- Statistics ---------------------------------------------------------

    def _reset_stats(self) -> None:
        self._frames_in = 0
        self._frames_ok = 0
        self._frames_failed = 0
        self._frames_dropped = 0
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
        emitted = self._frames_ok + self._frames_failed + self._frames_dropped
        return StreamReport(
            frames_in=self._frames_in,
            frames_ok=self._frames_ok,
            frames_failed=self._frames_failed,
            frames_dropped=self._frames_dropped,
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

        The generator owns the producer/worker threads: exhausting it
        (or closing it early with ``break``) always shuts the pipeline
        down and joins the threads.  Raises
        :class:`~repro.errors.CircuitBreakerOpen` after emitting the
        failure that tripped the breaker.
        """
        self._reset_stats()
        tm = self.telemetry
        in_q = BoundedFrameQueue(self.queue_size, self.policy)
        out_q: _queue.Queue = _queue.Queue()
        abort = threading.Event()
        producer_done = threading.Event()

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
                        d_index, _, d_t0 = displaced
                        out_q.put(
                            (d_t0, FrameResult(index=d_index,
                                               status=FrameStatus.DROPPED))
                        )
                    self._depth.observe(in_q.depth)
                    if tm.enabled:
                        tm.observe("stream.queue_depth", in_q.depth)
            finally:
                producer_done.set()
                in_q.close()

        def work(wid: int, det) -> None:
            while True:
                item = in_q.get()
                if item is CLOSED:
                    break
                index, image, t0 = item
                start = time.perf_counter()
                cpu_start = time.thread_time()
                try:
                    res = det.detect(image)
                    fr = FrameResult(
                        index=index,
                        status=FrameStatus.OK,
                        detections=tuple(res.detections),
                        result=res,
                        worker=wid,
                    )
                except Exception as exc:  # per-frame fault isolation
                    fr = FrameResult(
                        index=index,
                        status=FrameStatus.FAILED,
                        error=f"{type(exc).__name__}: {exc}",
                        worker=wid,
                    )
                self._busy_s[wid] += time.perf_counter() - start
                self._cpu_s[wid] += time.thread_time() - cpu_start
                out_q.put((t0, fr))

        # Process backend: a dispatcher thread moves frames from the
        # bounded intake queue into the pool's shared-memory ring and a
        # receiver thread converts worker messages back into results —
        # the collector below is backend-agnostic.
        self._backend_error = None
        self._generation += 1
        generation = self._generation
        dispatch_done = threading.Event()
        self._dispatched = 0

        # Opportunistic coalescing: each queue visit takes whatever
        # backlog is already there (up to the ring's slot budget) and
        # ships it as one submit_batch — one task message instead of
        # one per frame when the intake runs ahead of the workers, and
        # plain per-frame dispatch (batches of 1) when frames trickle.
        dispatch_batch = min(_DISPATCH_BATCH_CAP, self.workers + 2)

        def dispatch(pool) -> None:
            batch: list = []
            try:
                while True:
                    batch = in_q.get_many(dispatch_batch)
                    if not batch:
                        break
                    if len(batch) == 1:
                        index, image, t0 = batch[0]
                        transports = [
                            pool.submit(generation, index, image, t0)
                        ]
                    else:
                        transports = pool.submit_batch(
                            generation,
                            [(index, image, t0)
                             for index, image, t0 in batch],
                        )
                    self._dispatched += len(batch)
                    batch = []
                    if tm.enabled:
                        for transport in transports:
                            tm.inc("parallel.frames_shm"
                                   if transport == "shm"
                                   else "parallel.frames_pickled")
            except ParallelError as exc:
                self._backend_error = str(exc)
                pool.mark_broken()
                abort.set()
                # Account for every frame this abort throws away — the
                # batch whose dispatch failed (submit_batch is
                # all-or-nothing, so none of it reached a worker) plus
                # the drained backlog: each becomes a DROPPED record
                # for the collector, keeping frames_in == ok + failed +
                # dropped even on abort.
                undispatched = list(batch)
                undispatched.extend(in_q.close(drain=True))
                for d_index, _, d_t0 in undispatched:
                    out_q.put(
                        (d_t0, FrameResult(index=d_index,
                                           status=FrameStatus.DROPPED))
                    )
            finally:
                dispatch_done.set()

        def receive(pool) -> None:
            completed = 0
            while True:
                if dispatch_done.is_set() and completed >= self._dispatched:
                    break
                message = pool.next_message(timeout=_POLL_S)
                if message is None:
                    if not pool.healthy:
                        self._backend_error = (
                            self._backend_error
                            or "worker pool lost its processes"
                        )
                        break
                    continue
                kind = message[0]
                if kind == "dead":
                    self._backend_error = f"worker failed to start: " \
                                          f"{message[2]}"
                    break
                if kind != "result":
                    continue  # snapshot flushes belong to close()
                (_, gen, index, status, result, error, wid, busy_s, cpu_s,
                 t0) = message
                if gen != generation:
                    continue  # stale result from an aborted earlier run
                completed += 1
                self._busy_s[wid] += busy_s
                self._cpu_s[wid] += cpu_s
                if status == "ok":
                    fr = FrameResult(
                        index=index,
                        status=FrameStatus.OK,
                        detections=tuple(result.detections),
                        result=result,
                        worker=wid,
                    )
                else:
                    fr = FrameResult(
                        index=index,
                        status=FrameStatus.FAILED,
                        error=error,
                        worker=wid,
                    )
                out_q.put((t0, fr))

        threads = [threading.Thread(target=produce, name="stream-producer",
                                    daemon=True)]
        if self.backend is ExecutionBackend.PROCESS:
            # Build (or reuse) the pool before starting any thread of
            # our own: with the fork start method, forking from a
            # single-threaded parent is the safe order.
            pool = self._ensure_pool()
            threads.append(
                threading.Thread(target=dispatch, args=(pool,),
                                 name="stream-dispatch", daemon=True)
            )
            threads.append(
                threading.Thread(target=receive, args=(pool,),
                                 name="stream-receive", daemon=True)
            )
        else:
            for wid, det in enumerate(self._worker_detectors()):
                threads.append(
                    threading.Thread(target=work, args=(wid, det),
                                     name=f"stream-worker-{wid}",
                                     daemon=True)
                )

        start_time = time.perf_counter()
        pending: dict[int, tuple[float, FrameResult]] = {}
        received = 0
        emit_next = 0
        streak = 0
        try:
            for t in threads:
                t.start()
            while True:
                if (producer_done.is_set() and received == self._frames_in
                        and not pending):
                    break
                try:
                    t0, fr = out_q.get(timeout=_POLL_S)
                except _queue.Empty:
                    if (producer_done.is_set() and out_q.empty()
                            and not any(t.is_alive() for t in threads[1:])):
                        if received == self._frames_in and not pending:
                            break
                        detail = (
                            f"; backend error: {self._backend_error}"
                            if self._backend_error else ""
                        )
                        raise StreamError(
                            f"stream stalled: {received} of "
                            f"{self._frames_in} results arrived and all "
                            f"workers exited{detail}"
                        )
                    continue
                received += 1
                pending[fr.index] = (t0, fr)
                while emit_next in pending:
                    t0, fr = pending.pop(emit_next)
                    emit_next += 1
                    if fr.status is not FrameStatus.DROPPED:
                        fr = dataclasses.replace(
                            fr, latency_s=time.perf_counter() - t0
                        )
                        self._latency.observe(fr.latency_s)
                    if fr.status is FrameStatus.OK:
                        self._frames_ok += 1
                        streak = 0
                    elif fr.status is FrameStatus.FAILED:
                        self._frames_failed += 1
                        streak += 1
                    else:
                        self._frames_dropped += 1
                    if tm.enabled:
                        tm.inc(f"stream.frames_{fr.status.value}")
                        if fr.status is not FrameStatus.DROPPED:
                            tm.observe("stream.latency_ms",
                                       fr.latency_s * 1e3)
                    yield fr
                    if (self.max_consecutive_failures is not None
                            and streak >= self.max_consecutive_failures):
                        raise CircuitBreakerOpen(
                            f"{streak} consecutive frames failed "
                            f"(limit {self.max_consecutive_failures}); "
                            f"last error: {fr.error}"
                        )
        finally:
            abort.set()
            # An early exit (circuit breaker, caller break) leaves a
            # backlog; the generator is past yielding, so the discarded
            # frames are counted straight into the dropped tally rather
            # than vanishing from the report's reconciliation.
            discarded = in_q.close(drain=True)
            if discarded:
                self._frames_dropped += len(discarded)
                if tm.enabled:
                    tm.inc(
                        f"stream.frames_{FrameStatus.DROPPED.value}",
                        len(discarded),
                    )
            for t in threads:
                t.join(timeout=_JOIN_TIMEOUT_S)
            self._elapsed_s = time.perf_counter() - start_time
            self._finalize_telemetry(in_q)

    def _finalize_telemetry(self, in_q: BoundedFrameQueue) -> None:
        tm = self.telemetry
        if not tm.enabled:
            return
        report = self.report()
        tm.set_gauge("stream.workers", self.workers)
        tm.set_gauge("stream.achieved_fps", report.achieved_fps)
        tm.set_gauge("stream.worker_utilization", report.worker_utilization)
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
