"""Asyncio detection service multiplexing client sessions onto warm pools.

``DetectionService`` is the batching layer of ``repro.serve``: any
number of concurrent client sessions submit frames, a single dispatch
task round-robins the backlogs into shared worker pools, and each
session gets its own frames back — and *only* its own frames — in
submission order.

Pool sharing
------------
Pools are keyed by :meth:`~repro.parallel.DetectorSpec.cache_key`, the
same digest the process workers use for their per-process detector
cache.  Two sessions opened with byte-identical model + config attach
to the same warm pool (a ``serve.pool_cache_hits`` counter proves it);
a session with a different config gets its own pool without disturbing
anyone else.

Backpressure
------------
Each session admits frames through its own
:class:`~repro.stream.ledger.AdmissionCore`, the one implementation of
block / drop-oldest / drop-newest the stream pipeline also runs,
against a ``max_pending`` quota (frames admitted but not yet emitted).
``block`` awaits room; ``drop-oldest`` evicts the oldest frame no
worker holds, else refuses the newcomer; ``drop-newest`` refuses the
newcomer (the HTTP layer maps a refusal to a 429 response).  The
``max_fps`` cap is the one refusal the service adds: a throttled frame
is refused under every policy.

Refusals are not silent: a refused frame consumes a sequence number and
produces a ``DROPPED`` result, so a client that counts results can
never deadlock waiting for a frame the service discarded.

Execution
---------
Each pool is one of the executors of :mod:`repro.parallel.executor` —
the same two :class:`~repro.stream.StreamPipeline` runs — and each
session's core settles its frames in an
:class:`~repro.stream.ledger.OrderedLedger`, the stream collector's
reorder-and-account core.

Threading contract
------------------
The :class:`~repro.telemetry.MetricsRegistry` is not thread-safe, so
every telemetry record and every piece of session state is touched only
from the event-loop thread.  Executor threads hand results back through
``loop.call_soon_threadsafe`` — the one crossing point.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import time
from typing import Any, Iterable

import numpy as np

from repro.errors import ParameterError, ServeError
from repro.parallel.executor import ProcessExecutor, ThreadExecutor
from repro.parallel.spec import DetectorSpec
from repro.serve.types import ServeReport, SessionReport, SubmitTicket
from repro.stream.ledger import AdmissionCore
from repro.stream.types import (
    BackpressurePolicy,
    ExecutionBackend,
    FrameResult,
    FrameStatus,
    validate_backend,
)
from repro.telemetry import NULL_TELEMETRY, MetricsRegistry

#: Sentinel queued after the final result of a drained session.
_DONE = object()


class _Load:
    """What one pool holds: batches and frames handed to it whose
    results have not come back.  A batch occupies one worker until its
    last frame is delivered."""

    __slots__ = ("batches", "frames")

    def __init__(self) -> None:
        self.batches = 0
        self.frames = 0


class _Flight:
    """One dispatched batch: its pool's load and its frames still out."""

    __slots__ = ("load", "left")

    def __init__(self, load: _Load, left: int) -> None:
        self.load = load
        self.left = left


class ServeSession:
    """One client's ordered view of the shared service.

    Created by :meth:`DetectionService.open_session`; not constructed
    directly.  All methods must be called from the service's event
    loop.  Sequence numbers are assigned in ``submit`` call order, so
    a session with several concurrent submitters should serialize its
    own submits if it needs a deterministic ordering between them.
    """

    def __init__(self, service: "DetectionService", session_id: str,
                 pool_key: str, policy: BackpressurePolicy,
                 max_pending: int, max_fps: float | None = None) -> None:
        if max_pending < 1:
            raise ParameterError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if max_fps is not None and max_fps <= 0:
            raise ParameterError(
                f"max_fps must be > 0, got {max_fps}"
            )
        self.id = session_id
        self.policy = policy
        self.max_pending = max_pending
        self.max_fps = max_fps
        # Token bucket for the admission cap: one token per frame,
        # refilled at max_fps with one second of burst headroom.
        self._allowance = max(1.0, max_fps) if max_fps else 0.0
        self._last_tick = time.monotonic()
        self._service = service
        self._pool_key = pool_key
        self._core = AdmissionCore(max_pending, policy)
        self._out: asyncio.Queue = asyncio.Queue()
        self._space = asyncio.Event()
        self._space.set()
        self._drained = asyncio.Event()
        self._done = False

    # -- submission ------------------------------------------------------

    def _throttled_now(self) -> bool:
        """Apply the frames-per-second admission cap to one submit.

        Returns ``True`` when the cap refuses the frame.  Decoupled
        from the queue-quota policies: a throttled frame is refused
        under *every* policy (blocking to pace a too-fast client would
        hide the overrun instead of reporting it), and like every other
        refusal it still consumes a sequence number and yields an
        in-order ``DROPPED`` result.
        """
        if self.max_fps is None:
            return False
        now = time.monotonic()
        self._allowance = min(
            max(1.0, self.max_fps),
            self._allowance + (now - self._last_tick) * self.max_fps,
        )
        self._last_tick = now
        if self._allowance < 1.0:
            return True
        self._allowance -= 1.0
        return False

    async def submit(self, frame: np.ndarray) -> SubmitTicket:
        """Admit one frame; return its sequence number and fate.

        Applies this session's backpressure policy against its
        ``max_pending`` quota.  Under ``block`` this coroutine waits
        for space; under the lossy policies it returns immediately and
        the ticket says whether the *submitted* frame was accepted.
        """
        core = self._core
        if core.closed:
            raise ServeError(f"session {self.id} is closed")
        service = self._service
        if not service.ready:
            raise ServeError("service is draining; no new frames")
        if self.policy is BackpressurePolicy.BLOCK:
            while core.full and not core.closed:
                self._space.clear()
                await self._space.wait()
            if core.closed:
                raise ServeError(f"session {self.id} is closed")
        refuse = "throttled" if self._throttled_now() else None
        seq, refused, evicted = core.admit(np.asarray(frame), refuse=refuse)
        service._counts["submitted"] += 1
        if service.telemetry.enabled:
            service.telemetry.inc("serve.frames_submitted")
            service.telemetry.observe("serve.queue_depth",
                                      float(core.pending))
        if evicted is not None:
            self._tally("evicted")
        if refused is not None:
            self._tally(refused)
        else:
            service._wake.set()
        self._emit()
        if refused is None:
            return SubmitTicket(seq=seq, accepted=True)
        return SubmitTicket(
            seq=seq, accepted=False,
            reason="saturated" if refused == "rejected" else refused,
        )

    # -- results ---------------------------------------------------------

    async def results(self, max_items: int | None = None,
                      timeout: float | None = None) -> list[FrameResult]:
        """Collect in-order results; long-polls for the first one.

        Returns an empty list on timeout, or once the session has
        emitted its final result (check :attr:`done` to tell the two
        apart).
        """
        items: list[FrameResult] = []
        if self._done:
            return items
        try:
            if timeout is not None and timeout <= 0:
                first = self._out.get_nowait()
            elif timeout is not None:
                first = await asyncio.wait_for(self._out.get(), timeout)
            else:
                first = await self._out.get()
        except (asyncio.TimeoutError, asyncio.QueueEmpty):
            return items
        if first is _DONE:
            self._done = True
            return items
        items.append(first)
        while max_items is None or len(items) < max_items:
            try:
                nxt = self._out.get_nowait()
            except asyncio.QueueEmpty:
                break
            if nxt is _DONE:
                self._done = True
                break
            items.append(nxt)
        return items

    async def __aiter__(self):
        while not self._done:
            item = await self._out.get()
            if item is _DONE:
                self._done = True
                return
            yield item

    @property
    def done(self) -> bool:
        """True once the final result has been consumed."""
        return self._done

    @property
    def pending(self) -> int:
        """Frames admitted but not yet emitted."""
        return self._core.pending

    # -- lifecycle -------------------------------------------------------

    async def close(self, drain: bool = True) -> SessionReport:
        """Stop admitting frames, settle the backlog, and detach.

        ``drain=True`` waits for every pending frame to come back;
        ``drain=False`` discards queued frames as ``DROPPED`` (counted
        as evictions) but still waits for frames already on a worker —
        in-flight work cannot be recalled.
        """
        if not self._core.closed:
            for _ in self._core.close(drain):
                self._tally("evicted")
            self._space.set()  # release blocked submitters to the raise
            self._emit()
        await self._drained.wait()
        self._service._on_session_closed(self)
        return self.report()

    def report(self) -> SessionReport:
        core = self._core
        counts = core.ledger.counts
        return SessionReport(
            session=self.id,
            policy=self.policy.value,
            max_pending=self.max_pending,
            submitted=core.submitted,
            ok=counts[FrameStatus.OK],
            failed=counts[FrameStatus.FAILED],
            dropped=counts[FrameStatus.DROPPED],
            rejected=core.dropped_as["rejected"],
            evicted=core.dropped_as["evicted"],
            throttled=core.dropped_as["throttled"],
            pool=self._pool_key[:12],
        )

    # -- internals (event-loop thread only) ------------------------------

    def _tally(self, reason: str) -> None:
        """Count one frame the core dropped for ``reason``:
        ``"rejected"``, ``"evicted"`` or ``"throttled"``."""
        self._service._counts[reason] += 1
        if self._service.telemetry.enabled:
            self._service.telemetry.inc(f"serve.frames_{reason}")

    def _abandon(self) -> None:
        """Drop everything still queued or on a worker as evicted."""
        for _ in self._core.close(drain=False) + self._core.abandon():
            self._tally("evicted")
        self._emit()

    def _finish(self, seq: int, status: str, result: Any = None,
                error: str | None = None,
                worker: int | None = None) -> None:
        """Record one worker outcome and emit everything now in order."""
        self._core.settle(seq, status, result=result, error=error,
                          worker=worker)
        self._emit()

    def _emit(self) -> None:
        service = self._service
        telemetry = service.telemetry
        while (frame_result := self._core.ledger.pop()) is not None:
            status_i = frame_result.status
            service._counts[status_i.value] += 1
            if telemetry.enabled:
                telemetry.inc(f"serve.frames_{status_i.value}")
                if status_i is not FrameStatus.DROPPED:
                    telemetry.observe("serve.latency_ms",
                                      frame_result.latency_s * 1e3)
            if not self._core.full:
                self._space.set()
            self._out.put_nowait(frame_result)
        if (self._core.closed and self._core.pending == 0
                and not self._drained.is_set()):
            self._drained.set()
            self._out.put_nowait(_DONE)


class DetectionService:
    """The multiplexer: shared warm pools behind per-client sessions.

    Parameters
    ----------
    detector:
        A built detector to serve (its model + config become the
        default :class:`~repro.parallel.DetectorSpec`).  Alternatively
        pass ``spec`` directly.
    workers:
        Detection workers per pool.
    backend:
        ``"thread"`` (default) or ``"process"`` — same trade-off as
        the stream layer; see docs/STREAMING.md.
    default_policy, max_pending, max_fps:
        Session defaults; each ``open_session`` may override.
        ``max_fps`` is the per-session frames-per-second admission cap
        (``None`` — the default — means uncapped).
    max_batch, batch_window_ms:
        Micro-batched dispatch policy.  The pump coalesces up to
        ``max_batch`` pending frames *across sessions* into one worker
        task (amortizing the per-message IPC cost).  Dispatch is
        work-conserving: a frame goes out at once while a worker of its
        pool is idle.  With ``batch_window_ms > 0`` a partial batch
        lingers for more arrivals only while every worker of its pool
        already holds a batch, and at most that long; a worker freeing
        up or ``max_batch`` frames waiting ends the linger early.
        ``max_batch=1`` (the default) is the unbatched behaviour: one
        frame per task, no linger.  Per-session ordering and per-frame
        fault isolation are preserved either way.
    telemetry:
        A :class:`~repro.telemetry.MetricsRegistry` for ``serve.*``
        metrics (only ever touched from the event-loop thread).
    """

    def __init__(self, detector: object = None, *,
                 spec: DetectorSpec | None = None,
                 workers: int = 2,
                 backend: "ExecutionBackend | str" = (
                     ExecutionBackend.THREAD),
                 default_policy: "BackpressurePolicy | str" = (
                     BackpressurePolicy.BLOCK),
                 max_pending: int = 8,
                 max_fps: float | None = None,
                 max_batch: int = 1,
                 batch_window_ms: float = 0.0,
                 telemetry: MetricsRegistry | None = None,
                 mp_start_method: str | None = None) -> None:
        if spec is None:
            if detector is None:
                raise ParameterError(
                    "DetectionService needs a detector or a DetectorSpec"
                )
            spec = DetectorSpec.from_detector(detector)
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        if max_pending < 1:
            raise ParameterError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if max_fps is not None and max_fps <= 0:
            raise ParameterError(f"max_fps must be > 0, got {max_fps}")
        if max_batch < 1:
            raise ParameterError(
                f"max_batch must be >= 1, got {max_batch}"
            )
        if batch_window_ms < 0:
            raise ParameterError(
                f"batch_window_ms must be >= 0, got {batch_window_ms}"
            )
        self.spec = spec
        self.workers = workers
        self.backend = validate_backend(backend)
        self.default_policy = BackpressurePolicy(default_policy)
        self.max_pending = max_pending
        self.max_fps = max_fps
        self.max_batch = max_batch
        self.batch_window_ms = batch_window_ms
        self._batch_window_s = batch_window_ms / 1e3
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        self.mp_start_method = mp_start_method
        self._pools: dict[str, Any] = {}
        self._load: dict[str, _Load] = {}
        self._tags: dict[int, tuple[ServeSession, int, _Flight]] = {}
        self._sessions: dict[str, ServeSession] = {}
        self._next_tag = 0
        self._rotate = 0
        self._next_session = 0
        self._pools_built = 0
        self._sessions_opened = 0
        self._sessions_closed = 0
        self._counts = {
            "submitted": 0, "ok": 0, "failed": 0, "dropped": 0,
            "rejected": 0, "evicted": 0, "throttled": 0,
        }
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake: asyncio.Event = None  # type: ignore[assignment]
        self._pump_task: asyncio.Task | None = None
        self._started = False
        self._draining = False
        self._drained_clean = True

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Warm the default pool and start the dispatch task."""
        if self._started:
            raise ServeError("service already started")
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._get_pool(self.spec)
        self._pump_task = asyncio.create_task(
            self._pump(), name="serve-pump"
        )
        self._started = True
        self._draining = False

    async def shutdown(self, drain: bool = True, *,
                       settle_timeout_s: float | None = None) -> ServeReport:
        """Close every session, stop the pools, report the totals.

        With ``drain=True`` every admitted frame is served (or
        accounted as dropped) before the pools die — a clean drain,
        recorded in the ``serve.drained_clean`` gauge.

        ``settle_timeout_s`` bounds how long each session drain may
        wait (a wedged worker would otherwise hang shutdown forever).
        On timeout — and in every case where frames are still queued or
        in flight once the pools are gone — the leftovers are settled
        as evicted ``DROPPED`` results rather than silently vanishing:
        the session totals, service counters and ``serve.frames_*``
        telemetry still reconcile with ``frames_submitted``, and the
        unclean drain is visible in ``drained_clean``.
        """
        telemetry = self.telemetry
        if self._started:
            self._draining = True
            for session in list(self._sessions.values()):
                try:
                    await asyncio.wait_for(
                        session.close(drain=drain), settle_timeout_s
                    )
                except asyncio.TimeoutError:
                    pass  # leftovers settled as DROPPED below
            if self._pump_task is not None:
                self._pump_task.cancel()
                try:
                    await self._pump_task
                except asyncio.CancelledError:
                    pass
                self._pump_task = None
            self._drained_clean = (
                not self._tags
                and all(not s._core.queued for s in self._sessions.values())
            )
            self._settle_leftovers()
            for pool in self._pools.values():
                # close() joins worker threads/processes (seconds under
                # the join timeout) — off the loop, or every other
                # connection stalls for the duration.  It records into
                # a private registry: this one is loop-only.
                merged = MetricsRegistry(enabled=telemetry.enabled)
                await asyncio.to_thread(pool.close, merged)
                telemetry.absorb_snapshot(merged.snapshot())
            self._pools.clear()
            self._load.clear()
            if telemetry.enabled:
                telemetry.set_gauge("serve.pools_active", 0.0)
                telemetry.set_gauge("serve.workers", 0.0)
                telemetry.set_gauge("serve.inflight", 0.0)
                telemetry.set_gauge(
                    "serve.drained_clean",
                    1.0 if self._drained_clean else 0.0,
                )
            self._started = False
        return self.report()

    def _settle_leftovers(self) -> None:
        """Account every frame shutdown is about to abandon.

        Runs after the pump stops and before the pools die: anything
        still in flight or queued at this point would otherwise
        disappear from the per-session and service totals.  Each is
        counted as evicted and finished as a ``DROPPED`` result — the
        same settlement a no-drain session close applies to its
        backlog — which also releases any session drain still blocked
        on a wedged worker.
        """
        self._tags.clear()
        for session in list(self._sessions.values()):
            session._abandon()
            self._on_session_closed(session)

    @property
    def ready(self) -> bool:
        """True while the service accepts sessions and frames."""
        return self._started and not self._draining

    @property
    def healthy(self) -> bool:
        """False once any pool's executor has lost its workers.

        ``/readyz`` then answers 503.  Admission does not change:
        frames sent to that pool still resolve ``FAILED``.
        """
        return all(pool.healthy for pool in self._pools.values())

    # -- sessions --------------------------------------------------------

    def open_session(self, *,
                     policy: "BackpressurePolicy | str | None" = None,
                     max_pending: int | None = None,
                     max_fps: float | None = None,
                     spec: DetectorSpec | None = None) -> ServeSession:
        """Attach a new client session (sharing a pool when specs match)."""
        if not self.ready:
            raise ServeError("service is not accepting sessions")
        resolved_policy = BackpressurePolicy(
            policy if policy is not None else self.default_policy
        )
        key = self._get_pool(spec if spec is not None else self.spec)
        session_id = f"s-{self._next_session}"
        self._next_session += 1
        session = ServeSession(
            self, session_id, key, resolved_policy,
            max_pending if max_pending is not None else self.max_pending,
            max_fps if max_fps is not None else self.max_fps,
        )
        self._sessions[session_id] = session
        self._sessions_opened += 1
        if self.telemetry.enabled:
            self.telemetry.inc("serve.sessions_opened")
            self.telemetry.set_gauge(
                "serve.sessions_active", float(len(self._sessions))
            )
        return session

    def get_session(self, session_id: str) -> ServeSession | None:
        return self._sessions.get(session_id)

    def sessions(self) -> Iterable[ServeSession]:
        return list(self._sessions.values())

    def _on_session_closed(self, session: ServeSession) -> None:
        if self._sessions.pop(session.id, None) is None:
            return
        self._sessions_closed += 1
        if self.telemetry.enabled:
            self.telemetry.inc("serve.sessions_closed")
            self.telemetry.set_gauge(
                "serve.sessions_active", float(len(self._sessions))
            )

    # -- introspection ---------------------------------------------------

    def snapshot(self):
        """Point-in-time view of the service's telemetry registry.

        ``serve.ready`` is set here, from the same ``ready`` and
        ``healthy`` that ``/readyz`` answers from, so a scrape never
        reads 1 while a dead worker pool has ``/readyz`` at 503.
        """
        if self.telemetry.enabled:
            self.telemetry.set_gauge(
                "serve.ready", 1.0 if self.ready and self.healthy else 0.0
            )
        return self.telemetry.snapshot()

    def report(self) -> ServeReport:
        return ServeReport(
            sessions_opened=self._sessions_opened,
            sessions_closed=self._sessions_closed,
            frames_submitted=self._counts["submitted"],
            frames_ok=self._counts["ok"],
            frames_failed=self._counts["failed"],
            frames_dropped=self._counts["dropped"],
            frames_rejected=self._counts["rejected"],
            frames_evicted=self._counts["evicted"],
            frames_throttled=self._counts["throttled"],
            pools_built=self._pools_built,
            backend=self.backend.value,
            workers=self.workers,
            drained_clean=self._drained_clean,
        )

    # -- internals (event-loop thread only) ------------------------------

    def _get_pool(self, spec: DetectorSpec) -> str:
        key = spec.cache_key()
        telemetry = self.telemetry
        if key in self._pools:
            if telemetry.enabled:
                telemetry.inc("serve.pool_cache_hits")
            return key
        if telemetry.enabled:
            telemetry.inc("serve.pool_cache_misses")
        if self.backend is ExecutionBackend.PROCESS:
            pool: Any = ProcessExecutor(
                spec, self.workers, max_batch=self.max_batch,
                start_method=self.mp_start_method, name="serve",
            )
        else:
            # Thread workers run with telemetry off: the service's
            # registry lives on the event-loop thread.
            quiet = DetectorSpec(
                spec.weights, spec.bias,
                dataclasses.replace(spec.config, telemetry=False),
            )
            pool = ThreadExecutor(quiet.build, self.workers,
                                  max_batch=self.max_batch,
                                  name="serve-worker")
        pool.start(self._deliver)
        self._pools[key] = pool
        self._load[key] = _Load()
        self._pools_built += 1
        if telemetry.enabled:
            telemetry.set_gauge(
                "serve.pools_active", float(len(self._pools))
            )
            telemetry.set_gauge(
                "serve.workers",
                float(len(self._pools) * self.workers),
            )
        return key

    def _deliver(self, tag: int, status: str, result: Any,
                 error: str | None, worker: int | None,
                 busy_s: float, cpu_s: float) -> None:
        """Called from executor threads: bounce onto the event loop."""
        try:
            self._loop.call_soon_threadsafe(
                self._on_result, tag, status, result, error, worker,
                busy_s, cpu_s,
            )
        except RuntimeError:
            pass  # loop already closed during interpreter teardown

    def _on_result(self, tag: int, status: str, result: Any,
                   error: str | None, worker: int | None,
                   busy_s: float, cpu_s: float) -> None:
        entry = self._tags.pop(tag, None)
        if entry is None:
            return
        session, seq, flight = entry
        flight.load.frames -= 1
        flight.left -= 1
        if not flight.left:
            flight.load.batches -= 1
        if self.telemetry.enabled:
            self.telemetry.set_gauge("serve.inflight", float(len(self._tags)))
            self.telemetry.observe("serve.worker_busy_ms", busy_s * 1e3)
            self.telemetry.observe("serve.worker_cpu_ms", cpu_s * 1e3)
        self._wake.set()
        session._finish(seq, status, result=result, error=error,
                        worker=worker)

    def _held_pools(self) -> set[str]:
        """Pools whose partial batch may linger for more frames.

        A pool is held while fewer than ``max_batch`` frames wait for it
        and every one of its workers already holds a batch: a frame
        never waits out the window while a worker that could take it
        is idle.
        """
        if self.max_batch == 1 or not self._batch_window_s:
            return set()
        waiting: collections.Counter = collections.Counter()
        for session in self._sessions.values():
            waiting[session._pool_key] += session._core.queued
        return {
            key for key, n in waiting.items()
            if 0 < n < self.max_batch and key in self._pools
            and self._load[key].batches >= self._pools[key].workers
        }

    async def _pump(self) -> None:
        """Dispatch on every wake; linger while a held pool fills.

        A wake is a submit or a delivered result.  Each wake dispatches
        every pool that is not held (see :meth:`_held_pools`).  While a
        pool is held the pump lingers, and the linger ends at
        ``batch_window_ms``, once ``max_batch`` frames wait, or as soon
        as a worker of that pool frees up, whichever comes first.
        """
        loop = asyncio.get_running_loop()
        telemetry = self.telemetry
        while True:
            await self._wake.wait()
            self._wake.clear()
            held = self._dispatch(linger=True)
            if not held:
                continue
            started = loop.time()
            deadline = started + self._batch_window_s
            while held:
                try:
                    await asyncio.wait_for(self._wake.wait(),
                                           deadline - loop.time())
                except asyncio.TimeoutError:
                    self._dispatch(linger=False)
                    break
                self._wake.clear()
                held = self._dispatch(linger=True)
            if telemetry.enabled:
                telemetry.inc("serve.batch.lingered")
                telemetry.observe("serve.batch.linger_ms",
                                  (loop.time() - started) * 1e3)

    def _dispatch(self, linger: bool) -> set[str]:
        """Round-robin session backlogs into the pools.

        Frames are taken one per session per sweep — that fairness is
        what keeps a chatty client from starving a quiet one — and
        coalesced into per-pool batches of up to ``max_batch`` frames,
        so concurrent sessions share one task message (and, on the
        process backend, one queue hop each way) instead of paying the
        fixed dispatch cost per frame.  A pool stops admitting once its
        in-flight count reaches capacity, which is what makes
        per-session quotas back up and the backpressure policies bite.

        With ``linger``, a held pool (see :meth:`_held_pools`) gets
        nothing; returns the pools held when the sweeps stopped.
        """
        telemetry = self.telemetry
        held: set[str] = set()
        progressed = True
        while progressed:
            progressed = False
            sessions = list(self._sessions.values())
            if not sessions:
                break
            held = self._held_pools() if linger else set()
            self._rotate = (self._rotate + 1) % len(sessions)
            ordered = sessions[self._rotate:] + sessions[:self._rotate]
            batches: dict[str, list[tuple[ServeSession, int,
                                          np.ndarray]]] = {}
            sweeping = True
            while sweeping:
                sweeping = False
                for session in ordered:
                    key = session._pool_key
                    pool = self._pools.get(key)
                    if (pool is None or key in held
                            or not session._core.queued):
                        continue
                    batch = batches.setdefault(key, [])
                    if len(batch) >= self.max_batch:
                        continue
                    if self._load[key].frames + len(batch) >= pool.capacity:
                        continue
                    [(seq, frame)] = session._core.take(1)
                    batch.append((session, seq, frame))
                    sweeping = True
            for key, batch in batches.items():
                if batch:
                    self._submit(key, batch)
                    progressed = True
            if progressed and telemetry.enabled:
                telemetry.set_gauge("serve.inflight",
                                    float(len(self._tags)))
        return held

    def _submit(self, key: str,
                batch: list[tuple[ServeSession, int, np.ndarray]]) -> None:
        """Hand one batch to pool ``key`` and count it in its load."""
        load = self._load[key]
        flight = _Flight(load, len(batch))
        items = []
        for session, seq, frame in batch:
            tag = self._next_tag
            self._next_tag += 1
            self._tags[tag] = (session, seq, flight)
            items.append((tag, frame))
        load.batches += 1
        load.frames += len(items)
        self._pools[key].submit_batch(items)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.inc("serve.batch.formed")
            telemetry.observe("serve.batch.size", float(len(items)))
            if len(items) > 1:
                telemetry.inc("serve.batch.multi_frame")
