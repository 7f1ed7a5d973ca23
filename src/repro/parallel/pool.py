"""The warm-started detector worker pool.

:class:`ProcessWorkerPool` owns everything process-shaped about the
parallel backend: the worker processes (started once, reused across
runs), the shared-memory frame ring, and the task/result queues.
:class:`~repro.parallel.executor.ProcessExecutor` drives it through
three calls — :meth:`submit_batch`, :meth:`next_message`,
:meth:`close` — for both the stream pipeline and the service, which
keep all ordering, fault and backpressure semantics on their own side.

Start method: ``fork`` where the platform offers it (cheapest warm
start — the child inherits the imported NumPy), else ``spawn``; the
``REPRO_MP_START`` environment variable overrides.  The stream
pipeline builds its pool *before* it starts its own producer thread,
so the fork-with-threads hazard does not arise there.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import pickle
import queue as _queue
import time
import weakref
from types import TracebackType
from typing import Any

import numpy as np

from repro.errors import ParallelError
from repro.parallel.results import ResultHandle, decode_result
from repro.parallel.shm import FrameHandle, ResultSlot, SharedFrameRing
from repro.parallel.spec import DetectorSpec
from repro.parallel.worker import worker_main
from repro.telemetry import TelemetrySnapshot

#: Seconds between liveness re-checks while waiting on queues.
_POLL_S = 0.05

#: Default result-lane slot capacity.  64 KiB holds the flat encoding
#: of ~1 300 detections per frame (6 float64 words each plus header);
#: anything larger falls back to the pickle channel and is counted by
#: ``parallel.results_pickled``.
_RESULT_SLOT_BYTES = 64 * 1024

#: Default seconds to wait for a free ring slot before declaring the
#: pool wedged (a healthy worker frees a slot per detect, i.e. well
#: under a second for any frame this library processes).
_SUBMIT_TIMEOUT_S = 30.0

#: Seconds close() grants the workers to flush snapshots and exit.
_SHUTDOWN_TIMEOUT_S = 10.0


def default_start_method() -> str:
    """``REPRO_MP_START`` override, else fork where available."""
    env = os.environ.get("REPRO_MP_START")
    if env:
        return env
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _emergency_cleanup(state: dict[str, Any]) -> None:
    """GC/interpreter-exit safety net: never leak processes or segments.

    Only the process that built the pool may act.  A forked child
    inherits the pool object, and with it this finalizer: there the
    workers are not its children and the ring is its parent's, so
    closing it would unlink a segment still in use.
    """
    if state["pid"] != os.getpid():
        return
    for proc in state.get("procs", ()):
        if proc.is_alive():
            proc.terminate()
    ring = state.get("ring")
    if ring is not None:
        ring.close()


class ProcessWorkerPool:
    """N warm detector processes fed over a shared-memory frame ring.

    Parameters
    ----------
    spec:
        The :class:`~repro.parallel.spec.DetectorSpec` every worker
        rebuilds (pickled once, at pool construction).
    workers:
        Process count.
    slots:
        Ring slots, bounding frames concurrently in flight; defaults to
        ``workers + 2`` (one being detected per worker plus hand-off
        headroom).
    slot_bytes:
        Slot capacity; defaults to the first submitted frame's size, so
        memory matches the workload.  Larger frames fall back to the
        pickle channel (counted by the executor's
        ``parallel.frames_pickled``).
    result_slot_bytes:
        Capacity of one result-lane slot (the shared-memory return path
        for detection results; see :mod:`repro.parallel.results`).
        Zero disables the lane — every result is pickled, as before the
        lane existed.  Defaults to 64 KiB per slot.
    start_method:
        ``multiprocessing`` start method; see :func:`default_start_method`.
    """

    def __init__(
        self,
        spec: DetectorSpec,
        workers: int,
        *,
        slots: int | None = None,
        slot_bytes: int | None = None,
        result_slot_bytes: int = _RESULT_SLOT_BYTES,
        start_method: str | None = None,
    ) -> None:
        if workers < 1:
            raise ParallelError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.start_method = start_method or default_start_method()
        self._ctx = multiprocessing.get_context(self.start_method)
        self._slots = int(slots) if slots is not None else self.workers + 2
        self._slot_bytes = slot_bytes
        self._result_slot_bytes = int(result_slot_bytes)
        # Result slots lent at submit time, keyed by (generation, index)
        # and reclaimed when that frame's message is decoded.  The map
        # is authoritative: a worker's ResultHandle carries only a word
        # count, never an address.
        self._pending_results: dict[tuple[int, int], ResultSlot] = {}
        self._results_shm = 0
        self._results_pickled = 0
        self._batches = 0
        # Per-frame ("result", ...) tuples expanded out of a worker's
        # combined ("batch_result", ...) message, drained FIFO by
        # next_message before the queue is consulted again.
        self._expanded: collections.deque = collections.deque()
        spec_bytes = spec.to_bytes()
        self._task_q = self._ctx.Queue()
        self._result_q = self._ctx.Queue()
        self._free_q = self._ctx.Queue()
        self._ring: SharedFrameRing | None = None
        self._closed = False
        self._broken = False
        self._stale = 0
        # The current run's generation, read by every worker before it
        # detects a frame; see begin_run.
        self._generation = self._ctx.RawValue("q", 0)
        self._final_snapshots: list[TelemetrySnapshot] = []
        self._procs = [
            self._ctx.Process(
                target=worker_main,
                args=(wid, spec_bytes, self._task_q, self._result_q,
                      self._free_q, self._generation, self.workers),
                name=f"repro-parallel-{wid}",
                daemon=True,
            )
            for wid in range(self.workers)
        ]
        self._state: dict[str, Any] = {
            "procs": self._procs, "ring": None, "pid": os.getpid(),
        }
        self._finalizer = weakref.finalize(
            self, _emergency_cleanup, self._state
        )
        for proc in self._procs:
            proc.start()

    # -- Introspection ------------------------------------------------------

    @property
    def healthy(self) -> bool:
        """True while every worker process is alive and none reported
        a startup failure."""
        return (not self._broken and not self._closed
                and all(p.is_alive() for p in self._procs))

    # -- Submission ---------------------------------------------------------

    def begin_run(self, generation: int) -> None:
        """Publish ``generation`` as the current run to the workers.

        A worker answers a frame of any other generation — one an
        abandoned run had already staged — without detecting it: it
        frees the frame's ring slot and replies ``"stale"``, which
        :meth:`next_message` swallows after reclaiming the frame's
        result-lane slot (counted in :attr:`frames_stale`).
        """
        self._generation.value = generation

    def _ensure_ring(self, frame: np.ndarray) -> SharedFrameRing:
        if self._ring is None:
            slot_bytes = (
                self._slot_bytes if self._slot_bytes is not None
                else max(int(frame.nbytes), 1)
            )
            # Result lane sized for every in-flight frame plus one per
            # worker: a frame's slot is reclaimed only when its message
            # is decoded, which can lag the frame slot's release.
            result_slots = (
                self._slots + self.workers if self._result_slot_bytes else 0
            )
            self._ring = SharedFrameRing(
                self._slots, slot_bytes, self._free_q,
                result_slots=result_slots,
                result_slot_bytes=self._result_slot_bytes,
            )
            self._state["ring"] = self._ring
        return self._ring

    def _stage_frame(
        self,
        ring: SharedFrameRing,
        frame: np.ndarray,
        deadline: float,
    ) -> tuple[FrameHandle | None, bytes | None, str]:
        """Move one frame into a ring slot (or pickle it).

        Blocks while the ring is full (that is the backpressure that
        keeps the admission quota, not the ring, the policy point);
        raises :class:`~repro.errors.ParallelError` if no slot
        frees before ``deadline`` or the workers died.
        """
        if not ring.fits(frame):
            # Workers receive C-ordered frames on both transports; the
            # ring's write converts the layout during its one copy.
            payload = pickle.dumps(np.ascontiguousarray(frame),
                                   protocol=pickle.HIGHEST_PROTOCOL)
            return None, payload, "pickle"
        while True:
            slot = ring.acquire(timeout=_POLL_S)
            if slot is not None:
                break
            if not self.healthy:
                raise ParallelError(
                    "worker pool lost its processes while waiting "
                    "for a shared-memory slot"
                )
            if time.perf_counter() > deadline:
                raise ParallelError(
                    "no shared-memory slot freed in time; "
                    "worker pool is wedged"
                )
        return ring.write(slot, frame), None, "shm"

    def submit_batch(
        self,
        generation: int,
        items: "list[tuple[int, np.ndarray, float]]",
        timeout: float = _SUBMIT_TIMEOUT_S,
    ) -> list[str]:
        """Queue N frames as one task message to one worker.

        ``items`` is a list of ``(index, frame, t0)`` tuples; the whole
        batch travels as a single ``("batch", generation, entries)``
        task — the only task shape — and comes back as a single
        combined message (expanded by :meth:`next_message` into
        per-frame ``("result", ...)`` tuples, so consumers are
        transport- and batch-agnostic).  Each frame is staged into a
        ring slot or, when it outgrows the slot, pickled; a result-lane
        slot is lent to it when one is free (the lane is an
        opportunistic fast path, never backpressure).  Fault isolation
        stays per frame: a frame that fails inside the batch fails
        alone.

        Returns the per-frame transports, ``"shm"`` / ``"pickle"``, in
        item order.  All-or-nothing on failure: if staging any frame
        raises, every slot already acquired for the batch is released
        and *no* frame of the batch was dispatched.

        A batch may not exceed the ring's slot count (the frames all
        hold slots concurrently until the worker drains them).
        """
        if self._closed:
            raise ParallelError(
                "submit_batch() on a closed ProcessWorkerPool"
            )
        if not items:
            return []
        frames = [np.asarray(frame) for _, frame, _ in items]
        ring = self._ensure_ring(frames[0])
        if len(items) > self._slots:
            raise ParallelError(
                f"batch of {len(items)} frames exceeds the ring's "
                f"{self._slots} slots; it could never be staged"
            )
        deadline = time.perf_counter() + timeout
        entries: list[tuple[int, float, FrameHandle | None,
                            bytes | None, ResultSlot | None]] = []
        transports: list[str] = []
        try:
            for (index, _, t0), frame in zip(items, frames):
                handle, payload, transport = self._stage_frame(
                    ring, frame, deadline
                )
                rslot = ring.acquire_result() if ring.result_slots else None
                entries.append((index, t0, handle, payload, rslot))
                transports.append(transport)
        except Exception:
            # Unwind so a failed batch leaves no slot lent and no
            # frame half-dispatched: the caller can account every
            # frame of the batch as undelivered.
            for _, _, handle, _, rslot in entries:
                if handle is not None:
                    ring.release(handle.slot)
                if rslot is not None:
                    ring.release_result(rslot.slot)
            raise
        for index, _, _, _, rslot in entries:
            if rslot is not None:
                self._pending_results[(generation, index)] = rslot
        if len(entries) > 1:
            self._batches += 1
        self._task_q.put(("batch", generation, entries))
        return transports

    # -- Results ------------------------------------------------------------

    def next_message(self, timeout: float = _POLL_S) -> tuple[Any, ...] | None:
        """Next worker message, or ``None`` on timeout.

        Message shapes (tuples, kind first):

        * ``("result", generation, index, status, result, error,
          worker_id, busy_s, cpu_s, t0)`` — one frame's outcome, with
          the worker's wall and CPU seconds spent on it;
        * ``("snapshot", worker_id, snapshot_dict | None)`` — shutdown
          telemetry flush;
        * ``("dead", worker_id, error)`` — a worker failed to start.

        A result that travelled through the shared-memory result lane
        arrives here as a :class:`~repro.parallel.results.ResultHandle`;
        it is decoded back into a
        :class:`~repro.detect.DetectionResult` before the message is
        returned, so callers always see the same tuple shape regardless
        of transport.  A worker's combined ``("batch_result", ...)``
        reply is expanded here into per-frame ``("result", ...)``
        tuples, returned one per call in batch order — consumers never
        see batching on the result side.  Frames answered ``"stale"``
        (see :meth:`begin_run`) are not returned at all; a reply made
        only of them reads as a timeout.
        """
        if self._expanded:
            return self._expanded.popleft()
        try:
            message = self._result_q.get(timeout=timeout)
        except _queue.Empty:
            return None
        if message[0] == "dead":
            self._broken = True
        elif message[0] == "batch_result":
            _, generation, worker_id, outcomes = message
            for index, status, reply, error, busy_s, cpu_s, t0 in outcomes:
                reply = self._decode(generation, index, status, reply)
                if status == "stale":
                    self._stale += 1
                    continue
                self._expanded.append(
                    ("result", generation, index, status, reply,
                     error, worker_id, busy_s, cpu_s, t0)
                )
            if not self._expanded:
                return None  # every frame of an abandoned run
            message = self._expanded.popleft()
        return message

    def _decode(self, generation: int, index: int, status: str,
                reply: Any) -> Any:
        """Reclaim the frame's lent result slot; decode a lane result."""
        rslot = self._pending_results.pop((generation, index), None)
        try:
            if isinstance(reply, ResultHandle):
                if rslot is None or self._ring is None:
                    raise ParallelError(
                        f"worker returned a result-lane handle for frame "
                        f"{index} but no result slot was lent to it"
                    )
                reply = decode_result(
                    self._ring.read_result(rslot, reply.n_words)
                )
                self._results_shm += 1
            elif status == "ok":
                self._results_pickled += 1
            return reply
        finally:
            if rslot is not None and self._ring is not None:
                self._ring.release_result(rslot.slot)

    def transport_counts(self) -> dict[str, int]:
        """Result-transport tallies so far: how many frame results came
        back through the shared-memory lane vs the pickle channel, and
        how many multi-frame task messages were dispatched.  Keys match the
        telemetry counters ``parallel.results_shm`` /
        ``parallel.results_pickled`` / ``parallel.batches`` (failed
        frames carry no result and count toward neither transport)."""
        return {
            "results_shm": self._results_shm,
            "results_pickled": self._results_pickled,
            "batches": self._batches,
        }

    @property
    def frames_stale(self) -> int:
        """Frames of abandoned runs the workers answered undetected
        (the ``parallel.frames_stale`` counter); see :meth:`begin_run`."""
        return self._stale

    # -- Shutdown -----------------------------------------------------------

    def close(
        self, timeout: float = _SHUTDOWN_TIMEOUT_S
    ) -> list[TelemetrySnapshot]:
        """Stop the workers and return their final telemetry snapshots.

        Idempotent; repeated calls return the snapshots collected the
        first time.  Workers that fail to exit in ``timeout`` seconds
        are terminated (their snapshot is lost, nothing else is).
        """
        if self._closed:
            return self._final_snapshots
        self._closed = True
        alive = [p for p in self._procs if p.is_alive()]
        for _ in alive:
            try:
                self._task_q.put(("stop",))
            except Exception:
                break
        snapshots: list[TelemetrySnapshot | None] = []
        deadline = time.perf_counter() + timeout
        while len(snapshots) < len(alive):
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            try:
                message = self._result_q.get(
                    timeout=min(_POLL_S * 4, remaining)
                )
            except _queue.Empty:
                if not any(p.is_alive() for p in self._procs):
                    break
                continue
            if message[0] == "snapshot" and message[2] is not None:
                snapshots.append(TelemetrySnapshot.from_dict(message[2]))
            elif message[0] == "snapshot":
                snapshots.append(None)
        self._final_snapshots = [s for s in snapshots if s is not None]
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.perf_counter()))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in (self._task_q, self._result_q, self._free_q):
            q.close()
            q.cancel_join_thread()
        self._pending_results.clear()
        if self._ring is not None:
            self._ring.close()
        self._state["ring"] = None
        return self._final_snapshots

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()
