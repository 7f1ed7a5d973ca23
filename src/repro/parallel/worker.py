"""Worker-process entry point for the process backend.

Each worker is warm-started exactly once: the parent ships a pickled
:class:`~repro.parallel.spec.DetectorSpec` at process creation, the
worker rebuilds the detector through a per-process cache
(:data:`_DETECTOR_CACHE`, keyed by the spec's content hash) and then
loops over the shared task queue.  Frames arrive either as
:class:`~repro.parallel.shm.FrameHandle` ring slots (zero-copy view) or
as a pickled-array fallback for frames that outgrew the ring slot.
Results go back the same way when they can: flat-encoded into the
ring's result lane (:mod:`repro.parallel.results`) with only a
:class:`~repro.parallel.results.ResultHandle` crossing the queue, else
pickled whole.

Each worker pins BLAS to one thread before it builds the detector
(:func:`~repro.parallel.blas.limit_blas_threads`): a second OpenBLAS
thread would only spin on a core a sibling process needs.  It then
lets the detector's HOG extractor split large frames into one band
per core of its :func:`~repro.parallel.blas.core_share` (usable CPUs
over pool workers); the band threads start in the worker, on its first
large frame.

Each task is a ``("batch", generation, entries)`` of one or more frames,
answered by one ``("batch_result", ...)`` message.  A frame whose
generation is no longer the pool's current one (its run was abandoned)
is answered ``"stale"`` without a ``detect()``; its slots are freed all
the same.  Fault isolation mirrors the thread executor exactly: a
frame that makes ``detect()`` raise comes back ``"failed"`` — never a
dead worker.  On the terminal ``("stop",)`` task the worker replies
with its telemetry snapshot (the parent merges it; see
``MetricsRegistry.absorb_snapshot``) and exits cleanly.
"""

from __future__ import annotations

import pickle
import time
from typing import Any, TYPE_CHECKING

from repro.parallel.blas import core_share, limit_blas_threads
from repro.parallel.results import encode_reply
from repro.parallel.shm import attach_view, detach_all

if TYPE_CHECKING:
    from ctypes import c_longlong
    from multiprocessing.queues import Queue

    from repro.parallel.shm import FrameHandle, ResultSlot
    from repro.parallel.spec import DetectorSpec

#: Per-process detector cache: spec content hash -> built detector.
#: Lets a pool restart (same spec, same process via fork COW page reuse)
#: and any future in-process reuse skip model rebuild + validation.
_DETECTOR_CACHE: dict[str, Any] = {}


def get_detector(spec: "DetectorSpec") -> Any:
    """Rebuild (or reuse) the detector a spec describes."""
    key = spec.cache_key()
    detector = _DETECTOR_CACHE.get(key)
    if detector is None:
        detector = spec.build()
        _DETECTOR_CACHE[key] = detector
    return detector


def _snapshot_dict(detector: Any, blas_threads: int | None,
                   cores: int) -> dict[str, Any] | None:
    registry = getattr(detector, "telemetry", None)
    if registry is None or not getattr(registry, "enabled", False):
        return None
    if blas_threads is not None:
        registry.set_gauge("parallel.blas_threads", blas_threads)
    registry.set_gauge("parallel.core_share", cores)
    return registry.snapshot().to_dict()


def _serve_frame(
    detector: Any,
    entry: "tuple[int, float, FrameHandle | None, bytes | None, ResultSlot | None]",  # noqa: E501
    free_queue: "Queue[int]",
) -> tuple[int, str, Any, "str | None", float, float, float]:
    """Detect one staged frame; returns its outcome tuple.

    ``(index, status, reply, error, busy_s, cpu_s, t0)`` — the
    per-frame payload of the ``("batch_result", ...)`` message.
    ``busy_s`` is wall time; ``cpu_s`` is the process's CPU time over
    the same interval, every thread included, so a BLAS helper that
    spins shows as ``cpu_s`` above ``busy_s``.  The frame's ring
    slot is freed the moment ``detect()`` returns (or raises): nothing
    reads the view afterwards.  The reply prefers the shared-memory
    result lane (see :func:`~repro.parallel.results.encode_reply`).
    Exceptions never escape — per-frame fault isolation is this
    function's contract, which is what keeps one corrupt frame in a
    batch from failing its batchmates.
    """
    index, t0, handle, payload, rslot = entry
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        try:
            if handle is not None:
                frame = attach_view(handle)
            else:
                frame = pickle.loads(payload)
            result = detector.detect(frame)
        finally:
            if handle is not None:
                free_queue.put(handle.slot)
        return (index, "ok", encode_reply(result, rslot), None,
                time.perf_counter() - start,
                time.process_time() - cpu_start, t0)
    except Exception as exc:  # per-frame fault isolation
        return (index, "failed", None, f"{type(exc).__name__}: {exc}",
                time.perf_counter() - start,
                time.process_time() - cpu_start, t0)


def _skip_frame(
    entry: "tuple[int, float, FrameHandle | None, bytes | None, ResultSlot | None]",  # noqa: E501
    free_queue: "Queue[int]",
) -> tuple[int, str, Any, "str | None", float, float, float]:
    """Answer a frame of an abandoned run ``"stale"``, undetected.

    Its ring slot is freed here; the parent reclaims its result-lane
    slot when it reads the reply.
    """
    index, t0, handle, _, _ = entry
    if handle is not None:
        free_queue.put(handle.slot)
    return (index, "stale", None, None, 0.0, 0.0, t0)


def worker_main(worker_id: int, spec_bytes: bytes,
                task_queue: "Queue[Any]", result_queue: "Queue[Any]",
                free_queue: "Queue[int]", current: "c_longlong",
                workers: int = 1) -> None:
    """Process target: rebuild the detector, then serve frame tasks.

    ``current`` is the pool's shared run generation: a frame staged by
    any other run is answered ``"stale"`` without a ``detect()``.
    ``workers`` is the pool's size, which sets the worker's core share.
    """
    try:
        blas_threads = limit_blas_threads(1)
        spec = pickle.loads(spec_bytes)
        detector = get_detector(spec)
        cores = core_share(workers)
        detector.extractor.cores = cores
    except BaseException as exc:  # startup failure: report, then die
        result_queue.put(
            ("dead", worker_id, f"{type(exc).__name__}: {exc}")
        )
        raise
    try:
        while True:
            task = task_queue.get()
            if task[0] == "stop":
                result_queue.put(
                    ("snapshot", worker_id,
                     _snapshot_dict(detector, blas_threads, cores))
                )
                break
            # N frames, one task message, one combined reply: the
            # fixed per-message costs (queue pickling, pipe write,
            # feeder-thread wakeups) are paid once per batch instead of
            # once per frame.  Outcomes keep batch order; the parent
            # expands them back into per-frame messages.
            _, generation, entries = task
            outcomes = [
                _serve_frame(detector, entry, free_queue)
                if generation == current.value
                else _skip_frame(entry, free_queue)
                for entry in entries
            ]
            result_queue.put(
                ("batch_result", generation, worker_id, outcomes)
            )
    finally:
        detach_all()
