"""Shared-memory frame transport for the process backend.

Frames are the only large objects that cross the parent/worker boundary
(a 1080p float64 frame is ~16 MiB; the detections coming back are a few
hundred bytes), so they are the only thing worth moving over
``multiprocessing.shared_memory`` instead of the pickle channel.  The
transport is a fixed ring of equally-sized slots inside one shared
segment:

* the parent acquires a free slot index from a multiprocessing queue,
  copies the frame's bytes into the slot, and sends a tiny
  :class:`FrameHandle` (segment name, slot, shape, dtype) down the task
  queue — one copy, no pickling of pixel data;
* the worker maps the slot as a read-only ndarray view, runs the
  detector directly on the view (zero copy), and returns the slot index
  to the free queue when the frame is done.

A frame larger than the slot size does not break the pipeline — the
caller falls back to pickling that frame (see
``ProcessWorkerPool.submit``), it just loses the zero-copy fast path.

Cleanup discipline: the parent owns the segment and is the only side
that ever unlinks it.  Worker-side attachments deliberately suppress
``multiprocessing.resource_tracker`` registration (Python < 3.13
registers every attach), otherwise the first worker to exit would tear
the segment down under everyone else — and the CI leak check
(`parallel-smoke`) would still find tracker-spawned warnings.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import secrets
from multiprocessing import shared_memory
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from multiprocessing.queues import Queue

from repro.contracts import check_array
from repro.errors import ParallelError

#: Prefix of every segment this module creates; the CI smoke job greps
#: /dev/shm for it to assert nothing leaked.
SEGMENT_PREFIX = "repro-shm"

#: Slot sizes are rounded up to this granularity (one page).
_SLOT_ALIGN = 4096


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker tracking.

    On Python < 3.13 ``SharedMemory(name=...)`` registers the segment
    with the resource tracker; when the attaching process exits, the
    tracker "cleans up" — unlinking a segment the parent still owns.
    ``track=False`` exists only from 3.13.  Unregistering *after* the
    attach is also wrong: under the fork start method all processes
    share one tracker, so a worker's unregister would erase the
    parent's own registration and its eventual ``unlink()`` would spew
    tracker KeyErrors.  Suppress registration during the attach
    instead; the patch window is worker-side and single-threaded.
    """
    try:
        from multiprocessing import resource_tracker
    except Exception:
        return shared_memory.SharedMemory(name=name)
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


@dataclasses.dataclass(frozen=True)
class FrameHandle:
    """Locator of one frame inside a shared ring (cheap to pickle)."""

    segment: str
    slot: int
    offset: int
    shape: tuple[int, ...]
    dtype: str


@dataclasses.dataclass(frozen=True)
class ResultSlot:
    """Locator of one result-lane slot lent to a frame at submit time.

    Travels parent→worker alongside the frame; the worker writes the
    frame's flat-encoded result (:mod:`repro.parallel.results`) at
    ``offset`` if it fits in ``capacity`` bytes.  The free list is
    parent-local (only the parent acquires and releases result slots —
    a slot is freed when the parent has decoded, or discarded, the
    frame's result message), so unlike frame slots no multiprocessing
    queue is involved.
    """

    segment: str
    slot: int
    offset: int
    capacity: int


class SharedFrameRing:
    """Parent-side ring of shared-memory frame slots.

    Parameters
    ----------
    slots:
        Number of slots; bounds the frames concurrently in flight
        (queued for a worker or being detected on).
    slot_bytes:
        Capacity of one slot; frames up to this size travel zero-copy.
    free_queue:
        Multiprocessing queue carrying free slot indices.  Created by
        the pool (it must reach the workers through ``Process`` args)
        and preloaded here.
    result_slots, result_slot_bytes:
        Optional result lane: ``result_slots`` extra slots of
        ``result_slot_bytes`` each at the tail of the same segment,
        through which workers return flat-encoded detection results
        (:mod:`repro.parallel.results`) instead of pickling them.
        Zero (the default) disables the lane.  Result slots are managed
        by a parent-local free list — see :class:`ResultSlot`.
    """

    def __init__(
        self, slots: int, slot_bytes: int, free_queue: Queue[int],
        *,
        result_slots: int = 0,
        result_slot_bytes: int = 0,
    ) -> None:
        if slots < 1:
            raise ParallelError(f"slots must be >= 1, got {slots}")
        if slot_bytes < 1:
            raise ParallelError(f"slot_bytes must be >= 1, got {slot_bytes}")
        if result_slots < 0:
            raise ParallelError(
                f"result_slots must be >= 0, got {result_slots}"
            )
        if result_slots and result_slot_bytes < 1:
            raise ParallelError(
                f"result_slot_bytes must be >= 1 with a result lane, got "
                f"{result_slot_bytes}"
            )
        self.slots = int(slots)
        self.slot_bytes = (
            (int(slot_bytes) + _SLOT_ALIGN - 1) // _SLOT_ALIGN * _SLOT_ALIGN
        )
        # Result slots hold flat float64 words, so word alignment is
        # all the dtype needs; page-rounding them like frame slots
        # would multiply the lane's footprint ~64x for nothing.
        self.result_slots = int(result_slots)
        self.result_slot_bytes = 0 if not result_slots else (
            (int(result_slot_bytes) + 7) // 8 * 8
        )
        self._result_base = self.slots * self.slot_bytes
        self._free_results: collections.deque[int] = collections.deque(
            range(self.result_slots)
        )
        self._free = free_queue
        name = f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
        self._shm = shared_memory.SharedMemory(
            create=True,
            size=(self._result_base
                  + self.result_slots * self.result_slot_bytes),
            name=name,
        )
        self._closed = False
        for i in range(self.slots):
            self._free.put(i)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def closed(self) -> bool:
        return self._closed

    def fits(self, frame: np.ndarray) -> bool:
        return frame.nbytes <= self.slot_bytes

    def acquire(self, timeout: float | None = None) -> int | None:
        """Next free slot index; ``None`` on timeout."""
        import queue as _queue

        if self._closed:
            raise ParallelError("acquire() on a closed SharedFrameRing")
        try:
            return self._free.get(timeout=timeout)
        except _queue.Empty:
            return None

    def write(self, slot: int, frame: np.ndarray) -> FrameHandle:
        """Copy ``frame`` into ``slot`` and return its handle."""
        if self._closed:
            raise ParallelError("write() on a closed SharedFrameRing")
        # Boundary contract (env-gated): the ring carries raw ndarrays
        # of any shape/dtype — including deliberately corrupt frames,
        # whose faults must surface in the worker's detect(), not here.
        check_array(frame, "frame")
        frame = np.asarray(frame)
        if frame.nbytes > self.slot_bytes:
            raise ParallelError(
                f"frame of {frame.nbytes} bytes exceeds the "
                f"{self.slot_bytes}-byte slot; use the pickle fallback"
            )
        offset = slot * self.slot_bytes
        # A 0-d frame travels as shape (1,), the shape the pickle
        # fallback's np.ascontiguousarray gives it.
        shape = frame.shape or (1,)
        view = np.ndarray(
            shape, dtype=frame.dtype, buffer=self._shm.buf, offset=offset,
        )
        # One pass: the assignment converts any layout (Fortran order,
        # slices) to the slot's C order, with no contiguous temporary.
        view[...] = frame
        return FrameHandle(
            segment=self._shm.name,
            slot=slot,
            offset=offset,
            shape=tuple(int(s) for s in shape),
            dtype=frame.dtype.str,
        )

    def release(self, slot: int) -> None:
        """Return a slot to the free pool (parent-side convenience)."""
        self._free.put(slot)

    # -- Result lane (parent side) ------------------------------------------

    def acquire_result(self) -> ResultSlot | None:
        """Lend a result-lane slot, or ``None`` if the lane is dry.

        Non-blocking by design: a frame without a result slot simply
        gets its result back over the pickle channel — the lane is an
        opportunistic fast path, never a point of backpressure.
        """
        if self._closed:
            raise ParallelError("acquire_result() on a closed SharedFrameRing")
        if not self._free_results:
            return None
        slot = self._free_results.popleft()
        return ResultSlot(
            segment=self._shm.name,
            slot=slot,
            offset=self._result_base + slot * self.result_slot_bytes,
            capacity=self.result_slot_bytes,
        )

    def release_result(self, slot: int) -> None:
        """Return a result-lane slot to the parent-local free list."""
        self._free_results.append(slot)

    def read_result(self, rslot: ResultSlot, n_words: int) -> np.ndarray:
        """Copy ``n_words`` float64 words out of a lent result slot.

        Returns an owning copy: the caller releases the slot right
        after, so a view would dangle.
        """
        if self._closed:
            raise ParallelError("read_result() on a closed SharedFrameRing")
        nbytes = n_words * np.dtype(np.float64).itemsize
        if n_words < 0 or nbytes > rslot.capacity:
            raise ParallelError(
                f"result of {n_words} words exceeds the "
                f"{rslot.capacity}-byte result slot"
            )
        view = np.ndarray(
            (n_words,), dtype=np.float64, buffer=self._shm.buf,
            offset=rslot.offset,
        )
        return view.copy()

    def close(self) -> None:
        """Unmap and unlink the segment (idempotent, parent only)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        finally:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass


# -- Worker side -----------------------------------------------------------

#: Per-process cache of attached segments, keyed by segment name.  One
#: attach per worker per ring, reused for every frame.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def _attach_cached(segment: str) -> shared_memory.SharedMemory:
    """The worker's cached attachment of ``segment`` (attach on first use)."""
    shm = _ATTACHED.get(segment)
    if shm is None:
        shm = _attach_untracked(segment)
        _ATTACHED[segment] = shm
    return shm


def attach_view(handle: FrameHandle) -> np.ndarray:
    """Map the frame a handle points at (worker side, zero copy).

    The returned array aliases the shared slot: it is only valid until
    the slot index is returned to the free queue.
    """
    shm = _attach_cached(handle.segment)
    view = np.ndarray(
        handle.shape,
        dtype=np.dtype(handle.dtype),
        buffer=shm.buf,
        offset=handle.offset,
    )
    # Boundary contract (env-gated): mirror of the write() side — the
    # mapped view must be a real ndarray of the handle's declared
    # geometry, nothing stricter (corrupt pixel *values* are the
    # detector's fault domain, not the transport's).
    return check_array(view, "frame")


def write_result_words(rslot: "ResultSlot", words: np.ndarray) -> bool:
    """Copy a flat-encoded result into a lent result slot (worker side).

    Returns False — leaving the slot untouched — when ``words`` exceeds
    the slot's capacity; the caller then falls back to the pickle
    channel (``parallel.results_pickled``).
    """
    check_array(words, "words", ndim=1, dtype=np.float64)
    if words.nbytes > rslot.capacity:
        return False
    shm = _attach_cached(rslot.segment)
    view = np.ndarray(
        words.shape, dtype=np.float64, buffer=shm.buf, offset=rslot.offset
    )
    view[...] = words
    return True


def detach_all() -> None:
    """Close every cached attachment (worker shutdown path)."""
    for shm in _ATTACHED.values():
        try:
            shm.close()
        except Exception:
            pass
    _ATTACHED.clear()
