"""Per-worker preallocated buffer arena for the frame hot path.

After the partial-score scorer and its exact early-reject cascade,
the remaining steady-state cost of the frame path is
allocation: every frame allocated fresh gradient, histogram, block and
partial-score arrays even though consecutive frames of one stream have
identical shapes.  The paper's hardware (and the 58.6 mW DPM detector
of Suleiman et al., PAPERS.md) sidesteps this with fixed on-chip
buffers sized once for the configured resolution; :class:`BufferArena`
is the software transcription of that discipline.

An arena is a named collection of byte slabs.  Hot kernels request a
buffer by *name* (``arena.get("hog.magnitude", shape, dtype)``) and
receive an ndarray view over the slab registered under that name; the
slab is allocated on first use, grown when a larger shape arrives, and
**reused verbatim** on every later request — after the first frame
(warmup) the steady state performs no hot-path slab allocations at
all.  Keying is plan-style, like
:func:`repro.detect.scoring.plan_for`: the slab's identity is the
buffer's *role* in the pipeline, while the effective (shape, dtype)
key of a stream is whatever the current frame geometry and scale
ladder demand — a shape change shows up as an ``arena.resizes`` (grow)
or an ``arena.fallback_alloc`` (capped arena) instead of silently
churning the allocator.

Ownership contract (docs/MEMORY.md): an arena has a **single owner** —
one detector (and the extractor/scaler it owns) on one thread.  Buffers
returned by :meth:`BufferArena.get` are valid until the same name is
requested again; the detector stack requests each name at most once per
frame, so arena-backed arrays are frame-lifetime.  Arenas are never
shared across threads (the stream pipeline clones one detector — hence
one arena — per worker) and never cross the process boundary (each
pool worker rebuilds its detector, and with it a private arena, from
the pickled :class:`~repro.parallel.DetectorSpec`).

Telemetry (all ``arena.*``, docs/TELEMETRY.md): ``arena.hits`` /
``arena.misses`` / ``arena.resizes`` counters, ``arena.fallback_alloc``
for requests a capped arena declined, and the ``arena.slab_bytes``
gauge tracking total bytes held.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.telemetry import MetricsRegistry, NULL_TELEMETRY

__all__ = ["BufferArena", "scratch"]


class BufferArena:
    """Named, growable byte slabs serving preallocated ndarray views.

    Parameters
    ----------
    telemetry:
        Optional :class:`~repro.telemetry.MetricsRegistry`; every
        request is counted (``arena.hits`` / ``arena.misses`` /
        ``arena.resizes`` / ``arena.fallback_alloc``) and the total
        held bytes are published as the ``arena.slab_bytes`` gauge.
    max_bytes:
        Optional cap on the total bytes the arena may hold.  A request
        that would push the arena past the cap is served by a plain
        allocation instead (counted as ``arena.fallback_alloc``) — the
        degenerate-but-safe path for one-off shape excursions (e.g. a
        single oversized frame in a stream).  ``None`` (default) means
        uncapped: the arena grows to the high-water mark of its
        workload and stays there.

    Not thread-safe by design — see the module docstring's ownership
    contract.  An arena is as cheap to construct as a dict; sharing one
    across threads to save its footprint buys a data race, not memory.
    """

    def __init__(
        self,
        telemetry: MetricsRegistry | None = None,
        *,
        max_bytes: int | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ParameterError(
                f"max_bytes must be >= 0, got {max_bytes}"
            )
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        self.max_bytes = max_bytes
        self._slabs: dict[str, np.ndarray] = {}
        self.hits = 0
        self.misses = 0
        self.resizes = 0
        self.fallback_allocs = 0

    @property
    def slab_bytes(self) -> int:
        """Total bytes currently held across all named slabs."""
        return sum(s.nbytes for s in self._slabs.values())

    @property
    def names(self) -> tuple[str, ...]:
        """Registered slab names, in first-request order."""
        return tuple(self._slabs)

    def capacity(self, name: str) -> int:
        """Byte capacity of the slab registered under ``name`` (0 if none)."""
        slab = self._slabs.get(name)
        return 0 if slab is None else slab.nbytes

    def get(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type | str = np.float64,
    ) -> np.ndarray:
        """A writable ``(shape, dtype)`` array backed by the ``name`` slab.

        The returned array's contents are **undefined** (whatever the
        previous user of the slab left behind); callers that need zeros
        must fill it themselves (:meth:`zeros`).  It is valid until the
        next ``get`` of the same name — requesting a name invalidates
        the view handed out for it before.
        """
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        slab = self._slabs.get(name)
        tm = self.telemetry
        if slab is not None and slab.nbytes >= nbytes:
            self.hits += 1
            if tm.enabled:
                tm.inc("arena.hits")
        else:
            grow = nbytes - (0 if slab is None else slab.nbytes)
            if (self.max_bytes is not None
                    and self.slab_bytes + grow > self.max_bytes):
                # Over the cap: serve a one-off plain allocation rather
                # than evicting a slab another stage still references.
                self.fallback_allocs += 1
                if tm.enabled:
                    tm.inc("arena.fallback_alloc")
                return np.empty(shape, dtype=dtype)
            if slab is None:
                self.misses += 1
                if tm.enabled:
                    tm.inc("arena.misses")
            else:
                self.resizes += 1
                if tm.enabled:
                    tm.inc("arena.resizes")
            slab = np.empty(nbytes, dtype=np.uint8)
            self._slabs[name] = slab
            if tm.enabled:
                tm.set_gauge("arena.slab_bytes", float(self.slab_bytes))
        return np.ndarray(shape, dtype=dtype, buffer=slab)

    def zeros(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type | str = np.float64,
    ) -> np.ndarray:
        """Like :meth:`get`, but zero-filled (in place, no allocation)."""
        out = self.get(name, shape, dtype)
        out.fill(0)
        return out

    def release_all(self) -> None:
        """Drop every slab (views handed out before become dangling)."""
        self._slabs.clear()
        if self.telemetry.enabled:
            self.telemetry.set_gauge("arena.slab_bytes", 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BufferArena(slabs={len(self._slabs)}, "
            f"bytes={self.slab_bytes}, hits={self.hits}, "
            f"misses={self.misses}, resizes={self.resizes})"
        )


def scratch(
    arena: BufferArena | None,
    name: str,
    shape: tuple[int, ...],
    dtype: np.dtype | type | str = np.float64,
) -> np.ndarray:
    """Uninitialised scratch: the ``name`` slab of ``arena``, or, without
    an arena, a fresh array."""
    if arena is None:
        return np.empty(shape, dtype=dtype)
    return arena.get(name, shape, dtype)
