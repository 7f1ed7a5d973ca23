"""Record types shared across the streaming pipeline.

The stream layer communicates exclusively through immutable records:
every frame that enters the pipeline produces exactly one
:class:`FrameResult` (detections, an isolated failure, or a
backpressure drop), and a finished run distills into one
:class:`StreamReport`.  Keeping these as plain frozen dataclasses means
the worker threads never share mutable state with the consumer.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.detect.types import Detection, DetectionResult
from repro.errors import ParameterError
from repro.validation import validate_choice


class BackpressurePolicy(enum.Enum):
    """What admission does with a frame that would exceed the quota of
    frames admitted but not yet emitted
    (:class:`~repro.stream.ledger.AdmissionCore`).

    ``BLOCK``
        The producer waits until a frame is emitted — no frame is ever
        lost, but a slow detector stalls capture (lab / offline
        semantics).
    ``DROP_OLDEST``
        The oldest frame no worker holds yet is evicted to admit the
        new one — the live-video semantics: stale frames are worthless
        to a DAS, so latency is bounded at the cost of completeness.
        With every pending frame on a worker, the new one is refused.
    ``DROP_NEWEST``
        The incoming frame is refused — cheapest under burst load;
        admitted frames keep their place.
    """

    BLOCK = "block"
    DROP_OLDEST = "drop-oldest"
    DROP_NEWEST = "drop-newest"


class ExecutionBackend(enum.Enum):
    """Where the pipeline runs its detection workers.

    ``THREAD``
        Worker threads in-process.  NumPy releases the GIL inside the
        classifier's dot products, so threads scale while that work
        dominates; zero hand-off cost, shared read-only model.
    ``PROCESS``
        A warm :class:`~repro.parallel.ProcessWorkerPool`: one detector
        per worker process, frames moved over shared-memory ring slots.
        Sidesteps the GIL entirely — the win when Python-level work
        (window bookkeeping, NMS, small-frame extraction) bounds the
        thread backend.  See docs/STREAMING.md for selection guidance.
    """

    THREAD = "thread"
    PROCESS = "process"


#: Accepted backend strings, in declaration order (CLI ``choices`` and
#: error messages both derive from this).
BACKENDS = tuple(backend.value for backend in ExecutionBackend)


def validate_backend(
    backend: "ExecutionBackend | str",
) -> ExecutionBackend:
    """Coerce a backend name to :class:`ExecutionBackend`, else raise.

    The single gatekeeper for backend strings — the pipeline and the
    CLI both route through here, so accepted values and the
    :class:`~repro.errors.ParameterError` message cannot drift.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    validate_choice(backend, BACKENDS, "backend")
    return ExecutionBackend(backend)


class FrameStatus(enum.Enum):
    """Terminal state of one frame's trip through the pipeline."""

    OK = "ok"
    FAILED = "failed"
    DROPPED = "dropped"


@dataclasses.dataclass(frozen=True)
class FrameResult:
    """Outcome of one frame, emitted in frame-index order.

    Attributes
    ----------
    index:
        Zero-based position of the frame in the source stream.
    status:
        ``OK`` (detections valid), ``FAILED`` (the detector raised; the
        error is captured, the stream continued) or ``DROPPED`` (the
        backpressure policy discarded the frame before detection).
    detections:
        Detections for ``OK`` frames; empty otherwise.
    result:
        The full :class:`~repro.detect.types.DetectionResult` for ``OK``
        frames (timings, window counts); ``None`` otherwise.
    error:
        ``"ExceptionType: message"`` for ``FAILED`` frames.
    latency_s:
        End-to-end seconds from frame capture (read from the source) to
        in-order emission; 0.0 for dropped frames.
    worker:
        Index of the worker that processed the frame (``None`` for
        dropped frames, which never reach a worker).
    """

    index: int
    status: FrameStatus
    detections: tuple[Detection, ...] = ()
    result: DetectionResult | None = None
    error: str | None = None
    latency_s: float = 0.0
    worker: int | None = None

    @property
    def ok(self) -> bool:
        return self.status is FrameStatus.OK

    def to_dict(self) -> dict:
        """Compact JSON-ready view (detections summarized to a count)."""
        return {
            "index": self.index,
            "status": self.status.value,
            "n_detections": len(self.detections),
            "error": self.error,
            "latency_ms": self.latency_s * 1e3,
            "worker": self.worker,
        }


@dataclasses.dataclass(frozen=True)
class StreamReport:
    """Aggregate statistics of one completed (or aborted) stream run.

    ``frames_in == frames_ok + frames_failed + frames_dropped`` for a
    run that drained completely; an aborted run (circuit breaker,
    consumer walked away) may leave frames unaccounted.

    ``queue_depth_max``/``queue_depth_mean`` summarize the frames
    pending (admitted, not yet emitted) at each admission.

    ``worker_cpu_s`` sums the CPU seconds the workers spent detecting,
    next to the wall seconds behind ``worker_utilization``.  A process
    worker counts its whole process (BLAS helper threads included), a
    thread worker only its own thread.
    """

    frames_in: int
    frames_ok: int
    frames_failed: int
    frames_dropped: int
    workers: int
    policy: str
    elapsed_s: float
    achieved_fps: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_max_ms: float
    queue_depth_max: float
    queue_depth_mean: float
    worker_utilization: float
    backend: str = ExecutionBackend.THREAD.value
    worker_cpu_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("frames_in", "frames_ok", "frames_failed",
                     "frames_dropped"):
            if getattr(self, name) < 0:
                raise ParameterError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )

    @property
    def frames_out(self) -> int:
        """Results emitted (every status counts as an emission)."""
        return self.frames_ok + self.frames_failed + self.frames_dropped

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)
