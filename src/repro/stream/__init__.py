"""Streaming frame pipeline with per-frame fault isolation.

The paper's claim is sustained real-time throughput on a *video stream*
(60 fps HDTV, §5); this package is the component that turns the
single-frame detector into a continuous stream consumer:

:class:`StreamPipeline`
    Producer / executor / collector pipeline around
    :meth:`repro.core.MultiScalePedestrianDetector.detect` — N workers
    on a :mod:`repro.parallel` executor, explicit backpressure
    (block / drop-oldest / drop-newest),
    per-frame fault isolation with a consecutive-failure circuit
    breaker, and in-order emission so
    :class:`repro.das.IouTracker` can consume the stream directly.
:class:`SyntheticVideoSource` / :class:`ArraySource`
    Deterministic synthetic dash-cam footage (with NaN-frame fault
    injection) and an adapter for any iterable of frames.
:class:`AdmissionCore`
    Sequence numbers, quota, backpressure policy and ordered ledger —
    the one admission stage under both the stream and
    :mod:`repro.serve`.
:class:`ExecutionBackend`
    Worker execution strategy: in-process threads (default) or the
    shared-memory process pool of :mod:`repro.parallel`
    (``StreamPipeline(..., backend="process")``).

See docs/STREAMING.md for architecture, failure semantics and the
``stream.*`` telemetry keys, and ``repro-das stream`` for the CLI
front-end.
"""

from repro.stream.pipeline import StreamPipeline, StreamRun, track_stream
from repro.stream.ledger import AdmissionCore
from repro.stream.sources import ArraySource, FrameSource, SyntheticVideoSource
from repro.stream.types import (
    BACKENDS,
    BackpressurePolicy,
    ExecutionBackend,
    FrameResult,
    FrameStatus,
    StreamReport,
    validate_backend,
)

__all__ = [
    "BACKENDS",
    "BackpressurePolicy",
    "ExecutionBackend",
    "FrameResult",
    "FrameStatus",
    "StreamReport",
    "AdmissionCore",
    "ArraySource",
    "FrameSource",
    "SyntheticVideoSource",
    "StreamPipeline",
    "StreamRun",
    "track_stream",
    "validate_backend",
]
