"""Multiprocess execution backend for the streaming pipeline.

The thread backend (`repro.stream`) scales only as far as NumPy's
GIL-released inner loops allow; Python-level work — window bookkeeping,
NMS, small-frame extraction — serializes.  This package is the
process-pool escape hatch, modelled on the worker decomposition of the
GPU pedestrian-detection line of work (Campmany et al. 2016, PAPERS.md):
decouple the stages, give each worker a whole detector, and keep the
frame transport cheap.

:class:`DetectorSpec`
    The picklable detector hand-off (model weights + config) with a
    content hash, so workers warm-start once per process and cache by
    configuration.
:class:`SharedFrameRing` / :class:`FrameHandle`
    Shared-memory ring slots that move frames parent → worker with one
    copy and no pickling of pixel data.  The ring's **result lane**
    (:class:`ResultSlot`, :mod:`repro.parallel.results`) carries the
    detections back the same way: flat-encoded float64 words in shared
    memory, with only a tiny :class:`ResultHandle` crossing the queue.
:class:`ProcessWorkerPool`
    Warm worker processes around :func:`repro.parallel.worker.worker_main`;
    submits frames, yields result/snapshot messages, merges nothing
    itself — the stream pipeline keeps ordering/fault semantics so the
    thread and process backends behave identically.
:func:`limit_blas_threads`
    Pins the OpenBLAS builds loaded in the calling process to a thread
    count.  Every pool worker pins itself to one thread, and so does
    the ``repro-das serve`` process; a library caller that runs the
    thread backend in its own process can call
    ``limit_blas_threads(1)`` too.

Select it per-run with ``StreamPipeline(..., backend="process")`` or
``repro-das stream --backend process``; see docs/STREAMING.md for
when each backend wins, and docs/TELEMETRY.md for the ``parallel.*``
keys.
"""

from repro.parallel.spec import DetectorSpec
from repro.parallel.results import (
    ResultHandle,
    decode_result,
    encode_result,
)
from repro.parallel.shm import (
    SEGMENT_PREFIX,
    FrameHandle,
    ResultSlot,
    SharedFrameRing,
    attach_view,
    detach_all,
    write_result_words,
)
from repro.parallel.pool import ProcessWorkerPool, default_start_method
from repro.parallel.blas import limit_blas_threads

__all__ = [
    "DetectorSpec",
    "SEGMENT_PREFIX",
    "FrameHandle",
    "ResultHandle",
    "ResultSlot",
    "SharedFrameRing",
    "attach_view",
    "decode_result",
    "detach_all",
    "encode_result",
    "write_result_words",
    "ProcessWorkerPool",
    "default_start_method",
    "limit_blas_threads",
]
