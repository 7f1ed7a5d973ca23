"""Exception hierarchy shared across the ``repro`` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ImageError(ReproError):
    """An image does not satisfy the requirements of an operation.

    Raised for wrong dimensionality, empty arrays, non-finite pixels, or
    unsupported dtypes.
    """


class ShapeError(ReproError):
    """An array has an incompatible shape for the requested operation."""


class ParameterError(ReproError):
    """A configuration parameter is out of its valid domain."""


class TrainingError(ReproError):
    """SVM training could not proceed (degenerate labels, empty data...)."""


class HardwareConfigError(ReproError):
    """A hardware model was configured inconsistently.

    Examples: a fixed-point format with zero total bits, a classifier
    array whose MACBAR count does not match the window block layout, or a
    memory bank count that does not divide the cell-group pattern.
    """


class ScheduleError(ReproError):
    """The hardware timing model detected an impossible schedule."""


class StreamError(ReproError):
    """The streaming pipeline could not continue.

    Raised for misuse of a closed frame queue, a failed batch in
    ``detect_batch``, or — via :class:`CircuitBreakerOpen` — a tripped
    failure circuit breaker.
    Per-frame detection failures do *not* raise; they are isolated into
    ``FrameResult(status=FAILED)`` records.
    """


class CircuitBreakerOpen(StreamError):
    """Too many consecutive frames failed; the stream was aborted."""


class ServeError(StreamError):
    """The serving front end refused an operation.

    Raised for submitting to a closed session, opening a session on a
    draining service, or malformed serving configuration.  Per-frame
    detection failures never raise here either — they surface as
    ``FrameResult(status=FAILED)`` records on the owning session only.
    """


class ParallelError(StreamError):
    """The multiprocess execution backend could not continue.

    Raised for a worker pool that lost its processes, a shared-memory
    ring used after :meth:`close`, or a detector hand-off that cannot be
    pickled.  Per-frame detection failures inside a worker do *not*
    raise; they come back as ``FrameResult(status=FAILED)`` records,
    exactly like the thread backend.
    """
