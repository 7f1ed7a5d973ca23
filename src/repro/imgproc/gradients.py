"""Image gradients: the first stage of HOG feature extraction.

Implements the centered ``[-1, 0, 1]`` derivative mask that Dalal &
Triggs found optimal for HOG, plus Sobel and Prewitt alternatives, and
the conversion to polar form (magnitude ``m(x, y)`` and unsigned
orientation ``theta(x, y)``, equations (1)-(2) of the paper).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

import numpy as np

from repro.contracts import check_array
from repro.errors import ParameterError
from repro.imgproc.validate import ensure_grayscale

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.arena import BufferArena


#: Pixel budget of one row strip of the streaming extractor kernels,
#: :func:`gradient_polar` and :func:`repro.hog.histogram.cell_histograms`.
#: A strip's temporaries then take a few MB at most, small enough to
#: stay cache-resident.  Frames under the budget run as a single strip.
STRIP_PIXELS = 32768


class GradientFilter(enum.Enum):
    """Derivative mask used by :func:`gradient_xy`."""

    CENTERED = "centered"  # [-1, 0, 1] — the HOG default
    SOBEL = "sobel"
    PREWITT = "prewitt"


def _centered_diff(gray: np.ndarray, axis: int) -> np.ndarray:
    """Centered difference with replicated borders along ``axis``."""
    padded = np.pad(
        gray,
        [(1, 1) if ax == axis else (0, 0) for ax in range(gray.ndim)],
        mode="edge",
    )
    upper = np.take(padded, range(2, padded.shape[axis]), axis=axis)
    lower = np.take(padded, range(0, padded.shape[axis] - 2), axis=axis)
    return (upper - lower) / 2.0


def gradient_xy(
    image: np.ndarray,
    method: GradientFilter | str = GradientFilter.CENTERED,
) -> tuple[np.ndarray, np.ndarray]:
    """Compute horizontal and vertical derivatives ``(fx, fy)``.

    ``fx`` is the derivative along columns (x, horizontal), ``fy`` along
    rows (y, vertical).  Borders are handled by edge replication so the
    output has the same shape as the input.

    Note the CENTERED mask keeps the conventional ``[-1, 0, 1] / 2``
    scaling; HOG is invariant to a common positive scale factor on both
    derivatives because block normalization divides it out.
    """
    if isinstance(method, str):
        method = GradientFilter(method)
    gray = ensure_grayscale(image)

    if method is GradientFilter.CENTERED:
        fx = _centered_diff(gray, axis=1)
        fy = _centered_diff(gray, axis=0)
        return fx, fy

    if method in (GradientFilter.SOBEL, GradientFilter.PREWITT):
        smooth = (
            np.array([1.0, 2.0, 1.0])
            if method is GradientFilter.SOBEL
            else np.array([1.0, 1.0, 1.0])
        )
        # Local import: filters depends only on validate, no cycle.
        from repro.imgproc.filters import separable_filter

        # separable_filter convolves (flips the kernel); writing the
        # derivative tap as [1, 0, -1] realizes correlation with the
        # conventional [-1, 0, 1] mask.
        deriv = np.array([1.0, 0.0, -1.0])
        fx = separable_filter(gray, row_kernel=smooth, col_kernel=deriv)
        fy = separable_filter(gray, row_kernel=deriv, col_kernel=smooth)
        return fx, fy

    raise ParameterError(f"unsupported gradient filter: {method!r}")


def _centered_rows(
    gray: np.ndarray, r0: int, r1: int, fx: np.ndarray, fy: np.ndarray
) -> None:
    """CENTERED ``(fx, fy)`` of rows ``[r0, r1)`` of ``gray`` into strips.

    ``fy`` reads the real rows just above and below the strip, so only
    the frame's first and last rows use edge replication.  Bitwise
    identical to :func:`gradient_xy`'s padded formulation: both compute
    ``(upper - lower) / 2`` (``* 0.5`` is the same exact operation for
    a division by a power of two), and a replicated edge collapses to a
    one-line difference, which is zero on a one-pixel axis.
    """
    h, w = gray.shape
    rows = gray[r0:r1]
    np.subtract(rows[:, 2:], rows[:, :-2], out=fx[:, 1:-1])
    np.subtract(rows[:, min(1, w - 1)], rows[:, 0], out=fx[:, 0])
    np.subtract(rows[:, -1], rows[:, max(w - 2, 0)], out=fx[:, -1])
    lo, hi = max(r0, 1), min(r1, h - 1)  # rows with both neighbours
    if hi > lo:
        np.subtract(gray[lo + 1:hi + 1], gray[lo - 1:hi - 1],
                    out=fy[lo - r0:hi - r0])
    if r0 == 0:
        np.subtract(gray[min(1, h - 1)], gray[0], out=fy[0])
    if r1 == h:
        np.subtract(gray[h - 1], gray[max(h - 2, 0)], out=fy[-1])
    fx *= 0.5
    fy *= 0.5


def _polar_into(
    fx: np.ndarray,
    fy: np.ndarray,
    magnitude: np.ndarray,
    orientation: np.ndarray,
    period: float,
) -> None:
    """Equations (1)-(2) of ``(fx, fy)``, written into the outputs."""
    # sqrt(fx^2 + fy^2) rather than np.hypot: gradients of unit-range
    # images cannot overflow the square, and hypot's overflow-safe
    # scaling costs ~6x on full frames.  orientation doubles as the
    # fy^2 scratch: arctan2 overwrites it right after.
    np.multiply(fy, fy, out=orientation)
    np.multiply(fx, fx, out=magnitude)
    np.add(magnitude, orientation, out=magnitude)
    np.sqrt(magnitude, out=magnitude)
    np.arctan2(fy, fx, out=orientation)  # [-pi, pi]
    # Fold into [0, period) by adding one period to the negatives —
    # arctan2 output needs at most a single wrap, and np.mod costs more
    # than the rest of this function combined.
    np.add(orientation, period, out=orientation, where=orientation < 0.0)
    # The fold can land exactly on the right endpoint (angle == -pi
    # signed, or round-off near zero unsigned); pull it back to 0.
    orientation[orientation >= period] = 0.0


def gradient_polar(
    image: np.ndarray,
    method: GradientFilter | str = GradientFilter.CENTERED,
    *,
    signed: bool = False,
    out_magnitude: np.ndarray | None = None,
    out_orientation: np.ndarray | None = None,
    arena: BufferArena | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient magnitude and orientation per equations (1)-(2).

    ``out_magnitude`` / ``out_orientation`` preallocate the results
    (must both be given or both omitted): float64, the grayscale
    image's shape, C-contiguous, and not aliasing ``image`` — the
    ``out=`` contract of docs/MEMORY.md, violations raise
    :class:`~repro.errors.ParameterError`.

    The CENTERED mask streams through the frame in row strips of about
    :data:`STRIP_PIXELS` pixels, the software counterpart of the
    paper's line buffers: only one strip of ``fx`` / ``fy`` derivative
    scratch is live, taken from the ``imgproc.fx`` / ``imgproc.fy``
    slabs of ``arena`` when one is given.  The result is bitwise equal
    to the :func:`gradient_xy`-based formula at any strip height, with
    or without an arena.  SOBEL and PREWITT run :func:`gradient_xy`
    over the whole frame.

    Returns
    -------
    magnitude:
        ``sqrt(fx**2 + fy**2)``.
    orientation:
        Angle in radians.  Unsigned (the HOG default): folded into
        ``[0, pi)``.  Signed: in ``[0, 2*pi)``.
    """
    check_array(image, "image", ndim=(2, 3))
    if (out_magnitude is None) != (out_orientation is None):
        raise ParameterError(
            "gradient_polar: out_magnitude and out_orientation must be "
            "given together"
        )
    gray = ensure_grayscale(image)
    if out_magnitude is None or out_orientation is None:
        out_magnitude = np.empty(gray.shape)
        out_orientation = np.empty(gray.shape)
    else:
        from repro.arena import check_out

        check_out(out_magnitude, "gradient_polar", gray.shape,
                  np.float64, image, out_orientation)
        check_out(out_orientation, "gradient_polar", gray.shape,
                  np.float64, image)
    if isinstance(method, str):
        method = GradientFilter(method)
    period = 2.0 * np.pi if signed else np.pi
    if method is not GradientFilter.CENTERED:
        fx, fy = gradient_xy(gray, method=method)
        _polar_into(fx, fy, out_magnitude, out_orientation, period)
        return out_magnitude, out_orientation

    h, w = gray.shape
    strip = max(1, min(h, STRIP_PIXELS // w))
    if arena is None:
        fx_strip = np.empty((strip, w))
        fy_strip = np.empty((strip, w))
    else:
        fx_strip = arena.get("imgproc.fx", (strip, w))
        fy_strip = arena.get("imgproc.fy", (strip, w))
    for r0 in range(0, h, strip):
        r1 = min(r0 + strip, h)
        fx, fy = fx_strip[:r1 - r0], fy_strip[:r1 - r0]
        _centered_rows(gray, r0, r1, fx, fy)
        _polar_into(fx, fy, out_magnitude[r0:r1], out_orientation[r0:r1],
                    period)
    return out_magnitude, out_orientation
