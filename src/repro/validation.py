"""Always-on input validation shared across the package.

One module holds every check that guards a public entry point; each
runs on every call and raises the same exception type whatever the
environment:

* :func:`validate_choice` — string choices (scorer / backend / strategy
  names) accepted by ``DetectorConfig``, the CLI and the stream
  pipeline, so the accepted values and the error message cannot drift
  apart between entry points (:class:`~repro.errors.ParameterError`).
* :func:`as_float_image`, :func:`ensure_grayscale`,
  :func:`require_min_size`, :func:`check_canvas` — the image
  gatekeepers of :mod:`repro.imgproc` and the HOG extractor
  (:class:`~repro.errors.ImageError`); ``repro.imgproc`` re-exports
  them.
* :func:`check_out` — the ``out=`` destination contract of every
  kernel that can write into a caller's buffer (docs/MEMORY.md,
  :class:`~repro.errors.ParameterError`).
* :func:`is_positive_zero` — the bit-pattern test behind the extractor
  kernels' zero-skip paths.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ImageError, ParameterError

__all__ = [
    "as_float_image",
    "check_canvas",
    "check_out",
    "ensure_grayscale",
    "is_positive_zero",
    "require_min_size",
    "validate_choice",
]


def validate_choice(value: str, choices: Sequence[str], name: str) -> str:
    """Return ``value`` if it is one of ``choices``, else raise.

    Raises :class:`~repro.errors.ParameterError` with a message naming
    the parameter and the full accepted set.
    """
    if value not in choices:
        raise ParameterError(
            f"{name} must be one of {tuple(choices)}, got {value!r}"
        )
    return value


def as_float_image(image: np.ndarray, *, name: str = "image") -> np.ndarray:
    """Validate ``image`` and return it as a float64 array.

    Accepts 2-D grayscale or 3-D ``(H, W, C)`` arrays with 1, 3 or 4
    channels.  Integer inputs are converted to float64 *without*
    rescaling (use :func:`repro.imgproc.from_uint8` for ``[0, 255]`` →
    ``[0, 1]`` conversion).

    Raises
    ------
    ImageError
        If the array is empty, has an unsupported number of dimensions
        or channels, or contains non-finite values.
    """
    arr = np.asarray(image)
    if arr.ndim not in (2, 3):
        raise ImageError(
            f"{name} must be 2-D or 3-D, got {arr.ndim}-D shape {arr.shape}"
        )
    if arr.size == 0:
        raise ImageError(f"{name} is empty (shape {arr.shape})")
    if arr.ndim == 3 and arr.shape[2] not in (1, 3, 4):
        raise ImageError(
            f"{name} has {arr.shape[2]} channels; expected 1, 3 or 4"
        )
    out = arr.astype(np.float64, copy=False)
    if not np.all(np.isfinite(out)):
        raise ImageError(f"{name} contains NaN or infinite pixel values")
    return out


def ensure_grayscale(image: np.ndarray, *, name: str = "image") -> np.ndarray:
    """Validate ``image`` and collapse it to a 2-D float64 grayscale array.

    Color inputs are converted with the ITU-R BT.601 luma weights; a
    trailing singleton channel axis is squeezed away.
    """
    arr = as_float_image(image, name=name)
    if arr.ndim == 2:
        return arr
    if arr.shape[2] == 1:
        return arr[:, :, 0]
    # Local import avoids a circular dependency at module-import time.
    from repro.imgproc.convert import rgb_to_gray

    return rgb_to_gray(arr)


def require_min_size(
    image: np.ndarray, min_height: int, min_width: int, *, name: str = "image"
) -> None:
    """Raise :class:`ImageError` if ``image`` is smaller than the minimum."""
    h, w = image.shape[:2]
    if h < min_height or w < min_width:
        raise ImageError(
            f"{name} is {h}x{w}; the operation requires at least "
            f"{min_height}x{min_width}"
        )


def check_canvas(canvas: np.ndarray, *, name: str = "canvas") -> np.ndarray:
    """Validate an in-place drawing target: a 2-D float64 array.

    The drawing primitives mutate their canvas, so unlike
    :func:`as_float_image` no converting copy is acceptable — the input
    must already be float64.
    """
    if not isinstance(canvas, np.ndarray) or canvas.dtype != np.float64:
        raise ImageError(f"{name} must be a float64 numpy array")
    if canvas.ndim != 2:
        raise ImageError(
            f"drawing requires a 2-D grayscale {name}, got shape "
            f"{canvas.shape}"
        )
    return canvas


def check_out(
    out: np.ndarray,
    name: str,
    shape: tuple[int, ...],
    dtype: np.dtype,
    *aliases: np.ndarray,
) -> np.ndarray:
    """Validate an ``out=`` destination against the kernel's contract.

    The single gatekeeper behind every ``out=`` kernel parameter
    (docs/MEMORY.md, "out= kernel conventions"): ``out`` must match the
    result's exact ``shape`` and ``dtype``, be writable and
    C-contiguous (kernels fill it with strided in-place ops that assume
    the default layout), and must not share memory with any of the
    kernel's input arrays (``aliases``) — an aliased destination would
    let partially-written results feed back into the same kernel's
    reads.  Violations raise :class:`~repro.errors.ParameterError`.
    """
    if not isinstance(out, np.ndarray):
        raise ParameterError(
            f"{name}: out= must be an ndarray, got {type(out).__name__}"
        )
    if tuple(out.shape) != tuple(shape):
        raise ParameterError(
            f"{name}: out= has shape {tuple(out.shape)}, expected "
            f"{tuple(shape)}"
        )
    if out.dtype != np.dtype(dtype):
        raise ParameterError(
            f"{name}: out= has dtype {out.dtype}, expected "
            f"{np.dtype(dtype)}"
        )
    if not out.flags.writeable:
        raise ParameterError(f"{name}: out= is not writable")
    if not out.flags.c_contiguous:
        raise ParameterError(f"{name}: out= must be C-contiguous")
    for other in aliases:
        if other is not None and np.shares_memory(out, other):
            raise ParameterError(
                f"{name}: out= shares memory with an input array; "
                f"aliased destinations are not supported"
            )
    return out


def is_positive_zero(array: np.ndarray) -> bool:
    """True if every element of the float64 ``array`` is exactly +0.0.

    Compares bit patterns, so ``-0.0`` (and NaN) count as nonzero: the
    extractor kernels skip only input on which their arithmetic is
    known to give +0.0.  The first row is tested on its own first, so
    textured input usually costs a fraction of a pass, and all-zero
    input one pass (an unsigned max, the cheapest full reduction).
    An empty array counts as all +0.0.
    """
    bits = array.view(np.uint64)
    return not bits[:1].max(initial=0) and not bits.max(initial=0)
