"""Input validation helpers shared by the image-processing functions.

These are the always-on gatekeepers (they raise :class:`ImageError`
regardless of environment); each additionally routes through
:func:`repro.contracts.check_array`, so they double as stage-boundary
contract declarations and satisfy the ``ndarray-boundary-contract``
lint rule for every caller.
"""

from __future__ import annotations

import numpy as np

from repro.contracts import check_array
from repro.errors import ImageError


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
    # The checks above already guarantee this contract; restating it
    # through check_array declares the boundary for REPRO_CONTRACTS.
    return check_array(out, name, ndim=(2, 3), dtype=np.float64,
                       finite=True)


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
    check_array(image, name, ndim=(2, 3))


def is_positive_zero(array: np.ndarray) -> bool:
    """True if every element of the float64 ``array`` is exactly +0.0.

    Compares bit patterns, so ``-0.0`` (and NaN) count as nonzero: the
    extractor kernels skip only input on which their arithmetic is
    known to give +0.0.  The first row is tested on its own first, so
    textured input usually costs a fraction of a pass, and all-zero
    input one pass (an unsigned max, the cheapest full reduction).
    An empty array counts as all +0.0.
    """
    check_array(array, "array", dtype=np.float64)
    bits = array.view(np.uint64)
    return not bits[:1].max(initial=0) and not bits.max(initial=0)


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
    return check_array(canvas, name, ndim=2, dtype=np.float64)
