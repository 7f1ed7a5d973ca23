"""Image resizing with nearest, bilinear and bicubic interpolation.

The conventional multi-scale HOG+SVM detector (Figure 1 of the paper)
builds an *image pyramid* by repeatedly resizing the input frame; this
module is that substrate.  The coordinate convention is the half-pixel-
center mapping used by OpenCV and MATLAB ``imresize``::

    src = (dst + 0.5) * (in_len / out_len) - 0.5

Interpolation is separable: rows then columns, each axis handled by a
gather with precomputed taps and weights.  Bicubic uses the Catmull-Rom
/ Keys kernel with ``a = -0.5``.

:func:`resize_grid` returns +0.0 for an all-+0.0 feature grid (the
features of a textureless frame) without the resampling passes: every
kernel's output is then a weighted sum of +0.0 divided, for bicubic, by
a positive weight sum, which is +0.0 again.  The test compares bit
patterns, so a grid holding ``-0.0`` takes the normal path.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import ParameterError
from repro.validation import as_float_image, is_positive_zero


class Interpolation(enum.Enum):
    """Interpolation kernel for :func:`resize` and :func:`rescale`."""

    NEAREST = "nearest"
    BILINEAR = "bilinear"
    BICUBIC = "bicubic"


def _source_positions(out_len: int, in_len: int) -> np.ndarray:
    """Half-pixel-center source coordinates for each output index."""
    scale = in_len / out_len
    return (np.arange(out_len) + 0.5) * scale - 0.5


def _cubic_kernel(x: np.ndarray, a: float = -0.5) -> np.ndarray:
    """Keys cubic convolution kernel (Catmull-Rom for ``a = -0.5``)."""
    ax = np.abs(x)
    ax2 = ax * ax
    ax3 = ax2 * ax
    out = np.zeros_like(ax)
    near = ax <= 1.0
    far = (ax > 1.0) & (ax < 2.0)
    out[near] = ((a + 2.0) * ax3 - (a + 3.0) * ax2 + 1.0)[near]
    out[far] = (a * ax3 - 5.0 * a * ax2 + 8.0 * a * ax - 4.0 * a)[far]
    return out


def _interp_axis(
    arr: np.ndarray, out_len: int, axis: int, method: Interpolation
) -> np.ndarray:
    """Resample ``arr`` along ``axis`` to ``out_len`` samples."""
    in_len = arr.shape[axis]
    if out_len == in_len:
        return arr
    moved = np.moveaxis(arr, axis, 0)
    pos = _source_positions(out_len, in_len)

    if method is Interpolation.NEAREST:
        idx = np.clip(np.round(pos), 0, in_len - 1).astype(np.intp)
        out = moved[idx]
        return np.moveaxis(out, 0, axis)

    if method is Interpolation.BILINEAR:
        lo = np.floor(pos).astype(np.intp)
        frac = pos - lo
        i0 = np.clip(lo, 0, in_len - 1)
        i1 = np.clip(lo + 1, 0, in_len - 1)
        w1 = frac.reshape((-1,) + (1,) * (moved.ndim - 1))
        out = moved[i0] * (1.0 - w1) + moved[i1] * w1
        return np.moveaxis(out, 0, axis)

    if method is Interpolation.BICUBIC:
        lo = np.floor(pos).astype(np.intp)
        frac = pos - lo
        out = np.zeros((out_len,) + moved.shape[1:], dtype=np.float64)
        wsum = np.zeros(out_len, dtype=np.float64)
        for tap in (-1, 0, 1, 2):
            idx = np.clip(lo + tap, 0, in_len - 1)
            w = _cubic_kernel(frac - tap)
            wsum += w
            out += moved[idx] * w.reshape((-1,) + (1,) * (moved.ndim - 1))
        # Edge-clamped taps make the weights sum to slightly != 1 at the
        # borders; renormalize so constant images stay constant.
        out /= wsum.reshape((-1,) + (1,) * (moved.ndim - 1))
        return np.moveaxis(out, 0, axis)

    raise ParameterError(f"unsupported interpolation method: {method!r}")


def resize(
    image: np.ndarray,
    out_shape: tuple[int, int],
    method: Interpolation | str = Interpolation.BILINEAR,
) -> np.ndarray:
    """Resize ``image`` to ``out_shape = (height, width)``.

    Works on grayscale ``(H, W)`` and color ``(H, W, C)`` images; the
    channel axis is preserved.

    Parameters
    ----------
    image:
        Input image.
    out_shape:
        Target ``(height, width)``, both strictly positive.
    method:
        Interpolation kernel; a string alias (``"bilinear"`` etc.) is
        also accepted.
    """
    if isinstance(method, str):
        method = Interpolation(method)
    out_h, out_w = int(out_shape[0]), int(out_shape[1])
    if out_h <= 0 or out_w <= 0:
        raise ParameterError(f"out_shape must be positive, got {out_shape}")
    arr = as_float_image(image)
    arr = _interp_axis(arr, out_h, axis=0, method=method)
    arr = _interp_axis(arr, out_w, axis=1, method=method)
    return arr


def resize_grid(
    grid: np.ndarray,
    out_shape: tuple[int, int],
    method: Interpolation | str = Interpolation.BILINEAR,
) -> np.ndarray:
    """Resample a feature grid ``(H, W, ...)`` along its first two axes.

    Unlike :func:`resize` this places no constraint on trailing axes, so
    it can resample HOG cell-histogram grids ``(H, W, n_bins)`` or block
    grids ``(H, W, block_dim)``.  This is the computational core of the
    paper's HOG *feature pyramid*.  An all-+0.0 grid skips the
    resampling (module docstring).
    """
    if isinstance(method, str):
        method = Interpolation(method)
    out_h, out_w = int(out_shape[0]), int(out_shape[1])
    if out_h <= 0 or out_w <= 0:
        raise ParameterError(f"out_shape must be positive, got {out_shape}")
    arr = np.asarray(grid, dtype=np.float64)
    if arr.ndim < 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ParameterError(
            f"grid must be at least 2-D and non-empty, got shape {arr.shape}"
        )
    if isinstance(method, Interpolation) and is_positive_zero(arr):
        # Zeros in the layout each resampled axis would have.
        for axis, out_len in ((0, out_h), (1, out_w)):
            if arr.shape[axis] != out_len:
                moved = np.moveaxis(arr, axis, 0)
                arr = np.moveaxis(
                    np.zeros((out_len,) + moved.shape[1:]), 0, axis)
        return arr
    arr = _interp_axis(arr, out_h, axis=0, method=method)
    arr = _interp_axis(arr, out_w, axis=1, method=method)
    return arr


def rescale(
    image: np.ndarray,
    scale: float,
    method: Interpolation | str = Interpolation.BILINEAR,
) -> np.ndarray:
    """Resize ``image`` by a scalar ``scale`` factor (> 0).

    The output shape is ``round(dim * scale)`` per axis, with a minimum
    of one pixel.  ``scale > 1`` up-samples (the paper's test-set
    up-sampling protocol uses scales 1.1 … 2.0), ``scale < 1``
    down-samples (image-pyramid construction).
    """
    if scale <= 0:
        raise ParameterError(f"scale must be positive, got {scale}")
    h, w = image.shape[:2]
    out_shape = (max(1, round(h * scale)), max(1, round(w * scale)))
    return resize(image, out_shape, method=method)
