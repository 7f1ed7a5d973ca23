"""Spatial filtering: 2-D convolution, separable filters, Gaussian blur.

Used by the synthetic dataset generator (background texture, camera
blur) and by the Sobel/Prewitt gradient options.  Convolution is
implemented with a vectorized sliding-window gather; borders replicate
edge pixels so outputs keep the input shape.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.validation import ensure_grayscale


def _sliding_windows(gray: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """All ``(kh, kw)`` patches of the edge-padded image, shape (H, W, kh, kw)."""
    ph, pw = kh // 2, kw // 2
    padded = np.pad(gray, ((ph, kh - 1 - ph), (pw, kw - 1 - pw)), mode="edge")
    return np.lib.stride_tricks.sliding_window_view(padded, (kh, kw))


def convolve2d(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """2-D convolution (kernel flipped) with edge-replicated borders.

    The output has the same shape as the input.  Kernels may be any
    shape; odd sizes center naturally, even sizes bias half a pixel
    toward the top-left as is conventional.
    """
    gray = ensure_grayscale(image)
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 2 or k.size == 0:
        raise ParameterError(f"kernel must be non-empty 2-D, got shape {k.shape}")
    flipped = k[::-1, ::-1]
    windows = _sliding_windows(gray, k.shape[0], k.shape[1])
    return np.einsum("hwij,ij->hw", windows, flipped)


def separable_filter(
    image: np.ndarray, row_kernel: np.ndarray, col_kernel: np.ndarray
) -> np.ndarray:
    """Apply a separable filter: ``col_kernel`` along rows' axis first?

    Precisely: correlates each *column* direction (axis 0) with
    ``row_kernel`` and each *row* direction (axis 1) with ``col_kernel``,
    equivalent to convolving with ``outer(row_kernel, col_kernel)``.
    """
    rk = np.asarray(row_kernel, dtype=np.float64).ravel()
    ck = np.asarray(col_kernel, dtype=np.float64).ravel()
    if rk.size == 0 or ck.size == 0:
        raise ParameterError("separable kernels must be non-empty")
    return convolve2d(image, np.outer(rk, ck))


def gaussian_kernel1d(sigma: float, radius: int | None = None) -> np.ndarray:
    """Normalized 1-D Gaussian kernel.

    ``radius`` defaults to ``ceil(3 * sigma)`` which captures > 99.7 % of
    the mass.
    """
    if sigma <= 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    if radius is None:
        radius = int(np.ceil(3.0 * sigma))
    if radius < 1:
        radius = 1
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Isotropic Gaussian blur (separable implementation)."""
    k = gaussian_kernel1d(sigma)
    return separable_filter(image, k, k)


def box_blur(image: np.ndarray, size: int) -> np.ndarray:
    """Mean filter over a ``size x size`` neighborhood."""
    if size < 1:
        raise ParameterError(f"box size must be >= 1, got {size}")
    k = np.full((size, size), 1.0 / (size * size))
    return convolve2d(image, k)
