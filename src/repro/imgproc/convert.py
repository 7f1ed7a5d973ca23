"""Color-space and intensity conversions."""

from __future__ import annotations

import numpy as np

from repro.errors import ImageError, ParameterError
from repro.validation import as_float_image

# ITU-R BT.601 luma weights, the convention used by both OpenCV's
# cvtColor(BGR2GRAY) and MATLAB's rgb2gray.
_LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])


def rgb_to_gray(image: np.ndarray) -> np.ndarray:
    """Convert an ``(H, W, 3)`` RGB image to ``(H, W)`` grayscale.

    Uses the ITU-R BT.601 weights (0.299 R + 0.587 G + 0.114 B), matching
    MATLAB's ``rgb2gray`` which the paper's reference flow used.
    """
    arr = as_float_image(image)
    if arr.ndim != 3 or arr.shape[2] < 3:
        raise ImageError(
            f"rgb_to_gray expects an (H, W, 3) image, got shape {arr.shape}"
        )
    return arr[:, :, :3] @ _LUMA_WEIGHTS


def gamma_correct(image: np.ndarray, gamma: float) -> np.ndarray:
    """Apply power-law (gamma) correction ``out = image ** gamma``.

    Dalal & Triggs evaluate sqrt gamma compression (``gamma=0.5``) as an
    optional HOG preprocessing step.  Pixel values must be non-negative.
    """
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    arr = as_float_image(image)
    if np.any(arr < 0):
        raise ImageError("gamma_correct requires non-negative pixel values")
    return np.power(arr, gamma)


def rescale_intensity(
    image: np.ndarray,
    out_range: tuple[float, float] = (0.0, 1.0),
) -> np.ndarray:
    """Linearly map the image's [min, max] onto ``out_range``.

    A constant image maps to the lower bound of ``out_range``.
    """
    lo, hi = out_range
    if hi <= lo:
        raise ParameterError(f"out_range must be increasing, got {out_range}")
    arr = as_float_image(image)
    a_min = float(arr.min())
    a_max = float(arr.max())
    if a_max == a_min:
        return np.full_like(arr, lo)
    return (arr - a_min) / (a_max - a_min) * (hi - lo) + lo


def to_uint8(image: np.ndarray) -> np.ndarray:
    """Convert a float image in ``[0, 1]`` to uint8 in ``[0, 255]``.

    Values outside ``[0, 1]`` are clipped before quantization.
    """
    arr = as_float_image(image)
    return np.clip(np.round(arr * 255.0), 0, 255).astype(np.uint8)


def from_uint8(image: np.ndarray) -> np.ndarray:
    """Convert a uint8 image in ``[0, 255]`` to float64 in ``[0, 1]``.

    Shapes follow :func:`~repro.validation.as_float_image`: a 2-D
    image or an ``(H, W, C)`` one with 1, 3 or 4 channels, non-empty.
    """
    arr = np.asarray(image)
    if arr.dtype != np.uint8:
        raise ImageError(f"from_uint8 expects uint8 input, got {arr.dtype}")
    return as_float_image(arr) / 255.0
