"""Fixed-point model of the HOG extractor front end of [10].

The accelerator's first stage (Hemmati et al., DSD 2014) computes HOG
features in streaming integer hardware.  Its arithmetic differs from
the floating-point software extractor in three classic ways:

* **pixels** are 8-bit integers; centered differences are 9-bit ints;
* **magnitude** avoids the square root with the alpha-max-beta-min
  approximation, ``max(|fx|, |fy|) + 0.5 * min(|fx|, |fy|)``
  (worst-case error ~11.8 %, zero at the axes) — or the even cheaper
  L1 norm ``|fx| + |fy|``;
* **orientation binning** avoids the arctangent: the bin of
  ``(fx, fy)`` is found by comparing ``fy * cos(theta_k)`` against
  ``fx * sin(theta_k)`` for the 9 bin edges (a comparator tree with
  constant multipliers).  The result is a *hard* single-bin vote —
  no bilinear splitting — which is mathematically identical to
  ``floor(angle / bin_width)``, the form this model computes.

Because block normalization divides out any common gain, these
approximations cost little accuracy; the ablation bench measures
exactly how little, and ``tests/test_hw_hog_pipe.py`` pins the
approximation bounds.
"""

from __future__ import annotations

import numpy as np

from repro.errors import HardwareConfigError, ShapeError
from repro.hardware.fixed_point import FEATURE_FORMAT, FixedPointFormat, quantize
from repro.hog.extractor import HogFeatureGrid
from repro.hog.normalize import normalize_blocks
from repro.hog.parameters import HogParameters
from repro.validation import ensure_grayscale


def alpha_max_beta_min(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """The classic sqrt-free magnitude: ``max + 0.5 * min``."""
    ax, ay = np.abs(fx), np.abs(fy)
    return np.maximum(ax, ay) + 0.5 * np.minimum(ax, ay)


class HardwareHogFrontEnd:
    """Streaming fixed-point HOG extraction (the paper's first stage).

    Parameters
    ----------
    params:
        HOG layout; ``spatial_interpolation`` is ignored (the hardware
        votes each pixel into its own cell only).
    pixel_bits:
        Input pixel quantization (camera interface width).
    magnitude:
        ``"alpha-beta"`` (default, [10]'s datapath), ``"l1"`` or
        ``"exact"``.
    hard_binning:
        True (default): single-bin comparator-tree vote.  False: the
        software's two-bin bilinear vote (for ablation).
    feature_format:
        Quantization of the normalized features written to N-HOGMem.
    """

    def __init__(
        self,
        params: HogParameters | None = None,
        *,
        pixel_bits: int = 8,
        magnitude: str = "alpha-beta",
        hard_binning: bool = True,
        feature_format: FixedPointFormat = FEATURE_FORMAT,
    ) -> None:
        if pixel_bits < 1:
            raise HardwareConfigError(f"pixel_bits must be >= 1, got {pixel_bits}")
        if magnitude not in ("alpha-beta", "l1", "exact"):
            raise HardwareConfigError(
                f"magnitude must be 'alpha-beta', 'l1' or 'exact', got "
                f"{magnitude!r}"
            )
        self.params = params if params is not None else HogParameters()
        self.pixel_bits = int(pixel_bits)
        self.magnitude = magnitude
        self.hard_binning = bool(hard_binning)
        self.feature_format = feature_format

    # -- Stage models ---------------------------------------------------------

    def quantize_pixels(self, image: np.ndarray) -> np.ndarray:
        """[0, 1] floats to the camera's integer levels (as floats)."""
        gray = ensure_grayscale(image)
        levels = 2**self.pixel_bits - 1
        return np.round(np.clip(gray, 0.0, 1.0) * levels)

    def gradients(self, pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Integer centered differences (no /2 — gain is normalized out)."""
        padded = np.pad(pixels, 1, mode="edge")
        fx = padded[1:-1, 2:] - padded[1:-1, :-2]
        fy = padded[2:, 1:-1] - padded[:-2, 1:-1]
        return fx, fy

    def magnitude_of(self, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
        if self.magnitude == "exact":
            return np.hypot(fx, fy)
        if self.magnitude == "l1":
            return np.abs(fx) + np.abs(fy)
        return alpha_max_beta_min(fx, fy)

    def bin_of(self, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
        """Comparator-tree unsigned bin index in ``[0, n_bins)``.

        Computed via the angle for clarity; identical to comparing
        ``fy cos(theta_k)`` vs ``fx sin(theta_k)`` at the bin edges.
        """
        n_bins = self.params.n_bins
        angle = np.mod(np.arctan2(fy, fx), np.pi)
        idx = np.floor(angle / (np.pi / n_bins)).astype(np.intp)
        return np.clip(idx, 0, n_bins - 1)

    # -- Full extraction ------------------------------------------------------

    def extract(self, image: np.ndarray) -> HogFeatureGrid:
        """Run the full fixed-point front end on ``image``."""
        pixels = self.quantize_pixels(image)
        if (
            pixels.shape[0] < self.params.cell_size
            or pixels.shape[1] < self.params.cell_size
        ):
            raise ShapeError(
                f"image {pixels.shape} smaller than one cell"
            )
        fx, fy = self.gradients(pixels)
        mag = self.magnitude_of(fx, fy)

        cs = self.params.cell_size
        n_bins = self.params.n_bins
        n_rows = pixels.shape[0] // cs
        n_cols = pixels.shape[1] // cs
        h, w = n_rows * cs, n_cols * cs
        mag = mag[:h, :w]

        cell_r = (np.arange(h) // cs)[:, None]
        cell_c = (np.arange(w) // cs)[None, :]
        base = np.broadcast_to((cell_r * n_cols + cell_c) * n_bins, mag.shape)
        hist = np.zeros(n_rows * n_cols * n_bins)

        if self.hard_binning:
            bins = self.bin_of(fx[:h, :w], fy[:h, :w])
            hist += np.bincount(
                (base + bins).ravel(), weights=mag.ravel(), minlength=hist.size
            )
        else:
            angle = np.mod(np.arctan2(fy[:h, :w], fx[:h, :w]), np.pi)
            coord = angle / (np.pi / n_bins) - 0.5
            lo = np.floor(coord).astype(np.intp)
            frac = coord - lo
            for bins, weight in (
                (np.mod(lo, n_bins), mag * (1.0 - frac)),
                (np.mod(lo + 1, n_bins), mag * frac),
            ):
                hist += np.bincount(
                    (base + bins).ravel(),
                    weights=weight.ravel(),
                    minlength=hist.size,
                )

        cells = hist.reshape(n_rows, n_cols, n_bins)
        blocks = normalize_blocks(cells, self.params)
        blocks = quantize(blocks, self.feature_format)
        return HogFeatureGrid(cells=cells, blocks=blocks, params=self.params)

    def extract_window(self, window_image: np.ndarray) -> np.ndarray:
        """Descriptor of one window-sized image (as the software API)."""
        gray = ensure_grayscale(window_image)
        expected = (self.params.window_height, self.params.window_width)
        if gray.shape != expected:
            raise ShapeError(f"window image is {gray.shape}, expected {expected}")
        return self.extract(gray).window_descriptor(0, 0)
