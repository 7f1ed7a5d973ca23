"""HOG feature down-scaling — the paper's core algorithmic contribution.

Conventional multi-scale HOG+SVM detection re-runs the expensive
histogram-generation stage once per image-pyramid level.  The paper
instead extracts HOG features *once* and down-samples the feature grid
itself (Section 4, Figure 3b): detecting pedestrians ``s`` times larger
than the trained 64x128 window only requires resampling the feature
grid by ``1/s`` and re-running the (cheap) classifier.

Two scaling surfaces are supported:

``blocks`` (paper's literal description)
    Resample the *normalized* block-feature grid.  Optionally
    re-normalize each resampled block.
``cells``
    Resample the raw cell histograms, then redo block normalization.
    Slightly more faithful to what a pixel-domain down-scale would have
    produced; the difference is an ablation bench
    (``benchmarks/bench_ablation_scaling.py``).

Both kernels support an optional Dollar-style power-law magnitude
correction (``feature *= s ** power_law``) as an extension hook; the
paper itself uses no correction (normalized features are approximately
scale invariant), so the default exponent is 0.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError, ShapeError
from repro.hog.extractor import HogFeatureGrid
from repro.hog.normalize import normalize_blocks, normalize_vector
from repro.imgproc.resize import Interpolation, resize_grid
from repro.telemetry import MetricsRegistry, NULL_TELEMETRY


def scale_to_cells(
    grid: np.ndarray,
    out_shape: tuple[int, int],
    method: Interpolation | str = Interpolation.BILINEAR,
) -> np.ndarray:
    """Resample a feature grid ``(H, W, D)`` to an explicit ``(rows, cols)``."""
    arr = np.asarray(grid, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"feature grid must be 3-D, got shape {arr.shape}")
    return resize_grid(arr, out_shape, method=method)


def scale_feature_grid(
    grid: np.ndarray,
    scale: float,
    method: Interpolation | str = Interpolation.BILINEAR,
) -> np.ndarray:
    """Down-sample a feature grid by ``1/scale``.

    ``scale > 1`` shrinks the grid (to detect larger objects);
    ``scale < 1`` grows it.  Output dims are ``max(1, round(dim/scale))``.
    """
    if scale <= 0:
        raise ParameterError(f"scale must be positive, got {scale}")
    arr = np.asarray(grid, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"feature grid must be 3-D, got shape {arr.shape}")
    out_shape = (
        max(1, round(arr.shape[0] / scale)),
        max(1, round(arr.shape[1] / scale)),
    )
    return scale_to_cells(arr, out_shape, method=method)


class FeatureScaler:
    """Produces scaled :class:`HogFeatureGrid` levels from a base grid.

    Parameters
    ----------
    mode:
        ``"blocks"`` resamples the normalized block grid (paper's
        description); ``"cells"`` resamples raw cell histograms and
        re-normalizes.
    method:
        Interpolation kernel for the resampling.
    renormalize:
        Only meaningful for ``mode="blocks"``: re-apply block
        normalization to each resampled block vector.
    power_law:
        Dollar-style magnitude correction exponent (default 0 = off).
    telemetry:
        Optional :class:`~repro.telemetry.MetricsRegistry`; when
        enabled, :meth:`scale_grid` is timed under a ``scale.grid``
        span with a ``scale.grids`` counter.
    """

    def __init__(
        self,
        mode: str = "blocks",
        method: Interpolation | str = Interpolation.BILINEAR,
        *,
        renormalize: bool = False,
        power_law: float = 0.0,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        if mode not in ("blocks", "cells"):
            raise ParameterError(
                f"mode must be 'blocks' or 'cells', got {mode!r}"
            )
        self.mode = mode
        self.method = Interpolation(method) if isinstance(method, str) else method
        self.renormalize = renormalize
        self.power_law = power_law
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    def scale_grid(self, grid: HogFeatureGrid, scale: float) -> HogFeatureGrid:
        """Return a new grid describing objects ``scale`` times larger.

        The returned grid's ``scale`` attribute is ``grid.scale * scale``
        so scalers compose (the hardware pipelines one scaler per level,
        Figure 6, each resampling the *previous* level's features).
        """
        if scale <= 0:
            raise ParameterError(f"scale must be positive, got {scale}")
        with self.telemetry.span("scale.grid"):
            result = self._scale_grid(grid, scale)
        if self.telemetry.enabled:
            self.telemetry.inc("scale.grids")
        return result

    def _scale_grid(self, grid: HogFeatureGrid, scale: float) -> HogFeatureGrid:
        params = grid.params
        cell_rows, cell_cols = grid.cell_grid_shape
        out_cells = (
            max(1, round(cell_rows / scale)),
            max(1, round(cell_cols / scale)),
        )
        if self.mode == "cells":
            cells = scale_to_cells(grid.cells, out_cells, method=self.method)
            if self.power_law:
                cells = cells * float(scale) ** self.power_law
            blocks = normalize_blocks(cells, params)
        else:
            out_blocks = params.block_grid_shape(*out_cells)
            if out_blocks == (0, 0):
                raise ShapeError(
                    f"scale {scale} leaves fewer cells {out_cells} than one block"
                )
            blocks = scale_to_cells(grid.blocks, out_blocks, method=self.method)
            if self.power_law:
                blocks = blocks * float(scale) ** self.power_law
            if self.renormalize:
                blocks = normalize_vector(
                    blocks,
                    params.normalization,
                    epsilon=params.epsilon,
                    l2_hys_clip=params.l2_hys_clip,
                )
            # Keep a consistently-scaled cell grid alongside the blocks
            # so downstream levels can rescale from either surface; the
            # power-law correction must land on both, or a chained level
            # that re-derives features from the cells would lose it.
            cells = scale_to_cells(grid.cells, out_cells, method=self.method)
            if self.power_law:
                cells = cells * float(scale) ** self.power_law
        return HogFeatureGrid(
            cells=cells,
            blocks=blocks,
            params=params,
            scale=grid.scale * scale,
        )

    def rescale_to_window(self, grid: HogFeatureGrid) -> np.ndarray:
        """Resample a whole grid down to exactly one detection window.

        This is the paper's Figure 3(b) verification protocol: the test
        image is a single up-sampled window (e.g. 70x141 pixels for
        scale 1.1), its HOG grid is extracted at full size, and the
        features are resized to the trained model's window dimensions
        (8x16 cells -> 7x15 blocks -> 3780 features by default).
        """
        params = grid.params
        cells_x, cells_y = params.cells_per_window
        blocks_x, blocks_y = params.blocks_per_window
        if self.mode == "cells":
            cells = scale_to_cells(grid.cells, (cells_y, cells_x), method=self.method)
            blocks = normalize_blocks(cells, params)
        else:
            blocks = scale_to_cells(
                grid.blocks, (blocks_y, blocks_x), method=self.method
            )
            if self.renormalize:
                blocks = normalize_vector(
                    blocks,
                    params.normalization,
                    epsilon=params.epsilon,
                    l2_hys_clip=params.l2_hys_clip,
                )
        return blocks.reshape(-1)

    def scale_window_descriptor(
        self, grid: HogFeatureGrid, scale: float
    ) -> np.ndarray:
        """Scale a grid and return the descriptor of its (0, 0) window.

        Convenience for the paper's Figure 3(b) verification protocol:
        the test image is a whole up-sampled window, so after scaling
        the grid *is* one detection window.
        """
        scaled = self.scale_grid(grid, scale)
        bx, by = grid.params.blocks_per_window
        rows, cols = scaled.block_grid_shape
        if rows < by or cols < bx:
            raise ShapeError(
                f"scaled grid {rows}x{cols} blocks cannot hold a "
                f"{by}x{bx}-block window"
            )
        return scaled.window_descriptor(0, 0)
