"""End-to-end HOG feature extraction and window descriptor assembly.

:class:`HogExtractor` runs the full chain of Figure 1's feature side —
(optional gamma) -> gradients -> cell histograms -> block normalization
— and returns a :class:`HogFeatureGrid`, from which descriptors for any
sliding-window position can be read without touching pixels again.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from typing import TYPE_CHECKING

import numpy as np

from repro.contracts import check_array
from repro.errors import ShapeError
from repro.hog.histogram import cell_histograms
from repro.hog.normalize import normalize_blocks
from repro.hog.parameters import HogParameters
from repro.imgproc.convert import gamma_correct
from repro.imgproc.gradients import gradient_polar
from repro.imgproc.validate import ensure_grayscale
from repro.telemetry import MetricsRegistry, NULL_TELEMETRY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.arena import BufferArena


def window_descriptor_matrix(
    blocks: np.ndarray,
    blocks_y: int,
    blocks_x: int,
    stride: int = 1,
) -> np.ndarray:
    """All sliding-window descriptors of a block grid, stacked ``(N, D)``.

    The single descriptor-assembly implementation shared by
    :meth:`HogFeatureGrid.descriptor_matrix` (the grid's own window
    geometry) and the scorer equivalence tests (arbitrary
    ``blocks_y x blocks_x`` extents, e.g. rescaled models).  Row order
    is row-major over the anchors ``range(0, rows, stride) x
    range(0, cols, stride)``; each row concatenates the window's blocks
    row-major (``blocks_y * blocks_x * block_dim`` features).  Built
    from a strided view, so it costs one copy of the output matrix —
    which is exactly the copy the partial-score scorer
    (:mod:`repro.detect.scoring`) exists to avoid.
    """
    check_array(blocks, "blocks", ndim=3)
    dim = blocks.shape[2]
    length = blocks_y * blocks_x * dim
    rows = blocks.shape[0] - blocks_y + 1
    cols = blocks.shape[1] - blocks_x + 1
    if rows <= 0 or cols <= 0:
        return np.empty((0, length))
    view = np.lib.stride_tricks.sliding_window_view(
        blocks, (blocks_y, blocks_x), axis=(0, 1)
    )
    # view: (rows, cols, dim, by, bx) -> (rows, cols, by, bx, dim)
    view = np.moveaxis(view[::stride, ::stride], 2, 4)
    n = view.shape[0] * view.shape[1]
    return view.reshape(n, length)


@dataclasses.dataclass
class HogFeatureGrid:
    """HOG features for a whole image.

    Attributes
    ----------
    cells:
        Raw (un-normalized) ``(cell_rows, cell_cols, n_bins)`` histograms.
    blocks:
        Normalized ``(block_rows, block_cols, block_dim)`` features.
    params:
        The configuration the grid was extracted with.
    scale:
        The pyramid scale this grid represents; 1.0 for a grid extracted
        directly from an image.  A grid at scale ``s`` describes objects
        that are ``s`` times larger than the trained window in the
        original image.
    """

    cells: np.ndarray
    blocks: np.ndarray
    params: HogParameters
    scale: float = 1.0

    @property
    def cell_grid_shape(self) -> tuple[int, int]:
        return self.cells.shape[0], self.cells.shape[1]

    @property
    def block_grid_shape(self) -> tuple[int, int]:
        return self.blocks.shape[0], self.blocks.shape[1]

    @property
    def n_window_positions(self) -> tuple[int, int]:
        """``(rows, cols)`` of valid window anchors at one-cell stride."""
        bx, by = self.params.blocks_per_window
        rows = self.blocks.shape[0] - by + 1
        cols = self.blocks.shape[1] - bx + 1
        return max(0, rows), max(0, cols)

    def window_descriptor(self, cell_row: int, cell_col: int) -> np.ndarray:
        """Descriptor for the window anchored at cell ``(row, col)``.

        The anchor is the window's top-left cell; the descriptor
        concatenates its ``blocks_per_window`` blocks row-major,
        yielding ``params.descriptor_length`` features (3780 for the
        default layout).
        """
        bx, by = self.params.blocks_per_window
        rows, cols = self.n_window_positions
        if not (0 <= cell_row < rows and 0 <= cell_col < cols):
            raise ShapeError(
                f"window anchor ({cell_row}, {cell_col}) out of range "
                f"{rows}x{cols}"
            )
        return self.blocks[
            cell_row : cell_row + by, cell_col : cell_col + bx
        ].ravel()

    def window_positions(self, stride: int = 1) -> Iterator[tuple[int, int]]:
        """Iterate window anchors ``(cell_row, cell_col)`` at ``stride`` cells."""
        rows, cols = self.n_window_positions
        for r in range(0, rows, stride):
            for c in range(0, cols, stride):
                yield r, c

    def descriptor_matrix(self, stride: int = 1) -> np.ndarray:
        """All window descriptors stacked into ``(n_windows, D)``.

        Row order matches :meth:`window_positions`.  Delegates to
        :func:`window_descriptor_matrix` with the grid's own window
        geometry; one copy of the output matrix, nothing else.
        """
        bx, by = self.params.blocks_per_window
        return window_descriptor_matrix(self.blocks, by, bx, stride=stride)


class HogExtractor:
    """Extracts HOG feature grids and window descriptors from images.

    Parameters
    ----------
    params:
        HOG window/descriptor geometry.
    telemetry:
        Optional :class:`~repro.telemetry.MetricsRegistry`; when
        enabled, :meth:`extract` times the gradient / histogram /
        normalize sub-stages (the split the paper's cost argument is
        about) under ``hog.*`` spans, and counts the grid's all-+0.0
        cell rows (``hog.flat_cell_rows``): the textureless bands whose
        arithmetic the kernels skip, which is why such a frame is
        cheap.
    arena:
        Optional :class:`~repro.arena.BufferArena`.  When set,
        :meth:`extract` writes the magnitude / orientation / cell /
        block arrays into arena slabs (``hog.magnitude`` …
        ``hog.blocks``) instead of allocating them — zero hot-path
        allocations after the first frame warms the slabs.  The
        returned :class:`HogFeatureGrid` then borrows the arena's
        buffers: it is valid only until the next :meth:`extract` call
        on this extractor (docs/MEMORY.md, arena lifetime).  An
        extractor that must produce multiple simultaneously-live grids
        per frame (the image-pyramid strategy) must not be given an
        arena.
    """

    def __init__(
        self,
        params: HogParameters | None = None,
        telemetry: MetricsRegistry | None = None,
        arena: BufferArena | None = None,
    ) -> None:
        self.params = params if params is not None else HogParameters()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.arena = arena

    def extract(self, image: np.ndarray) -> HogFeatureGrid:
        """Extract the full feature grid of ``image``.

        The image must contain at least one block's worth of cells.
        """
        tm = self.telemetry
        arena = self.arena
        with tm.span("hog.extract"):
            with tm.span("hog.gradient"):
                gray = ensure_grayscale(image)
                if self.params.gamma is not None:
                    gray = gamma_correct(
                        np.maximum(gray, 0.0), self.params.gamma
                    )
                if arena is None:
                    magnitude, orientation = gradient_polar(
                        gray,
                        method=self.params.gradient_filter,
                        signed=self.params.signed_gradients,
                    )
                else:
                    magnitude, orientation = gradient_polar(
                        gray,
                        method=self.params.gradient_filter,
                        signed=self.params.signed_gradients,
                        out_magnitude=arena.get("hog.magnitude", gray.shape),
                        out_orientation=arena.get(
                            "hog.orientation", gray.shape
                        ),
                        arena=arena,
                    )
            with tm.span("hog.histogram"):
                cells = cell_histograms(
                    magnitude, orientation, self.params,
                    out=self._cells_dest(arena, gray.shape), arena=arena,
                )
            with tm.span("hog.normalize"):
                blocks = normalize_blocks(
                    cells, self.params,
                    out=self._blocks_dest(arena, cells.shape),
                )
        if tm.enabled:
            tm.inc("hog.extractions")
            tm.inc("hog.pixels", int(gray.size))
            row_bits = cells.reshape(len(cells), -1).view(np.uint64)
            tm.inc("hog.flat_cell_rows",
                   int(np.count_nonzero(row_bits.max(axis=1) == 0)))
        return HogFeatureGrid(cells=cells, blocks=blocks, params=self.params)

    def _cells_dest(
        self, arena: BufferArena | None, image_shape: tuple[int, ...]
    ) -> np.ndarray | None:
        """Arena slab for the cell grid of an ``image_shape`` frame.

        ``None`` (let the kernel allocate) without an arena or when the
        frame is smaller than one cell — the kernel raises its own
        :class:`~repro.errors.ShapeError` in that case.
        """
        if arena is None:
            return None
        cs = self.params.cell_size
        n_rows, n_cols = image_shape[0] // cs, image_shape[1] // cs
        if n_rows == 0 or n_cols == 0:
            return None
        return arena.get("hog.cells", (n_rows, n_cols, self.params.n_bins))

    def _blocks_dest(
        self, arena: BufferArena | None, cells_shape: tuple[int, ...]
    ) -> np.ndarray | None:
        """Arena slab for the block grid of a ``cells_shape`` cell grid."""
        if arena is None:
            return None
        n_rows, n_cols = self.params.block_grid_shape(
            cells_shape[0], cells_shape[1]
        )
        if n_rows == 0 or n_cols == 0:
            return None
        return arena.get(
            "hog.blocks", (n_rows, n_cols, self.params.block_dim)
        )

    def extract_window(self, window_image: np.ndarray) -> np.ndarray:
        """Descriptor of a single window-sized image.

        The image must be exactly ``window_height x window_width``
        pixels (use :func:`repro.imgproc.resize` first otherwise).
        """
        gray = ensure_grayscale(window_image)
        expected = (self.params.window_height, self.params.window_width)
        if gray.shape != expected:
            raise ShapeError(
                f"window image is {gray.shape}, expected {expected}"
            )
        return self.extract(gray).window_descriptor(0, 0)
