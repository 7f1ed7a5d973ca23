"""End-to-end HOG feature extraction and window descriptor assembly.

:class:`HogExtractor` runs the full chain of Figure 1's feature side —
(optional gamma) -> gradients -> cell histograms -> block normalization
— and returns a :class:`HogFeatureGrid`, from which descriptors for any
sliding-window position can be read without touching pixels again.

Gradient and histogram are fused: :class:`~repro.hog.histogram.CellStrips`
computes each row strip's gradient into strip-sized scratch and votes
it straight into the cell grid, as the paper's line buffers feed its
histogram unit, so no frame-sized magnitude or orientation array
exists.  A large frame is split into bands of whole cell rows, one
thread each, up to :attr:`HogExtractor.cores`; block normalization is
banded over block rows the same way.  Cells and blocks are bitwise
equal whatever the band count.  Only the calling thread touches the
arena and the telemetry registry.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import os
import time
from collections.abc import Callable, Iterator
from typing import TYPE_CHECKING

import numpy as np

from repro.arena import scratch
from repro.errors import ShapeError
from repro.hog.histogram import CellStrips
from repro.hog.normalize import normalize_blocks
from repro.hog.parameters import HogParameters
from repro.imgproc.convert import gamma_correct
from repro.telemetry import MetricsRegistry, NULL_TELEMETRY
from repro.validation import ensure_grayscale

# The unfused stage kernels, importable from here as they were when
# extract() chained them (perfbench's ``--trace 1`` replay patches
# these names).  extract() no longer calls either.
from repro.hog.histogram import cell_histograms  # noqa: F401
from repro.imgproc.gradients import gradient_polar  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.arena import BufferArena

#: Fewest pixels per band: a frame runs as many bands as it has
#: multiples of this (up to :attr:`HogExtractor.cores`), so a frame
#: under twice this size runs as one band and starts no thread.  A
#: 480x640 frame is one band; 1080x1920 can use up to 7.
BAND_MIN_PIXELS = 1 << 18

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
        The stage spans are summed over the bands, so with more than
        one band they exceed the ``hog.extract`` wall time.
    arena:
        Optional :class:`~repro.arena.BufferArena`.  When set,
        :meth:`extract` writes the cell and block grids (``hog.cells``,
        ``hog.blocks``) and every band's strip scratch (``hog.strip_*``,
        ``hog.vote_*``, ``hog.fold_*``) into arena slabs instead of
        allocating them — zero hot-path slab allocations after the
        first frame warms the slabs.  The
        returned :class:`HogFeatureGrid` then borrows the arena's
        buffers: it is valid only until the next :meth:`extract` call
        on this extractor (docs/MEMORY.md, arena lifetime).  An
        extractor that must produce multiple simultaneously-live grids
        per frame (the image-pyramid strategy) must not be given an
        arena.

    Attributes
    ----------
    cores:
        The most bands (threads) :meth:`extract` splits a frame into;
        a frame gets one band per :data:`BAND_MIN_PIXELS` pixels up to
        this.  1, so no thread is started, unless a process pool worker
        sets it to its core share
        (:func:`repro.parallel.blas.core_share`).
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
        self.cores = 1
        # (pid, threads, pool): started on the first banded frame, and
        # again in a forked child, where an inherited pool has no
        # threads behind it.  Its threads exit with the extractor.
        self._band_pool: tuple[
            int, int, concurrent.futures.ThreadPoolExecutor] | None = None

    def extract(
        self, image: np.ndarray, *, _bands: int | None = None
    ) -> HogFeatureGrid:
        """Extract the full feature grid of ``image``.

        The image must contain at least one block's worth of cells.
        ``_bands`` is for tests only: it splits the frame into exactly
        that many bands (capped at one per cell row), ignoring
        :attr:`cores` and :data:`BAND_MIN_PIXELS`.
        """
        tm = self.telemetry
        arena = self.arena
        params = self.params
        clock = time.perf_counter
        with tm.span("hog.extract"):
            t0 = clock()
            gray = ensure_grayscale(image)
            if params.gamma is not None:
                gray = gamma_correct(np.maximum(gray, 0.0), params.gamma)
            t_gray = clock()
            bands = (self._band_count(gray.shape) if _bands is None
                     else _bands)
            # Every slab is taken here, on the owning thread, before
            # any band runs.
            strips = CellStrips(gray.shape, params, bands, arena)
            bands = strips.bands
            shape = (strips.cell_rows, strips.cell_cols, params.n_bins)
            cells = scratch(arena, "hog.cells", shape)
            hist = cells.reshape(strips.cell_rows, -1)
            source = strips.gradient_source(gray)
            # Per band: seconds in gradient, histogram, normalize.
            timing = np.zeros((bands, 3)) if tm.enabled else None
            t1 = clock()
            self._run_bands([
                functools.partial(strips.run, b, source, hist,
                                  None if timing is None else timing[b])
                for b in range(bands)
            ])
            t2 = clock()
            strips.settle(hist)
            t3 = clock()
            blocks = self._normalize(cells, bands, timing)
            if timing is not None:
                # Summed over bands: CPU-side stage cost, not wall time.
                grad, votes, norm = timing.sum(axis=0)
                tm.record_span("hog.gradient", t_gray - t0 + grad)
                tm.record_span("hog.histogram",
                               t1 - t_gray + votes + t3 - t2)
                tm.record_span("hog.normalize", norm)
        if tm.enabled:
            tm.inc("hog.extractions")
            tm.inc("hog.pixels", int(gray.size))
            row_bits = cells.reshape(len(cells), -1).view(np.uint64)
            tm.inc("hog.flat_cell_rows",
                   int(np.count_nonzero(row_bits.max(axis=1) == 0)))
        return HogFeatureGrid(cells=cells, blocks=blocks, params=params)

    def _band_count(self, shape: tuple[int, ...]) -> int:
        """Bands for a ``shape`` frame: :attr:`cores`, at most one per
        :data:`BAND_MIN_PIXELS` pixels, at least one."""
        return max(1, min(self.cores,
                          shape[0] * shape[1] // BAND_MIN_PIXELS))

    def _normalize(
        self, cells: np.ndarray, bands: int, timing: np.ndarray | None
    ) -> np.ndarray:
        """:func:`normalize_blocks` of ``cells``, in bands of block rows.

        Each block is normalized on its own, so bands are exact.
        """
        params = self.params
        n_rows, n_cols = params.block_grid_shape(*cells.shape[:2])
        out = self._blocks_dest(self.arena, cells.shape)
        if out is None:
            out = np.empty((n_rows, n_cols, params.block_dim))
        bands = max(1, min(bands, n_rows))
        bs, step = params.block_size, params.block_stride
        cuts = [n_rows * b // bands for b in range(bands + 1)]

        def band(b: int) -> None:
            start = time.perf_counter()
            lo, hi = cuts[b], cuts[b + 1]
            # One band passes the whole grid, so a grid smaller than a
            # block raises normalize_blocks' own error.
            normalize_blocks(
                cells if bands == 1
                else cells[lo * step:(hi - 1) * step + bs],
                params, out=out[lo:hi],
            )
            if timing is not None:
                timing[b, 2] = time.perf_counter() - start

        self._run_bands([functools.partial(band, b) for b in range(bands)])
        return out

    def _run_bands(self, jobs: list[Callable[[], None]]) -> None:
        """Run ``jobs[0]`` here and the rest on band threads; wait for all.

        A single job runs inline and starts no thread.  The first error of
        the calling thread's job, else of the band threads in order, is
        raised once every job has finished.
        """
        if len(jobs) == 1:
            jobs[0]()
            return
        futures = [self._band_threads(len(jobs) - 1).submit(job)
                   for job in jobs[1:]]
        try:
            jobs[0]()
        finally:
            concurrent.futures.wait(futures)
        for future in futures:
            future.result()

    def _band_threads(self, n: int) -> concurrent.futures.ThreadPoolExecutor:
        """A pool of at least ``n`` ``hog-band`` threads in this process."""
        pid = os.getpid()
        if (self._band_pool is None or self._band_pool[0] != pid
                or self._band_pool[1] < n):
            self._band_pool = (pid, n, concurrent.futures.ThreadPoolExecutor(
                n, thread_name_prefix="hog-band"))
        return self._band_pool[2]

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
