"""Cell orientation-histogram generation (paper Section 3.1).

Each gradient pixel votes into the two orientation bins nearest its
angle, with weights proportional to the gradient magnitude and the
angular distance to each bin center (bilinear orientation
interpolation).  With ``spatial_interpolation`` enabled the vote is
additionally split bilinearly across the four nearest cells (the full
trilinear scheme of Dalal & Triggs); with it disabled each pixel votes
only into its own cell, matching the hardware HOG pipeline of [10].

The kernel streams through the frame in horizontal strips of whole
cell rows (:data:`~repro.imgproc.gradients.STRIP_PIXELS`, shared with
:func:`~repro.imgproc.gradient_polar`), the software counterpart of
the paper's line buffers: only one strip's temporaries are live, and
only the output cell grid spans the frame.  Within a strip, orientation
votes are scatter-accumulated over flattened (row, cell column, bin)
indices, one ``numpy.bincount`` per chunk of cell rows.  The bilinear
spatial weighting is separable, so it runs as a column pass inside the
scatter, into a strip-sized pixel-row accumulator, followed by a row
pass that folds each cell row's pixel rows onto it and its two
neighbours in one fixed order (:func:`_fold_strip`).  The result is
therefore bitwise independent of the strip height, and bitwise equal
with and without a :class:`~repro.arena.BufferArena`.

:class:`CellStrips` is that loop.  :func:`cell_histograms` runs it
over given magnitude and orientation arrays; the extractor
(:class:`~repro.hog.HogExtractor`) runs it fused with the gradient,
each strip computing its own, and splits the frame into bands of cell
rows that run on separate threads.  Bands hold back the fold terms
that cross their seams and add them afterwards in the fold's order,
so the cells are also bitwise independent of the band count.

A magnitude grid that is all +0.0 (a textureless frame) casts only
+0.0 votes, so :func:`cell_histograms` fills its cells with +0.0
without the votes, the scatter or the fold, provided every angle
passes the range check (:func:`_orientation_in_range`).  Otherwise,
and for a magnitude holding ``-0.0``, the normal path runs and raises
as it always has.  In the fused loop the test is per strip: a strip
whose derivatives are all +0.0 casts no votes, and its fold adds
+0.0 terms only.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from repro.arena import scratch
from repro.errors import ParameterError, ShapeError
from repro.hog.parameters import HogParameters
from repro.imgproc.gradients import (
    STRIP_PIXELS,
    GradientFilter,
    centered_rows,
    gradient_xy,
    polar_rows,
)
from repro.validation import check_out, is_positive_zero

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.arena import BufferArena


def _cell_grid(shape: tuple[int, ...], cs: int) -> tuple[int, int]:
    """``(cell_rows, cell_cols)`` of a ``shape`` frame, at least one cell."""
    n_rows, n_cols = shape[0] // cs, shape[1] // cs
    if n_rows == 0 or n_cols == 0:
        raise ShapeError(f"image {shape} is smaller than one {cs}x{cs} cell")
    return n_rows, n_cols


def _orientation_in_range(
    orientation: np.ndarray, params: HogParameters
) -> bool:
    """True if every angle passes :func:`_orientation_votes`' range check.

    Every step from angle to lower bin is monotone, so the smallest and
    largest angles decide it.  NaN compares false, so an orientation
    holding one reports False and is left to the full check.
    """
    bin_width = params.orientation_span / params.n_bins
    extremes = np.array([orientation.min(), orientation.max()])
    np.multiply(extremes, 1.0 / bin_width, out=extremes)
    extremes -= 0.5
    lo = np.floor(extremes)
    return bool(lo[0] >= -1 and lo[1] <= params.n_bins - 1)


def _orientation_votes(
    magnitude: np.ndarray,
    orientation: np.ndarray,
    params: HogParameters,
    scratch: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split each pixel's magnitude between its two nearest bins.

    Returns ``(bin_lo, w_lo, bin_hi, w_hi)`` — per-pixel bin indices and
    magnitude-scaled weights.  Bins wrap circularly, which is the
    correct topology for both unsigned ([0, pi)) and signed ([0, 2pi))
    orientations; angles must already lie in that range (the
    :func:`repro.imgproc.gradient_polar` contract), which is what lets
    the wrap be a single masked add instead of a full modulo.  Angles
    outside it raise :class:`~repro.errors.ParameterError`.

    ``scratch`` holds six arrays of the input's shape — ``(coord,
    floor, lo, hi, w_hi, w_lo)``, float64 except the two intp bin
    frames — that receive every intermediate and the four results, so
    the caller decides where they live (a strip of the ``hog.vote_*``
    arena slabs, or plain allocations).
    """
    n_bins = params.n_bins
    bin_width = params.orientation_span / n_bins
    coord, lo_f, lo, bin_hi, w_hi, w_lo = scratch
    # Continuous bin coordinate: bin centers sit at (i + 0.5) * width.
    np.multiply(orientation, 1.0 / bin_width, out=coord)
    coord -= 0.5
    np.floor(coord, out=lo_f)
    np.copyto(lo, lo_f, casting="unsafe")
    # In-range orientations ([0, span)) give lo in [-1, n_bins - 1].
    # Anything else would scatter to a wrapped or out-of-bounds index.
    if lo.min() < -1 or lo.max() > n_bins - 1:
        raise ParameterError(
            "cell_histograms: orientation must lie in [0, "
            f"{params.orientation_span:.6g}) (fold raw arctan2 angles "
            "with repro.imgproc.gradient_polar)"
        )
    frac = coord
    frac -= lo_f
    # With lo in [-1, n_bins - 1], a masked add/subtract replaces two
    # np.mod calls.  ``where=``, not boolean fancy indexing: on flat
    # frames every pixel wraps, and a fancy-index += would gather and
    # scatter all of them.
    np.add(lo, 1, out=bin_hi)
    np.subtract(bin_hi, n_bins, out=bin_hi, where=bin_hi == n_bins)
    bin_lo = lo
    np.add(bin_lo, n_bins, out=bin_lo, where=bin_lo < 0)
    np.multiply(magnitude, frac, out=w_hi)
    np.subtract(magnitude, w_hi, out=w_lo)
    return bin_lo, w_lo, bin_hi, w_hi


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=32)
def _axis_cell_votes(
    n_pixels: int, cell_size: int, n_cells: int, interpolate: bool
) -> tuple[tuple[np.ndarray, np.ndarray | None], ...]:
    """Per-pixel (cell index, weight) contributions along one axis.

    With interpolation, each pixel contributes to the two cells whose
    centers bracket it; contributions falling outside the grid get zero
    weight (index is clipped so it stays a valid scatter target).
    Without interpolation every pixel votes into its own cell with unit
    weight, reported as ``None`` so the caller can skip the spatial
    weighting entirely (the hardware-faithful [10] configuration).
    Cached per geometry, as read-only arrays: a stream's frames share
    one.
    """
    if not interpolate:
        idx = np.arange(n_pixels) // cell_size
        return ((_frozen(idx.astype(np.intp)), None),)
    pos = (np.arange(n_pixels) + 0.5) / cell_size - 0.5
    lo = np.floor(pos).astype(np.intp)
    frac = pos - lo
    votes = []
    for cell, weight in ((lo, 1.0 - frac), (lo + 1, frac)):
        valid = (cell >= 0) & (cell < n_cells)
        votes.append((_frozen(np.clip(cell, 0, n_cells - 1)),
                      _frozen(weight * valid)))
    return tuple(votes)


@functools.lru_cache(maxsize=32)
def _row_fold(
    h: int, cs: int, n_rows: int
) -> tuple[tuple[np.ndarray, slice | None], ...]:
    """The trilinear row pass as a fold of pixel rows onto cell rows.

    A pixel row votes into its own cell row and at most one neighbour:
    the cell row below (lower half of a cell) or above (upper half).
    Returns ``[(weights, rows)]`` for those three targets — own, below,
    above — where ``weights`` is ``(cs, n_rows)``, each pixel row's
    weight into that target by in-cell offset and cell row, and
    ``rows`` the slice of offsets carrying nonzero weight (``None`` if
    there are none).  The weights are :func:`_axis_cell_votes`' own, so
    the fold applies exactly the banded row-weight matrix of the dense
    formulation.  Cached per geometry, as read-only arrays.
    """
    rows = np.arange(h)
    fold = np.zeros((3, h))
    for cell, weight in _axis_cell_votes(h, cs, n_rows, True):
        # cell - home is 0, +1 or -1: fold rows own, below, above.
        fold[(cell - rows // cs) % 3, rows] += weight
    targets = []
    for weights in fold.reshape(3, n_rows, cs).transpose(0, 2, 1):
        nonzero = np.flatnonzero(weights.any(axis=1))
        span = slice(nonzero[0], nonzero[-1] + 1) if nonzero.size else None
        targets.append((_frozen(weights), span))
    return tuple(targets)


def _weighted_rows(
    acc: np.ndarray,
    weights: np.ndarray,
    rows: slice,
    out: np.ndarray,
    prod: np.ndarray,
) -> np.ndarray:
    """``out[i] = sum(weights[k, i] * acc[k, i] for k in rows)``.

    Summed term by term in offset order, for every cell row ``i`` of
    the strip at once: the same operation sequence per cell row
    whatever the strip height.  ``prod`` is scratch of ``acc``'s shape.
    """
    prod = prod[:rows.stop - rows.start]
    np.multiply(acc[rows], weights[rows, :, None], out=prod)
    out[...] = prod[0]
    for k in range(1, len(prod)):
        out += prod[k]
    return out


def _fold_strip(
    acc: np.ndarray | None,
    n: int,
    fold: tuple[tuple[np.ndarray, slice | None], ...],
    c0: int,
    hist: np.ndarray,
    scratch: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    top: int,
) -> None:
    """Fold one strip's pixel-row accumulator onto its cell rows.

    ``acc`` is ``(cs, n, stride)``: the column-interpolated votes of
    cell rows ``[c0, c0 + n)``, one accumulator row per pixel row,
    grouped by in-cell offset so each offset's rows are contiguous.
    Every cell row ``i`` of ``hist`` is summed in one fixed order: its
    own pixel rows, then the lower-half contribution of row ``i - 1``,
    then the upper-half contribution of row ``i + 1``.  Across a strip
    boundary, row ``c0 - 1``'s lower half arrives through ``carry``
    (written by the previous strip) and row ``c0 - 1`` receives this
    strip's first upper half last, so the order, and with it every
    bit of the result, does not depend on where the strips are cut.

    ``top`` is the first cell row of the strip's band.  When it is not
    0, the three terms that cross the band's top seam are left to
    :meth:`CellStrips.settle`, which adds them after every band is
    done, in the same order: the band above's carry into row ``top``
    is not added, and the upper halves into rows ``top - 1`` and
    ``top`` go to ``seam`` (``up`` and ``held``) instead of ``hist``.
    ``acc`` is ``None`` for a flat strip, whose accumulator would be
    all +0.0: its weighted sums are then +0.0, since every fold weight
    is finite and non-negative.  ``scratch`` is ``(prod, sums, carry,
    seam)``: products of ``acc``'s shape, the below/above sums, the
    one-row carry and the band's two seam rows.
    """
    (own_w, own), (below_w, below), (above_w, above) = fold
    prod, sums, carry, seam = scratch
    prod = prod[:, :n]
    below_sum, above_sum = sums[:, :n]
    dest = hist[c0:c0 + n]

    def weighted(weights: np.ndarray, rows: slice, out: np.ndarray) -> None:
        if acc is None:
            out.fill(0.0)
        else:
            _weighted_rows(acc, weights[:, c0:c0 + n], rows, out, prod)

    weighted(own_w, own, dest)
    if below is not None:
        if c0 > top:
            dest[0] += carry
        weighted(below_w, below, below_sum)
        dest[1:] += below_sum[:-1]
        carry[...] = below_sum[-1]
    if above is not None:
        weighted(above_w, above, above_sum)
        dest[1:-1] += above_sum[2:]
        # Upper halves into rows c0 (from c0 + 1) and c0 - 1 (from c0).
        for row, term in ((c0, above_sum[1:2]), (c0 - 1, above_sum[:1])):
            if not len(term) or row < 0:
                continue
            if top and row == top - 1:
                seam[0] = term[0]
            elif top and row == top:
                seam[1] = term[0]
            else:
                hist[row] += term[0]


#: ``source(band, r0, r1)`` of a strip loop: the strip's ``(magnitude,
#: orientation)`` rows ``[r0, r1)``, cut to whole cells, or ``None``
#: when every vote they would cast is +0.0.
StripSource = Callable[[int, int, int],
                       "tuple[np.ndarray, np.ndarray] | None"]


class CellStrips:
    """The cell-histogram strip loop of one frame, split into bands.

    The frame's cell rows are cut into ``bands`` bands of whole cell
    rows (at most one per cell row); band ``b`` covers cell rows
    ``[cuts[b], cuts[b + 1])`` and walks them in strips of
    :data:`STRIP_PIXELS`.  Each strip takes its magnitude and
    orientation from a :data:`StripSource` and votes them into the
    cell grid; a strip the source reports flat casts no votes.  Bands
    may run at the same time, on different threads: each writes only
    its own cell rows and its own scratch.  The fold terms that cross a
    seam between bands are held back and added by :meth:`settle` after
    every band has finished, in the fold's fixed order, so the cells
    are bitwise equal whatever the band count.

    Construction takes every buffer a band needs — one slab per role
    with a leading band axis from ``arena``, or fresh arrays — and so
    does :meth:`gradient_source`, so the bands themselves never touch
    the (single-owner) arena.

    Raises :class:`~repro.errors.ShapeError` for a frame smaller than
    one cell.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        params: HogParameters,
        bands: int = 1,
        arena: BufferArena | None = None,
    ) -> None:
        cs = params.cell_size
        n_rows, n_cols = _cell_grid(shape, cs)
        self.params = params
        self.cell_rows, self.cell_cols = n_rows, n_cols
        h, self.w = n_rows * cs, n_cols * cs
        w = self.w
        bands = max(1, min(bands, n_rows))
        self.cuts = [n_rows * b // bands for b in range(bands + 1)]
        # Strips of whole cell rows, in order.  Only one strip's vote,
        # scatter and fold temporaries are live per band, so the ~40
        # passes over a large frame run in cache.
        tallest = max(b - a for a, b in zip(self.cuts, self.cuts[1:]))
        self.strip = strip = cs * max(1, min(tallest,
                                             STRIP_PIXELS // (cs * w)))
        shape2 = (strip, w)

        def take(name: str, per_band: tuple[int, ...],
                 dtype: type = np.float64) -> np.ndarray:
            return scratch(arena, name, (bands, *per_band), dtype)

        self.votes = (
            take("hog.vote_frac", shape2),
            take("hog.vote_floor", shape2),
            take("hog.vote_lo", shape2, np.intp),
            take("hog.vote_hi", shape2, np.intp),
            take("hog.vote_w_hi", shape2),
            take("hog.vote_w_lo", shape2),
        )
        self.interpolate = interpolate = params.spatial_interpolation
        self.stride = stride = n_cols * params.n_bins
        # The scatter runs in chunks of whole cell rows, one bincount
        # each, over every (column vote, bin) pair's indices and
        # weights laid side by side: 2 or 4 of them per pixel, so a
        # chunk holds about half a strip.
        self.col_votes = _axis_cell_votes(w, cs, n_cols, interpolate)
        self.slots = 2 * len(self.col_votes)
        self.chunk = chunk = cs * max(1, min(
            strip // cs, 2 * STRIP_PIXELS // (self.slots * cs * w)))
        rows = np.arange(chunk, dtype=np.intp)
        if interpolate:
            # Bilinear spatial voting is separable, so split it into
            # two passes instead of scattering all four (row, col)
            # neighbour combos: first accumulate column-interpolated
            # votes at pixel row resolution (the only data-dependent
            # scatter, via the orientation bin), then fold the strip's
            # pixel rows onto its cell rows.  Pixel row r accumulates
            # into row (r % cs, r // cs), in-cell offset first, of its
            # chunk's bincount and then of the strip's acc, so the
            # fold's operands are contiguous.
            self.acc = take("hog.strip_acc", (cs, strip // cs, stride))
            target_row = rows % cs * (chunk // cs) + rows // cs
            self.fold = _row_fold(h, cs, n_rows)
            self.fold_scratch = (
                take("hog.fold_prod", (cs, strip // cs, stride)),
                take("hog.fold_sums", (2, strip // cs, stride)),
                take("hog.fold_carry", (stride,)),
                take("hog.fold_seam", (2, stride)),
            )
        else:
            # Every pixel votes into its own cell with unit spatial
            # weight (the hardware-faithful [10] configuration): no
            # spatial weighting at all, scattered straight into the
            # strip's cell rows.  Each pixel row scatters only into its
            # own cell row, so neither strips nor bands can change the
            # summation order.
            target_row = rows // cs
        # Chunk-local scatter bases, one per column vote; chunks start
        # on a cell row, so every chunk of every band shares them.
        self.bases = scratch(arena, "hog.vote_base",
                              (len(self.col_votes), chunk, w), np.intp)
        row_base = (target_row * stride)[:, None]
        for base, (col_idx, _) in zip(self.bases, self.col_votes):
            np.add(row_base, col_idx * params.n_bins, out=base)
        self.scatter_idx = take("hog.vote_idx", (self.slots * chunk * w,),
                                np.intp)
        self.scatter_w = take("hog.vote_w", (self.slots * chunk * w,))
        self._take = take

    @property
    def bands(self) -> int:
        return len(self.cuts) - 1

    def gradient_source(self, gray: np.ndarray) -> StripSource:
        """The fused extractor's source: each strip's gradient of ``gray``.

        CENTERED derivatives are computed strip by strip from ``gray``
        (:func:`~repro.imgproc.gradients.centered_rows`, reading the
        real rows around the strip); SOBEL and PREWITT are computed for
        the whole frame first and sliced.  Either way equations (1)-(2)
        run on full-width strips in the band's scratch
        (:func:`~repro.imgproc.gradients.polar_rows`), exactly as
        :func:`~repro.imgproc.gradient_polar` computes them, and a
        strip with all-+0.0 derivatives is reported flat.  Takes its
        strip scratch (``hog.strip_*``), so call it on the arena's
        owning thread, before the bands run.
        """
        method = GradientFilter(self.params.gradient_filter)
        derivatives = (None if method is GradientFilter.CENTERED
                       else gradient_xy(gray, method))
        period = self.params.orientation_span
        fx_s, fy_s, mag_s, ori_s = (
            self._take(name, (self.strip, gray.shape[1]))
            for name in ("hog.strip_fx", "hog.strip_fy", "hog.strip_mag",
                         "hog.strip_ori")
        )
        w = self.w

        def source(band: int, r0: int, r1: int):
            n = r1 - r0
            if derivatives is None:
                fx, fy = fx_s[band, :n], fy_s[band, :n]
                centered_rows(gray, r0, r1, fx, fy)
            else:
                fx, fy = derivatives[0][r0:r1], derivatives[1][r0:r1]
            mag, ori = mag_s[band, :n], ori_s[band, :n]
            if not polar_rows(fx, fy, mag, ori, period):
                return None
            return mag[:, :w], ori[:, :w]

        return source

    def run(
        self,
        band: int,
        source: StripSource,
        hist: np.ndarray,
        timing: np.ndarray | None = None,
    ) -> None:
        """Vote band ``band``'s cell rows into ``hist``.

        ``hist`` is the ``(cell_rows, cell_cols * n_bins)`` view of the
        cell grid.  With ``timing``, adds the band's seconds in
        ``source`` to ``timing[0]`` and in votes, scatter and fold to
        ``timing[1]``.
        """
        cs, params, w = self.params.cell_size, self.params, self.w
        top, end = self.cuts[band], self.cuts[band + 1]
        votes = tuple(v[band] for v in self.votes)
        if self.interpolate:
            fold_scratch = tuple(s[band] for s in self.fold_scratch)
        else:
            hist[top:end].fill(0.0)
        clock = time.perf_counter
        for r0 in range(top * cs, end * cs, self.strip):
            r1 = min(r0 + self.strip, end * cs)
            n = r1 - r0
            if timing is not None:
                t0 = clock()
            polar = source(band, r0, r1)
            if timing is not None:
                t1 = clock()
                timing[0] += t1 - t0
            acc = None
            if polar is not None:
                bin_lo, w_lo, bin_hi, w_hi = _orientation_votes(
                    *polar, params, tuple(v[:n] for v in votes)
                )
                if self.interpolate:
                    acc = self.acc[band][:, :n // cs]
                for a in range(0, n, self.chunk):
                    b = min(a + self.chunk, n)
                    self._scatter(band, bin_lo[a:b], w_lo[a:b],
                                  bin_hi[a:b], w_hi[a:b],
                                  acc[:, a // cs:b // cs] if self.interpolate
                                  else hist[(r0 + a) // cs:(r0 + b) // cs])
            if self.interpolate:
                _fold_strip(acc, n // cs, self.fold, r0 // cs, hist,
                            fold_scratch, top)
            if timing is not None:
                timing[1] += clock() - t1

    def _scatter(
        self,
        band: int,
        bin_lo: np.ndarray,
        w_lo: np.ndarray,
        bin_hi: np.ndarray,
        w_hi: np.ndarray,
        dest: np.ndarray,
    ) -> None:
        """Scatter-add one chunk's votes into ``dest``.

        ``dest`` is the chunk's part of the strip accumulator, or of
        the cell grid without spatial interpolation.  One bincount adds
        every vote into its bin in the order the slots list them,
        starting from +0.0: the order of a scatter-add (``np.add.at``)
        slot by slot, so the same bits, and unlike ``np.add.at`` it
        lets other bands run meanwhile.
        """
        m, w = bin_lo.shape
        idx = self.scatter_idx[band][:self.slots * m * w].reshape(-1, m, w)
        wts = self.scatter_w[band][:self.slots * m * w].reshape(-1, m, w)
        k = 0
        for base, (_, col_w) in zip(self.bases, self.col_votes):
            for bins, weights in ((bin_lo, w_lo), (bin_hi, w_hi)):
                np.add(base[:m], bins, out=idx[k])
                if col_w is None:
                    wts[k] = weights
                else:
                    np.multiply(weights, col_w, out=wts[k])
                k += 1
        cs = self.params.cell_size
        if self.interpolate:
            # (cs, cell rows, stride): offset-major, as the fold reads.
            votes = np.bincount(idx.reshape(-1), wts.reshape(-1),
                                minlength=self.chunk * self.stride)
            dest[...] = votes.reshape(cs, -1, self.stride)[:, :dest.shape[1]]
        else:
            votes = np.bincount(idx.reshape(-1), wts.reshape(-1),
                                minlength=self.chunk // cs * self.stride)
            dest[...] = votes.reshape(-1, self.stride)[:len(dest)]

    def settle(self, hist: np.ndarray) -> None:
        """Add the fold terms held back at every band seam, top down.

        Row ``top`` of band ``b`` holds its own pixel rows; it gets the
        band above's carry, then the upper half of row ``top + 1``
        (held by band ``b``, or, for a one-row band, band ``b + 1``'s
        ``up``, added at the next seam).  Row ``top - 1`` gets band
        ``b``'s ``up`` last.  That is the fold's order for every row.
        """
        if not self.interpolate:
            return
        _, (_, below), (_, above) = self.fold
        _, _, carry, seam = self.fold_scratch
        for b in range(1, self.bands):
            top = self.cuts[b]
            if below is not None:
                hist[top] += carry[b - 1]
            if above is not None:
                hist[top - 1] += seam[b, 0]
                if self.cuts[b + 1] - top > 1:
                    hist[top] += seam[b, 1]


def cell_histograms(
    magnitude: np.ndarray,
    orientation: np.ndarray,
    params: HogParameters,
    *,
    out: np.ndarray | None = None,
    arena: BufferArena | None = None,
) -> np.ndarray:
    """Accumulate per-cell orientation histograms.

    Parameters
    ----------
    magnitude, orientation:
        ``(H, W)`` gradient magnitude and angle (radians; unsigned
        angles must lie in ``[0, pi)``, signed in ``[0, 2*pi)`` —
        :func:`repro.imgproc.gradient_polar` produces this form).
        Angles outside the range raise
        :class:`~repro.errors.ParameterError`.
    params:
        HOG configuration.
    out:
        Optional preallocated destination, ``(cell_rows, cell_cols,
        n_bins)`` float64, C-contiguous, not aliasing the inputs
        (docs/MEMORY.md ``out=`` contract; violations raise
        :class:`~repro.errors.ParameterError`).  Bitwise identical to
        the allocating path.
    arena:
        Optional :class:`~repro.arena.BufferArena` supplying the
        strip-sized scratch: the vote frames (``hog.vote_*``), and on
        the trilinear path the pixel-row accumulator
        (``hog.strip_acc``) and the row-fold scratch (``hog.fold_*``).
        Bitwise identical to running without.

    Returns
    -------
    ``(cell_rows, cell_cols, n_bins)`` float64 histogram grid.  Pixels
    beyond the last full cell are discarded (standard truncation).

    Runs :class:`CellStrips`' loop as one band, over slices of the
    given arrays; the extractor runs the same loop fused with the
    gradient.
    """
    mag = np.asarray(magnitude, dtype=np.float64)
    ori = np.asarray(orientation, dtype=np.float64)
    if mag.ndim != 2 or mag.shape != ori.shape:
        raise ShapeError(
            f"magnitude {mag.shape} and orientation {ori.shape} must be "
            "matching 2-D arrays"
        )
    cs = params.cell_size
    n_rows, n_cols = _cell_grid(mag.shape, cs)
    mag = mag[:n_rows * cs, :n_cols * cs]
    ori = ori[:n_rows * cs, :n_cols * cs]
    shape = (n_rows, n_cols, params.n_bins)
    if out is None:
        out = np.empty(shape, dtype=np.float64)
    else:
        check_out(out, "cell_histograms", shape, np.float64, mag, ori)
    if is_positive_zero(mag) and _orientation_in_range(ori, params):
        # Every vote would be +0.0, and so would every cell.
        out.fill(0.0)
        return out
    CellStrips(mag.shape, params, 1, arena).run(
        0, lambda band, r0, r1: (mag[r0:r1], ori[r0:r1]),
        out.reshape(n_rows, -1),
    )
    return out
