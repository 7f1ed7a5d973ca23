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
votes are scatter-accumulated (``numpy.add.at``) over flattened
(row, cell column, bin) indices.  The bilinear spatial weighting is
separable, so it runs as a column pass inside the scatter, into a
strip-sized pixel-row accumulator, followed by a row pass that folds
each cell row's pixel rows onto it and its two neighbours in one fixed
order (:func:`_fold_strip`).  The result is therefore bitwise
independent of the strip height, and bitwise equal with and without a
:class:`~repro.arena.BufferArena`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.contracts import check_array
from repro.errors import ParameterError, ShapeError
from repro.hog.parameters import HogParameters
from repro.imgproc.gradients import STRIP_PIXELS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.arena import BufferArena


def _scratch(
    arena: "BufferArena | None",
    name: str,
    shape: tuple[int, ...],
    dtype: type = np.float64,
) -> np.ndarray:
    """Uninitialised scratch: the ``name`` arena slab, or a fresh array."""
    if arena is None:
        return np.empty(shape, dtype=dtype)
    return arena.get(name, shape, dtype)


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


def _axis_cell_votes(
    n_pixels: int, cell_size: int, n_cells: int, interpolate: bool
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Per-pixel (cell index, weight) contributions along one axis.

    With interpolation, each pixel contributes to the two cells whose
    centers bracket it; contributions falling outside the grid get zero
    weight (index is clipped so it stays a valid scatter target).
    Without interpolation every pixel votes into its own cell with unit
    weight, reported as ``None`` so the caller can skip the spatial
    weighting entirely (the hardware-faithful [10] configuration).
    """
    if not interpolate:
        idx = np.arange(n_pixels) // cell_size
        return [(idx.astype(np.intp), None)]
    pos = (np.arange(n_pixels) + 0.5) / cell_size - 0.5
    lo = np.floor(pos).astype(np.intp)
    frac = pos - lo
    votes = []
    for cell, weight in ((lo, 1.0 - frac), (lo + 1, frac)):
        valid = (cell >= 0) & (cell < n_cells)
        votes.append((np.clip(cell, 0, n_cells - 1), weight * valid))
    return votes


def _row_fold(
    h: int, cs: int, n_rows: int
) -> list[tuple[np.ndarray, slice | None]]:
    """The trilinear row pass as a fold of pixel rows onto cell rows.

    A pixel row votes into its own cell row and at most one neighbour:
    the cell row below (lower half of a cell) or above (upper half).
    Returns ``[(weights, rows)]`` for those three targets — own, below,
    above — where ``weights`` is ``(cs, n_rows)``, each pixel row's
    weight into that target by in-cell offset and cell row, and
    ``rows`` the slice of offsets carrying nonzero weight (``None`` if
    there are none).  The weights are :func:`_axis_cell_votes`' own, so
    the fold applies exactly the banded row-weight matrix of the dense
    formulation.
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
        targets.append((weights, span))
    return targets


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
    acc: np.ndarray,
    fold: list[tuple[np.ndarray, slice | None]],
    c0: int,
    hist: np.ndarray,
    scratch: tuple[np.ndarray, np.ndarray, np.ndarray],
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
    ``scratch`` is ``(prod, sums, carry)``: products of ``acc``'s
    shape, the below/above sums, and the one-row carry.
    """
    n = acc.shape[1]
    (own_w, own), (below_w, below), (above_w, above) = fold
    prod, sums, carry = scratch
    prod = prod[:, :n]
    below_sum, above_sum = sums[:, :n]
    dest = hist[c0:c0 + n]
    _weighted_rows(acc, own_w[:, c0:c0 + n], own, dest, prod)
    if below is not None:
        if c0:
            dest[0] += carry
        _weighted_rows(acc, below_w[:, c0:c0 + n], below, below_sum, prod)
        dest[1:] += below_sum[:-1]
        carry[...] = below_sum[-1]
    if above is not None:
        _weighted_rows(acc, above_w[:, c0:c0 + n], above, above_sum, prod)
        dest[:-1] += above_sum[1:]
        if c0:
            hist[c0 - 1] += above_sum[0]


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
        (``hog.strip_acc``) and the row-fold scratch
        (``hog.fold_prod``, ``hog.fold_sums``, ``hog.fold_carry``).  Bitwise identical to running without.

    Returns
    -------
    ``(cell_rows, cell_cols, n_bins)`` float64 histogram grid.  Pixels
    beyond the last full cell are discarded (standard truncation).
    """
    mag = np.asarray(magnitude, dtype=np.float64)
    ori = np.asarray(orientation, dtype=np.float64)
    if mag.ndim != 2 or mag.shape != ori.shape:
        raise ShapeError(
            f"magnitude {mag.shape} and orientation {ori.shape} must be "
            "matching 2-D arrays"
        )
    check_array(mag, "magnitude", ndim=2, finite=True)
    check_array(ori, "orientation", ndim=2, finite=True)
    cs = params.cell_size
    n_rows, n_cols = mag.shape[0] // cs, mag.shape[1] // cs
    if n_rows == 0 or n_cols == 0:
        raise ShapeError(
            f"image {mag.shape} is smaller than one {cs}x{cs} cell"
        )
    h, w = n_rows * cs, n_cols * cs
    mag = mag[:h, :w]
    ori = ori[:h, :w]

    n_bins = params.n_bins
    if out is None:
        out = np.empty((n_rows, n_cols, n_bins), dtype=np.float64)
    else:
        from repro.arena import check_out

        check_out(out, "cell_histograms", (n_rows, n_cols, n_bins),
                  np.float64, mag, ori)

    # Row strips of whole cell rows, in order.  Only one strip's vote,
    # scatter and fold temporaries are ever live, so the ~40 passes
    # over a large frame run in cache.
    strip = cs * max(1, min(n_rows, STRIP_PIXELS // (cs * w)))
    shape = (strip, w)
    votes = (
        _scratch(arena, "hog.vote_frac", shape),
        _scratch(arena, "hog.vote_floor", shape),
        _scratch(arena, "hog.vote_lo", shape, np.intp),
        _scratch(arena, "hog.vote_hi", shape, np.intp),
        _scratch(arena, "hog.vote_w_hi", shape),
        _scratch(arena, "hog.vote_w_lo", shape),
    )
    scatter_idx = _scratch(arena, "hog.vote_idx", shape, np.intp)
    scatter_w = _scratch(arena, "hog.vote_w", shape)

    interpolate = params.spatial_interpolation
    stride = n_cols * n_bins
    hist = out.reshape(n_rows, stride)
    rows = np.arange(strip, dtype=np.intp)
    if interpolate:
        # Bilinear spatial voting is separable, so split it into two
        # passes instead of scattering all four (row, col) neighbour
        # combos: first accumulate column-interpolated votes at pixel
        # row resolution (the only data-dependent scatter, via the
        # orientation bin), then fold the strip's pixel rows onto its
        # cell rows.  Pixel row r of a strip accumulates into
        # acc[r % cs, r // cs], so the fold's operands are contiguous.
        acc = _scratch(arena, "hog.strip_acc", (cs, strip // cs, stride))
        target_row = rows % cs * (strip // cs) + rows // cs
        fold = _row_fold(h, cs, n_rows)
        fold_scratch = (
            _scratch(arena, "hog.fold_prod", (cs, strip // cs, stride)),
            _scratch(arena, "hog.fold_sums", (2, strip // cs, stride)),
            _scratch(arena, "hog.fold_carry", (stride,)),
        )
    else:
        # Every pixel votes into its own cell with unit spatial weight
        # (the hardware-faithful [10] configuration): no spatial
        # weighting at all, scattered straight into the cell grid.
        # Each pixel row scatters only into its own cell row, in order,
        # so the strip height cannot change the summation order.
        target_row = rows // cs
        hist.fill(0.0)
    # Strip-local scatter bases, one per column vote; strips start on a
    # cell row, so every strip shares them.
    col_votes = _axis_cell_votes(w, cs, n_cols, interpolate)
    bases = _scratch(arena, "hog.vote_base", (len(col_votes), *shape),
                     np.intp)
    row_base = (target_row * stride)[:, None]
    for base, (col_idx, _) in zip(bases, col_votes):
        np.add(row_base, col_idx * n_bins, out=base)

    for r0 in range(0, h, strip):
        r1 = min(r0 + strip, h)
        n = r1 - r0
        bin_lo, w_lo, bin_hi, w_hi = _orientation_votes(
            mag[r0:r1], ori[r0:r1], params, tuple(v[:n] for v in votes)
        )
        if interpolate:
            acc.fill(0.0)
            flat = acc.reshape(-1)
        else:
            flat = hist[r0 // cs:r1 // cs].reshape(-1)
        idx = scatter_idx[:n]
        for base, (_, col_w) in zip(bases, col_votes):
            for bins, weights in ((bin_lo, w_lo), (bin_hi, w_hi)):
                np.add(base[:n], bins, out=idx)
                if col_w is not None:
                    weights = np.multiply(weights, col_w,
                                          out=scatter_w[:n])
                np.add.at(flat, idx.ravel(), weights.ravel())
        if interpolate:
            _fold_strip(acc[:, :n // cs], fold, r0 // cs, hist,
                        fold_scratch)
    return out
