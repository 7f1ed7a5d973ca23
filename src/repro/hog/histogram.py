"""Cell orientation-histogram generation (paper Section 3.1).

Each gradient pixel votes into the two orientation bins nearest its
angle, with weights proportional to the gradient magnitude and the
angular distance to each bin center (bilinear orientation
interpolation).  With ``spatial_interpolation`` enabled the vote is
additionally split bilinearly across the four nearest cells (the full
trilinear scheme of Dalal & Triggs); with it disabled each pixel votes
only into its own cell, matching the hardware HOG pipeline of [10].

The implementation is fully vectorized: orientation votes are
scatter-accumulated over flattened (cell, bin) indices, and the
bilinear spatial weighting — separable by construction — is applied as
a column pass inside the scatter followed by a row pass as a single
banded matmul.  The scatter itself has two bitwise-identical backends
(see :func:`_scatter_add`): ``numpy.bincount`` on the allocating path,
``numpy.add.at`` into a reused arena slab when a
:class:`~repro.arena.BufferArena` is supplied.

Voting and scattering stream through the frame in horizontal strips of
whole cell rows (:data:`STRIP_PIXELS`), the software counterpart of the
paper's line buffers: only one strip's temporaries are live at a time,
and only the pixel-row accumulator spans the frame.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.contracts import check_array
from repro.errors import ShapeError
from repro.hog.parameters import HogParameters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.arena import BufferArena


#: Pixel budget of one row strip of :func:`cell_histograms`.  A strip's
#: vote and scatter temporaries (eleven float64/intp frames plus the
#: scatter slab) then take under 3 MB, small enough to stay
#: cache-resident.  Frames under the budget run as a single strip.
STRIP_PIXELS = 32768


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
    the wrap be a single masked add instead of a full modulo.

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
    frac = coord
    frac -= lo_f
    # In-range orientations ([0, span)) give lo in [-1, n_bins - 1], so
    # a masked add/subtract replaces two np.mod calls.  ``where=``, not
    # boolean fancy indexing: on flat frames every pixel wraps, and a
    # fancy-index += would gather and scatter all of them.
    np.add(lo, 1, out=bin_hi)
    np.subtract(bin_hi, n_bins, out=bin_hi, where=bin_hi == n_bins)
    bin_lo = lo
    np.add(bin_lo, n_bins, out=bin_lo, where=bin_lo < 0)
    np.multiply(magnitude, frac, out=w_hi)
    np.subtract(magnitude, w_hi, out=w_lo)
    return bin_lo, w_lo, bin_hi, w_hi


def _scatter_add(
    target: np.ndarray,
    idx: np.ndarray,
    weights: np.ndarray,
    arena: "BufferArena | None",
) -> None:
    """``target[idx] += weights`` with duplicate indices accumulating.

    Without an arena this is ``numpy.bincount``, whose freshly
    allocated output array is the last per-frame full-histogram
    allocation of the hot path.  With one, the votes are scattered
    through ``numpy.add.at`` into a zeroed, reused arena slab
    (``hog.hist_scatter``) and the slab added into ``target`` — same
    temporary, no allocation.  Both backends accumulate element-wise in
    input order and add one whole intermediate array into ``target``,
    so their float summation grouping is identical and the results are
    bitwise equal (the ``tests/test_arena.py`` equivalence gate).
    """
    if arena is None:
        target += np.bincount(idx, weights=weights,
                              minlength=target.size)
        return
    slab = arena.zeros("hog.hist_scatter", (target.size,))
    np.add.at(slab, idx, weights)
    target += slab


def _axis_cell_votes(
    n_pixels: int, cell_size: int, n_cells: int, interpolate: bool
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Per-pixel (cell index, weight) contributions along one axis.

    With interpolation, each pixel contributes to the two cells whose
    centers bracket it; contributions falling outside the grid get zero
    weight (index is clipped so it stays a valid bincount target).
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
        angles must already lie in ``[0, pi)``, signed in ``[0, 2*pi)``
        — :func:`repro.imgproc.gradient_polar` produces this form).
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
        trilinear path's full-height accumulator (``hog.hist_acc``) and
        banded row-weight matrix (``hog.row_weights``), plus the
        strip-sized vote frames (``hog.vote_*``) and the scatter slab
        (``hog.hist_scatter``) that replaces ``numpy.bincount``'s
        per-call output allocation.

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
    if out is not None:
        from repro.arena import check_out

        check_out(out, "cell_histograms", (n_rows, n_cols, n_bins),
                  np.float64, mag, ori)

    # Row strips, in order: each pixel row scatters only into its own
    # rows of the target, so a strip's summation order per target is
    # the whole frame's and the result is bitwise independent of the
    # strip height.  Strips are whole cell rows, which keeps that true
    # for the in-cell path too (its targets are cell rows).  Only one
    # strip's vote and scatter temporaries are ever live, so the ~40
    # full-frame passes of a large frame run in cache.
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
    if interpolate:
        # Bilinear spatial voting is separable, so split it into two
        # passes instead of scattering all four (row, col) neighbor
        # combos: first accumulate column-interpolated votes at full
        # pixel-row resolution (the only data-dependent scatter, via
        # the orientation bin), then collapse pixel rows onto cell rows
        # with one small matmul against the banded row-weight matrix.
        rows_per_target = 1
        if arena is None:
            acc = np.zeros(h * stride, dtype=np.float64)
            row_weights = np.zeros((n_rows, h), dtype=np.float64)
        else:
            acc = arena.zeros("hog.hist_acc", (h * stride,))
            row_weights = arena.zeros("hog.row_weights", (n_rows, h))
        target = acc.reshape(h, stride)
    else:
        # Every pixel votes into its own cell with unit spatial weight
        # (the hardware-faithful [10] configuration): no spatial
        # weighting at all, scattered straight into the cell grid.
        rows_per_target = cs
        if out is None:
            out = np.zeros((n_rows, n_cols, n_bins), dtype=np.float64)
        else:
            out.fill(0.0)
        target = out.reshape(n_rows, stride)
    # Strip-local scatter bases, one per column vote; strips start on a
    # cell row, so every strip shares them.
    col_votes = _axis_cell_votes(w, cs, n_cols, interpolate)
    bases = _scratch(arena, "hog.vote_base", (len(col_votes), *shape),
                     np.intp)
    row_base = (np.arange(strip, dtype=np.intp) // rows_per_target
                * stride)[:, None]
    for base, (col_idx, _) in zip(bases, col_votes):
        np.add(row_base, col_idx * n_bins, out=base)

    for r0 in range(0, h, strip):
        r1 = min(r0 + strip, h)
        n = r1 - r0
        bin_lo, w_lo, bin_hi, w_hi = _orientation_votes(
            mag[r0:r1], ori[r0:r1], params, tuple(v[:n] for v in votes)
        )
        dest = target[r0 // rows_per_target:r1 // rows_per_target]
        dest = dest.reshape(-1)
        idx = scatter_idx[:n]
        for base, (_, col_w) in zip(bases, col_votes):
            for bins, weights in ((bin_lo, w_lo), (bin_hi, w_hi)):
                np.add(base[:n], bins, out=idx)
                if col_w is not None:
                    weights = np.multiply(weights, col_w,
                                          out=scatter_w[:n])
                _scatter_add(dest, idx.ravel(), weights.ravel(), arena)

    if not interpolate:
        return out
    pixel_rows = np.arange(h)
    for row_idx, row_w in _axis_cell_votes(h, cs, n_rows, True):
        row_weights[row_idx, pixel_rows] += row_w
    if out is None:
        hist = row_weights @ target
        return hist.reshape(n_rows, n_cols, n_bins)
    np.matmul(row_weights, target, out=out.reshape(n_rows, stride))
    return out
