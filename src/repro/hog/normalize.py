"""Block grouping and normalization (paper Section 3.1, final stage).

Adjacent cells are grouped into overlapping blocks (2x2 cells, one-cell
stride by default) and each block's concatenated histogram is
contrast-normalized to suppress local brightness and contrast
variation.  L2-Hys — L2 normalization, clipping at 0.2, then
renormalization — is the Dalal-Triggs default and what the paper uses.

A cell grid that is all +0.0 (a textureless frame) makes every block
the zero vector.  :func:`normalize_blocks` then normalizes one zero
vector and fills the block grid with it, instead of grouping and
normalizing every block.  Every block gets the bits the full pass would
have given it: +0.0 for every
:class:`~repro.hog.parameters.BlockNormalization` (unless
``epsilon ** 2`` underflows, when the L2 forms give NaN both ways).
The test compares bit patterns, so a grid holding ``-0.0`` takes the
normal path.
"""

from __future__ import annotations

import numpy as np

from repro.contracts import check_array
from repro.errors import ParameterError, ShapeError
from repro.hog.parameters import BlockNormalization, HogParameters
from repro.imgproc.validate import is_positive_zero


def normalize_vector(
    vec: np.ndarray,
    method: BlockNormalization = BlockNormalization.L2_HYS,
    *,
    epsilon: float = 1e-6,
    l2_hys_clip: float = 0.2,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Normalize vectors along the last axis.

    Accepts any array shape; normalization is applied independently to
    each trailing-axis vector, so a whole ``(H, W, D)`` block grid can be
    normalized in one call.

    ``out``, when given, must match ``vec``'s shape with float64 dtype
    (docs/MEMORY.md ``out=`` contract).  Unlike most kernels, ``out``
    **may be** ``vec`` itself — every step is an elementwise ufunc, so
    in-place normalization is supported and bitwise identical to the
    allocating path.
    """
    v = np.asarray(vec, dtype=np.float64)
    if v.ndim == 0:
        raise ShapeError("normalize_vector needs at least a 1-D input")
    check_array(v, "vec", dtype=np.float64)
    if out is not None:
        from repro.arena import check_out

        check_out(out, "normalize_vector", v.shape, np.float64)

    if method is BlockNormalization.NONE:
        if out is None:
            return v.copy()
        np.copyto(out, v)
        return out
    if method is BlockNormalization.L1:
        norm = np.abs(v).sum(axis=-1, keepdims=True) + epsilon
        if out is None:
            return v / norm
        np.divide(v, norm, out=out)
        return out
    if method is BlockNormalization.L1_SQRT:
        norm = np.abs(v).sum(axis=-1, keepdims=True) + epsilon
        if out is None:
            return np.sqrt(np.abs(v) / norm) * np.sign(v)
        sign = np.sign(v)
        np.divide(np.abs(v), norm, out=out)
        np.sqrt(out, out=out)
        np.multiply(out, sign, out=out)
        return out
    if method is BlockNormalization.L2:
        norm = np.sqrt((v * v).sum(axis=-1, keepdims=True) + epsilon**2)
        if out is None:
            return v / norm
        np.divide(v, norm, out=out)
        return out
    if method is BlockNormalization.L2_HYS:
        norm = np.sqrt((v * v).sum(axis=-1, keepdims=True) + epsilon**2)
        if out is None:
            clipped = np.clip(v / norm, -l2_hys_clip, l2_hys_clip)
            norm2 = np.sqrt((clipped * clipped).sum(axis=-1, keepdims=True) + epsilon**2)
            return clipped / norm2
        np.divide(v, norm, out=out)
        np.clip(out, -l2_hys_clip, l2_hys_clip, out=out)
        norm2 = np.sqrt((out * out).sum(axis=-1, keepdims=True) + epsilon**2)
        np.divide(out, norm2, out=out)
        return out
    raise ParameterError(f"unsupported normalization: {method!r}")


def _block_grid_shape(
    cells: np.ndarray, params: HogParameters
) -> tuple[int, int]:
    """``(block_rows, block_cols)`` of a float64 cell grid, validated."""
    if cells.ndim != 3 or cells.shape[2] != params.n_bins:
        raise ShapeError(
            f"cells must be (rows, cols, {params.n_bins}), got "
            f"{cells.shape}"
        )
    n_rows, n_cols = params.block_grid_shape(cells.shape[0], cells.shape[1])
    if n_rows == 0 or n_cols == 0:
        bs = params.block_size
        raise ShapeError(
            f"cell grid {cells.shape[:2]} is smaller than one {bs}x{bs} "
            "block"
        )
    return n_rows, n_cols


def block_view(
    cells: np.ndarray,
    params: HogParameters,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Group a cell grid into overlapping blocks (no normalization).

    Parameters
    ----------
    cells:
        ``(cell_rows, cell_cols, n_bins)`` histogram grid.
    params:
        HOG configuration (block size / stride / bins).
    out:
        Optional preallocated ``(block_rows, block_cols, block_dim)``
        float64 destination, C-contiguous and not aliasing ``cells``
        (docs/MEMORY.md ``out=`` contract).  The strided window view is
        copied into it instead of materializing a fresh array.

    Returns
    -------
    ``(block_rows, block_cols, block_dim)`` array.  Within a block,
    features are ordered cell-row-major then bin — the convention every
    other module (window descriptors, the hardware feature memory)
    assumes.
    """
    c = np.asarray(cells, dtype=np.float64)
    n_rows, n_cols = _block_grid_shape(c, params)
    check_array(c, "cells", ndim=3, dtype=np.float64)
    bs, stride = params.block_size, params.block_stride
    windows = np.lib.stride_tricks.sliding_window_view(c, (bs, bs), axis=(0, 1))
    # windows: (rows-bs+1, cols-bs+1, n_bins, bs, bs) -> stride and reorder
    windows = windows[::stride, ::stride]
    windows = np.moveaxis(windows, 2, 4)  # (.., bs, bs, n_bins)
    if out is None:
        return windows.reshape(n_rows, n_cols, params.block_dim)
    from repro.arena import check_out

    check_out(out, "block_view", (n_rows, n_cols, params.block_dim),
              np.float64, c)
    np.copyto(
        out.reshape(n_rows, n_cols, bs, bs, params.n_bins), windows
    )
    return out


def normalize_blocks(
    cells: np.ndarray,
    params: HogParameters,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Group cells into blocks and contrast-normalize each block.

    Returns the normalized ``(block_rows, block_cols, block_dim)`` grid
    — the *normalized HOG features* that the paper's scaling module
    down-samples and that N-HOGMem stores in hardware.

    With ``out=`` the whole stage runs in a single preallocated buffer:
    the block view is copied into ``out`` and normalized in place
    (bitwise identical to the allocating path).  An all-+0.0 cell grid
    skips both (module docstring).
    """
    c = np.asarray(cells, dtype=np.float64)
    shape = (*_block_grid_shape(c, params), params.block_dim)
    if is_positive_zero(c):
        if out is None:
            out = np.empty(shape)
        else:
            from repro.arena import check_out

            check_out(out, "block_view", shape, np.float64, c)
        out[...] = normalize_vector(
            np.zeros(params.block_dim),
            params.normalization,
            epsilon=params.epsilon,
            l2_hys_clip=params.l2_hys_clip,
        )
        return out
    blocks = check_array(block_view(c, params, out=out), "blocks",
                         ndim=3, dtype=np.float64)
    return normalize_vector(
        blocks,
        params.normalization,
        epsilon=params.epsilon,
        l2_hys_clip=params.l2_hys_clip,
        out=out,
    )
