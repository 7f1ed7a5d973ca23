"""Rasterization primitives for the synthetic pedestrian generator.

These draw *into* a float grayscale canvas in place, with optional
per-shape alpha, and clip silently at the canvas borders (shapes partly
outside the canvas are simply cropped).  Coordinates follow the image
convention: ``(row, col)`` with row 0 at the top.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ImageError, ParameterError
from repro.validation import check_canvas


def _blend(canvas: np.ndarray, mask: np.ndarray, value: float, alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must be in [0, 1], got {alpha}")
    canvas[mask] = (1.0 - alpha) * canvas[mask] + alpha * value


def fill_rectangle(
    canvas: np.ndarray,
    top: float,
    left: float,
    height: float,
    width: float,
    value: float,
    *,
    alpha: float = 1.0,
) -> None:
    """Fill an axis-aligned rectangle; fractional bounds are rounded."""
    check_canvas(canvas)
    if height <= 0 or width <= 0:
        return
    r0 = max(0, int(round(top)))
    c0 = max(0, int(round(left)))
    r1 = min(canvas.shape[0], int(round(top + height)))
    c1 = min(canvas.shape[1], int(round(left + width)))
    if r0 >= r1 or c0 >= c1:
        return
    region = canvas[r0:r1, c0:c1]
    region[:] = (1.0 - alpha) * region + alpha * value


def fill_ellipse(
    canvas: np.ndarray,
    center_row: float,
    center_col: float,
    radius_row: float,
    radius_col: float,
    value: float,
    *,
    alpha: float = 1.0,
    rotation: float = 0.0,
) -> None:
    """Fill an ellipse, optionally rotated by ``rotation`` radians."""
    check_canvas(canvas)
    if radius_row <= 0 or radius_col <= 0:
        return
    reach = max(radius_row, radius_col) + 1.0
    r0 = max(0, int(np.floor(center_row - reach)))
    r1 = min(canvas.shape[0], int(np.ceil(center_row + reach)) + 1)
    c0 = max(0, int(np.floor(center_col - reach)))
    c1 = min(canvas.shape[1], int(np.ceil(center_col + reach)) + 1)
    if r0 >= r1 or c0 >= c1:
        return
    rr, cc = np.mgrid[r0:r1, c0:c1]
    dr = rr - center_row
    dc = cc - center_col
    if rotation != 0.0:
        cos_t, sin_t = np.cos(rotation), np.sin(rotation)
        dr, dc = cos_t * dr - sin_t * dc, sin_t * dr + cos_t * dc
    mask = (dr / radius_row) ** 2 + (dc / radius_col) ** 2 <= 1.0
    _blend(canvas[r0:r1, c0:c1], mask, value, alpha)


def fill_polygon(
    canvas: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    value: float,
    *,
    alpha: float = 1.0,
) -> None:
    """Fill a simple polygon given by vertex ``rows`` / ``cols`` arrays.

    Uses the even-odd (crossing-number) rule evaluated on the polygon's
    bounding box, which is exact for the convex quads the dataset
    generator draws (torsos, limbs).
    """
    check_canvas(canvas)
    rows = np.asarray(rows, dtype=np.float64).ravel()
    cols = np.asarray(cols, dtype=np.float64).ravel()
    if rows.size != cols.size or rows.size < 3:
        raise ParameterError(
            f"polygon needs >= 3 matching vertices, got {rows.size}/{cols.size}"
        )
    r0 = max(0, int(np.floor(rows.min())))
    r1 = min(canvas.shape[0], int(np.ceil(rows.max())) + 1)
    c0 = max(0, int(np.floor(cols.min())))
    c1 = min(canvas.shape[1], int(np.ceil(cols.max())) + 1)
    if r0 >= r1 or c0 >= c1:
        return
    rr, cc = np.mgrid[r0:r1, c0:c1]
    inside = np.zeros(rr.shape, dtype=bool)
    n = rows.size
    for i in range(n):
        r_a, c_a = rows[i], cols[i]
        r_b, c_b = rows[(i + 1) % n], cols[(i + 1) % n]
        if r_a == r_b:
            continue
        crosses = (rr >= np.minimum(r_a, r_b)) & (rr < np.maximum(r_a, r_b))
        col_at = c_a + (rr - r_a) * (c_b - c_a) / (r_b - r_a)
        inside ^= crosses & (cc < col_at)
    _blend(canvas[r0:r1, c0:c1], inside, value, alpha)


def draw_line(
    canvas: np.ndarray,
    r0: float,
    c0: float,
    r1: float,
    c1: float,
    value: float,
    *,
    thickness: float = 1.0,
    alpha: float = 1.0,
) -> None:
    """Draw a line segment of the given ``thickness`` (a filled capsule)."""
    check_canvas(canvas)
    if thickness <= 0:
        raise ParameterError(f"thickness must be positive, got {thickness}")
    half = thickness / 2.0
    lo_r = max(0, int(np.floor(min(r0, r1) - half - 1)))
    hi_r = min(canvas.shape[0], int(np.ceil(max(r0, r1) + half + 1)) + 1)
    lo_c = max(0, int(np.floor(min(c0, c1) - half - 1)))
    hi_c = min(canvas.shape[1], int(np.ceil(max(c0, c1) + half + 1)) + 1)
    if lo_r >= hi_r or lo_c >= hi_c:
        return
    rr, cc = np.mgrid[lo_r:hi_r, lo_c:hi_c]
    dr, dc = r1 - r0, c1 - c0
    seg_len2 = dr * dr + dc * dc
    if seg_len2 == 0:
        dist2 = (rr - r0) ** 2 + (cc - c0) ** 2
    else:
        t = ((rr - r0) * dr + (cc - c0) * dc) / seg_len2
        t = np.clip(t, 0.0, 1.0)
        dist2 = (rr - (r0 + t * dr)) ** 2 + (cc - (c0 + t * dc)) ** 2
    mask = dist2 <= half * half
    _blend(canvas[lo_r:hi_r, lo_c:hi_c], mask, value, alpha)


def alpha_blend_region(
    canvas: np.ndarray,
    patch: np.ndarray,
    top: int,
    left: int,
    *,
    alpha: float = 1.0,
) -> None:
    """Blend ``patch`` onto ``canvas`` at ``(top, left)``, cropping at edges."""
    check_canvas(canvas)
    patch = np.asarray(patch, dtype=np.float64)
    if patch.ndim != 2:
        raise ImageError(f"patch must be 2-D, got shape {patch.shape}")
    r0, c0 = int(top), int(left)
    r1, c1 = r0 + patch.shape[0], c0 + patch.shape[1]
    pr0 = max(0, -r0)
    pc0 = max(0, -c0)
    cr0, cc0 = max(0, r0), max(0, c0)
    cr1, cc1 = min(canvas.shape[0], r1), min(canvas.shape[1], c1)
    if cr0 >= cr1 or cc0 >= cc1:
        return
    sub = patch[pr0 : pr0 + (cr1 - cr0), pc0 : pc0 + (cc1 - cc0)]
    region = canvas[cr0:cr1, cc0:cc1]
    region[:] = (1.0 - alpha) * region + alpha * sub
