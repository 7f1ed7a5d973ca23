"""Non-maximum suppression over detection windows.

Multi-scale sliding-window detection fires clusters of overlapping
windows around each true pedestrian; greedy IoU-based NMS keeps the
highest-scoring window per cluster.  The greedy loop is vectorized
over the remaining candidates but keeps :func:`box_iou`'s arithmetic,
so it keeps exactly the boxes the pairwise loop would.
"""

from __future__ import annotations

import numpy as np

from repro.detect.types import Detection
from repro.errors import ParameterError


def box_iou(a: Detection, b: Detection) -> float:
    """Intersection-over-union of two detection boxes in [0, 1]."""
    top = max(a.top, b.top)
    left = max(a.left, b.left)
    bottom = min(a.bottom, b.bottom)
    right = min(a.right, b.right)
    if bottom <= top or right <= left:
        return 0.0
    inter = (bottom - top) * (right - left)
    union = a.area + b.area - inter
    return inter / union


def non_maximum_suppression(
    detections: list[Detection],
    iou_threshold: float = 0.3,
    max_detections: int | None = None,
) -> list[Detection]:
    """Greedy NMS: keep the best-scoring box, drop overlapping rivals.

    Parameters
    ----------
    detections:
        Candidate windows (any order).
    iou_threshold:
        Boxes overlapping a kept box by more than this IoU are removed.
    max_detections:
        Optional cap on the number of boxes returned (0 returns none).

    Returns
    -------
    Kept detections, sorted by descending score.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ParameterError(
            f"iou_threshold must be in [0, 1], got {iou_threshold}"
        )
    if max_detections is not None and max_detections < 0:
        raise ParameterError(
            f"max_detections must be >= 0, got {max_detections}"
        )
    ordered = sorted(detections, key=lambda d: d.score, reverse=True)
    cap = len(ordered) if max_detections is None else max_detections
    # Same greedy loop and the same IoU arithmetic as box_iou, one
    # kept box against all remaining candidates at a time.
    top, left, bottom, right, area = np.array(
        [(d.top, d.left, d.bottom, d.right, d.area) for d in ordered],
        dtype=np.float64,
    ).reshape(-1, 5).T
    remaining = np.arange(len(ordered))
    kept: list[Detection] = []
    while remaining.size and len(kept) < cap:
        best, remaining = remaining[0], remaining[1:]
        kept.append(ordered[best])
        inter_h = (np.minimum(bottom[best], bottom[remaining])
                   - np.maximum(top[best], top[remaining]))
        inter_w = (np.minimum(right[best], right[remaining])
                   - np.maximum(left[best], left[remaining]))
        # Clamping a non-overlap to zero gives it IoU 0, which every
        # threshold keeps -- box_iou's early return.
        inter = np.maximum(inter_h, 0.0) * np.maximum(inter_w, 0.0)
        iou = inter / (area[best] + area[remaining] - inter)
        remaining = remaining[iou <= iou_threshold]
    return kept
