"""Sliding-window classification over a HOG feature grid.

The classifier slides one cell (8 original-scale pixels) at a time, as
in the paper (Figure 2: "Sliding each window by one cell either in
vertical or horizontal direction results in a new detection window").
The score grid comes from the partial-score convolution of
:mod:`repro.detect.scoring`: one compact block-grid matmul plus summed
shifts, the software analogue of the hardware's MACBAR array streaming
each N-HOGMem block column past the classifiers exactly once.  No
window descriptor is ever materialized.

What the caller passes picks the aggregation:

* no ``threshold`` — the dense grid (:func:`~repro.detect.scoring
  .score_blocks_conv`), every score exact;
* a ``threshold`` — the early-reject cascade (:func:`~repro.detect
  .scoring.score_blocks_cascade`): anchors whose partial-score upper
  bound falls below the threshold stop accumulating early.  Scores
  above the threshold, and hence the detection set, are bitwise
  identical to the dense grid's.

See docs/ARCHITECTURE.md ("Scoring").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.detect.scoring import (
    plan_for,
    score_blocks_cascade,
    score_blocks_conv,
)
from repro.detect.types import Detection
from repro.errors import ParameterError
from repro.hog.extractor import HogFeatureGrid
from repro.svm.model import LinearSvmModel
from repro.telemetry import MetricsRegistry, NULL_TELEMETRY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.arena import BufferArena


def classify_grid(
    grid: HogFeatureGrid,
    model: LinearSvmModel,
    stride: int = 1,
    *,
    threshold: float | None = None,
    telemetry: MetricsRegistry = NULL_TELEMETRY,
    span: str | None = None,
    agg_span: str | None = None,
    arena: BufferArena | None = None,
) -> np.ndarray:
    """Score every window anchor of ``grid`` with ``model``.

    Returns a ``(rows, cols)`` array of decision values matching
    :meth:`HogFeatureGrid.window_positions` order; empty if the grid is
    smaller than one window.  Without ``threshold`` every score is
    exact; with one, only the scores above it are (the rest are upper
    bounds at or below it), so pass the threshold the grid is compared
    against downstream (module docstring).  ``telemetry``/``span`` time
    the partial-score matmul (``agg_span`` the cascade's aggregation
    stage) and count plan-cache traffic.  With a threshold, ``arena``
    backs the cascade's partial-score tensor and score grid with
    preallocated slabs (docs/MEMORY.md); the returned scores are then
    valid only until the next arena-backed classify call.  The dense
    grid (no threshold) always allocates.
    """
    bx, by = grid.params.blocks_per_window
    return classify_grid_windows(
        grid, model, by, bx, stride=stride, threshold=threshold,
        telemetry=telemetry, span=span, agg_span=agg_span, arena=arena,
    )


def classify_grid_windows(
    grid: HogFeatureGrid,
    model: LinearSvmModel,
    blocks_y: int,
    blocks_x: int,
    stride: int = 1,
    *,
    threshold: float | None = None,
    telemetry: MetricsRegistry = NULL_TELEMETRY,
    span: str | None = None,
    agg_span: str | None = None,
    arena: BufferArena | None = None,
) -> np.ndarray:
    """Score every anchor of ``grid`` for an arbitrary window extent.

    Generalizes :func:`classify_grid` to window geometries other than
    the grid's own parameterization — used by rescaled-model detection
    and by multi-object detection where several classes with different
    window shapes share one feature grid.  Returns a ``(rows, cols)``
    score array (empty if the window does not fit).
    """
    if blocks_y < 1 or blocks_x < 1:
        raise ParameterError(
            f"window extent must be >= 1 block, got {blocks_y}x{blocks_x}"
        )
    blocks = grid.blocks
    expected = blocks_y * blocks_x * blocks.shape[2]
    if model.n_features != expected:
        raise ParameterError(
            f"model has {model.n_features} weights; a {blocks_y}x{blocks_x}"
            f"-block window needs {expected}"
        )
    plan = plan_for(model, blocks_y, blocks_x, telemetry=telemetry)
    if threshold is None:
        return score_blocks_conv(
            blocks, plan, stride=stride, telemetry=telemetry, span=span,
        )
    return score_blocks_cascade(
        blocks, plan, threshold, stride=stride, telemetry=telemetry,
        span=span, agg_span=agg_span, arena=arena,
    )


def anchors_to_boxes(
    scores: np.ndarray,
    grid: HogFeatureGrid,
    threshold: float,
    stride: int = 1,
) -> list[Detection]:
    """Convert above-threshold anchors into original-image detections.

    A window anchored at cell ``(r, c)`` in a grid at pyramid scale
    ``s`` covers the original-image box starting at
    ``(r * cell * s, c * cell * s)`` with size
    ``(window_h * s, window_w * s)``.
    """
    params = grid.params
    s = grid.scale
    cell = params.cell_size
    detections: list[Detection] = []
    hit_rows, hit_cols = np.nonzero(scores > threshold)
    for r_idx, c_idx in zip(hit_rows, hit_cols):
        r = r_idx * stride
        c = c_idx * stride
        detections.append(
            Detection(
                top=r * cell * s,
                left=c * cell * s,
                height=params.window_height * s,
                width=params.window_width * s,
                score=float(scores[r_idx, c_idx]),
                scale=s,
            )
        )
    return detections
