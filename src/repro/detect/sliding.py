"""Sliding-window classification over a HOG feature grid.

The classifier slides one cell (8 original-scale pixels) at a time, as
in the paper (Figure 2: "Sliding each window by one cell either in
vertical or horizontal direction results in a new detection window").
Two interchangeable scoring strategies produce the score grid:

* ``scorer="conv"`` (default) — the partial-score convolution of
  :mod:`repro.detect.scoring`: one compact block-grid matmul plus
  summed shifts, the software analogue of the hardware's MACBAR array
  streaming each N-HOGMem block column past the classifiers exactly
  once.  No window descriptor is ever materialized.
* ``scorer="conv-cascade"`` — the conv scorer's staged early-reject
  aggregation (:func:`repro.detect.scoring.score_blocks_cascade`):
  anchors whose partial-score upper bound falls below the detection
  threshold stop accumulating early.  Exact: above-threshold scores
  (and hence the detection set) are bitwise identical to ``conv``.
* ``scorer="gemm"`` — the reference oracle: assemble the
  ``(n_windows, D)`` descriptor matrix and score it with one GEMM.
  Kept for equivalence testing (``tests/test_detect_scoring.py``)
  and as the didactically-obvious implementation.

All return the same scores to float round-off (the cascade, by design,
only where they exceed the threshold); see docs/ARCHITECTURE.md
("Scoring strategies").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.contracts import check_array
from repro.detect.scoring import (
    DEFAULT_CASCADE_K,
    plan_for,
    score_blocks_cascade,
    score_blocks_conv,
    validate_scorer,
)
from repro.detect.types import Detection
from repro.errors import ParameterError
from repro.hog.extractor import HogFeatureGrid, window_descriptor_matrix
from repro.svm.model import LinearSvmModel
from repro.telemetry import MetricsRegistry, NULL_TELEMETRY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.arena import BufferArena


def classify_grid(
    grid: HogFeatureGrid,
    model: LinearSvmModel,
    stride: int = 1,
    *,
    scorer: str = "conv",
    threshold: float = 0.0,
    cascade_k: int = DEFAULT_CASCADE_K,
    telemetry: MetricsRegistry = NULL_TELEMETRY,
    span: str | None = None,
    agg_span: str | None = None,
    arena: BufferArena | None = None,
) -> np.ndarray:
    """Score every window anchor of ``grid`` with ``model``.

    Returns a ``(rows, cols)`` array of decision values matching
    :meth:`HogFeatureGrid.window_positions` order; empty if the grid is
    smaller than one window.  ``scorer`` selects the strategy (see
    module docstring); ``threshold``/``cascade_k`` parameterize the
    early-reject cascade and must match the downstream detection
    threshold (``conv-cascade`` only); ``telemetry``/``span`` time the
    conv scorers' partial-score matmul (``agg_span`` the cascade's
    aggregation stage) and count plan-cache traffic.  ``arena`` backs
    the conv scorers' partial-score tensor and score grid with
    preallocated slabs (docs/MEMORY.md); the returned scores are then
    valid only until the next arena-backed classify call.
    """
    bx, by = grid.params.blocks_per_window
    return classify_grid_windows(
        grid, model, by, bx, stride=stride, scorer=scorer,
        threshold=threshold, cascade_k=cascade_k,
        telemetry=telemetry, span=span, agg_span=agg_span, arena=arena,
    )


def classify_grid_windows(
    grid: HogFeatureGrid,
    model: LinearSvmModel,
    blocks_y: int,
    blocks_x: int,
    stride: int = 1,
    *,
    scorer: str = "conv",
    threshold: float = 0.0,
    cascade_k: int = DEFAULT_CASCADE_K,
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
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    validate_scorer(scorer)
    blocks = grid.blocks
    expected = blocks_y * blocks_x * blocks.shape[2]
    if model.n_features != expected:
        raise ParameterError(
            f"model has {model.n_features} weights; a {blocks_y}x{blocks_x}"
            f"-block window needs {expected}"
        )
    rows = blocks.shape[0] - blocks_y + 1
    cols = blocks.shape[1] - blocks_x + 1
    if rows <= 0 or cols <= 0:
        # Empty grids follow the scorer's output dtype (historically a
        # bare float64 ``np.empty`` regardless of input dtype).
        return np.empty(
            (0, 0), dtype=np.result_type(blocks.dtype, model.weights.dtype)
        )
    if scorer == "conv":
        plan = plan_for(model, blocks_y, blocks_x, telemetry=telemetry)
        return score_blocks_conv(
            blocks, plan, stride=stride, telemetry=telemetry, span=span,
            arena=arena,
        )
    if scorer == "conv-cascade":
        plan = plan_for(model, blocks_y, blocks_x, telemetry=telemetry)
        return score_blocks_cascade(
            blocks, plan, threshold, stride=stride, cascade_k=cascade_k,
            telemetry=telemetry, span=span, agg_span=agg_span, arena=arena,
        )
    matrix = window_descriptor_matrix(
        blocks, blocks_y, blocks_x, stride=stride
    )
    out_rows = len(range(0, rows, stride))
    out_cols = len(range(0, cols, stride))
    return model.decision_function(matrix).reshape(out_rows, out_cols)


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
    check_array(scores, "scores", ndim=2)
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
