"""Multi-scale detection with rescaled models (Benenson et al. [1]).

**Paper mapping.**  This is the third corner of the design space the
paper's Section 2 surveys against its own Figure 3(b) feature pyramid:

* *image pyramid* (Figure 3a, conventional) — resize the frame per
  scale, re-extract HOG each time; the expensive histogram stage runs
  once per level.
* *feature pyramid* (Figure 3b, the paper's contribution) — extract
  HOG once, down-sample the normalized features per level.
* *model pyramid* (this module; Benenson et al. "Pedestrians detection
  at 100 frames per second" [1], also [5]) — extract HOG once and keep
  the features untouched; instead rescale the trained SVM *model* to
  each scale's window extent and slide every rescaled model over the
  same grid.

One HOG extraction, one *feature* grid — and one rescaled SVM model per
scale, each slid over the same grid with its own window extent.  The
complement of the paper's feature pyramid: scale lives entirely in the
classifier's model memory, which on the paper's hardware would trade
the Figure 6 shift-add scaler cascade for per-scale model-memory banks
(the trade-off the paper rejects in Section 2 because model memory, not
arithmetic, is the scarce BRAM resource — see Table 2).

``benchmarks/bench_baselines.py`` compares all three strategies on the
same frames.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.detect.nms import non_maximum_suppression
from repro.detect.types import Detection, DetectionResult, StageTimings
from repro.errors import ParameterError
from repro.hog.extractor import HogExtractor, HogFeatureGrid
from repro.svm.model import LinearSvmModel
from repro.svm.model_scaling import ScaledModel, model_pyramid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.arena import BufferArena


def classify_grid_with_scaled_model(
    grid: HogFeatureGrid,
    scaled: ScaledModel,
    *,
    threshold: float | None = None,
    arena: BufferArena | None = None,
) -> np.ndarray:
    """Score every anchor of ``grid`` under a rescaled model's window.

    Returns a ``(rows, cols)`` score array; empty when the scaled
    window no longer fits the grid.  Each scaled model caches its own
    partial-score plan (keyed by its window extent), so the per-scale
    reshape happens once, not per frame.  ``threshold`` picks the
    aggregation as in :func:`repro.detect.sliding.classify_grid`: none
    for the exact dense grid, the downstream detection threshold for
    the early-reject cascade.  ``arena`` backs the cascade's scratch
    slabs (docs/MEMORY.md); arena-backed scores are valid only until
    the next arena-backed classify call.
    """
    from repro.detect.sliding import classify_grid_windows

    return classify_grid_windows(
        grid, scaled.model, scaled.blocks_y, scaled.blocks_x,
        threshold=threshold, arena=arena,
    )


class ModelPyramidDetector:
    """Sliding-window detector whose pyramid is a set of scaled models.

    Parameters mirror :class:`repro.detect.SlidingWindowDetector`; the
    difference is where the scale handling lives.
    """

    def __init__(
        self,
        model: LinearSvmModel,
        extractor: HogExtractor | None = None,
        *,
        scales: Sequence[float] = (1.0, 1.2),
        threshold: float = 0.0,
        nms_iou: float = 0.3,
        arena: BufferArena | None = None,
    ) -> None:
        owns_extractor = extractor is None
        self.extractor = extractor if extractor is not None else HogExtractor()
        self.arena = arena
        # One extraction per frame, scores consumed per scale before the
        # next classify reuses the slabs — the single-owner arena
        # contract (docs/MEMORY.md) holds; only an extractor this
        # detector constructed may borrow the arena.
        if arena is not None and owns_extractor:
            self.extractor.arena = arena
        if model.n_features != self.extractor.params.descriptor_length:
            raise ParameterError(
                f"model expects {model.n_features} features but the extractor "
                f"produces {self.extractor.params.descriptor_length}"
            )
        if not scales or any(s <= 0 for s in scales):
            raise ParameterError(f"scales must be positive and non-empty: {scales}")
        self.threshold = float(threshold)
        self.nms_iou = float(nms_iou)
        self.scaled_models = model_pyramid(
            model, self.extractor.params, tuple(scales)
        )

    def detect(self, image: np.ndarray) -> DetectionResult:
        """Detect pedestrians; every scale reuses the single base grid."""
        timings = StageTimings()
        start = time.perf_counter()
        grid = self.extractor.extract(image)
        timings.extraction = time.perf_counter() - start

        cell = self.extractor.params.cell_size
        detections: list[Detection] = []
        n_windows = 0
        scales_used = []
        start = time.perf_counter()
        for scaled in self.scaled_models:
            scores = classify_grid_with_scaled_model(
                grid, scaled, threshold=self.threshold, arena=self.arena,
            )
            if scores.size == 0:
                continue
            scales_used.append(scaled.scale)
            n_windows += scores.size
            hit_rows, hit_cols = np.nonzero(scores > self.threshold)
            for r, c in zip(hit_rows, hit_cols):
                detections.append(
                    Detection(
                        top=r * cell,
                        left=c * cell,
                        height=scaled.window_height_px,
                        width=scaled.window_width_px,
                        score=float(scores[r, c]),
                        scale=scaled.scale,
                    )
                )
        timings.classification = time.perf_counter() - start

        start = time.perf_counter()
        kept = non_maximum_suppression(detections, iou_threshold=self.nms_iou)
        timings.nms = time.perf_counter() - start
        return DetectionResult(
            detections=kept,
            timings=timings,
            n_windows_evaluated=n_windows,
            scales_used=scales_used,
        )
