"""Sliding-window multi-scale pedestrian detection.

Two interchangeable strategies mirror Figure 3 of the paper:

* ``PyramidStrategy.IMAGE`` — the conventional detector: build an image
  pyramid, re-extract HOG at every level.
* ``PyramidStrategy.FEATURE`` — the paper's detector: extract HOG once,
  down-sample the features per level.

Both feed the identical sliding-window classifier and non-maximum
suppression, so any accuracy or runtime difference is attributable to
the pyramid construction alone.
"""

from repro.detect.types import Detection, DetectionResult, StageTimings
from repro.detect.nms import box_iou, non_maximum_suppression
from repro.detect.scoring import (
    ScorerPlan,
    plan_for,
    score_blocks_cascade,
    score_blocks_conv,
)
from repro.detect.sliding import (
    classify_grid,
    classify_grid_windows,
    anchors_to_boxes,
)
from repro.detect.detector import PyramidStrategy, SlidingWindowDetector
from repro.detect.model_pyramid import (
    ModelPyramidDetector,
    classify_grid_with_scaled_model,
)

__all__ = [
    "Detection",
    "DetectionResult",
    "StageTimings",
    "box_iou",
    "non_maximum_suppression",
    "ScorerPlan",
    "plan_for",
    "score_blocks_cascade",
    "score_blocks_conv",
    "classify_grid",
    "classify_grid_windows",
    "anchors_to_boxes",
    "PyramidStrategy",
    "SlidingWindowDetector",
    "ModelPyramidDetector",
    "classify_grid_with_scaled_model",
]
