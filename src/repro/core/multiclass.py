"""Multi-object detection over one shared feature extraction.

"Employing several instances of the SVM classifier could provide
real-time multiple object detection capability which is highly demanded
in applications such as driver assistance systems" (paper, Section 1).

:class:`MultiObjectDetector` realizes that sentence in software: all
object classes share the HOG extraction and the feature pyramid (one
N-HOGMem in hardware terms); each class brings only its own model
memory and window geometry — exactly the marginal cost of one more
classifier instance in Table 2.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Sequence

import numpy as np

from repro.detect.nms import non_maximum_suppression
from repro.detect.sliding import classify_grid_windows
from repro.detect.types import Detection, DetectionResult, StageTimings
from repro.errors import ParameterError
from repro.hog.extractor import HogExtractor, HogFeatureGrid
from repro.hog.parameters import HogParameters
from repro.hog.scaling import FeatureScaler
from repro.svm.model import LinearSvmModel


@dataclasses.dataclass(frozen=True)
class ObjectClass:
    """One object class: a name, a trained model and its window layout."""

    name: str
    model: LinearSvmModel
    hog: HogParameters
    scales: tuple[float, ...] = (1.0, 1.2)
    threshold: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ParameterError("class name must be non-empty")
        if self.model.n_features != self.hog.descriptor_length:
            raise ParameterError(
                f"class {self.name!r}: model has {self.model.n_features} "
                f"weights, layout needs {self.hog.descriptor_length}"
            )
        if not self.scales or any(s <= 0 for s in self.scales):
            raise ParameterError(
                f"class {self.name!r}: scales must be positive and non-empty"
            )


def _feature_compatible(a: HogParameters, b: HogParameters) -> bool:
    """True if two layouts can share one feature grid (same cells,
    bins, blocks and normalization — only the window may differ)."""
    return (
        a.cell_size == b.cell_size
        and a.block_size == b.block_size
        and a.block_stride == b.block_stride
        and a.n_bins == b.n_bins
        and a.signed_gradients == b.signed_gradients
        and a.normalization == b.normalization
        and a.gradient_filter == b.gradient_filter
        and a.gamma == b.gamma
        and a.spatial_interpolation == b.spatial_interpolation
    )


class MultiObjectDetector:
    """Detect several object classes from one HOG extraction.

    All classes must share the feature-level HOG configuration (cell
    size, bins, block layout, normalization); window geometry is free
    per class — the pedestrian's 64x128 portrait and the vehicle's
    128x64 landscape windows both slice the same block grid.
    """

    def __init__(
        self,
        classes: Sequence[ObjectClass],
        scaler: FeatureScaler | None = None,
        *,
        nms_iou: float = 0.3,
        chained: bool = True,
    ) -> None:
        """``chained=True`` derives each pyramid level from the previous
        one (the hardware's cascade, Figure 6); with a dense shared
        scale ladder the accumulated resampling error grows, and
        ``chained=False`` (every level from the base grid) trades a
        little extra compute for accuracy."""
        if not classes:
            raise ParameterError("at least one object class is required")
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise ParameterError(f"duplicate class names: {names}")
        base = classes[0].hog
        for cls in classes[1:]:
            if not _feature_compatible(base, cls.hog):
                raise ParameterError(
                    f"class {cls.name!r} cannot share the feature grid of "
                    f"{classes[0].name!r}: cell/block/bin configuration differs"
                )
        self.classes = list(classes)
        self.extractor = HogExtractor(base)
        self.scaler = scaler if scaler is not None else FeatureScaler()
        self.nms_iou = float(nms_iou)
        self.chained = bool(chained)

    def _pyramid_levels(
        self, base_grid: HogFeatureGrid
    ) -> dict[float, HogFeatureGrid]:
        """One feature-pyramid level per distinct scale, shared by all
        classes."""
        wanted = sorted({s for cls in self.classes for s in cls.scales})
        levels: dict[float, HogFeatureGrid] = {}
        prev = base_grid
        for scale in wanted:
            if scale == 1.0:
                levels[scale] = base_grid
            else:
                source = prev if self.chained else base_grid
                levels[scale] = self.scaler.scale_grid(
                    source, scale / source.scale
                )
            prev = levels[scale]
        return levels

    def detect(self, image: np.ndarray) -> DetectionResult:
        """Detect every configured class at every configured scale."""
        timings = StageTimings()
        start = time.perf_counter()
        base = self.extractor.extract(image)
        base.scale = 1.0
        timings.extraction = time.perf_counter() - start

        start = time.perf_counter()
        levels = self._pyramid_levels(base)
        timings.pyramid = time.perf_counter() - start

        cell = self.extractor.params.cell_size
        detections: list[Detection] = []
        n_windows = 0
        start = time.perf_counter()
        for cls in self.classes:
            bx, by = cls.hog.blocks_per_window
            for scale in cls.scales:
                grid = levels[scale]
                scores = classify_grid_windows(grid, cls.model, by, bx,
                                               threshold=cls.threshold)
                if scores.size == 0:
                    continue
                n_windows += scores.size
                hit_rows, hit_cols = np.nonzero(scores > cls.threshold)
                for r, c in zip(hit_rows, hit_cols):
                    detections.append(
                        Detection(
                            top=r * cell * scale,
                            left=c * cell * scale,
                            height=cls.hog.window_height * scale,
                            width=cls.hog.window_width * scale,
                            score=float(scores[r, c]),
                            scale=scale,
                            label=cls.name,
                        )
                    )
        timings.classification = time.perf_counter() - start

        # NMS within each class; classes do not suppress each other.
        start = time.perf_counter()
        kept: list[Detection] = []
        for cls in self.classes:
            kept.extend(
                non_maximum_suppression(
                    [d for d in detections if d.label == cls.name],
                    iou_threshold=self.nms_iou,
                )
            )
        timings.nms = time.perf_counter() - start

        return DetectionResult(
            detections=sorted(kept, key=lambda d: d.score, reverse=True),
            timings=timings,
            n_windows_evaluated=n_windows,
            scales_used=sorted(levels),
        )
