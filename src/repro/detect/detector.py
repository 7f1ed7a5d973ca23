"""The multi-scale sliding-window detector (both Figure 3 configurations)."""

from __future__ import annotations

import enum
import time
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.detect.nms import non_maximum_suppression
from repro.detect.sliding import anchors_to_boxes, classify_grid
from repro.detect.types import DetectionResult, StageTimings
from repro.errors import ParameterError
from repro.hog.extractor import HogExtractor
from repro.hog.pyramid import FeaturePyramid, ImagePyramid, pyramid_scales
from repro.hog.scaling import FeatureScaler
from repro.svm.model import LinearSvmModel
from repro.telemetry import MetricsRegistry, NULL_TELEMETRY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.arena import BufferArena


class PyramidStrategy(enum.Enum):
    """How the multi-scale pyramid is constructed."""

    IMAGE = "image"      # conventional: resize image, re-extract HOG
    FEATURE = "feature"  # proposed: extract HOG once, down-sample features


class SlidingWindowDetector:
    """Multi-scale pedestrian detector over full frames.

    Parameters
    ----------
    model:
        Trained linear SVM for the extractor's window descriptor layout.
    extractor:
        HOG extractor; its parameters define window geometry.
    strategy:
        Image-pyramid (conventional) or feature-pyramid (proposed).
    scales:
        Pyramid scales; defaults to the paper's hardware configuration
        of two scales (1.0 and 1.2).
    threshold:
        SVM decision threshold for accepting a window.
    stride:
        Window stride in cells (paper: 1).
    nms_iou:
        IoU threshold for non-maximum suppression.
    scaler:
        Feature scaler used by the FEATURE strategy.
    arena:
        Optional :class:`~repro.arena.BufferArena` backing the hot
        path's scratch arrays (HOG stage buffers and the scorer's
        partial/score slabs).  Follows the same ownership discipline as
        ``telemetry``: it is propagated only into an extractor the
        detector constructed itself, and only under the FEATURE
        strategy (the image strategy keeps several extracted grids
        alive at once, which the one-slab-per-role arena cannot back).
        Results are bitwise identical with or without an arena.
    telemetry:
        Optional :class:`~repro.telemetry.MetricsRegistry`.  When
        provided it is also propagated into the extractor and scaler —
        but only the ones the detector constructed itself (i.e. when
        ``extractor`` / ``scaler`` were omitted), so one registry
        observes the whole hot path: ``detect.*`` spans, per-scale
        window counters (``detect.scale[<s>].windows_scanned`` /
        ``_accepted`` / ``_rejected``) and the ``hog.*`` / ``scale.*``
        sub-stages.  Caller-supplied components keep whatever telemetry
        they were constructed with: two detectors sharing one extractor
        must not steal or cross-contaminate each other's registries.
        Wire a shared component explicitly
        (``HogExtractor(params, telemetry=registry)``) to include its
        sub-stages in the profile.
    """

    def __init__(
        self,
        model: LinearSvmModel,
        extractor: HogExtractor | None = None,
        *,
        strategy: PyramidStrategy | str = PyramidStrategy.FEATURE,
        scales: Sequence[float] | None = None,
        threshold: float = 0.0,
        stride: int = 1,
        nms_iou: float = 0.3,
        scaler: FeatureScaler | None = None,
        chained: bool = True,
        telemetry: MetricsRegistry | None = None,
        arena: BufferArena | None = None,
    ) -> None:
        self.model = model
        owns_extractor = extractor is None
        self.extractor = extractor if extractor is not None else HogExtractor()
        if self.model.n_features != self.extractor.params.descriptor_length:
            raise ParameterError(
                f"model expects {self.model.n_features} features but the "
                f"extractor produces "
                f"{self.extractor.params.descriptor_length}-dim descriptors"
            )
        self.strategy = (
            PyramidStrategy(strategy) if isinstance(strategy, str) else strategy
        )
        self.scales = (
            list(scales) if scales is not None else pyramid_scales(2, step=1.2)
        )
        if not self.scales:
            raise ParameterError("scales must be non-empty")
        if any(s <= 0 for s in self.scales):
            raise ParameterError(f"scales must be positive, got {self.scales}")
        if stride < 1:
            raise ParameterError(f"stride must be >= 1, got {stride}")
        self.threshold = float(threshold)
        self.stride = int(stride)
        self.nms_iou = float(nms_iou)
        owns_scaler = scaler is None
        self.scaler = scaler if scaler is not None else FeatureScaler()
        self.chained = bool(chained)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Propagate the registry only into components this detector
        # constructed: overwriting a caller-owned extractor/scaler would
        # silently cross-contaminate detectors that share one.
        if telemetry is not None:
            if owns_extractor:
                self.extractor.telemetry = telemetry
            if owns_scaler:
                self.scaler.telemetry = telemetry
        self.arena = arena
        # Same ownership discipline as telemetry: only an extractor this
        # detector constructed gets the arena (an arena has exactly one
        # owner — docs/MEMORY.md).  The image-pyramid strategy keeps
        # multiple extracted grids live at once, so arena-backed
        # extraction (which reuses one set of slabs per extract call) is
        # restricted to the feature strategy; scoring slabs are safe in
        # both because each scale's scores are consumed before the next
        # classify call reuses them.
        if (arena is not None and owns_extractor
                and self.strategy is PyramidStrategy.FEATURE):
            self.extractor.arena = arena

    def _build_pyramid(self, image: np.ndarray, timings: StageTimings):
        if self.strategy is PyramidStrategy.IMAGE:
            start = time.perf_counter()
            with self.telemetry.span("detect.extract"):
                pyramid = ImagePyramid.build(image, self.scales, self.extractor)
            elapsed = time.perf_counter() - start
            # For the image strategy, extraction and pyramid building are
            # one fused pass; attribute it all to extraction, which is
            # where the paper says the cost lives.
            timings.extraction += elapsed
            return pyramid
        start = time.perf_counter()
        with self.telemetry.span("detect.extract"):
            base = self.extractor.extract(image)
        timings.extraction += time.perf_counter() - start
        start = time.perf_counter()
        with self.telemetry.span("detect.pyramid"):
            pyramid = FeaturePyramid.build(
                image, self.scales, self.extractor, self.scaler, base=base,
                chained=self.chained,
            )
        timings.pyramid += time.perf_counter() - start
        return pyramid

    def detect(self, image: np.ndarray) -> DetectionResult:
        """Detect pedestrians in ``image`` at all configured scales."""
        tm = self.telemetry
        with tm.span("detect.frame"):
            timings = StageTimings()
            pyramid = self._build_pyramid(image, timings)

            detections = []
            n_windows = 0
            start = time.perf_counter()
            for grid in pyramid:
                with tm.span("detect.classify"):
                    scores = classify_grid(
                        grid, self.model, stride=self.stride,
                        threshold=self.threshold, telemetry=tm,
                        span=f"detect.scale[{grid.scale:.2f}].partial_matmul",
                        agg_span=(f"detect.scale[{grid.scale:.2f}]"
                                  f".cascade_aggregate"),
                        arena=self.arena,
                    )
                    boxes = anchors_to_boxes(
                        scores, grid, self.threshold, stride=self.stride
                    )
                n_windows += scores.size
                detections.extend(boxes)
                if tm.enabled:
                    # Full literal names at each record site so the
                    # telemetry-names lint rule can resolve them against
                    # the registry.
                    s = grid.scale
                    tm.inc(f"detect.scale[{s:.2f}].windows_scanned",
                           scores.size)
                    tm.inc(f"detect.scale[{s:.2f}].windows_accepted",
                           len(boxes))
                    tm.inc(f"detect.scale[{s:.2f}].windows_rejected",
                           scores.size - len(boxes))
            timings.classification += time.perf_counter() - start

            start = time.perf_counter()
            with tm.span("detect.nms"):
                kept = non_maximum_suppression(
                    detections, iou_threshold=self.nms_iou
                )
            timings.nms += time.perf_counter() - start

            if tm.enabled:
                tm.inc("detect.frames")
                tm.inc("detect.windows_scanned", n_windows)
                tm.inc("detect.windows_accepted", len(detections))
                tm.inc("detect.windows_rejected", n_windows - len(detections))
                tm.inc("detect.nms_candidates", len(detections))
                tm.inc("detect.nms_kept", len(kept))

        return DetectionResult(
            detections=kept,
            timings=timings,
            n_windows_evaluated=n_windows,
            scales_used=pyramid.scales,
        )

    def detect_batch(
        self, frames: Sequence[np.ndarray]
    ) -> list[DetectionResult]:
        """Detect over a batch of frames, one result per frame, in order.

        Sequential reference implementation: frame ``i`` fails → the
        exception propagates and frames ``i+1..`` never run.  For
        parallel batch execution with per-frame fault reporting use
        :meth:`repro.core.MultiScalePedestrianDetector.detect_batch`.
        """
        return [self.detect(frame) for frame in frames]
