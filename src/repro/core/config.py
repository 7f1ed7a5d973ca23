"""Top-level detector configuration."""

from __future__ import annotations

import dataclasses

from repro.errors import ParameterError
from repro.hog.parameters import HogParameters
from repro.svm.trainer import TrainOptions
from repro.validation import validate_choice


@dataclasses.dataclass(frozen=True)
class DetectorConfig:
    """Configuration of :class:`repro.core.MultiScalePedestrianDetector`.

    Attributes
    ----------
    hog:
        HOG window/descriptor parameters.
    train:
        SVM training options.
    scales:
        Pyramid scales for full-frame detection (paper hardware: two).
    strategy:
        ``"feature"`` (the paper's method) or ``"image"`` (conventional).
    chained_pyramid:
        True (hardware-faithful, Figure 6) derives each feature-pyramid
        level from the previous one; False resamples every level from
        the base grid (less accumulated error on dense ladders).
    threshold:
        SVM decision threshold for detection.
    stride:
        Window stride in cells.
    nms_iou:
        Non-maximum suppression IoU threshold.
    scorer:
        Only ``"conv-cascade"``, the detector's one scorer (the
        early-reject cascade of :mod:`repro.detect.scoring`, bounded by
        ``threshold``); any other value raises
        :class:`~repro.errors.ParameterError`.  The field remains so
        configurations that name the scorer keep loading.
    telemetry:
        Enable per-stage telemetry (:mod:`repro.telemetry`): the
        detector creates a :class:`~repro.telemetry.MetricsRegistry`,
        threads it through extractor / scaler / sliding-window stages,
        and exposes it as ``detector.telemetry``.  Off by default — the
        uninstrumented hot path then pays only a no-op guard.
    arena:
        Preallocate the hot path's scratch arrays in a per-detector
        :class:`~repro.arena.BufferArena` (docs/MEMORY.md): gradient /
        histogram / block buffers and the scorer's partial-score
        and score-grid slabs are allocated once at the stream's frame
        geometry and reused every frame — zero hot-path allocations
        after warmup, bitwise-identical detections.  On by default; the
        slabs cost roughly four frames' worth of float64 per detector.
    """

    hog: HogParameters = dataclasses.field(default_factory=HogParameters)
    train: TrainOptions = dataclasses.field(default_factory=TrainOptions)
    scales: tuple[float, ...] = (1.0, 1.2)
    strategy: str = "feature"
    chained_pyramid: bool = True
    threshold: float = 0.0
    stride: int = 1
    nms_iou: float = 0.3
    scorer: str = "conv-cascade"
    telemetry: bool = False
    arena: bool = True

    def __post_init__(self) -> None:
        validate_choice(self.strategy, ("feature", "image"), "strategy")
        if not self.scales:
            raise ParameterError("scales must be non-empty")
        if any(s <= 0 for s in self.scales):
            raise ParameterError(f"scales must be positive: {self.scales}")
        if self.stride < 1:
            raise ParameterError(f"stride must be >= 1, got {self.stride}")
        validate_choice(self.scorer, ("conv-cascade",), "scorer")
