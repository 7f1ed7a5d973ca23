"""Detection records and per-stage timing containers."""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ParameterError


@dataclasses.dataclass(frozen=True)
class Detection:
    """One detected pedestrian window in original-image coordinates.

    Attributes
    ----------
    top, left, height, width:
        Pixel bounding box of the detection window.
    score:
        SVM decision value ``w . x + b`` (higher = more confident).
    scale:
        Pyramid scale the window was found at (window covers
        ``scale * 64 x scale * 128`` original pixels).
    label:
        Object class; single-class detectors leave the default.
    """

    top: float
    left: float
    height: float
    width: float
    score: float
    scale: float
    label: str = "pedestrian"

    def __post_init__(self) -> None:
        for name in ("top", "left", "height", "width", "score", "scale"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(
                    f"detection {name} must be finite, got {value}"
                )
        if self.height <= 0 or self.width <= 0:
            raise ParameterError(
                f"detection box must have positive size, got "
                f"{self.height}x{self.width}"
            )
        if self.scale <= 0:
            raise ParameterError(f"scale must be positive, got {self.scale}")

    @property
    def bottom(self) -> float:
        return self.top + self.height

    @property
    def right(self) -> float:
        return self.left + self.width

    @property
    def area(self) -> float:
        return self.height * self.width


@dataclasses.dataclass
class StageTimings:
    """Wall-clock seconds spent in each detector stage.

    The paper's argument is exactly about this split: feature
    extraction (histogram generation) dominates, so moving pyramid
    construction into feature space amortizes the expensive stage over
    all scales.
    """

    extraction: float = 0.0
    pyramid: float = 0.0
    classification: float = 0.0
    nms: float = 0.0

    @property
    def total(self) -> float:
        return self.extraction + self.pyramid + self.classification + self.nms


@dataclasses.dataclass
class DetectionResult:
    """Detections plus diagnostics for one processed frame."""

    detections: list[Detection]
    timings: StageTimings
    n_windows_evaluated: int
    scales_used: list[float]
