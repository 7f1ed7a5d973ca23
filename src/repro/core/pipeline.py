"""The user-facing multi-scale pedestrian detector."""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import DetectorConfig
from repro.dataset.synthetic import SyntheticPedestrianDataset
from repro.dataset.windows import WindowSet
from repro.detect.detector import PyramidStrategy, SlidingWindowDetector
from repro.detect.types import DetectionResult
from repro.errors import ParameterError, TrainingError
from repro.hardware.accelerator import (
    AcceleratorConfig,
    PedestrianDetectorAccelerator,
)
from repro.hog.extractor import HogExtractor
from repro.hog.scaling import FeatureScaler
from repro.svm.model import LinearSvmModel
from repro.svm.trainer import train_linear_svm
from repro.telemetry import MetricsRegistry, TelemetrySnapshot

if TYPE_CHECKING:
    from repro.arena import BufferArena
    from repro.stream import ExecutionBackend


class MultiScalePedestrianDetector:
    """Train-once, detect-anywhere HOG+SVM pedestrian detector.

    Wraps the paper's full pipeline: HOG extraction, linear SVM
    classification, and multi-scale detection via the HOG feature
    pyramid (Section 4) or the conventional image pyramid.

    Construct with a trained model, or use :meth:`train` /
    :meth:`train_default`.
    """

    def __init__(
        self,
        model: LinearSvmModel,
        config: DetectorConfig | None = None,
        *,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        """``telemetry`` supplies an existing registry to record into
        (requires ``config.telemetry=True``); :meth:`train` uses it so
        training-time extraction and inference share one profile.  Left
        ``None``, a fresh registry is created when the config asks for
        telemetry."""
        self.config = config if config is not None else DetectorConfig()
        # Validate the scale ladder up front: a config object that
        # skipped DetectorConfig.__post_init__ (subclass, replace-style
        # construction) would otherwise only fail frames-deep inside
        # pyramid construction.
        if not self.config.scales:
            raise ParameterError("config.scales must be non-empty")
        if any(s <= 0 for s in self.config.scales):
            raise ParameterError(
                f"config.scales must be strictly positive, got "
                f"{self.config.scales}"
            )
        if telemetry is not None and not self.config.telemetry:
            raise ParameterError(
                "a telemetry registry was supplied but config.telemetry is "
                "False; enable DetectorConfig(telemetry=True)"
            )
        self.telemetry: MetricsRegistry | None = (
            telemetry if telemetry is not None
            else MetricsRegistry() if self.config.telemetry
            else None
        )
        self.extractor = HogExtractor(self.config.hog, telemetry=self.telemetry)
        if model.n_features != self.config.hog.descriptor_length:
            raise ParameterError(
                f"model dimensionality {model.n_features} does not match the "
                f"HOG descriptor length {self.config.hog.descriptor_length}"
            )
        self.model = model
        self.scaler = FeatureScaler(
            mode=self.config.scaling_mode,
            renormalize=self.config.renormalize_scaled,
            telemetry=self.telemetry,
        )
        # One arena per detector instance — the single-owner contract of
        # docs/MEMORY.md.  This detector owns its extractor, so (under
        # the feature strategy, which extracts exactly once per frame)
        # the extractor borrows the same arena for the HOG stage
        # buffers; the sliding-window detector would not propagate it
        # into a caller-supplied extractor itself.
        self.arena: BufferArena | None = None
        if self.config.arena:
            from repro.arena import BufferArena

            self.arena = BufferArena(telemetry=self.telemetry)
            if self.config.strategy == "feature":
                self.extractor.arena = self.arena
        self._detector = SlidingWindowDetector(
            model,
            self.extractor,
            strategy=PyramidStrategy(self.config.strategy),
            scales=self.config.scales,
            threshold=self.config.threshold,
            stride=self.config.stride,
            nms_iou=self.config.nms_iou,
            scorer=self.config.scorer,
            cascade_k=self.config.cascade_k,
            scaler=self.scaler,
            chained=self.config.chained_pyramid,
            telemetry=self.telemetry,
            arena=self.arena,
        )

    # -- Training -----------------------------------------------------------

    @classmethod
    def train(
        cls,
        windows: WindowSet,
        config: DetectorConfig | None = None,
    ) -> "MultiScalePedestrianDetector":
        """Train from a labeled window set (positives + negatives)."""
        cfg = config if config is not None else DetectorConfig()
        if windows.n_positive == 0 or windows.n_negative == 0:
            raise TrainingError(
                f"training needs both classes, got {windows.n_positive} "
                f"positive / {windows.n_negative} negative windows"
            )
        # The training-time extractor records into the same registry the
        # detector will use, so DetectorConfig(telemetry=True) profiles
        # include training-time extraction rather than silently
        # excluding it.
        registry = MetricsRegistry() if cfg.telemetry else None
        extractor = HogExtractor(cfg.hog, telemetry=registry)
        descriptors = np.stack(
            [extractor.extract_window(img) for img in windows.images]
        )
        model = train_linear_svm(descriptors, windows.labels, cfg.train)
        return cls(model, cfg, telemetry=registry)

    @classmethod
    def train_default(
        cls,
        dataset: SyntheticPedestrianDataset | None = None,
        seed: int = 0,
        config: DetectorConfig | None = None,
    ) -> "MultiScalePedestrianDetector":
        """Train on a dataset's training split (generated if omitted)."""
        if dataset is None:
            dataset = SyntheticPedestrianDataset(seed=seed)
        return cls.train(dataset.train_windows(), config)

    # -- Inference ----------------------------------------------------------

    def detect(self, image: np.ndarray) -> DetectionResult:
        """Detect pedestrians in a full frame at all configured scales."""
        return self._detector.detect(image)

    def detect_batch(
        self,
        frames: Sequence[np.ndarray],
        *,
        workers: int = 1,
        backend: str | ExecutionBackend = "thread",
        mp_start_method: str | None = None,
    ) -> list[DetectionResult]:
        """Detect over a batch of frames, one result per frame, in order.

        ``workers`` / ``backend`` select the execution strategy: worker
        threads in-process (``"thread"``, the default) or the warm
        shared-memory process pool of :mod:`repro.parallel`
        (``"process"``) — see docs/STREAMING.md for when each wins.
        Built on :class:`~repro.stream.StreamPipeline` with the
        ``block`` backpressure policy, so no frame is ever dropped.

        Unlike streaming, a batch has all-or-nothing semantics: if any
        frame fails, a :class:`~repro.errors.StreamError` is raised
        naming every failed frame index and its captured error.  With
        ``config.telemetry=True`` and the process backend, worker-side
        telemetry is merged into :attr:`telemetry` before returning.
        """
        from repro.errors import StreamError
        from repro.stream import ArraySource, StreamPipeline

        frames = list(frames)
        if not frames:
            return []
        pipeline = StreamPipeline(
            self,
            workers=workers,
            policy="block",
            backend=backend,
            mp_start_method=mp_start_method,
            telemetry=self.telemetry,
        )
        try:
            results = list(pipeline.process(ArraySource(frames)))
        finally:
            # Closing stops the warm pool and, for the process backend,
            # absorbs worker telemetry snapshots into self.telemetry.
            pipeline.close()
        failures = [fr for fr in results if not fr.ok]
        if failures:
            detail = "; ".join(
                f"frame {fr.index}: {fr.error or fr.status.value}"
                for fr in failures
            )
            raise StreamError(
                f"detect_batch: {len(failures)}/{len(frames)} frames "
                f"failed ({detail})"
            )
        return [fr.result for fr in results]

    def score_window(self, window_image: np.ndarray) -> float:
        """SVM decision value for a single window-sized image."""
        descriptor = self.extractor.extract_window(window_image)
        return float(self.model.decision_function(descriptor)[0])

    def classify_window(self, window_image: np.ndarray) -> bool:
        """True if the window is classified as containing a pedestrian."""
        return self.score_window(window_image) > self.config.threshold

    # -- Telemetry ----------------------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        """Per-stage telemetry accumulated so far (see docs/TELEMETRY.md).

        Requires ``DetectorConfig(telemetry=True)``; raises
        :class:`~repro.errors.ParameterError` otherwise so callers
        notice a silently-empty profile.
        """
        if self.telemetry is None:
            raise ParameterError(
                "telemetry is disabled; construct with "
                "DetectorConfig(telemetry=True)"
            )
        return self.telemetry.snapshot()

    # -- Interop ------------------------------------------------------------

    def to_accelerator(
        self, accel_config: AcceleratorConfig | None = None
    ) -> PedestrianDetectorAccelerator:
        """Commit the trained model to the hardware accelerator model."""
        if accel_config is None:
            accel_config = AcceleratorConfig(scales=tuple(self.config.scales))
        return PedestrianDetectorAccelerator(
            self.model,
            params=self.config.hog,
            config=accel_config,
            telemetry=self.telemetry,
        )

    def save_model(self, path: str | Path) -> None:
        """Persist the trained SVM to a ``.npz`` file."""
        self.model.save(path)

    @classmethod
    def load_model(
        cls, path: str | Path, config: DetectorConfig | None = None
    ) -> "MultiScalePedestrianDetector":
        """Rebuild a detector from a model saved with :meth:`save_model`."""
        return cls(LinearSvmModel.load(path), config)
