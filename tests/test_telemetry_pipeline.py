"""Telemetry integration with the detection pipeline.

The load-bearing assertion: the window counters the instrumented
pipeline records must agree exactly with what :class:`DetectionResult`
reports — otherwise profiles describe a different pipeline than the one
that ran.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import DetectorConfig, MultiScalePedestrianDetector
from repro.detect import SlidingWindowDetector
from repro.errors import ParameterError
from repro.hardware.event_sim import PipelineConfig, simulate_frame
from repro.telemetry import MetricsRegistry, NULL_TELEMETRY, stage_report


@pytest.fixture(scope="module")
def frame():
    return np.random.default_rng(3).random((200, 264))


class TestSlidingWindowTelemetry:
    def test_window_counters_match_detection_result(self, trained, frame):
        model, extractor = trained
        registry = MetricsRegistry()
        # A caller-owned extractor keeps its own wiring; instrument it
        # explicitly for the duration of the test.
        extractor.telemetry = registry
        det = SlidingWindowDetector(
            model, extractor, scales=[1.0, 1.2], telemetry=registry
        )
        try:
            result = det.detect(frame)
        finally:
            extractor.telemetry = NULL_TELEMETRY  # session-scoped fixture
        snap = registry.snapshot()

        assert snap.counters["detect.windows_scanned"] == \
            result.n_windows_evaluated
        per_scale_scanned = sum(
            v for k, v in snap.counters.items()
            if k.startswith("detect.scale[") and k.endswith("windows_scanned")
        )
        assert per_scale_scanned == result.n_windows_evaluated
        accepted = snap.counters["detect.windows_accepted"]
        rejected = snap.counters["detect.windows_rejected"]
        assert accepted + rejected == result.n_windows_evaluated
        assert snap.counters["detect.nms_candidates"] == accepted
        assert snap.counters["detect.nms_kept"] == len(result.detections)

    def test_all_stages_present_in_report(self, trained, frame):
        model, extractor = trained
        registry = MetricsRegistry()
        extractor.telemetry = registry
        det = SlidingWindowDetector(
            model, extractor, scales=[1.0, 1.3], telemetry=registry
        )
        try:
            det.detect(frame)
        finally:
            extractor.telemetry = NULL_TELEMETRY
        report = stage_report(registry.snapshot())
        assert set(report["stages"]) == {
            "gradient", "histogram", "normalize", "scale", "classify",
            "nms", "partial_matmul", "cascade_aggregate",
        }

    def test_disabled_detector_records_nothing(self, trained, frame):
        model, _ = trained
        det = SlidingWindowDetector(model, scales=[1.0])
        assert det.telemetry is NULL_TELEMETRY
        det.detect(frame)
        assert det.telemetry.snapshot().spans == {}

    def test_empty_scales_rejected_early(self, trained):
        model, _ = trained
        with pytest.raises(ParameterError, match="non-empty"):
            SlidingWindowDetector(model, scales=[])


class TestTelemetryOwnership:
    """Regression: detectors must not rewire caller-owned components.

    Two detectors sharing one HogExtractor used to cross-contaminate —
    constructing the second overwrote ``extractor.telemetry``, so the
    first detector's profile silently lost (or stole) the ``hog.*``
    sub-stages.
    """

    def test_shared_extractor_keeps_its_own_registry(self, trained, frame):
        from repro.hog import HogExtractor

        model, _ = trained
        shared = HogExtractor()
        original = shared.telemetry
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        det_a = SlidingWindowDetector(
            model, shared, scales=[1.0], telemetry=reg_a
        )
        det_b = SlidingWindowDetector(
            model, shared, scales=[1.0], telemetry=reg_b
        )
        assert shared.telemetry is original  # untouched by either

        det_a.detect(frame)
        det_b.detect(frame)
        # Each detector's own counters stay in its own registry...
        assert reg_a.counter("detect.frames") == 1
        assert reg_b.counter("detect.frames") == 1
        # ...and neither stole the extractor's sub-stages.
        assert "hog.extractions" not in reg_a.snapshot().counters
        assert "hog.extractions" not in reg_b.snapshot().counters

    def test_explicitly_wired_shared_extractor_records_everywhere(
        self, trained, frame
    ):
        from repro.hog import HogExtractor

        model, _ = trained
        registry = MetricsRegistry()
        shared = HogExtractor(telemetry=registry)
        det = SlidingWindowDetector(
            model, shared, scales=[1.0], telemetry=registry
        )
        det.detect(frame)
        assert registry.counter("hog.extractions") == 1

    def test_owned_components_still_wired(self, trained_model, frame):
        registry = MetricsRegistry()
        det = SlidingWindowDetector(
            trained_model, scales=[1.0, 1.2], telemetry=registry
        )
        det.detect(frame)
        snap = registry.snapshot()
        assert snap.counters["hog.extractions"] == 1
        assert snap.counters["scale.grids"] >= 1  # scaler wired too
        assert any(p.endswith("hog.gradient") for p in snap.spans)


class TestTrainingTelemetry:
    def test_train_records_training_time_extraction(self, tiny_dataset):
        det = MultiScalePedestrianDetector.train(
            tiny_dataset.train_windows(),
            DetectorConfig(scales=(1.0,), telemetry=True),
        )
        snap = det.snapshot()  # before any detect() call
        n_windows = len(tiny_dataset.train_windows().images)
        assert snap.counters["hog.extractions"] == n_windows
        assert any(p.endswith("hog.histogram") for p in snap.spans)

    def test_train_and_detect_share_one_registry(self, tiny_dataset, frame):
        det = MultiScalePedestrianDetector.train(
            tiny_dataset.train_windows(),
            DetectorConfig(scales=(1.0,), telemetry=True),
        )
        before = det.telemetry.counter("hog.extractions")
        det.detect(frame)
        assert det.telemetry.counter("hog.extractions") == before + 1

    def test_train_without_telemetry_stays_dark(self, tiny_dataset):
        det = MultiScalePedestrianDetector.train(
            tiny_dataset.train_windows(), DetectorConfig(scales=(1.0,))
        )
        assert det.telemetry is None

    def test_supplied_registry_requires_config_flag(self, trained_model):
        with pytest.raises(ParameterError, match="config.telemetry"):
            MultiScalePedestrianDetector(
                trained_model,
                DetectorConfig(scales=(1.0,)),
                telemetry=MetricsRegistry(),
            )


class TestPipelineTelemetry:
    def test_config_flag_creates_registry(self, trained_model):
        det = MultiScalePedestrianDetector(
            trained_model, DetectorConfig(telemetry=True)
        )
        assert det.telemetry is not None
        assert det.telemetry.enabled

    def test_default_has_no_registry_and_snapshot_raises(self, trained_model):
        det = MultiScalePedestrianDetector(trained_model)
        assert det.telemetry is None
        with pytest.raises(ParameterError, match="telemetry is disabled"):
            det.snapshot()

    def test_snapshot_counts_frames(self, trained_model, frame):
        det = MultiScalePedestrianDetector(
            trained_model,
            DetectorConfig(scales=(1.0, 1.2), telemetry=True),
        )
        det.detect(frame)
        det.detect(frame)
        snap = det.snapshot()
        assert snap.counters["detect.frames"] == 2
        assert snap.counters["hog.extractions"] == 2
        assert snap.spans["detect.frame"].count == 2

    def test_invalid_scales_rejected_in_init(self, trained_model):
        # A config that skipped DetectorConfig validation (e.g. a
        # subclass overriding __post_init__) must still fail fast.
        @dataclasses.dataclass(frozen=True)
        class LaxConfig(DetectorConfig):
            def __post_init__(self):
                pass

        with pytest.raises(ParameterError, match="non-empty"):
            MultiScalePedestrianDetector(trained_model, LaxConfig(scales=()))
        with pytest.raises(ParameterError, match="strictly positive"):
            MultiScalePedestrianDetector(
                trained_model, LaxConfig(scales=(1.0, -0.5))
            )


class TestEventSimTelemetry:
    def test_gauges_match_simulation_result(self):
        registry = MetricsRegistry()
        result = simulate_frame(PipelineConfig(), telemetry=registry)
        snap = registry.snapshot()
        assert snap.gauges["hw.sim.total_cycles"] == result.total_cycles
        assert snap.gauges["hw.sim.classifier_stall_cycles"] == \
            result.classifier_stall_cycles
        assert snap.spans["hw.simulate_frame"].count == 1

    def test_telemetry_does_not_change_result(self):
        plain = simulate_frame(PipelineConfig())
        instrumented = simulate_frame(
            PipelineConfig(), telemetry=MetricsRegistry()
        )
        assert plain == instrumented


class TestAcceleratorTelemetry:
    def test_process_frame_records_cycle_gauges(self, trained_model, frame):
        det = MultiScalePedestrianDetector(
            trained_model, DetectorConfig(scales=(1.0, 1.2), telemetry=True)
        )
        accel = det.to_accelerator()
        accel_result = accel.process_frame(frame)
        snap = det.snapshot()
        assert snap.gauges["hw.extractor_cycles"] == \
            accel_result.timing.extractor_cycles
        assert snap.gauges["hw.frames_per_second"] == pytest.approx(
            accel_result.timing.frames_per_second
        )
        assert snap.counters["accel.frames"] == 1
        accel_scanned = sum(
            v for k, v in snap.counters.items()
            if k.startswith("accel.scale[") and k.endswith("windows_scanned")
        )
        assert accel_scanned == accel_result.total_windows
