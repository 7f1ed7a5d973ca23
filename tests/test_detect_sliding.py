"""Unit tests for sliding-window classification and the full detector."""

import numpy as np
import pytest

from repro.detect import SlidingWindowDetector, anchors_to_boxes, classify_grid
from repro.errors import ParameterError
from repro.hog import HogExtractor
from repro.telemetry import MetricsRegistry


@pytest.fixture(scope="module")
def frame():
    return np.random.default_rng(17).random((192, 160))


@pytest.fixture(scope="module")
def grid(frame, ):
    return HogExtractor().extract(frame)


class TestClassifyGrid:
    def test_score_matrix_shape(self, grid, trained_model):
        scores = classify_grid(grid, trained_model)
        assert scores.shape == grid.n_window_positions

    def test_matches_manual_descriptor_scoring(self, grid, trained_model):
        scores = classify_grid(grid, trained_model)
        r, c = 3, 5
        manual = trained_model.decision_function(grid.window_descriptor(r, c))
        assert scores[r, c] == pytest.approx(manual[0])

    def test_stride(self, grid, trained_model):
        dense = classify_grid(grid, trained_model, stride=1)
        coarse = classify_grid(grid, trained_model, stride=2)
        np.testing.assert_allclose(coarse, dense[::2, ::2])

    def test_too_small_grid_gives_empty(self, trained_model):
        small = HogExtractor().extract(np.zeros((64, 48)))
        assert classify_grid(small, trained_model).size == 0

    def test_rejects_bad_stride(self, grid, trained_model):
        with pytest.raises(ParameterError, match="stride"):
            classify_grid(grid, trained_model, stride=0)


class TestAnchorsToBoxes:
    def test_threshold_filters(self, grid, trained_model):
        scores = classify_grid(grid, trained_model)
        all_boxes = anchors_to_boxes(scores, grid, threshold=-np.inf)
        none = anchors_to_boxes(scores, grid, threshold=np.inf)
        assert len(all_boxes) == scores.size
        assert none == []

    def test_box_geometry_at_scale_one(self, grid, trained_model):
        scores = np.full(grid.n_window_positions, -1.0)
        scores[2, 3] = 5.0
        boxes = anchors_to_boxes(scores, grid, threshold=0.0)
        assert len(boxes) == 1
        b = boxes[0]
        assert (b.top, b.left) == (16, 24)  # anchor * cell_size
        assert (b.height, b.width) == (128, 64)
        assert b.score == 5.0

    def test_box_geometry_scales(self, frame, trained_model):
        from repro.hog import FeatureScaler

        base = HogExtractor().extract(frame)
        scaled = FeatureScaler().scale_grid(base, 1.5)
        scores = np.full(scaled.n_window_positions, -1.0)
        scores[0, 1] = 2.0
        boxes = anchors_to_boxes(scores, scaled, threshold=0.0)
        b = boxes[0]
        assert b.height == pytest.approx(128 * 1.5)
        assert b.left == pytest.approx(1 * 8 * 1.5)

    def test_stride_scales_anchor_positions(self, grid, trained_model):
        scores = classify_grid(grid, trained_model, stride=2)
        marked = np.full_like(scores, -1.0)
        marked[1, 1] = 3.0
        boxes = anchors_to_boxes(marked, grid, threshold=0.0, stride=2)
        assert (boxes[0].top, boxes[0].left) == (16, 16)


class TestSlidingWindowDetector:
    @pytest.mark.parametrize("strategy", ["feature", "image"])
    def test_detects_planted_pedestrian(self, tiny_dataset, trained, strategy):
        model, extractor = trained
        scene = tiny_dataset.make_scene(
            height=288, width=320, n_pedestrians=1,
            pedestrian_heights=(128, 150), scene_index=1,
        )
        detector = SlidingWindowDetector(
            model, extractor, strategy=strategy, scales=[1.0, 1.2]
        )
        result = detector.detect(scene.image)
        gt = scene.boxes[0]
        hits = [
            d
            for d in result.detections
            if abs(d.top - gt.top) < 32 and abs(d.left - gt.left) < 24
        ]
        assert hits, f"no detection near ground truth with {strategy} pyramid"

    def test_result_diagnostics(self, tiny_dataset, trained):
        model, extractor = trained
        scene = tiny_dataset.make_scene(height=256, width=256, n_pedestrians=1,
                                        pedestrian_heights=(128, 140))
        detector = SlidingWindowDetector(model, extractor, scales=[1.0, 1.3])
        result = detector.detect(scene.image)
        assert result.n_windows_evaluated > 0
        assert result.scales_used == [1.0, 1.3]
        assert result.timings.total > 0.0
        assert result.timings.extraction > 0.0

    def test_feature_strategy_extracts_once(self, tiny_dataset, trained):
        """The feature pyramid's extraction time must not grow with the
        scale count (the paper's core speed argument)."""
        model, extractor = trained
        scene = tiny_dataset.make_scene(height=256, width=256, n_pedestrians=0)
        one = SlidingWindowDetector(model, extractor, scales=[1.0]).detect(scene.image)
        three = SlidingWindowDetector(
            model, extractor, scales=[1.0, 1.2, 1.44]
        ).detect(scene.image)
        assert three.timings.extraction < 3.0 * one.timings.extraction

    @pytest.mark.parametrize("strategy, extractions",
                             [("feature", 1), ("image", 4)])
    def test_extractions_per_frame(self, trained_model, strategy,
                                   extractions):
        """HOG runs once per frame on the feature pyramid and once per
        scale on the image pyramid, whatever the machine's speed."""
        registry = MetricsRegistry()
        detector = SlidingWindowDetector(
            trained_model, strategy=strategy,
            scales=[1.0, 1.2, 1.44, 1.73], telemetry=registry,
        )
        detector.detect(np.random.default_rng(0).random((256, 256)))
        assert registry.counter("hog.extractions") == extractions

    def test_rejects_model_mismatch(self, trained_model):
        from repro.hog import HogParameters

        big = HogExtractor(HogParameters(window_width=72, window_height=128))
        with pytest.raises(ParameterError, match="descriptor"):
            SlidingWindowDetector(trained_model, big)

    def test_rejects_bad_scales(self, trained):
        model, extractor = trained
        with pytest.raises(ParameterError, match="positive"):
            SlidingWindowDetector(model, extractor, scales=[1.0, -1.0])

    def test_threshold_monotone(self, tiny_dataset, trained):
        model, extractor = trained
        scene = tiny_dataset.make_scene(height=256, width=256, n_pedestrians=2,
                                        pedestrian_heights=(128, 150))
        low = SlidingWindowDetector(model, extractor, threshold=-1.0).detect(scene.image)
        high = SlidingWindowDetector(model, extractor, threshold=1.5).detect(scene.image)
        assert len(high.detections) <= len(low.detections)


class TestStridedDetection:
    """End-to-end coverage for ``stride > 1`` (previously untested)."""

    @pytest.fixture(scope="class")
    def scene(self, tiny_dataset):
        return tiny_dataset.make_scene(
            height=288, width=320, n_pedestrians=1,
            pedestrian_heights=(128, 150), scene_index=1,
        )

    def test_stride2_boxes_match_stride1_anchor_subset(
        self, scene, trained
    ):
        """A stride-2 detection must be *the same image box* its
        stride-1 even-anchor counterpart produces — same top/left,
        size and score."""
        model, extractor = trained
        grid = extractor.extract(scene.image)
        dense = classify_grid(grid, model, stride=1)
        coarse = classify_grid(grid, model, stride=2)
        threshold = float(np.median(dense))  # guarantee hits both ways
        boxes1 = anchors_to_boxes(dense, grid, threshold, stride=1)
        boxes2 = anchors_to_boxes(coarse, grid, threshold, stride=2)
        assert boxes2, "no strided detections above the median score"
        cell = grid.params.cell_size
        even_anchors = {
            (b.top, b.left): b for b in boxes1
            if (b.top / cell) % 2 == 0 and (b.left / cell) % 2 == 0
        }
        assert len(boxes2) == len(even_anchors)
        for b in boxes2:
            match = even_anchors[(b.top, b.left)]
            assert b.score == match.score
            assert (b.height, b.width) == (match.height, match.width)

    def test_stride2_detector_boxes_subset_of_stride1(
        self, scene, trained
    ):
        """Full detector: every strided detection (pre-NMS equivalence
        checked above; here with NMS off via iou=1.0-ish threshold on
        a permissive run) appears among the stride-1 detections."""
        model, extractor = trained
        kwargs = dict(scales=[1.0], threshold=-0.5, nms_iou=1.0)
        one = SlidingWindowDetector(
            model, extractor, stride=1, **kwargs
        ).detect(scene.image)
        two = SlidingWindowDetector(
            model, extractor, stride=2, **kwargs
        ).detect(scene.image)
        boxes1 = {(d.top, d.left, d.score) for d in one.detections}
        assert two.detections, "stride-2 run found nothing at -0.5"
        for d in two.detections:
            assert (d.top, d.left, d.score) in boxes1

    def test_stride2_window_counters_match_strided_anchor_count(
        self, scene, trained
    ):
        from repro.telemetry import MetricsRegistry

        model, extractor = trained
        registry = MetricsRegistry()
        det = SlidingWindowDetector(
            model, extractor, scales=[1.0, 1.2], stride=2,
            telemetry=registry,
        )
        result = det.detect(scene.image)
        snap = registry.snapshot()
        grid = extractor.extract(scene.image)

        total_expected = 0
        from repro.hog import FeatureScaler

        for scale in (1.0, 1.2):
            level = grid if scale == 1.0 else \
                FeatureScaler().scale_grid(grid, scale)
            rows, cols = level.n_window_positions
            expected = len(range(0, rows, 2)) * len(range(0, cols, 2))
            counted = snap.counters[
                f"detect.scale[{scale:.2f}].windows_scanned"
            ]
            assert counted == expected
            total_expected += expected
        assert snap.counters["detect.windows_scanned"] == total_expected
        assert result.n_windows_evaluated == total_expected
