"""Equivalence, caching and wiring tests for the partial-score scorer.

The scorer (:mod:`repro.detect.scoring`) must be a drop-in replacement
for scoring the descriptor matrix with one GEMM, the reference these
tests build themselves from
:func:`~repro.hog.extractor.window_descriptor_matrix` and
:meth:`~repro.svm.model.LinearSvmModel.decision_function`: the dense
grid (no threshold) matches it to float round-off on every geometry the
detector stack can produce — dense and strided grids, signed/unsigned
gradients, rescaled-model window extents, degenerate one-window and
empty grids — and the early-reject cascade (a threshold) is bitwise
equal to the dense grid above its threshold, so detections are
identical end-to-end through every execution backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.detect.detector as detector_module
from repro.core import DetectorConfig, MultiScalePedestrianDetector
from repro.detect import (
    ScorerPlan,
    SlidingWindowDetector,
    anchors_to_boxes,
    classify_grid,
    classify_grid_windows,
    classify_grid_with_scaled_model,
    plan_for,
    score_blocks_cascade,
    score_blocks_conv,
)
from repro.errors import ParameterError, ShapeError
from repro.hog import HogExtractor, HogFeatureGrid, HogParameters
from repro.hog.extractor import window_descriptor_matrix
from repro.svm import LinearSvmModel
from repro.svm.model_scaling import model_pyramid
from repro.telemetry import MetricsRegistry

#: Acceptance tolerance: the scorer and the descriptor-matrix GEMM
#: regroup float additions, so the scores agree to round-off, far
#: inside 1e-9 absolute.
TOL = dict(rtol=0.0, atol=1e-9)


@pytest.fixture(scope="module")
def frame():
    return np.random.default_rng(17).random((256, 224))


@pytest.fixture(scope="module")
def grid(frame):
    return HogExtractor().extract(frame)


@pytest.fixture(scope="module")
def duty_grids(grid, frame):
    """A textured grid and a textureless one (a uniform frame: every
    block is zero, the cascade's stage-0 bound collapses to the bias)."""
    return [grid, HogExtractor().extract(np.full(frame.shape, 0.45))]


def _random_model(n_features, seed=5):
    rng = np.random.default_rng(seed)
    return LinearSvmModel(
        weights=rng.standard_normal(n_features), bias=float(rng.normal())
    )


def _grid_from_blocks(blocks):
    """A minimal grid carrying arbitrary blocks (params are unused by
    ``classify_grid_windows``)."""
    return HogFeatureGrid(
        cells=np.zeros((1, 1, 1)), blocks=blocks, params=HogParameters()
    )


def _oracle(blocks, model, blocks_y, blocks_x, stride=1):
    """The reference score grid: every window's descriptor, materialized,
    scored with one GEMM."""
    rows = blocks.shape[0] - blocks_y + 1
    cols = blocks.shape[1] - blocks_x + 1
    if rows <= 0 or cols <= 0:
        return np.empty((0, 0))
    matrix = window_descriptor_matrix(blocks, blocks_y, blocks_x,
                                      stride=stride)
    return model.decision_function(matrix).reshape(
        len(range(0, rows, stride)), len(range(0, cols, stride))
    )


def _grid_oracle(grid, model, stride=1):
    bx, by = grid.params.blocks_per_window
    return _oracle(grid.blocks, model, by, bx, stride)


class TestConvGemmEquivalence:
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_classify_grid_across_strides(self, grid, trained_model, stride):
        gemm = _grid_oracle(grid, trained_model, stride=stride)
        conv = classify_grid(grid, trained_model, stride=stride)
        assert gemm.shape == conv.shape
        np.testing.assert_allclose(conv, gemm, **TOL)

    def test_signed_gradients(self, frame):
        params = HogParameters(signed_gradients=True)
        signed_grid = HogExtractor(params).extract(frame)
        model = _random_model(params.descriptor_length)
        gemm = _grid_oracle(signed_grid, model)
        conv = classify_grid(signed_grid, model)
        np.testing.assert_allclose(conv, gemm, **TOL)

    @pytest.mark.parametrize("scale", [0.8, 1.0, 1.25])
    def test_rescaled_model_window_extents(self, grid, trained_model, scale):
        params = grid.params
        (scaled,) = model_pyramid(trained_model, params, (scale,))
        gemm = _oracle(grid.blocks, scaled.model, scaled.blocks_y,
                       scaled.blocks_x)
        conv = classify_grid_with_scaled_model(grid, scaled)
        assert gemm.shape == conv.shape
        np.testing.assert_allclose(conv, gemm, **TOL)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_rescaled_extents_with_stride(self, grid, trained_model, stride):
        (scaled,) = model_pyramid(trained_model, grid.params, (1.3,))
        gemm = _oracle(grid.blocks, scaled.model, scaled.blocks_y,
                       scaled.blocks_x, stride=stride)
        conv = classify_grid_windows(
            grid, scaled.model, blocks_y=scaled.blocks_y,
            blocks_x=scaled.blocks_x, stride=stride,
        )
        np.testing.assert_allclose(conv, gemm, **TOL)

    def test_grid_barely_one_window(self, trained_model):
        params = HogParameters()
        image = np.random.default_rng(3).random(
            (params.window_height, params.window_width)
        )
        tight = HogExtractor(params).extract(image)
        assert tight.n_window_positions == (1, 1)
        gemm = _grid_oracle(tight, trained_model)
        conv = classify_grid(tight, trained_model)
        assert gemm.shape == conv.shape == (1, 1)
        np.testing.assert_allclose(conv, gemm, **TOL)
        manual = trained_model.decision_function(
            tight.window_descriptor(0, 0)
        )[0]
        assert conv[0, 0] == pytest.approx(manual)

    def test_empty_grid(self, trained_model):
        small = HogExtractor().extract(np.zeros((64, 48)))
        assert classify_grid(small, trained_model).size == 0
        assert classify_grid(small, trained_model, threshold=0.0).size == 0

    def test_strided_conv_matches_dense_anchors_bitwise(self, grid,
                                                        trained_model):
        """Strided aggregation reads the same partial sums in the same
        order as the dense run, so shared anchors agree bitwise."""
        dense = classify_grid(grid, trained_model, stride=1)
        coarse = classify_grid(grid, trained_model, stride=2)
        np.testing.assert_array_equal(coarse, dense[::2, ::2])

    @given(
        grid_rows=st.integers(1, 6),
        grid_cols=st.integers(1, 6),
        blocks_y=st.integers(1, 6),
        blocks_x=st.integers(1, 6),
        block_dim=st.integers(1, 8),
        stride=st.integers(1, 3),
        quantile=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_random_geometry(self, grid_rows, grid_cols, blocks_y,
                                      blocks_x, block_dim, stride, quantile,
                                      seed):
        rng = np.random.default_rng(seed)
        blocks = rng.standard_normal((grid_rows, grid_cols, block_dim))
        model = LinearSvmModel(
            weights=rng.standard_normal(blocks_y * blocks_x * block_dim),
            bias=float(rng.normal()),
        )
        fake = _grid_from_blocks(blocks)
        kw = dict(blocks_y=blocks_y, blocks_x=blocks_x, stride=stride)
        gemm = _oracle(blocks, model, blocks_y, blocks_x, stride)
        conv = classify_grid_windows(fake, model, **kw)
        assert gemm.shape == conv.shape
        np.testing.assert_allclose(conv, gemm, **TOL)
        # A threshold picks the cascade: bitwise the dense grid above it.
        threshold = float(np.quantile(conv, quantile)) if conv.size else 0.0
        casc = classify_grid_windows(fake, model, threshold=threshold, **kw)
        above = conv > threshold
        np.testing.assert_array_equal(casc > threshold, above)
        np.testing.assert_array_equal(casc[above], conv[above])


class TestScorerPlan:
    def test_plan_shape_and_layout(self, trained_model):
        plan = ScorerPlan.build(trained_model, 15, 7)
        assert plan.weights_rows.shape == (105, 36)
        assert plan.block_dim == 36
        assert plan.n_positions == 105
        # Row i*bx+j is the window-relative (i, j) weight sub-vector.
        w = trained_model.weights.reshape(105, 36)
        np.testing.assert_array_equal(plan.weights_rows[17], w[17])

    def test_rejects_indivisible_model(self):
        with pytest.raises(ParameterError, match="divisible"):
            ScorerPlan.build(_random_model(100), 3, 7)

    def test_rejects_bad_extent(self, trained_model):
        with pytest.raises(ParameterError, match="extent"):
            ScorerPlan.build(trained_model, 0, 7)

    def test_cache_hits_and_misses_counted(self, grid, trained_model):
        model = _random_model(grid.params.descriptor_length, seed=11)
        registry = MetricsRegistry()
        for _ in range(3):
            classify_grid(grid, model, telemetry=registry)
        snap = registry.snapshot()
        assert snap.counters["detect.scorer.plan_cache_misses"] == 1
        assert snap.counters["detect.scorer.plan_cache_hits"] == 2

    def test_cache_is_per_geometry(self, grid, trained_model):
        model = _random_model(grid.params.descriptor_length, seed=12)
        registry = MetricsRegistry()
        # Same model, two geometries sharing one divisor structure:
        # 3780 = 15*7*36 = 105*36; use (15, 7) and (105, 1).
        plan_a = plan_for(model, 15, 7, telemetry=registry)
        plan_b = plan_for(model, 105, 1, telemetry=registry)
        assert plan_a is not plan_b
        assert plan_for(model, 15, 7, telemetry=registry) is plan_a
        snap = registry.snapshot()
        assert snap.counters["detect.scorer.plan_cache_misses"] == 2
        assert snap.counters["detect.scorer.plan_cache_hits"] == 1

    def test_plan_is_stride_independent(self, grid, trained_model):
        model = _random_model(grid.params.descriptor_length, seed=13)
        registry = MetricsRegistry()
        for stride in (1, 2, 3):
            classify_grid(grid, model, stride=stride, telemetry=registry)
        assert registry.snapshot().counters[
            "detect.scorer.plan_cache_misses"] == 1

    def test_score_blocks_conv_rejects_dim_mismatch(self, trained_model):
        plan = ScorerPlan.build(trained_model, 15, 7)
        with pytest.raises(ShapeError, match="block_dim"):
            score_blocks_conv(np.zeros((20, 20, 9)), plan)


class TestScorerWiring:
    def test_rejects_unknown_scorer(self):
        # The cascade is the detector's only scorer; the config field
        # accepts its name and nothing else.
        for scorer in ("nope", "conv", "gemm"):
            with pytest.raises(ParameterError, match="scorer"):
                DetectorConfig(scorer=scorer)
        assert DetectorConfig(scorer="conv-cascade").scorer == "conv-cascade"

    def test_detector_scorers_agree_end_to_end(self, tiny_dataset, trained,
                                               monkeypatch):
        """The detector (the cascade) against the same detector scoring
        through the descriptor-matrix oracle and through the dense
        grid, swapped in at the module-level ``classify_grid`` it
        calls."""
        model, extractor = trained
        scene = tiny_dataset.make_scene(
            height=288, width=320, n_pedestrians=1,
            pedestrian_heights=(128, 150), scene_index=1,
        )
        unlit = np.full(scene.image.shape, 0.06)  # textureless
        det = SlidingWindowDetector(
            model, extractor, scales=[1.0, 1.2], threshold=-0.2,
        )
        swaps = {
            "gemm": lambda grid, model, stride=1, **_: _grid_oracle(
                grid, model, stride),
            "conv": lambda grid, model, stride=1, **_: classify_grid(
                grid, model, stride),
        }
        for image in (scene.image, unlit):
            casc = det.detect(image)
            results = {}
            for name, swap in swaps.items():
                with monkeypatch.context() as m:
                    m.setattr(detector_module, "classify_grid", swap)
                    results[name] = det.detect(image)
            gemm = results["gemm"]
            assert len(gemm.detections) == len(casc.detections)
            assert gemm.n_windows_evaluated == casc.n_windows_evaluated
            for a, b in zip(gemm.detections, casc.detections):
                assert (a.top, a.left, a.height, a.width, a.scale) == \
                    (b.top, b.left, b.height, b.width, b.scale)
                assert a.score == pytest.approx(b.score, abs=1e-9)
            # The cascade is bitwise-equal to the dense grid where a
            # detection survived, not merely close.
            assert results["conv"].detections == casc.detections

    def test_partial_matmul_span_recorded_per_scale(self, tiny_dataset,
                                                    trained):
        from repro.telemetry import stage_report

        model, extractor = trained
        scene = tiny_dataset.make_scene(height=256, width=256,
                                        n_pedestrians=0)
        registry = MetricsRegistry()
        det = SlidingWindowDetector(
            model, extractor, scales=[1.0, 1.3], telemetry=registry
        )
        det.detect(scene.image)
        snap = registry.snapshot()
        leaves = {p.rsplit("/", 1)[-1] for p in snap.spans}
        assert "detect.scale[1.00].partial_matmul" in leaves
        assert "detect.scale[1.30].partial_matmul" in leaves
        stages = stage_report(snap)["stages"]
        assert stages["partial_matmul"]["count"] == 2
        assert stages["partial_matmul"]["total_ms"] <= \
            stages["classify"]["total_ms"]

    def test_config_scorer_reaches_sliding_detector(self, trained_model,
                                                    frame):
        """The config's one scorer is what the detector runs: every
        window it scans enters the cascade."""
        det = MultiScalePedestrianDetector(
            trained_model,
            DetectorConfig(scorer="conv-cascade", telemetry=True),
        )
        result = det.detect(frame)
        counters = det.snapshot().counters
        assert result.n_windows_evaluated > 0
        assert counters["detect.cascade.anchors_in"] == \
            result.n_windows_evaluated

    def test_spec_roundtrip_preserves_scorer(self, trained_model):
        import pickle

        from repro.parallel.spec import DetectorSpec

        det = MultiScalePedestrianDetector(
            trained_model, DetectorConfig(threshold=0.25, stride=2)
        )
        spec = pickle.loads(DetectorSpec.from_detector(det).to_bytes())
        rebuilt = spec.build()
        assert rebuilt.config == det.config
        assert rebuilt.config.scorer == "conv-cascade"
        assert rebuilt._detector.threshold == 0.25


class TestCascadeExactness:
    """The early-reject cascade must be *exactly* interchangeable with
    the dense grid: bitwise-equal scores for every anchor it let
    finish, upper bounds at or below threshold for every anchor it
    rejected, and therefore the identical detection set as the
    descriptor-matrix oracle at the shared threshold."""

    def _assert_cascade_matches(self, blocks, model, blocks_y, blocks_x,
                                stride, threshold, cascade_k):
        gemm = _oracle(blocks, model, blocks_y, blocks_x, stride)
        plan = plan_for(model, blocks_y, blocks_x)
        conv = score_blocks_conv(blocks, plan, stride=stride)
        stats = {}
        casc = score_blocks_cascade(
            blocks, plan, threshold, stride=stride, cascade_k=cascade_k,
            stats_out=stats,
        )
        assert casc.shape == gemm.shape
        survived = ~stats["rejected"]
        # Survivors: bitwise equal to conv, round-off equal to gemm.
        np.testing.assert_array_equal(casc[survived], conv[survived])
        np.testing.assert_allclose(casc[survived], gemm[survived], **TOL)
        # Rejected anchors: an upper bound (to round-off — the stored
        # partial sum is accumulated in cascade order), at or below
        # threshold by construction.
        rejected = stats["rejected"]
        assert np.all(casc[rejected] >= conv[rejected] - 1e-9)
        assert np.all(casc[rejected] <= threshold)
        # Identical detection set against the conv reference (exact).
        np.testing.assert_array_equal(casc > threshold, conv > threshold)
        # Against the gemm oracle the mask can only differ where the
        # true score sits within summation-order round-off of the
        # threshold (conv and gemm add in different orders).
        mask_diff = (casc > threshold) != (gemm > threshold)
        assert np.all(np.abs(gemm[mask_diff] - threshold) <= 1e-9)
        return stats, casc, conv

    @given(
        grid_rows=st.integers(1, 8),
        grid_cols=st.integers(1, 8),
        blocks_y=st.integers(1, 6),
        blocks_x=st.integers(1, 6),
        block_dim=st.integers(1, 8),
        stride=st.integers(1, 3),
        cascade_k=st.integers(1, 40),
        threshold_kind=st.sampled_from(
            ("reject_nothing", "reject_everything", "quantile")
        ),
        quantile=st.floats(0.05, 0.95),
        nonneg=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_cascade_equals_gemm(self, grid_rows, grid_cols,
                                          blocks_y, blocks_x, block_dim,
                                          stride, cascade_k, threshold_kind,
                                          quantile, nonneg, seed):
        rng = np.random.default_rng(seed)
        blocks = rng.standard_normal((grid_rows, grid_cols, block_dim))
        if nonneg:
            blocks = np.abs(blocks)  # L2-hys-like non-negative features
        model = LinearSvmModel(
            weights=rng.standard_normal(blocks_y * blocks_x * block_dim),
            bias=float(rng.normal()),
        )
        gemm = _oracle(blocks, model, blocks_y, blocks_x, stride)
        if threshold_kind == "reject_nothing":
            threshold = -1e12
        elif threshold_kind == "reject_everything":
            threshold = 1e12
        elif gemm.size:
            threshold = float(np.quantile(gemm, quantile))
        else:
            threshold = 0.0
        stats, casc, conv = self._assert_cascade_matches(
            blocks, model, blocks_y, blocks_x, stride, threshold, cascade_k
        )
        if threshold_kind == "reject_nothing" and casc.size:
            assert not stats["rejected"].any()
            np.testing.assert_array_equal(casc, conv)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_cascade_on_real_hog_grid(self, duty_grids, trained_model,
                                      stride):
        thresholds = (-1e12, 0.0, 0.5, 1e12)
        for grid in duty_grids:
            for threshold in thresholds:
                self._assert_cascade_matches(
                    grid.blocks, trained_model, 15, 7, stride, threshold,
                    16,
                )

    def test_cascade_boxes_identical_to_gemm(self, duty_grids,
                                             trained_model):
        threshold = 0.0
        for grid in duty_grids:
            gemm = _grid_oracle(grid, trained_model)
            casc = classify_grid(grid, trained_model, threshold=threshold)
            conv = classify_grid(grid, trained_model)
            gemm_boxes = anchors_to_boxes(gemm, grid, threshold)
            casc_boxes = anchors_to_boxes(casc, grid, threshold)
            conv_boxes = anchors_to_boxes(conv, grid, threshold)
            assert [
                (b.top, b.left, b.height, b.width, b.score)
                for b in casc_boxes
            ] == [
                (b.top, b.left, b.height, b.width, b.score)
                for b in conv_boxes
            ]
            assert len(casc_boxes) == len(gemm_boxes)
            for a, b in zip(gemm_boxes, casc_boxes):
                assert (a.top, a.left) == (b.top, b.left)
                assert a.score == pytest.approx(b.score, abs=1e-9)

    def test_nan_blocks_propagate_not_reject(self, trained_model):
        plan = plan_for(trained_model, 15, 7)
        rng = np.random.default_rng(9)
        blocks = rng.random((20, 12, 36))
        blocks[4, 5, :] = np.nan
        conv = score_blocks_conv(blocks, plan)
        stats = {}
        casc = score_blocks_cascade(blocks, plan, 0.0, stats_out=stats)
        # A poisoned bound must never bound anything out: every anchor
        # whose window covers the NaN block stays alive, falls through
        # to dense accumulation, and reproduces the NaNs exactly.
        poisoned = np.isnan(conv)
        assert poisoned.any()
        assert not stats["rejected"][poisoned].any()
        np.testing.assert_array_equal(np.isnan(casc), np.isnan(conv))
        np.testing.assert_array_equal(casc[~poisoned & ~stats["rejected"]],
                                      conv[~poisoned & ~stats["rejected"]])

    def test_rejects_bad_cascade_k(self, grid, trained_model):
        plan = plan_for(trained_model, 15, 7)
        with pytest.raises(ParameterError, match="cascade_k"):
            score_blocks_cascade(grid.blocks, plan, 0.0, cascade_k=0)

    def test_cascade_telemetry_counters(self, grid, trained_model):
        registry = MetricsRegistry()
        plan = plan_for(trained_model, 15, 7)
        # A threshold far above any reachable upper bound forces full
        # stage-0 rejection.
        hi = float(score_blocks_conv(grid.blocks, plan).max()) + 1e6
        score_blocks_cascade(grid.blocks, plan, hi, telemetry=registry)
        counters = registry.snapshot().counters
        assert counters["detect.cascade.anchors_in"] > 0
        assert counters["detect.cascade.anchors_survived"] == 0
        assert counters["detect.cascade.stage[0].anchors_rejected"] == \
            counters["detect.cascade.anchors_in"]
        # Full stage-0 rejection happens before the partial matmul, so
        # no block position is ever accumulated.
        assert counters["detect.cascade.positions_accumulated"] == 0

    def test_cascade_aggregate_span_recorded_per_scale(self, tiny_dataset,
                                                       trained):
        from repro.telemetry import stage_report

        model, extractor = trained
        scene = tiny_dataset.make_scene(height=256, width=256,
                                        n_pedestrians=0)
        registry = MetricsRegistry()
        det = SlidingWindowDetector(
            model, extractor, scales=[1.0, 1.3], telemetry=registry,
        )
        det.detect(scene.image)
        snap = registry.snapshot()
        leaves = {p.rsplit("/", 1)[-1] for p in snap.spans}
        assert "detect.scale[1.00].cascade_aggregate" in leaves
        assert "detect.scale[1.30].cascade_aggregate" in leaves
        assert stage_report(snap)["stages"]["cascade_aggregate"]["count"] \
            == 2


class TestEmptyGridDtype:
    def test_empty_returns_follow_scorer_dtype(self, trained_model):
        """Regression: empty grids used to return float64
        unconditionally, drifting from the dtype a fitting grid would
        have produced."""
        plan = plan_for(trained_model, 15, 7)
        small32 = np.zeros((4, 4, 36), dtype=np.float32)
        small64 = np.zeros((4, 4, 36), dtype=np.float64)
        fitting32 = np.zeros((15, 7, 36), dtype=np.float32)
        # Empty and non-empty agree (weights are float64, so float32
        # grids still score in float64 — result_type decides).
        assert score_blocks_conv(small32, plan).dtype == \
            score_blocks_conv(fitting32, plan).dtype
        assert score_blocks_conv(small64, plan).dtype == np.float64
        assert score_blocks_cascade(small32, plan, 0.0).dtype == \
            score_blocks_conv(small32, plan).dtype
        small_grid = _grid_from_blocks(small32)
        out = classify_grid_windows(small_grid, trained_model, 15, 7)
        assert out.size == 0
        assert out.dtype == score_blocks_conv(fitting32, plan).dtype

    def test_cascade_empty_grid_stats(self, trained_model):
        plan = plan_for(trained_model, 15, 7)
        stats = {}
        out = score_blocks_cascade(
            np.zeros((4, 4, 36)), plan, 0.0, stats_out=stats
        )
        assert out.size == 0
        assert stats["anchors_in"] == 0
        assert stats["rejected"].size == 0


class TestPlanCacheThreadSafety:
    def test_concurrent_plan_for_builds_once_and_counts_exactly(
        self, trained_model
    ):
        """The check-then-set is under a lock: N racing threads on a
        cold model must yield one build and N-1 hits, with the two
        counters summing to the number of calls."""
        import threading

        model = _random_model(15 * 7 * 36, seed=41)
        registry = MetricsRegistry()
        n_threads = 8
        plans = [None] * n_threads
        barrier = threading.Barrier(n_threads)

        def hit(i):
            barrier.wait()
            plans[i] = plan_for(model, 15, 7, telemetry=registry)

        threads = [threading.Thread(target=hit, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(p is plans[0] for p in plans)
        counters = registry.snapshot().counters
        assert counters["detect.scorer.plan_cache_misses"] == 1
        assert counters["detect.scorer.plan_cache_hits"] == n_threads - 1


class TestBackendParity:
    def test_process_backend_matches_thread_frame_for_frame(
        self, tiny_dataset, trained_model
    ):
        """detect_batch(backend="process") must be indistinguishable
        from the thread backend, frame for frame."""
        config = DetectorConfig(scales=(1.0,), threshold=-0.2, stride=2)
        detector = MultiScalePedestrianDetector(trained_model, config)
        frames = [
            tiny_dataset.make_scene(
                height=192, width=192, n_pedestrians=1,
                pedestrian_heights=(128, 140), scene_index=i,
            ).image
            for i in range(3)
        ]
        threaded = detector.detect_batch(frames, workers=2,
                                         backend="thread")
        processed = detector.detect_batch(frames, workers=2,
                                          backend="process")
        assert len(threaded) == len(processed) == len(frames)
        for t, p in zip(threaded, processed):
            assert len(t.detections) == len(p.detections)
            for a, b in zip(t.detections, p.detections):
                assert (a.top, a.left, a.height, a.width, a.scale) == \
                    (b.top, b.left, b.height, b.width, b.scale)
                assert a.score == b.score

    def test_cascade_backend_parity_frame_for_frame(
        self, tiny_dataset, trained_model
    ):
        """The cascade's rejection path rides DetectorSpec into process
        workers too: on textured frames and on a textureless one (whose
        every window the bias alone rejects at threshold 0) both backends
        match in-process detection, detection for detection."""
        config = DetectorConfig(scales=(1.0,), threshold=0.0, stride=2)
        detector = MultiScalePedestrianDetector(trained_model, config)
        frames = [
            tiny_dataset.make_scene(
                height=192, width=192, n_pedestrians=1,
                pedestrian_heights=(128, 140), scene_index=i,
            ).image
            for i in range(2)
        ] + [np.full((192, 192), 0.06)]
        threaded = detector.detect_batch(frames, workers=2,
                                         backend="thread")
        processed = detector.detect_batch(frames, workers=2,
                                          backend="process")
        reference = [detector.detect(frame) for frame in frames]
        assert reference[0].detections and not reference[-1].detections
        assert len(threaded) == len(processed) == len(frames)
        for t, p, r in zip(threaded, processed, reference):
            assert t.detections == p.detections == r.detections
