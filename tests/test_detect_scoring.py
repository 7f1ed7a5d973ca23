"""Equivalence, caching and wiring tests for the partial-score scorer.

The conv scorer (:mod:`repro.detect.scoring`) must be a drop-in
replacement for the descriptor-matrix GEMM: same scores to float
round-off on every geometry the detector stack can produce — dense and
strided grids, signed/unsigned gradients, rescaled-model window
extents, degenerate one-window and empty grids — and identical
detections end-to-end through every execution backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DetectorConfig, MultiScalePedestrianDetector
from repro.detect import (
    SCORERS,
    ScorerPlan,
    SlidingWindowDetector,
    anchors_to_boxes,
    classify_grid,
    classify_grid_windows,
    classify_grid_with_scaled_model,
    plan_for,
    score_blocks_cascade,
    score_blocks_conv,
    score_blocks_conv_fixed,
)
from repro.errors import ParameterError, ShapeError
from repro.hog import HogExtractor, HogFeatureGrid, HogParameters
from repro.svm import LinearSvmModel
from repro.svm.model_scaling import model_pyramid
from repro.telemetry import MetricsRegistry

#: Acceptance tolerance: conv and gemm regroup float additions, so the
#: scores agree to round-off, far inside 1e-9 absolute.
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


class TestConvGemmEquivalence:
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_classify_grid_across_strides(self, grid, trained_model, stride):
        gemm = classify_grid(grid, trained_model, stride=stride,
                             scorer="gemm")
        conv = classify_grid(grid, trained_model, stride=stride,
                             scorer="conv")
        assert gemm.shape == conv.shape
        np.testing.assert_allclose(conv, gemm, **TOL)

    def test_signed_gradients(self, frame):
        params = HogParameters(signed_gradients=True)
        signed_grid = HogExtractor(params).extract(frame)
        model = _random_model(params.descriptor_length)
        gemm = classify_grid(signed_grid, model, scorer="gemm")
        conv = classify_grid(signed_grid, model, scorer="conv")
        np.testing.assert_allclose(conv, gemm, **TOL)

    @pytest.mark.parametrize("scale", [0.8, 1.0, 1.25])
    def test_rescaled_model_window_extents(self, grid, trained_model, scale):
        params = grid.params
        (scaled,) = model_pyramid(trained_model, params, (scale,))
        gemm = classify_grid_with_scaled_model(grid, scaled, scorer="gemm")
        conv = classify_grid_with_scaled_model(grid, scaled, scorer="conv")
        assert gemm.shape == conv.shape
        np.testing.assert_allclose(conv, gemm, **TOL)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_rescaled_extents_with_stride(self, grid, trained_model, stride):
        (scaled,) = model_pyramid(trained_model, grid.params, (1.3,))
        kw = dict(blocks_y=scaled.blocks_y, blocks_x=scaled.blocks_x,
                  stride=stride)
        gemm = classify_grid_windows(grid, scaled.model, scorer="gemm", **kw)
        conv = classify_grid_windows(grid, scaled.model, scorer="conv", **kw)
        np.testing.assert_allclose(conv, gemm, **TOL)

    def test_grid_barely_one_window(self, trained_model):
        params = HogParameters()
        image = np.random.default_rng(3).random(
            (params.window_height, params.window_width)
        )
        tight = HogExtractor(params).extract(image)
        assert tight.n_window_positions == (1, 1)
        gemm = classify_grid(tight, trained_model, scorer="gemm")
        conv = classify_grid(tight, trained_model, scorer="conv")
        assert gemm.shape == conv.shape == (1, 1)
        np.testing.assert_allclose(conv, gemm, **TOL)
        manual = trained_model.decision_function(
            tight.window_descriptor(0, 0)
        )[0]
        assert conv[0, 0] == pytest.approx(manual)

    def test_empty_grid(self, trained_model):
        small = HogExtractor().extract(np.zeros((64, 48)))
        for scorer in SCORERS:
            assert classify_grid(small, trained_model,
                                 scorer=scorer).size == 0

    def test_strided_conv_matches_dense_anchors_bitwise(self, grid,
                                                        trained_model):
        """Strided aggregation reads the same partial sums in the same
        order as the dense run, so shared anchors agree bitwise."""
        dense = classify_grid(grid, trained_model, stride=1, scorer="conv")
        coarse = classify_grid(grid, trained_model, stride=2, scorer="conv")
        np.testing.assert_array_equal(coarse, dense[::2, ::2])

    @given(
        grid_rows=st.integers(1, 6),
        grid_cols=st.integers(1, 6),
        blocks_y=st.integers(1, 6),
        blocks_x=st.integers(1, 6),
        block_dim=st.integers(1, 8),
        stride=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_random_geometry(self, grid_rows, grid_cols, blocks_y,
                                      blocks_x, block_dim, stride, seed):
        rng = np.random.default_rng(seed)
        blocks = rng.standard_normal((grid_rows, grid_cols, block_dim))
        model = LinearSvmModel(
            weights=rng.standard_normal(blocks_y * blocks_x * block_dim),
            bias=float(rng.normal()),
        )
        fake = _grid_from_blocks(blocks)
        kw = dict(blocks_y=blocks_y, blocks_x=blocks_x, stride=stride)
        gemm = classify_grid_windows(fake, model, scorer="gemm", **kw)
        conv = classify_grid_windows(fake, model, scorer="conv", **kw)
        assert gemm.shape == conv.shape
        np.testing.assert_allclose(conv, gemm, **TOL)


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
            classify_grid(grid, model, scorer="conv", telemetry=registry)
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
            classify_grid(grid, model, stride=stride, scorer="conv",
                          telemetry=registry)
        assert registry.snapshot().counters[
            "detect.scorer.plan_cache_misses"] == 1

    def test_score_blocks_conv_rejects_dim_mismatch(self, trained_model):
        plan = ScorerPlan.build(trained_model, 15, 7)
        with pytest.raises(ShapeError, match="block_dim"):
            score_blocks_conv(np.zeros((20, 20, 9)), plan)


class TestScorerWiring:
    def test_rejects_unknown_scorer(self, grid, trained_model):
        with pytest.raises(ParameterError, match="scorer"):
            classify_grid(grid, trained_model, scorer="simd")
        with pytest.raises(ParameterError, match="scorer"):
            SlidingWindowDetector(trained_model, HogExtractor(),
                                  scorer="nope")
        with pytest.raises(ParameterError, match="scorer"):
            DetectorConfig(scorer="nope")

    def test_detector_scorers_agree_end_to_end(self, tiny_dataset, trained):
        model, extractor = trained
        scene = tiny_dataset.make_scene(
            height=288, width=320, n_pedestrians=1,
            pedestrian_heights=(128, 150), scene_index=1,
        )
        unlit = np.full(scene.image.shape, 0.06)  # textureless
        for image in (scene.image, unlit):
            results = {}
            for scorer in SCORERS:
                det = SlidingWindowDetector(
                    model, extractor, scales=[1.0, 1.2], threshold=-0.2,
                    scorer=scorer,
                )
                results[scorer] = det.detect(image)
            gemm = results["gemm"]
            for scorer in ("conv", "conv-cascade"):
                other = results[scorer]
                assert len(gemm.detections) == len(other.detections), scorer
                assert gemm.n_windows_evaluated == other.n_windows_evaluated
                for a, b in zip(gemm.detections, other.detections):
                    assert (a.top, a.left, a.height, a.width, a.scale) == \
                        (b.top, b.left, b.height, b.width, b.scale)
                    assert a.score == pytest.approx(b.score, abs=1e-9)
            # The cascade is bitwise-equal to conv where a detection
            # survived, not merely close.
            for a, b in zip(results["conv"].detections,
                            results["conv-cascade"].detections):
                assert a.score == b.score

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

    def test_gemm_detector_records_no_partial_matmul(self, tiny_dataset,
                                                     trained):
        model, extractor = trained
        scene = tiny_dataset.make_scene(height=256, width=256,
                                        n_pedestrians=0)
        registry = MetricsRegistry()
        det = SlidingWindowDetector(
            model, extractor, scales=[1.0], scorer="gemm",
            telemetry=registry,
        )
        det.detect(scene.image)
        snap = registry.snapshot()
        assert not any("partial_matmul" in p for p in snap.spans)
        assert "detect.scorer.plan_cache_misses" not in snap.counters

    def test_config_scorer_reaches_sliding_detector(self, trained_model):
        for scorer in SCORERS:
            det = MultiScalePedestrianDetector(
                trained_model, DetectorConfig(scorer=scorer)
            )
            assert det._detector.scorer == scorer

    def test_spec_roundtrip_preserves_scorer(self, trained_model):
        import pickle

        from repro.parallel.spec import DetectorSpec

        det = MultiScalePedestrianDetector(
            trained_model, DetectorConfig(scorer="gemm", stride=2)
        )
        spec = pickle.loads(DetectorSpec.from_detector(det).to_bytes())
        rebuilt = spec.build()
        assert rebuilt.config.scorer == "gemm"
        assert rebuilt._detector.scorer == "gemm"


class TestCascadeExactness:
    """The early-reject cascade must be *exactly* interchangeable with
    the dense scorers: bitwise-equal scores for every anchor it let
    finish, upper bounds at or below threshold for every anchor it
    rejected, and therefore the identical detection set as the gemm
    oracle at the shared threshold."""

    def _assert_cascade_matches(self, blocks, model, blocks_y, blocks_x,
                                stride, threshold, cascade_k):
        fake = _grid_from_blocks(blocks)
        kw = dict(blocks_y=blocks_y, blocks_x=blocks_x, stride=stride)
        gemm = classify_grid_windows(fake, model, scorer="gemm", **kw)
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
        fake = _grid_from_blocks(blocks)
        gemm = classify_grid_windows(
            fake, model, blocks_y=blocks_y, blocks_x=blocks_x,
            stride=stride, scorer="gemm",
        )
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
            gemm = classify_grid(grid, trained_model, scorer="gemm")
            casc = classify_grid(grid, trained_model,
                                 scorer="conv-cascade", threshold=threshold)
            conv = classify_grid(grid, trained_model, scorer="conv")
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
        with pytest.raises(ParameterError, match="cascade_k"):
            DetectorConfig(cascade_k=0)

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
            model, extractor, scales=[1.0, 1.3], scorer="conv-cascade",
            telemetry=registry,
        )
        det.detect(scene.image)
        snap = registry.snapshot()
        leaves = {p.rsplit("/", 1)[-1] for p in snap.spans}
        assert "detect.scale[1.00].cascade_aggregate" in leaves
        assert "detect.scale[1.30].cascade_aggregate" in leaves
        assert stage_report(snap)["stages"]["cascade_aggregate"]["count"] \
            == 2


class TestFixedPointScorer:
    def test_exactly_scores_the_quantized_problem(self, trained_model):
        """The int16 path equals float64 scoring of the quantized
        features with the quantized model *exactly* — the documented
        contract that reduces its total error to input quantization."""
        from repro.hardware.fixed_point import (
            FEATURE_FORMAT, WEIGHT_FORMAT, quantize,
        )

        rng = np.random.default_rng(23)
        blocks = rng.uniform(0.0, 1.0, (20, 12, 36))
        plan = plan_for(trained_model, 15, 7)
        fixed = score_blocks_conv_fixed(blocks, plan)
        q_model = LinearSvmModel(
            weights=quantize(trained_model.weights, WEIGHT_FORMAT),
            bias=float(quantize(trained_model.bias, WEIGHT_FORMAT)),
        )
        q_plan = ScorerPlan.build(q_model, 15, 7)
        reference = score_blocks_conv(
            quantize(blocks, FEATURE_FORMAT), q_plan
        )
        np.testing.assert_array_equal(fixed, reference)

    def test_error_bounded_by_quantization(self, trained_model):
        from repro.hardware.fixed_point import (
            FEATURE_FORMAT, WEIGHT_FORMAT, quantization_error,
        )

        rng = np.random.default_rng(29)
        blocks = rng.uniform(0.0, 1.0, (20, 12, 36))
        plan = plan_for(trained_model, 15, 7)
        fixed = score_blocks_conv_fixed(blocks, plan)
        exact = score_blocks_conv(blocks, plan)
        feat_err = quantization_error(blocks, FEATURE_FORMAT)
        w_err = quantization_error(trained_model.weights, WEIGHT_FORMAT)
        assert feat_err["saturation_rate"] == 0.0
        assert w_err["saturation_rate"] == 0.0
        # First-order triangle bound on the per-window dot product.
        n_terms = plan.n_positions * plan.block_dim
        w_scale = float(np.max(np.abs(trained_model.weights)))
        bound = n_terms * (
            feat_err["max_abs_error"] * (w_scale + w_err["max_abs_error"])
            + w_err["max_abs_error"] * 1.0
        ) + w_err["max_abs_error"]
        assert float(np.max(np.abs(fixed - exact))) <= bound

    @pytest.mark.parametrize("stride", [1, 2])
    def test_strided_matches_dense_anchors(self, trained_model, stride):
        rng = np.random.default_rng(31)
        blocks = rng.uniform(0.0, 1.0, (22, 13, 36))
        plan = plan_for(trained_model, 15, 7)
        dense = score_blocks_conv_fixed(blocks, plan, stride=1)
        coarse = score_blocks_conv_fixed(blocks, plan, stride=stride)
        np.testing.assert_array_equal(coarse,
                                      dense[::stride, ::stride])

    def test_rejects_inexact_accumulator(self, trained_model):
        from repro.errors import HardwareConfigError
        from repro.hardware.fixed_point import FixedPointFormat

        plan = plan_for(trained_model, 15, 7)
        blocks = np.zeros((15, 7, 36))
        with pytest.raises(HardwareConfigError, match="fractional"):
            score_blocks_conv_fixed(
                blocks, plan,
                accumulator_format=FixedPointFormat(total_bits=32,
                                                    frac_bits=20),
            )


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
        assert score_blocks_conv_fixed(small64, plan).dtype == np.float64
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
        """detect_batch(backend="process") with the conv scorer must be
        indistinguishable from the thread backend, frame for frame."""
        config = DetectorConfig(scales=(1.0,), threshold=-0.2, stride=2)
        assert config.scorer == "conv"
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
        """conv-cascade rides DetectorSpec into process workers and
        must match the thread backend detection for detection."""
        config = DetectorConfig(scales=(1.0,), threshold=-0.2, stride=2,
                                scorer="conv-cascade", cascade_k=12)
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
        reference = [detector.detect(frame) for frame in frames]
        assert len(threaded) == len(processed) == len(frames)
        for t, p, r in zip(threaded, processed, reference):
            assert len(t.detections) == len(p.detections) \
                == len(r.detections)
            for a, b, c in zip(t.detections, p.detections, r.detections):
                assert (a.top, a.left, a.height, a.width, a.scale) == \
                    (b.top, b.left, b.height, b.width, b.scale) == \
                    (c.top, c.left, c.height, c.width, c.scale)
                assert a.score == b.score == c.score

    def test_cascade_spec_roundtrip_preserves_cascade_k(self,
                                                        trained_model):
        import pickle

        from repro.parallel.spec import DetectorSpec

        det = MultiScalePedestrianDetector(
            trained_model,
            DetectorConfig(scorer="conv-cascade", cascade_k=24),
        )
        spec = pickle.loads(DetectorSpec.from_detector(det).to_bytes())
        rebuilt = spec.build()
        assert rebuilt.config.scorer == "conv-cascade"
        assert rebuilt._detector.cascade_k == 24
        other = DetectorSpec.from_detector(
            MultiScalePedestrianDetector(
                trained_model,
                DetectorConfig(scorer="conv-cascade", cascade_k=8),
            )
        )
        assert DetectorSpec.from_detector(det).cache_key() != \
            other.cache_key()
