"""Unit and steady-state tests for the buffer arena (repro.arena).

Covers the slab dictionary itself (hit/miss/resize/fallback accounting,
telemetry), the ``check_out`` destination validator behind every
``out=`` kernel parameter, bitwise identity of arena-backed detection
against the allocating path, and the docs/MEMORY.md steady-state
property: after warmup at a fixed frame geometry, the same frames —
textured or textureless, the duty cycle of a driver-assistance camera —
produce arena hits only (no new slabs, no resizes) and the hot path's
per-frame allocation churn stays far below one frame buffer.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.arena import BufferArena
from repro.core import DetectorConfig, MultiScalePedestrianDetector
from repro.errors import ParameterError
from repro.telemetry import MetricsRegistry
from repro.validation import check_out


class TestBufferArena:
    def test_miss_then_hit_reuses_memory(self):
        arena = BufferArena()
        a = arena.get("x", (8, 8))
        b = arena.get("x", (8, 8))
        assert np.shares_memory(a, b)
        assert (arena.hits, arena.misses) == (1, 1)

    def test_names_are_independent_slabs(self):
        arena = BufferArena()
        a = arena.get("a", (16,))
        b = arena.get("b", (16,))
        assert not np.shares_memory(a, b)
        assert arena.names == ("a", "b")

    def test_smaller_request_is_a_hit(self):
        arena = BufferArena()
        arena.get("x", (100,))
        held = arena.slab_bytes
        arena.get("x", (10,), np.float32)
        assert arena.slab_bytes == held
        assert (arena.hits, arena.resizes) == (1, 0)

    def test_growth_counts_as_resize(self):
        arena = BufferArena()
        arena.get("x", (10,))
        arena.get("x", (100,))
        assert (arena.misses, arena.resizes) == (1, 1)
        assert arena.capacity("x") == 800

    def test_zeros_fills_in_place(self):
        arena = BufferArena()
        arena.get("x", (4,)).fill(7.0)
        z = arena.zeros("x", (4,))
        assert not z.any()

    def test_capped_arena_serves_fallback_allocations(self):
        arena = BufferArena(max_bytes=256)
        pooled = arena.get("small", (16,))      # 128 bytes, fits
        loose = arena.get("big", (1024,))       # would blow the cap
        assert arena.fallback_allocs == 1
        assert arena.names == ("small",)        # "big" was never pooled
        assert loose.shape == (1024,)
        assert not np.shares_memory(pooled, loose)

    def test_release_all_drops_slabs(self):
        arena = BufferArena()
        arena.get("x", (64,))
        arena.release_all()
        assert arena.slab_bytes == 0 and arena.names == ()

    def test_negative_cap_rejected(self):
        with pytest.raises(ParameterError):
            BufferArena(max_bytes=-1)

    def test_telemetry_counters_and_gauge(self):
        registry = MetricsRegistry()
        arena = BufferArena(telemetry=registry)
        arena.get("x", (8,))
        arena.get("x", (8,))
        arena.get("x", (80,))
        snap = registry.snapshot()
        assert snap.counters["arena.misses"] == 1
        assert snap.counters["arena.hits"] == 1
        assert snap.counters["arena.resizes"] == 1
        assert snap.gauges["arena.slab_bytes"] == 640.0


class TestCheckOut:
    def _ok(self):
        return np.empty((4, 5), dtype=np.float64)

    def test_valid_out_is_returned(self):
        out = self._ok()
        assert check_out(out, "k", (4, 5), np.float64) is out

    def test_non_ndarray_rejected(self):
        with pytest.raises(ParameterError, match="ndarray"):
            check_out([0.0] * 20, "k", (4, 5), np.float64)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterError, match="shape"):
            check_out(self._ok(), "k", (5, 4), np.float64)

    def test_dtype_mismatch_rejected(self):
        with pytest.raises(ParameterError, match="dtype"):
            check_out(self._ok(), "k", (4, 5), np.float32)

    def test_readonly_rejected(self):
        out = self._ok()
        out.flags.writeable = False
        with pytest.raises(ParameterError, match="writable"):
            check_out(out, "k", (4, 5), np.float64)

    def test_non_contiguous_rejected(self):
        out = np.empty((5, 8), dtype=np.float64).T[:4, :5]
        with pytest.raises(ParameterError, match="contiguous"):
            check_out(out, "k", (4, 5), np.float64)

    def test_aliased_out_rejected(self):
        out = self._ok()
        with pytest.raises(ParameterError, match="shares memory"):
            check_out(out, "k", (4, 5), np.float64, out[:2])

    def test_kernel_rejects_aliased_out(self):
        # The contract as wired into a real kernel: scoring into a
        # destination that aliases the input block grid must raise.
        from repro.hog.histogram import cell_histograms
        from repro.hog.parameters import HogParameters

        params = HogParameters()
        rng = np.random.default_rng(0)
        buffer = rng.random(4096)
        mag = buffer[:1024].reshape(32, 32)
        ori = rng.random((32, 32)) * 3.1
        good = cell_histograms(mag, ori, params)
        overlap = buffer[512:512 + good.size].reshape(good.shape)
        with pytest.raises(ParameterError, match="shares memory"):
            cell_histograms(mag, ori, params, out=overlap)

    def test_gradient_out_pair_must_be_complete(self):
        from repro.imgproc.gradients import gradient_polar

        image = np.random.default_rng(1).random((16, 16))
        with pytest.raises(ParameterError):
            gradient_polar(image, out_magnitude=np.empty((16, 16)))


@pytest.fixture(scope="module")
def small_dataset():
    from repro.dataset.synthetic import (
        DatasetSizes,
        SyntheticPedestrianDataset,
    )

    sizes = DatasetSizes(train_positive=60, train_negative=120,
                         test_positive=1, test_negative=1)
    return SyntheticPedestrianDataset(seed=0, sizes=sizes)


def _detector(dataset, **config_kwargs):
    return MultiScalePedestrianDetector.train(
        dataset.train_windows(),
        DetectorConfig(threshold=0.5, stride=2, **config_kwargs),
    )


def _duty_cycle(dataset, shape=(160, 160)):
    """The driver-assistance duty cycle, rendered small: a scene with a
    pedestrian, an empty road, and two textureless frames (unlit road,
    uniform fog) that take the extractor's all-zero skip paths."""
    h, w = shape
    return [
        dataset.make_scene(h, w, n_pedestrians=1,
                           pedestrian_heights=(128, 150),
                           scene_index=0).image,
        dataset.make_scene(h, w, n_pedestrians=0, scene_index=1).image,
        np.full(shape, 0.06),
        np.full(shape, 0.45),
    ]


class TestArenaEquivalence:
    def test_detections_bitwise_identical(self, small_dataset):
        frames = [np.random.default_rng(7).random((160, 160)),
                  *_duty_cycle(small_dataset)]
        with_arena = _detector(small_dataset, arena=True)
        without = MultiScalePedestrianDetector(
            with_arena.model,
            DetectorConfig(threshold=0.5, stride=2, arena=False),
        )
        for _ in range(2):  # second pass exercises warm slabs
            for frame in frames:
                a, b = with_arena.detect(frame), without.detect(frame)
                assert a.detections == b.detections
                assert a.n_windows_evaluated == b.n_windows_evaluated
                assert a.scales_used == b.scales_used

    def test_image_strategy_never_borrows_the_arena(self, small_dataset):
        # The image pyramid extracts once per scale with earlier grids
        # still alive; lending the arena to its extractor would let
        # level N overwrite level N-1's buffers (docs/MEMORY.md).
        det = _detector(small_dataset, strategy="image", arena=True)
        assert det.arena is not None
        assert det.extractor.arena is None

    def test_feature_strategy_borrows_the_arena(self, small_dataset):
        det = _detector(small_dataset, strategy="feature", arena=True)
        assert det.extractor.arena is det.arena

    def test_no_arena_config_builds_none(self, small_dataset):
        det = _detector(small_dataset, arena=False)
        assert det.arena is None and det.extractor.arena is None


class TestSteadyState:
    """docs/MEMORY.md: zero hot-path slab allocations after warmup."""

    def test_identical_frames_are_all_hits(self, small_dataset):
        det = _detector(small_dataset, scales=(1.0, 1.2), arena=True)
        frames = [np.random.default_rng(3).random((160, 160)),
                  *_duty_cycle(small_dataset)]
        for frame in frames:
            det.detect(frame)
        warm_misses = det.arena.misses
        warm_bytes = det.arena.slab_bytes
        hits_before = det.arena.hits
        for _ in range(3):
            for frame in frames:
                det.detect(frame)
        assert det.arena.misses == warm_misses
        assert det.arena.resizes == 0
        assert det.arena.fallback_allocs == 0
        assert det.arena.slab_bytes == warm_bytes
        assert det.arena.hits > hits_before

    def test_geometry_change_resizes_then_settles(self, small_dataset):
        det = _detector(small_dataset, scales=(1.0,), arena=True)
        rng = np.random.default_rng(4)
        det.detect(rng.random((128, 128)))
        det.detect(rng.random((192, 192)))  # grows the slabs
        assert det.arena.resizes > 0
        resizes = det.arena.resizes
        misses = det.arena.misses
        det.detect(rng.random((192, 192)))
        det.detect(rng.random((128, 128)))  # smaller: reuses, no shrink
        assert (det.arena.resizes, det.arena.misses) == (resizes, misses)

    def test_per_frame_churn_stays_small(self, small_dataset):
        # tracemalloc peak-minus-baseline bounds the transient
        # allocation churn of one steady-state frame.  The arena path
        # must stay under half the allocating path's churn and under
        # ~3 frame buffers absolute (the histogram scatters straight
        # into strip-sized slabs, so the remaining churn is small
        # bookkeeping; a regression that reintroduces per-frame
        # full-frame buffers trips this).
        frame = np.random.default_rng(3).random((160, 160))
        frame_bytes = frame.nbytes

        def churn(det):
            for _ in range(2):
                det.detect(frame)  # warmup
            tracemalloc.start()
            try:
                worst = 0
                for _ in range(3):
                    base = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    det.detect(frame)
                    peak = tracemalloc.get_traced_memory()[1]
                    worst = max(worst, peak - base)
            finally:
                tracemalloc.stop()
            return worst

        arena_churn = churn(_detector(small_dataset, scales=(1.0,),
                                      arena=True))
        plain_churn = churn(_detector(small_dataset, scales=(1.0,),
                                      arena=False))
        assert arena_churn < 3 * frame_bytes
        assert arena_churn < plain_churn / 2

    def test_unlit_cascade_call_allocates_no_grid(self):
        # An unlit 1080x1920 frame at scale 1.0: a 134x239 all-zero
        # block grid, every anchor rejected at stage 0.  Its bounds,
        # norms and masks live in arena slabs and the score grid, so a
        # warm call allocates none of them (the score grid alone is
        # 0.21 MiB).
        from repro.detect.scoring import plan_for, score_blocks_cascade
        from repro.svm.model import LinearSvmModel

        rng = np.random.default_rng(5)
        model = LinearSvmModel(rng.standard_normal(105 * 36), -1.0)
        plan = plan_for(model, 15, 7)
        blocks = np.zeros((134, 239, 36))
        arena = BufferArena()

        def call():
            return score_blocks_cascade(blocks, plan, 0.0, arena=arena)

        call()  # warmup
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            scores = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 64 * 1024
        assert scores.shape == (120, 233) and (scores <= 0.0).all()
        plain = score_blocks_cascade(blocks, plan, 0.0)
        assert scores.tobytes() == plain.tobytes()
