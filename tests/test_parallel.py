"""Unit tests for the multiprocess backend building blocks.

Covers the picklable detector hand-off (DetectorSpec), the
shared-memory frame ring, the warm worker pool, and the pickle /
telemetry-merge plumbing the process backend depends on: model and
config round-trips, NULL_TELEMETRY singleton identity, and
count-weighted snapshot absorption.
"""

from __future__ import annotations

import gc
import glob
import multiprocessing
import os
import pickle
import queue
import sys

import numpy as np
import pytest

from repro.core import DetectorConfig, MultiScalePedestrianDetector
from repro.errors import ParallelError
from repro.parallel import (
    DetectorSpec,
    FrameHandle,
    ProcessWorkerPool,
    ResultHandle,
    SharedFrameRing,
    attach_view,
    decode_result,
    default_start_method,
    detach_all,
    encode_result,
    write_result_words,
)
from repro.svm.model import LinearSvmModel
from repro.telemetry import (
    MetricsRegistry,
    NULL_TELEMETRY,
    merge_snapshots,
)
from repro.telemetry.registry import HistogramSummary


@pytest.fixture(scope="module")
def detector(trained_model):
    return MultiScalePedestrianDetector(
        trained_model,
        DetectorConfig(scales=(1.0,), threshold=0.5, stride=2),
    )


class TestPickleRoundTrips:
    def test_svm_model_round_trip(self, trained_model):
        clone = pickle.loads(pickle.dumps(trained_model))
        assert clone == trained_model
        assert clone.weights.dtype == np.float64

    def test_svm_model_equality_is_contentwise(self):
        a = LinearSvmModel(np.array([1.0, 2.0]), 0.5)
        b = LinearSvmModel(np.array([1.0, 2.0]), 0.5)
        c = LinearSvmModel(np.array([1.0, 2.5]), 0.5)
        assert a == b
        assert a != c
        assert a != "not a model"

    def test_detector_config_round_trip(self):
        cfg = DetectorConfig(scales=(1.0, 1.2), stride=2, telemetry=True)
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_null_telemetry_pickles_to_the_singleton(self):
        assert pickle.loads(pickle.dumps(NULL_TELEMETRY)) is NULL_TELEMETRY

    def test_registry_round_trip_drops_open_spans(self):
        reg = MetricsRegistry()
        reg.inc("x", 3)
        span = reg.span("outer")
        span.__enter__()
        clone = pickle.loads(pickle.dumps(reg))
        span.__exit__(None, None, None)
        assert clone.snapshot().counters["x"] == 3
        # The open span must not resurrect inside the clone: a new span
        # records at the top level, not nested under a phantom "outer".
        with clone.span("inner"):
            pass
        assert "inner" in clone.snapshot().spans
        assert "outer.inner" not in clone.snapshot().spans


class TestSnapshotMerge:
    def test_histogram_summary_merge_weights_by_count(self):
        a = HistogramSummary(count=3, total=3.0, minimum=1.0, maximum=1.0,
                             p50=1.0, p95=1.0)
        b = HistogramSummary(count=1, total=5.0, minimum=5.0, maximum=5.0,
                             p50=5.0, p95=5.0)
        m = a.merge(b)
        assert m.count == 4
        assert m.total == pytest.approx(8.0)
        assert m.minimum == 1.0
        assert m.maximum == 5.0
        assert 1.0 < m.p50 < 5.0

    def test_absorb_snapshot_counters_and_gauges(self):
        src = MetricsRegistry()
        src.inc("detect.frames", 4)
        src.set_gauge("g", 7.0)
        parent = MetricsRegistry()
        parent.inc("detect.frames", 1)
        parent.absorb_snapshot(src.snapshot())
        snap = parent.snapshot()
        assert snap.counters["detect.frames"] == 5
        assert snap.gauges["g"] == 7.0

    def test_absorb_snapshot_merges_histograms(self):
        src = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            src.observe("lat", v)
        parent = MetricsRegistry()
        parent.absorb_snapshot(src.snapshot())
        parent.absorb_snapshot(src.snapshot())
        assert parent.snapshot().histograms["lat"].count == 6

    def test_merge_snapshots_helper(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 1)
        b.inc("n", 2)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged.counters["n"] == 3

    def test_reset_clears_absorbed_state(self):
        src = MetricsRegistry()
        src.inc("n", 9)
        parent = MetricsRegistry()
        parent.absorb_snapshot(src.snapshot())
        parent.reset()
        assert parent.snapshot().counters.get("n", 0) == 0


class TestDetectorSpec:
    def test_round_trip_builds_equivalent_detector(self, detector):
        spec = DetectorSpec.from_detector(detector)
        clone = pickle.loads(spec.to_bytes())
        rebuilt = clone.build()
        frame = np.random.default_rng(0).random((160, 160))
        assert (rebuilt.detect(frame).detections
                == detector.detect(frame).detections)

    def test_cache_key_is_content_addressed(self, detector, trained_model):
        spec = DetectorSpec.from_detector(detector)
        same = DetectorSpec.from_detector(
            MultiScalePedestrianDetector(
                trained_model,
                DetectorConfig(scales=(1.0,), threshold=0.5, stride=2),
            )
        )
        other = DetectorSpec.from_detector(
            MultiScalePedestrianDetector(
                trained_model,
                DetectorConfig(scales=(1.0,), threshold=0.6, stride=2),
            )
        )
        assert spec.cache_key() == same.cache_key()
        assert spec.cache_key() != other.cache_key()

    def test_rejects_detector_without_model(self):
        class Bare:
            model = None
            config = None

        with pytest.raises(ParallelError):
            DetectorSpec.from_detector(Bare())


class TestSharedFrameRing:
    def test_write_attach_round_trip(self):
        ring = SharedFrameRing(2, 160 * 160 * 8, queue.Queue())
        try:
            frame = np.random.default_rng(1).random((160, 160))
            slot = ring.acquire(timeout=1.0)
            handle = ring.write(slot, frame)
            view = attach_view(handle)
            np.testing.assert_array_equal(view, frame)
            assert view.dtype == frame.dtype
        finally:
            detach_all()
            ring.close()

    @pytest.mark.parametrize("layout", ["fortran", "sliced"])
    def test_non_contiguous_frame_round_trips_bitwise(self, layout):
        base = np.random.default_rng(2).random((96, 130))
        frame = (np.asfortranarray(base) if layout == "fortran"
                 else base[::2, 1:-1])
        ring = SharedFrameRing(1, base.nbytes, queue.Queue())
        try:
            handle = ring.write(ring.acquire(timeout=1.0), frame)
            view = attach_view(handle)
            assert handle.shape == frame.shape
            assert view.flags.c_contiguous
            assert view.tobytes() == np.ascontiguousarray(frame).tobytes()
        finally:
            detach_all()
            ring.close()

    def test_zero_d_frame_travels_as_one_element(self):
        ring = SharedFrameRing(1, 64, queue.Queue())
        try:
            handle = ring.write(ring.acquire(timeout=1.0),
                                np.array(2.5))
            assert handle.shape == (1,)
            assert attach_view(handle).tolist() == [2.5]
        finally:
            detach_all()
            ring.close()

    def test_fits_and_oversize_rejection(self):
        ring = SharedFrameRing(1, 64, queue.Queue())
        try:
            small = np.zeros(4)
            big = np.zeros((8192,))
            assert ring.fits(small) and not ring.fits(big)
            slot = ring.acquire(timeout=1.0)
            with pytest.raises(ParallelError):
                ring.write(slot, big)
        finally:
            ring.close()

    def test_acquire_times_out_when_exhausted(self):
        free = queue.Queue()
        ring = SharedFrameRing(1, 64, free)
        try:
            assert ring.acquire(timeout=0.5) == 0
            assert ring.acquire(timeout=0.05) is None
            ring.release(0)
            assert ring.acquire(timeout=0.5) == 0
        finally:
            ring.close()

    def test_close_is_idempotent_and_blocks_use(self):
        ring = SharedFrameRing(1, 64, queue.Queue())
        ring.close()
        ring.close()
        with pytest.raises(ParallelError):
            ring.acquire(timeout=0.1)

    def test_handle_is_cheap_to_pickle(self):
        handle = FrameHandle("seg", 0, 0, (160, 160), "<f8")
        assert len(pickle.dumps(handle)) < 200


class TestProcessWorkerPool:
    def test_frames_round_trip_with_fault_isolation(self, detector):
        frames = [np.random.default_rng(i).random((160, 160))
                  for i in range(4)]
        frames[2] = np.full((160, 160), np.nan)
        expected = {i: detector.detect(f).detections
                    for i, f in enumerate(frames) if i != 2}
        with ProcessWorkerPool(
            DetectorSpec.from_detector(detector), workers=2
        ) as pool:
            for i, frame in enumerate(frames):
                (transport,) = pool.submit_batch(0, [(i, frame, 0.0)])
                assert transport in ("shm", "pickle")
            got = {}
            while len(got) < len(frames):
                msg = pool.next_message(timeout=60.0)
                assert msg is not None, "worker result timed out"
                assert msg[0] == "result"
                _, gen, index, status, result, error, *_ = msg
                got[index] = (status, result, error)
        for i in range(4):
            status, result, error = got[i]
            if i == 2:
                assert status == "failed"
                assert "ImageError" in error
            else:
                assert status == "ok"
                assert result.detections == expected[i]

    def test_oversized_frame_falls_back_to_pickle(self, detector):
        small = np.random.default_rng(0).random((160, 160))
        big = np.random.default_rng(1).random((320, 320))
        with ProcessWorkerPool(
            DetectorSpec.from_detector(detector), workers=1
        ) as pool:
            # slot_bytes sizes lazily from the first frame; the larger
            # one cannot fit and must take the pickle channel.
            assert pool.submit_batch(0, [(0, small, 0.0)]) == ["shm"]
            assert pool.submit_batch(0, [(1, big, 0.0)]) == ["pickle"]
            seen = set()
            while len(seen) < 2:
                msg = pool.next_message(timeout=60.0)
                assert msg is not None
                assert msg[0] == "result" and msg[3] == "ok"
                seen.add(msg[2])

    def test_close_returns_one_snapshot_per_worker(self, trained_model):
        det = MultiScalePedestrianDetector(
            trained_model,
            DetectorConfig(scales=(1.0,), threshold=0.5, stride=2,
                           telemetry=True),
        )
        pool = ProcessWorkerPool(DetectorSpec.from_detector(det), workers=2)
        frame = np.random.default_rng(2).random((160, 160))
        for i in range(3):
            pool.submit_batch(0, [(i, frame, 0.0)])
        done = 0
        while done < 3:
            msg = pool.next_message(timeout=60.0)
            assert msg is not None
            done += msg[0] == "result"
        snapshots = pool.close()
        assert len(snapshots) == 2
        assert sum(s.counters.get("detect.frames", 0)
                   for s in snapshots) == 3
        assert pool.close() is snapshots  # idempotent

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_forked_child_leaves_the_pool_alone(self, detector):
        # A child forked after the pool was built inherits the pool
        # object and its finalizer.  Dropping the pool there must not
        # run the cleanup: the workers are not the child's, and the
        # ring segment is the parent's.
        holder = [ProcessWorkerPool(DetectorSpec.from_detector(detector),
                                    workers=1)]
        frame = np.random.default_rng(0).random((160, 160))
        try:
            assert holder[0].submit_batch(0, [(0, frame, 0.0)]) == ["shm"]
            assert holder[0].next_message(timeout=60.0)[0] == "result"
            segments = glob.glob(f"/dev/shm/repro-shm-{os.getpid()}-*")
            assert segments

            def child(holder, fd):
                # Report as a bare interpreter would: to stderr, which
                # here is the pipe (pytest replaces both in the test).
                os.dup2(fd, 2)
                sys.stderr = open(2, "w", closefd=False)
                sys.unraisablehook = sys.__unraisablehook__
                holder.clear()
                gc.collect()
                sys.stderr.flush()

            read, write = os.pipe()
            proc = multiprocessing.get_context("fork").Process(
                target=child, args=(holder, write)
            )
            proc.start()
            os.close(write)
            with os.fdopen(read) as pipe:
                err = pipe.read()
            proc.join(timeout=60.0)
            assert proc.exitcode == 0
            assert "Traceback" not in err, err
            assert "Exception ignored" not in err, err
            assert all(os.path.exists(path) for path in segments)
            assert holder[0].healthy
        finally:
            holder[0].close()
        assert not any(os.path.exists(path) for path in segments)

    def test_default_start_method_is_valid(self):
        assert default_start_method() in multiprocessing.get_all_start_methods()


class TestResultCodec:
    @staticmethod
    def _result(n_det=3):
        from repro.detect.types import (
            Detection,
            DetectionResult,
            StageTimings,
        )

        return DetectionResult(
            detections=[
                Detection(top=4.0 * i, left=8.0 * i, height=128.0,
                          width=64.0, score=0.5 + i, scale=1.2)
                for i in range(n_det)
            ],
            timings=StageTimings(extraction=0.01, pyramid=0.002,
                                 classification=0.03, nms=0.001),
            n_windows_evaluated=777,
            scales_used=[1.0, 1.2],
        )

    def test_round_trip_is_exact(self):
        result = self._result()
        words = encode_result(result)
        assert words is not None and words.ndim == 1
        decoded = decode_result(words)
        assert decoded == result

    def test_round_trip_empty_result(self):
        result = self._result(n_det=0)
        decoded = decode_result(encode_result(result))
        assert decoded == result

    def test_non_default_label_is_not_encodable(self):
        import dataclasses

        result = self._result()
        tagged = dataclasses.replace(result.detections[1], label="cyclist")
        result.detections[1] = tagged
        assert encode_result(result) is None


class TestResultLane:
    def test_write_read_round_trip(self):
        ring = SharedFrameRing(1, 64, queue.Queue(),
                               result_slots=2, result_slot_bytes=1024)
        try:
            rslot = ring.acquire_result()
            assert rslot is not None and rslot.capacity >= 1024
            words = np.arange(17, dtype=np.float64)
            assert write_result_words(rslot, words)
            np.testing.assert_array_equal(
                ring.read_result(rslot, words.size), words
            )
        finally:
            detach_all()
            ring.close()

    def test_lane_runs_dry_and_recycles(self):
        ring = SharedFrameRing(1, 64, queue.Queue(),
                               result_slots=1, result_slot_bytes=64)
        try:
            rslot = ring.acquire_result()
            assert rslot is not None
            assert ring.acquire_result() is None  # dry, non-blocking
            ring.release_result(rslot.slot)
            assert ring.acquire_result() is not None
        finally:
            ring.close()

    def test_oversized_write_refuses_without_touching_slot(self):
        ring = SharedFrameRing(1, 64, queue.Queue(),
                               result_slots=1, result_slot_bytes=8)
        try:
            rslot = ring.acquire_result()
            capacity_words = rslot.capacity // 8
            too_big = np.zeros(capacity_words + 1)
            assert not write_result_words(rslot, too_big)
        finally:
            detach_all()
            ring.close()

    def test_read_rejects_overlong_counts(self):
        ring = SharedFrameRing(1, 64, queue.Queue(),
                               result_slots=1, result_slot_bytes=8)
        try:
            rslot = ring.acquire_result()
            with pytest.raises(ParallelError):
                ring.read_result(rslot, rslot.capacity // 8 + 1)
        finally:
            ring.close()

    def test_no_lane_means_no_result_slots(self):
        ring = SharedFrameRing(1, 64, queue.Queue())
        try:
            assert ring.result_slots == 0
            assert ring.acquire_result() is None
        finally:
            ring.close()

    def test_pool_returns_results_through_the_lane(self, detector):
        frames = [np.random.default_rng(i).random((160, 160))
                  for i in range(3)]
        expected = [detector.detect(f).detections for f in frames]
        with ProcessWorkerPool(
            DetectorSpec.from_detector(detector), workers=1
        ) as pool:
            for i, frame in enumerate(frames):
                pool.submit_batch(0, [(i, frame, 0.0)])
            got = {}
            while len(got) < len(frames):
                msg = pool.next_message(timeout=60.0)
                assert msg is not None
                assert msg[0] == "result" and msg[3] == "ok"
                # The lane handle is decoded inside next_message: the
                # caller always sees a DetectionResult.
                assert not isinstance(msg[4], ResultHandle)
                got[msg[2]] = msg[4]
            counts = pool.transport_counts()
        assert counts == {"results_shm": 3, "results_pickled": 0,
                          "batches": 0}
        for i, exp in enumerate(expected):
            assert got[i].detections == exp

    def test_disabled_lane_falls_back_to_pickle(self, detector):
        frame = np.random.default_rng(5).random((160, 160))
        with ProcessWorkerPool(
            DetectorSpec.from_detector(detector), workers=1,
            result_slot_bytes=0,
        ) as pool:
            pool.submit_batch(0, [(0, frame, 0.0)])
            msg = None
            while msg is None or msg[0] != "result":
                msg = pool.next_message(timeout=60.0)
            assert msg[3] == "ok"
            assert msg[4].detections == detector.detect(frame).detections
            assert pool.transport_counts() == {
                "results_shm": 0, "results_pickled": 1, "batches": 0,
            }

    def test_tiny_lane_slots_fall_back_to_pickle(self, detector):
        # 8-byte slots cannot even hold the codec header; every result
        # must take the pickle channel, and detections must not change.
        frame = np.random.default_rng(6).random((160, 160))
        with ProcessWorkerPool(
            DetectorSpec.from_detector(detector), workers=1,
            result_slot_bytes=8,
        ) as pool:
            pool.submit_batch(0, [(0, frame, 0.0)])
            msg = None
            while msg is None or msg[0] != "result":
                msg = pool.next_message(timeout=60.0)
            assert msg[3] == "ok"
            assert msg[4].detections == detector.detect(frame).detections
            counts = pool.transport_counts()
        assert counts == {"results_shm": 0, "results_pickled": 1,
                          "batches": 0}


class TestSubmitBatch:
    def test_batch_matches_per_frame_submits(self, detector):
        frames = [np.random.default_rng(i).random((160, 160))
                  for i in range(4)]
        expected = [detector.detect(f).detections for f in frames]
        with ProcessWorkerPool(
            DetectorSpec.from_detector(detector), workers=1, slots=6
        ) as pool:
            transports = pool.submit_batch(
                0, [(i, frame, 0.0) for i, frame in enumerate(frames)]
            )
            assert transports == ["shm"] * len(frames)
            got = {}
            while len(got) < len(frames):
                msg = pool.next_message(timeout=60.0)
                if msg is None or msg[0] != "result":
                    continue
                # The combined batch reply is expanded back into the
                # standard per-frame tuples: consumers never see
                # batching on the result side.
                assert msg[3] == "ok"
                got[msg[2]] = msg[4]
            counts = pool.transport_counts()
        assert counts["batches"] == 1
        for i, exp in enumerate(expected):
            assert got[i].detections == exp

    def test_corrupt_frame_fails_alone_inside_a_batch(self, detector):
        rng = np.random.default_rng(7)
        frames = [rng.random((160, 160)) for _ in range(3)]
        frames[1] = np.full((160, 160), np.nan)
        with ProcessWorkerPool(
            DetectorSpec.from_detector(detector), workers=1, slots=5
        ) as pool:
            pool.submit_batch(
                0, [(i, frame, 0.0) for i, frame in enumerate(frames)]
            )
            statuses = {}
            while len(statuses) < len(frames):
                msg = pool.next_message(timeout=60.0)
                if msg is None or msg[0] != "result":
                    continue
                statuses[msg[2]] = msg[3]
            assert pool.healthy  # fault isolation: no dead worker
        assert statuses == {0: "ok", 1: "failed", 2: "ok"}

    def test_oversized_batch_is_refused_upfront(self, detector):
        frame = np.random.default_rng(8).random((32, 32))
        with ProcessWorkerPool(
            DetectorSpec.from_detector(detector), workers=1, slots=3
        ) as pool:
            with pytest.raises(ParallelError, match="exceeds the ring"):
                pool.submit_batch(
                    0, [(i, frame, 0.0) for i in range(4)]
                )
            # The refusal left no slot lent: a follow-up batch that
            # fits must still go through.
            pool.submit_batch(0, [(0, frame, 0.0), (1, frame, 0.0)])
            got = 0
            while got < 2:
                msg = pool.next_message(timeout=60.0)
                if msg is not None and msg[0] == "result":
                    assert msg[3] == "ok"
                    got += 1

    def test_empty_batch_is_a_no_op(self, detector):
        with ProcessWorkerPool(
            DetectorSpec.from_detector(detector), workers=1
        ) as pool:
            assert pool.submit_batch(0, []) == []
            assert pool.transport_counts()["batches"] == 0
