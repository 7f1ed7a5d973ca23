"""Unit tests for the stream primitives: admission, sources, record types."""

import sys
import threading
import time
import types

import numpy as np
import pytest

from repro.errors import ParameterError, StreamError
from repro.stream import (
    AdmissionCore,
    ArraySource,
    BackpressurePolicy,
    FrameResult,
    FrameSource,
    FrameStatus,
    StreamPipeline,
    StreamReport,
    SyntheticVideoSource,
)
from repro.telemetry import MetricsRegistry


class TestAdmissionCore:
    def test_fifo_order(self):
        core = AdmissionCore(4)
        for name in "abc":
            core.admit(name)
        assert core.take(3) == [(0, "a"), (1, "b"), (2, "c")]

    def test_rejects_bad_quota(self):
        with pytest.raises(ParameterError, match="quota"):
            AdmissionCore(0)

    def test_drop_oldest_displaces_head(self):
        core = AdmissionCore(2, BackpressurePolicy.DROP_OLDEST)
        assert core.admit("a") == (0, None, None)
        assert core.admit("b") == (1, None, None)
        assert core.admit("c") == (2, None, 0)
        assert core.dropped_as["evicted"] == 1
        assert core.take(1) == [(1, "b")]

    def test_drop_oldest_refuses_when_workers_hold_every_frame(self):
        core = AdmissionCore(1, "drop-oldest")
        core.admit("a")
        core.take(1)
        assert core.admit("b") == (1, "rejected", None)
        assert core.dropped_as == {"rejected": 1, "evicted": 0,
                                   "throttled": 0}

    def test_drop_newest_rejects_incoming(self):
        core = AdmissionCore(2, "drop-newest")
        core.admit("a")
        core.admit("b")
        assert core.admit("c") == (2, "rejected", None)
        assert core.dropped_as["rejected"] == 1
        assert core.take(1) == [(0, "a")]

    def test_block_policy_full_until_emission(self):
        core = AdmissionCore(1, BackpressurePolicy.BLOCK)
        core.admit("a")
        assert core.full
        [(seq, _)] = core.take(1)
        core.settle(seq, "ok")
        assert core.full  # settled, but the quota frees at emission
        assert core.ledger.pop().index == 0
        assert not core.full
        # A caller that admits anyway is refused, never over quota.
        core.admit("b")
        assert core.admit("c") == (2, "rejected", None)

    def test_close_with_drain_keeps_backlog(self):
        core = AdmissionCore(2)
        core.admit("a")
        core.close()
        assert core.take(2) == [(0, "a")]  # workers drain the backlog
        assert core.take(2) == []

    def test_close_with_drain_evicts_nothing(self):
        core = AdmissionCore(4)
        core.admit("a")
        assert core.close() == []
        assert core.dropped_as["evicted"] == 0
        assert core.queued == 1

    def test_admit_on_closed_raises(self):
        core = AdmissionCore(2)
        core.close()
        with pytest.raises(StreamError, match="closed"):
            core.admit("a")

    def test_close_without_drain_evicts_backlog(self):
        core = AdmissionCore(4)
        core.admit("a")
        core.admit("b")
        # The eviction is not silent: each frame settles DROPPED and
        # is counted.
        assert core.close(drain=False) == [0, 1]
        assert core.take(2) == []
        assert core.dropped_as["evicted"] == 2
        assert [core.ledger.pop().status for _ in range(2)] == \
            [FrameStatus.DROPPED] * 2

    def test_abandon_drops_held_frames(self):
        core = AdmissionCore(4)
        core.admit("a")
        core.admit("b")
        core.take(1)
        assert core.abandon() == [0]
        assert core.inflight == 0 and core.queued == 1
        assert core.ledger.pop().status is FrameStatus.DROPPED


class _SlowDetector:
    """Stands in for a detector: sleeps, then finds nothing."""

    def detect(self, frame):
        time.sleep(0.05)
        return types.SimpleNamespace(detections=())


class _InstantDetector:
    def detect(self, frame):
        return types.SimpleNamespace(detections=())


class TestStreamAdmission:
    @pytest.mark.parametrize("policy", list(BackpressurePolicy))
    def test_stress_more_workers_than_cores(self, policy):
        # Producer, four workers and the collector contend for the one
        # condition at a tiny switch interval; a lost update would
        # show as a gap, a repeat or a stall.
        n = 400
        box = {}
        pipeline = StreamPipeline(detector_factory=_InstantDetector,
                                  workers=4, queue_size=3, policy=policy)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(
                target=lambda: box.setdefault("run", pipeline.run(
                    ArraySource([np.zeros((4, 4))] * n))),
                daemon=True)
            thread.start()
            thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive(), "stream stalled"
        run = box["run"]
        r = run.report
        assert [fr.index for fr in run.results] == list(range(n))
        assert r.frames_in == n
        assert r.frames_ok + r.frames_dropped == n
        if policy is BackpressurePolicy.BLOCK:
            assert r.frames_ok == n

    def test_break_wakes_a_blocked_producer(self):
        pipeline = StreamPipeline(detector_factory=_SlowDetector,
                                  queue_size=1)
        frames = [np.zeros((8, 8))] * 6
        for _ in pipeline.process(ArraySource(frames)):
            break  # the producer is waiting for quota here
        assert not [t for t in threading.enumerate()
                    if t.name == "stream-producer"]

    def test_queue_depth_max_is_the_peak_pending(self):
        registry = MetricsRegistry()
        pipeline = StreamPipeline(detector_factory=_SlowDetector,
                                  queue_size=3, telemetry=registry)
        run = pipeline.run(ArraySource([np.zeros((8, 8))] * 6))
        assert run.report.queue_depth_max == 3
        assert registry.snapshot().gauges["stream.queue_depth_max"] == 3

    def test_producer_is_the_only_stream_thread(self):
        seen = set()
        pipeline = StreamPipeline(detector_factory=_SlowDetector,
                                  workers=2, queue_size=2)
        pipeline.run(
            ArraySource([np.zeros((8, 8))] * 4),
            on_result=lambda fr: seen.update(
                t.name for t in threading.enumerate()
                if t.name.startswith("stream-")
                and not t.name.startswith("stream-worker-")
            ),
        )
        assert seen <= {"stream-producer"}


class TestSources:
    def test_array_source_is_a_frame_source(self):
        src = ArraySource([np.zeros((8, 8))])
        assert isinstance(src, FrameSource)
        assert len(list(src)) == 1

    def test_synthetic_video_deterministic(self):
        a = list(SyntheticVideoSource(3, height=96, width=96, seed=5))
        b = list(SyntheticVideoSource(3, height=96, width=96, seed=5))
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_synthetic_video_length_and_shape(self):
        src = SyntheticVideoSource(4, height=96, width=128)
        assert len(src) == 4
        frames = list(src)
        assert len(frames) == 4
        assert all(f.shape == (96, 128) for f in frames)

    def test_scene_hold_repeats_frames(self):
        frames = list(
            SyntheticVideoSource(4, height=96, width=96, scene_hold=2)
        )
        np.testing.assert_array_equal(frames[0], frames[1])
        assert not np.array_equal(frames[1], frames[2])

    def test_corrupt_frames_are_nan(self):
        frames = list(
            SyntheticVideoSource(3, height=96, width=96, corrupt_frames=[1])
        )
        assert np.isnan(frames[1]).all()
        assert np.isfinite(frames[0]).all()

    def test_corrupt_index_out_of_range(self):
        with pytest.raises(ParameterError, match="corrupt"):
            SyntheticVideoSource(3, corrupt_frames=[3])

    def test_rejects_bad_lengths(self):
        with pytest.raises(ParameterError, match="n_frames"):
            SyntheticVideoSource(0)
        with pytest.raises(ParameterError, match="scene_hold"):
            SyntheticVideoSource(2, scene_hold=0)


class TestRecordTypes:
    def test_frame_result_ok_flag(self):
        ok = FrameResult(index=0, status=FrameStatus.OK)
        bad = FrameResult(index=1, status=FrameStatus.FAILED, error="E: x")
        assert ok.ok and not bad.ok

    def test_frame_result_to_dict(self):
        fr = FrameResult(index=2, status=FrameStatus.FAILED,
                         error="ImageError: NaN", latency_s=0.25, worker=1)
        d = fr.to_dict()
        assert d["index"] == 2
        assert d["status"] == "failed"
        assert d["latency_ms"] == pytest.approx(250.0)
        assert d["error"] == "ImageError: NaN"

    def test_stream_report_roundtrip_fields(self):
        report = StreamReport(
            frames_in=10, frames_ok=8, frames_failed=1, frames_dropped=1,
            workers=2, policy="block", elapsed_s=1.0, achieved_fps=10.0,
            latency_p50_ms=5.0, latency_p95_ms=9.0, latency_max_ms=12.0,
            queue_depth_max=4.0, queue_depth_mean=2.0,
            worker_utilization=0.8,
        )
        assert report.frames_out == 10
        d = report.to_dict()
        assert d["frames_dropped"] == 1
        assert d["latency_p95_ms"] == 9.0

    def test_stream_report_rejects_negative_counts(self):
        with pytest.raises(ParameterError, match="frames_ok"):
            StreamReport(
                frames_in=1, frames_ok=-1, frames_failed=0, frames_dropped=0,
                workers=1, policy="block", elapsed_s=0.0, achieved_fps=0.0,
                latency_p50_ms=0.0, latency_p95_ms=0.0, latency_max_ms=0.0,
                queue_depth_max=0.0, queue_depth_mean=0.0,
                worker_utilization=0.0,
            )
