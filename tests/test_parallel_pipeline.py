"""Backend parity and integration tests for the process backend.

The contract of ``StreamPipeline(backend="process")`` is behavioral
equivalence: same frames in, same FrameResult sequence out — identical
indices, statuses, detections and error strings — as the thread
backend, including when a frame is corrupt.  Everything else here
guards the seams: warm pool reuse across runs, worker-telemetry
merging at close, detect_batch's all-or-nothing semantics, and
parameter validation.
"""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro.core import DetectorConfig, MultiScalePedestrianDetector
from repro.errors import ParameterError, StreamError
from repro.stream import (
    ArraySource,
    ExecutionBackend,
    FrameStatus,
    StreamPipeline,
    SyntheticVideoSource,
)
from repro.telemetry import MetricsRegistry


@pytest.fixture(scope="module")
def detector(trained_model):
    return MultiScalePedestrianDetector(
        trained_model,
        DetectorConfig(scales=(1.0,), threshold=0.5, stride=2),
    )


def _video(n=8, corrupt=(4,)):
    return SyntheticVideoSource(
        n, height=160, width=160, n_pedestrians=1, seed=3,
        scene_hold=3, corrupt_frames=corrupt,
    )


def _signature(results):
    return [
        (fr.index, fr.status, fr.detections, fr.error) for fr in results
    ]


class TestBackendParity:
    def test_process_matches_thread_with_corrupt_frame(self, detector):
        with StreamPipeline(detector, workers=2, backend="thread") as p:
            thread_run = p.run(_video())
        with StreamPipeline(detector, workers=2, backend="process") as p:
            process_run = p.run(_video())
        assert _signature(process_run.results) == _signature(
            thread_run.results
        )
        assert thread_run.results[4].status is FrameStatus.FAILED
        assert thread_run.report.backend == "thread"
        assert process_run.report.backend == "process"

    def test_warm_pool_is_reused_across_runs(self, detector):
        with StreamPipeline(detector, workers=2, backend="process") as p:
            first = p.run(_video(n=4, corrupt=()))
            pool = p._executor
            assert pool is not None and pool.healthy
            second = p.run(_video(n=4, corrupt=()))
            assert p._executor is pool  # same warm pool, no rebuild
        assert _signature(first.results) == _signature(second.results)
        assert p._executor is None  # context exit closed it

    def test_worker_telemetry_merges_at_close(self, trained_model):
        registry = MetricsRegistry()
        det = MultiScalePedestrianDetector(
            trained_model,
            DetectorConfig(scales=(1.0,), threshold=0.5, stride=2,
                           telemetry=True),
            telemetry=registry,
        )
        with StreamPipeline(
            det, workers=2, backend="process", telemetry=registry
        ) as p:
            p.run(_video(n=5, corrupt=()))
        snap = registry.snapshot()
        assert snap.counters["detect.frames"] == 5
        assert snap.counters["parallel.frames_shm"] == 5
        assert snap.counters["parallel.worker_snapshots_merged"] == 2
        assert snap.gauges["parallel.workers"] == 2

    def test_no_shared_memory_leaked(self, detector):
        with StreamPipeline(detector, workers=2, backend="process") as p:
            p.run(_video(n=4, corrupt=()))
        assert glob.glob("/dev/shm/repro-shm-*") == []


class TestDetectBatch:
    def test_matches_sequential_reference(self, detector):
        frames = list(_video(n=4, corrupt=()))
        sequential = detector._detector.detect_batch(frames)
        for backend in ("thread", "process"):
            batched = detector.detect_batch(
                frames, workers=2, backend=backend
            )
            assert [r.detections for r in batched] == [
                r.detections for r in sequential
            ]

    def test_raises_naming_every_failed_frame(self, detector):
        frames = list(_video(n=4, corrupt=()))
        frames[1] = np.full((160, 160), np.nan)
        with pytest.raises(StreamError, match=r"frame 1: ImageError"):
            detector.detect_batch(frames, workers=2, backend="process")

    def test_empty_batch(self, detector):
        assert detector.detect_batch([]) == []


class TestValidation:
    def test_unknown_backend_rejected(self, detector):
        with pytest.raises(ParameterError, match="backend must be one of"):
            StreamPipeline(detector, backend="gpu")

    def test_detector_factory_is_thread_only(self, detector):
        with pytest.raises(ParameterError, match="thread-backend only"):
            StreamPipeline(
                detector,
                detector_factory=lambda: detector,
                backend=ExecutionBackend.PROCESS,
            )

    def test_enum_and_string_spellings_agree(self, detector):
        a = StreamPipeline(detector, backend="process")
        b = StreamPipeline(detector, backend=ExecutionBackend.PROCESS)
        assert a.backend is b.backend is ExecutionBackend.PROCESS


class TestThreadBackendUnchanged:
    def test_default_backend_is_thread(self, detector):
        pipeline = StreamPipeline(detector)
        assert pipeline.backend is ExecutionBackend.THREAD
        run = pipeline.run(ArraySource(list(_video(n=3, corrupt=()))))
        assert run.report.backend == "thread"
        assert all(fr.ok for fr in run.results)
