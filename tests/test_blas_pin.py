"""One BLAS thread per detection process.

Covers :func:`repro.parallel.limit_blas_threads` (with the library list
injected, and for real in a child interpreter so this process keeps
its own BLAS threading), the pin inside real pool workers under both
start methods, detection parity between pinned workers and the
unpinned in-process detector, and the worker CPU-time accounting that
makes a spinning BLAS helper visible (``StreamReport.worker_cpu_s``,
``serve.worker_busy_ms`` / ``serve.worker_cpu_ms``).

Only the thread-count assertions skip when no OpenBLAS is loaded; the
parity checks always run.
"""

from __future__ import annotations

import asyncio
import ctypes.util
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import DetectorConfig, MultiScalePedestrianDetector
from repro.errors import ParameterError
from repro.parallel import DetectorSpec, ProcessWorkerPool, limit_blas_threads
from repro.parallel.blas import (
    loaded_openblas,
    openblas_controls,
    openblas_paths,
)
from repro.serve import DetectionService
from repro.stream import ArraySource, FrameStatus, StreamPipeline
from repro.telemetry import MetricsRegistry

needs_openblas = pytest.mark.skipif(
    not openblas_controls(), reason="no OpenBLAS build loaded"
)


def _own_blas_threads() -> list[int]:
    return [get() for _, get in openblas_controls()]


def _boxes(detections):
    return [(d.top, d.left, d.height, d.width, d.scale, d.score)
            for d in detections]


@pytest.fixture(scope="module")
def vga_frame(tiny_dataset):
    """The approach frame of the 480x640 duty cycle: its conv-scorer
    GEMM is large enough for OpenBLAS to thread it when unpinned."""
    return tiny_dataset.make_scene(
        480, 640, n_pedestrians=3, pedestrian_heights=(128, 210),
        scene_index=0,
    ).image


@pytest.fixture(scope="module")
def vga_detector(trained_model):
    return MultiScalePedestrianDetector(
        trained_model,
        DetectorConfig(scales=(1.0, 1.2), stride=1, threshold=0.5,
                       scorer="conv-cascade", arena=True),
    )


class TestLimitBlasThreads:
    def test_maps_paths_keep_spaces(self):
        lines = [
            "7f10-7f20 r-xp 00000000 08:01 1234  "
            "/home/a b/venv/numpy.libs/libscipy_openblas64_-abc.so\n",
            "7f20-7f30 r--p 00001000 08:01 1234  "
            "/home/a b/venv/numpy.libs/libscipy_openblas64_-abc.so\n",
            "7f30-7f40 r-xp 00000000 08:01 99  /usr/lib/libc.so.6\n",
            "7f40-7f50 rw-p 00000000 00:00 0 \n",
            "7ffd-7ffe rw-p 00000000 00:00 0  [stack]\n",
        ]
        assert openblas_paths(lines) == [
            "/home/a b/venv/numpy.libs/libscipy_openblas64_-abc.so"
        ]

    def test_no_openblas_returns_none_and_changes_nothing(self):
        before = _own_blas_threads()
        assert limit_blas_threads(1, libraries=[]) is None
        # A library without an OpenBLAS setter, and one that does not
        # load, are skipped the same way.
        libc = ctypes.util.find_library("c") or "libc.so.6"
        assert limit_blas_threads(
            1, libraries=[libc, "/nonexistent/libopenblas.so"]
        ) is None
        assert _own_blas_threads() == before

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ParameterError):
            limit_blas_threads(0, libraries=[])

    @needs_openblas
    def test_sets_and_reads_back_idempotently(self):
        # Pin a child interpreter: this process keeps its own count.
        before = _own_blas_threads()
        script = (
            "from repro.parallel.blas import limit_blas_threads\n"
            "import numpy, sys\n"
            "libs = sys.argv[1:]\n"
            "first = limit_blas_threads(1, libraries=libs)\n"
            "second = limit_blas_threads(1, libraries=libs)\n"
            "print(first, second)\n"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", script, *loaded_openblas()],
            capture_output=True, text=True, env=env, timeout=120,
            check=True,
        )
        assert out.stdout.split() == ["1", "1"]
        assert _own_blas_threads() == before


class TestWorkerPin:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_worker_reports_one_blas_thread(self, trained_model,
                                            start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        det = MultiScalePedestrianDetector(
            trained_model,
            DetectorConfig(scales=(1.0,), threshold=0.5, stride=2,
                           telemetry=True),
        )
        before = _own_blas_threads()
        pool = ProcessWorkerPool(DetectorSpec.from_detector(det),
                                 workers=1, start_method=start_method)
        try:
            pool.submit_batch(
                0, [(0, np.random.default_rng(3).random((160, 160)), 0.0)]
            )
            msg = None
            while msg is None or msg[0] != "result":
                msg = pool.next_message(timeout=60.0)
                assert msg is None or msg[0] != "dead", msg
        finally:
            snapshots = pool.close()
        (_, _, _, status, _, _, _, busy_s, cpu_s, _) = msg
        assert status == "ok"
        assert busy_s > 0 and cpu_s > 0
        assert len(snapshots) == 1
        gauges = snapshots[0].gauges
        assert _own_blas_threads() == before
        if not before:
            assert "parallel.blas_threads" not in gauges
            pytest.skip("no OpenBLAS build loaded")
        assert gauges["parallel.blas_threads"] == 1


class TestPinnedParity:
    """Pinned workers against the unpinned in-process detector: same
    boxes, bitwise-equal scores (OpenBLAS splits a GEMM's output among
    threads, never the 36-term inner sums)."""

    def test_process_stream_matches_unpinned_detector(
        self, vga_detector, vga_frame
    ):
        expected = _boxes(vga_detector.detect(vga_frame).detections)
        assert expected
        with StreamPipeline(vga_detector, workers=1,
                            backend="process") as pipeline:
            run = pipeline.run(ArraySource([vga_frame, vga_frame]))
        assert [r.status for r in run.results] == [FrameStatus.OK] * 2
        for result in run.results:
            assert _boxes(result.detections) == expected
        assert run.report.worker_cpu_s > 0

    def test_process_service_matches_unpinned_detector(
        self, vga_detector, vga_frame
    ):
        expected = _boxes(vga_detector.detect(vga_frame).detections)

        async def scenario():
            service = DetectionService(vga_detector, workers=1,
                                       backend="process")
            await service.start()
            try:
                session = service.open_session()
                await session.submit(vga_frame)
                return await session.results(max_items=1, timeout=120.0)
            finally:
                await service.shutdown()

        (result,) = asyncio.run(scenario())
        assert result.status is FrameStatus.OK
        assert _boxes(result.detections) == expected


class TestWorkerCpuAccounting:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_stream_report_sums_worker_cpu(self, trained_model, backend):
        det = MultiScalePedestrianDetector(
            trained_model,
            DetectorConfig(scales=(1.0,), threshold=0.5, stride=2),
        )
        frames = [np.random.default_rng(i).random((160, 160))
                  for i in range(3)]
        with StreamPipeline(det, workers=1, backend=backend) as pipeline:
            report = pipeline.run(ArraySource(frames)).report
        assert report.frames_ok == 3
        assert report.worker_cpu_s > 0
        assert report.to_dict()["worker_cpu_s"] == report.worker_cpu_s

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_service_records_worker_seconds(self, trained_model, backend):
        det = MultiScalePedestrianDetector(
            trained_model,
            DetectorConfig(scales=(1.0,), threshold=0.5, stride=2),
        )
        telemetry = MetricsRegistry()

        async def scenario():
            service = DetectionService(det, workers=1, backend=backend,
                                       telemetry=telemetry)
            await service.start()
            try:
                session = service.open_session()
                for i in range(2):
                    await session.submit(
                        np.random.default_rng(i).random((160, 112))
                    )
                got = []
                while len(got) < 2:
                    got += await session.results(timeout=60.0)
                return got
            finally:
                await service.shutdown()

        results = asyncio.run(scenario())
        assert all(r.status is FrameStatus.OK for r in results)
        histograms = telemetry.snapshot().histograms
        for name in ("serve.worker_busy_ms", "serve.worker_cpu_ms"):
            assert histograms[name].count == 2
            assert histograms[name].total > 0
