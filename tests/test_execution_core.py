"""The execution core shared by the stream pipeline and the service.

* the executor contract, over both executors: per-frame fault isolation
  inside a batch, ``capacity``, idempotent ``close``, no leaked
  shared-memory segment;
* :class:`OrderedLedger`: every sequence number emitted once, in order,
  with counts and a failure streak that match a sequential reference;
* a worker that fails to start loses no frame, on every front end ×
  backend pair.
"""

from __future__ import annotations

import asyncio
import glob
import multiprocessing
import queue
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.parallel.worker
from repro.core import DetectorConfig, MultiScalePedestrianDetector
from repro.errors import CircuitBreakerOpen, StreamError
from repro.parallel import DetectorSpec, ProcessExecutor, ThreadExecutor
from repro.serve import DetectionService
from repro.stream import ArraySource, FrameStatus, StreamPipeline
from repro.stream import pipeline as pipeline_module
from repro.stream.ledger import OrderedLedger
from repro.telemetry import MetricsRegistry

#: Seconds any one scenario may take before it counts as a stall.
TIMEOUT_S = 60.0

BACKENDS = ("thread", "process")


@pytest.fixture(scope="module")
def detector(trained_model):
    return MultiScalePedestrianDetector(
        trained_model,
        DetectorConfig(scales=(1.0,), threshold=0.5, stride=2),
    )


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(31)
    return [rng.random((160, 96)) for _ in range(6)]


def _segments() -> list[str]:
    return glob.glob("/dev/shm/repro-shm-*")


def _executor(kind: str, detector, workers: int = 1, max_batch: int = 1):
    if kind == "thread":
        return ThreadExecutor(lambda: detector, workers,
                              max_batch=max_batch, name="test-worker")
    return ProcessExecutor(DetectorSpec.from_detector(detector), workers,
                           max_batch=max_batch)


class _Collector:
    """A deliver callback that records every outcome by tag."""

    def __init__(self) -> None:
        self.outcomes: queue.Queue = queue.Queue()

    def __call__(self, tag, status, result, error, worker, busy_s, cpu_s):
        self.outcomes.put((tag, status, result, error))

    def take(self, n: int) -> dict:
        got = {}
        for _ in range(n):
            tag, status, result, error = self.outcomes.get(timeout=TIMEOUT_S)
            assert tag not in got, f"tag {tag} delivered twice"
            got[tag] = (status, result, error)
        return got


@pytest.mark.parametrize("kind", BACKENDS)
class TestExecutorContract:
    def test_corrupt_frame_fails_alone_inside_a_batch(self, kind, detector,
                                                      frames):
        batch = list(enumerate(frames[:3]))
        batch[1] = (1, np.full((160, 96), np.nan))
        executor = _executor(kind, detector, max_batch=3)
        collect = _Collector()
        try:
            executor.start(collect)
            executor.submit_batch(batch)
            got = collect.take(3)
        finally:
            executor.close()
        assert got[1][0] == "failed" and "ImageError" in got[1][2]
        for tag in (0, 2):
            status, result, _ = got[tag]
            assert status == "ok"
            assert result.detections == detector.detect(
                frames[tag]).detections

    def test_capacity_frames_all_resolve(self, kind, detector, frames):
        # One batch per worker plus headroom, scaled by the batch size;
        # the process executor's ring holds every one of them.
        executor = _executor(kind, detector, workers=2, max_batch=2)
        assert executor.capacity == (2 + 2) * 2
        collect = _Collector()
        try:
            executor.start(collect)
            for first in range(0, executor.capacity, 2):
                executor.submit_batch(
                    [(first + k, frames[(first + k) % len(frames)])
                     for k in range(2)]
                )
            got = collect.take(executor.capacity)
            assert executor.healthy
        finally:
            executor.close()
        assert sorted(got) == list(range(executor.capacity))
        assert {status for status, _, _ in got.values()} == {"ok"}

    def test_close_is_idempotent(self, kind, detector, frames):
        executor = _executor(kind, detector)
        collect = _Collector()
        executor.start(collect)
        executor.submit_batch([(0, frames[0])])
        collect.take(1)
        registry = MetricsRegistry()
        executor.close(registry)
        first = registry.snapshot()
        executor.close(registry)
        assert registry.snapshot().counters == first.counters
        assert not executor.healthy
        assert _segments() == []
        lingering = [t.name for t in threading.enumerate()
                     if t.name.startswith(("test-worker", "executor-"))]
        assert lingering == []


class TestProcessExecutorRuns:
    def test_restart_never_delivers_an_earlier_runs_frames(self, detector,
                                                           frames):
        executor = _executor("process", detector)
        first, second = _Collector(), _Collector()
        try:
            executor.start(first)
            executor.submit_batch([(0, frames[0]), (1, frames[1])])
            executor.start(second)  # the first run is abandoned
            executor.submit_batch([(0, frames[2])])
            got = second.take(1)
            with pytest.raises(queue.Empty):
                second.outcomes.get(timeout=1.0)
        finally:
            executor.close()
        status, result, _ = got[0]
        assert status == "ok"
        assert result.detections == detector.detect(frames[2]).detections


class TestInFlightBound:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stream_keeps_at_most_capacity_in_flight(self, monkeypatch,
                                                     backend, detector,
                                                     frames):
        peaks = []
        base = {"thread": ThreadExecutor,
                "process": ProcessExecutor}[backend]

        lock = threading.Lock()

        class Counting(base):
            def start(self, deliver):
                self.inflight = 0

                def counted(*args):
                    with lock:
                        self.inflight -= 1
                    deliver(*args)

                super().start(counted)

            def submit_batch(self, items):
                items = list(items)
                with lock:
                    self.inflight += len(items)
                    peaks.append((self.inflight, self.capacity))
                super().submit_batch(items)

        monkeypatch.setattr(pipeline_module, base.__name__, Counting)
        with StreamPipeline(detector, workers=1, queue_size=8,
                            backend=backend) as pipeline:
            run = pipeline.run(ArraySource(frames * 2))
        assert run.report.frames_ok == len(frames) * 2
        assert peaks and all(n <= cap for n, cap in peaks)


# -- OrderedLedger -------------------------------------------------------------

STATUSES = st.sampled_from(list(FrameStatus))


@given(data=st.data(), statuses=st.lists(STATUSES, max_size=40))
@settings(max_examples=200, deadline=None)
def test_ledger_emits_each_seq_once_in_order(data, statuses):
    order = data.draw(st.permutations(range(len(statuses))))
    ledger = OrderedLedger()
    emitted, streaks = [], []
    for seq in order:
        ledger.settle(seq, statuses[seq], t0=0.0, error=f"e{seq}")
        while (fr := ledger.pop()) is not None:
            emitted.append(fr)
            streaks.append(ledger.streak)
    assert [fr.index for fr in emitted] == list(range(len(statuses)))
    assert [fr.status for fr in emitted] == statuses
    assert sum(ledger.counts.values()) == len(statuses)
    for status in FrameStatus:
        assert ledger.counts[status] == statuses.count(status)
    reference, streak = [], 0
    for status in statuses:
        if status is FrameStatus.FAILED:
            streak += 1
        elif status is FrameStatus.OK:
            streak = 0
        reference.append(streak)
    assert streaks == reference
    assert all((fr.latency_s == 0.0) == (fr.status is FrameStatus.DROPPED)
               for fr in emitted)


# -- A worker that fails to start ----------------------------------------------

def _boom(*args, **kwargs):
    raise RuntimeError("boom")


@pytest.fixture()
def failing_start(request, monkeypatch):
    """Make every worker of ``request.param`` fail to start: a raising
    build for threads, a raising ``get_detector`` under a fork pool for
    processes."""
    backend = request.param
    if backend == "process":
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        monkeypatch.setattr(repro.parallel.worker, "get_detector", _boom)
        monkeypatch.setenv("REPRO_MP_START", "fork")
    else:
        monkeypatch.setattr(DetectorSpec, "build", _boom)
    return backend


async def _results(session, n: int) -> list:
    results: list = []
    while len(results) < n:
        results += await session.results()
    return results


def _in_thread(target):
    """Run ``target`` on a thread; the scenario must end in time."""
    box: dict = {}

    def run():
        try:
            box["value"] = target()
        except BaseException as exc:  # handed back to the test thread
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(TIMEOUT_S)
    assert not thread.is_alive(), "stalled: frames never resolved"
    if "error" in box:
        raise box["error"]
    return box["value"]


@pytest.mark.parametrize("failing_start", BACKENDS, indirect=True)
class TestWorkerStartupFailure:
    def _stream(self, backend, detector, **kwargs):
        if backend == "thread":
            return StreamPipeline(detector_factory=_boom, workers=2,
                                  queue_size=2, **kwargs)
        return StreamPipeline(detector, workers=1, queue_size=2,
                              backend="process", **kwargs)

    def test_stream_resolves_every_frame(self, failing_start, detector,
                                         frames):
        def scenario():
            with self._stream(failing_start, detector) as pipeline:
                return pipeline.run(ArraySource(frames[:4]))

        run = _in_thread(scenario)
        r = run.report
        assert r.frames_in == 4
        assert r.frames_in == r.frames_ok + r.frames_failed \
            + r.frames_dropped
        assert r.frames_failed == 4
        assert all("worker failed to start: RuntimeError: boom" in fr.error
                   for fr in run.results)
        assert _segments() == []

    def test_stream_breaker_trips(self, failing_start, detector, frames):
        def scenario():
            with self._stream(failing_start, detector,
                              max_consecutive_failures=2) as pipeline:
                return list(pipeline.process(ArraySource(frames[:4])))

        with pytest.raises(CircuitBreakerOpen, match="worker failed"):
            _in_thread(scenario)
        assert _segments() == []

    def test_serve_resolves_every_frame(self, failing_start, detector,
                                        frames):
        async def scenario():
            service = DetectionService(detector, workers=1,
                                       backend=failing_start)
            await service.start()
            try:
                session = service.open_session()
                for frame in frames[:4]:
                    await session.submit(frame)
                results = await asyncio.wait_for(_results(session, 4),
                                                 TIMEOUT_S)
            finally:
                await service.shutdown(settle_timeout_s=TIMEOUT_S)
            return results, session.report(), service.report()

        results, session, totals = asyncio.run(scenario())
        assert [fr.index for fr in results] == [0, 1, 2, 3]
        assert all(fr.status is FrameStatus.FAILED for fr in results)
        assert all("worker failed to start" in fr.error for fr in results)
        assert session.submitted == session.ok + session.failed \
            + session.dropped == 4
        assert totals.frames_failed == 4
        assert _segments() == []


def test_detect_batch_names_frames_a_failed_start_lost(monkeypatch, detector,
                                                       frames):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    monkeypatch.setattr(repro.parallel.worker, "get_detector", _boom)
    with pytest.raises(StreamError,
                       match=r"frame 0: worker failed to start"):
        _in_thread(lambda: detector.detect_batch(
            frames[:2], workers=1, backend="process", mp_start_method="fork"
        ))
    assert _segments() == []
