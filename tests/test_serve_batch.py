"""Micro-batched dispatch, admission throttle, auth and keep-alive tests.

The batching contract under test: coalescing pending frames across
sessions into one worker dispatch is a pure *transport* optimization —
frame-for-frame, a batched service must produce exactly the results an
unbatched one does (same per-session ordering, same per-frame fault
isolation: one corrupt frame inside a batch fails alone, never its
batchmates).  The parity tests drive random session interleavings
(hypothesis on the thread backend, a fixed sweep on the process
backend) through a ``max_batch=1`` service and a batching one and
compare the emitted ``FrameResult`` sequences.

The HTTP additions ride along: per-session ``max_fps`` throttling with
in-order ``DROPPED`` accounting, bearer-token auth on ``/v1/*``, and
HTTP/1.1 keep-alive connection reuse.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DetectorConfig, MultiScalePedestrianDetector
from repro.errors import ParameterError, ServeError
from repro.parallel import DetectorSpec
from repro.serve import (
    DetectionService,
    ServeClient,
    start_http_server,
)
from repro.stream import FrameStatus
from repro.telemetry import MetricsRegistry


@pytest.fixture(scope="module")
def detector(trained_model):
    return MultiScalePedestrianDetector(
        trained_model,
        DetectorConfig(scales=(1.0,), threshold=0.5),
    )


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(31)
    return [rng.random((96, 80)) for _ in range(8)]


def run(coro):
    return asyncio.run(coro)


async def _drain(session, count):
    collected = []
    while len(collected) < count:
        batch = await session.results(
            max_items=count - len(collected), timeout=30.0
        )
        assert batch or not session.done, "session ended early"
        collected.extend(batch)
    return collected


def _fingerprint(results):
    """What batching must not change about a result sequence."""
    return [
        (r.index, r.status.value, r.detections,
         r.error is not None)
        for r in results
    ]


def _run_interleaving(detector, frames, schedule, n_sessions,
                      corrupt_at, **service_kwargs):
    """Submit ``frames`` to ``n_sessions`` sessions in ``schedule``
    order; returns each session's result fingerprint.

    ``schedule`` is a sequence of session indices; submission ``k`` of
    session ``s`` sends ``frames[k % len(frames)]``, except submission
    ``corrupt_at`` which sends an all-NaN frame (the per-frame fault
    the batch must isolate).
    """
    async def scenario():
        service = DetectionService(detector, **service_kwargs)
        await service.start()
        try:
            sessions = [service.open_session()
                        for _ in range(n_sessions)]
            counts = [0] * n_sessions
            corrupt = np.full_like(frames[0], np.nan)
            for s in schedule:
                k = counts[s]
                counts[s] += 1
                frame = (corrupt if k == corrupt_at
                         else frames[k % len(frames)])
                ticket = await sessions[s].submit(frame)
                assert ticket.accepted
            drained = [
                await _drain(session, count)
                for session, count in zip(sessions, counts)
            ]
        finally:
            report = await service.shutdown()
        assert report.drained_clean
        return [_fingerprint(got) for got in drained]
    return run(scenario())


class TestBatchedParity:
    """Batched and unbatched dispatch must be observably identical."""

    @given(schedule=st.lists(st.integers(0, 2), min_size=1,
                             max_size=12))
    @settings(max_examples=15, deadline=None)
    def test_thread_backend_interleavings(self, detector, frames,
                                          schedule):
        base = _run_interleaving(
            detector, frames, schedule, 3, corrupt_at=1,
            workers=2, max_batch=1,
        )
        batched = _run_interleaving(
            detector, frames, schedule, 3, corrupt_at=1,
            workers=2, max_batch=4, batch_window_ms=2.0,
        )
        assert batched == base
        for s, count in enumerate(
            [schedule.count(i) for i in range(3)]
        ):
            assert [f[0] for f in batched[s]] == list(range(count))
            for k, (_, status, _, has_error) in enumerate(batched[s]):
                if k == 1:
                    assert status == "failed" and has_error
                else:
                    assert status == "ok" and not has_error

    @pytest.mark.parametrize("schedule", [
        [0, 1, 0, 1, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 1, 1, 1],
        [1, 0, 0, 1, 1, 0, 1, 0],
    ])
    def test_process_backend_interleavings(self, detector, frames,
                                           schedule):
        base = _run_interleaving(
            detector, frames, schedule, 2, corrupt_at=2,
            workers=2, backend="process", max_batch=1,
        )
        batched = _run_interleaving(
            detector, frames, schedule, 2, corrupt_at=2,
            workers=2, backend="process", max_batch=4,
            batch_window_ms=2.0,
        )
        assert batched == base

    def test_batching_actually_batches(self, detector, frames):
        async def scenario():
            telemetry = MetricsRegistry()
            service = DetectionService(
                detector, workers=2, max_batch=4,
                batch_window_ms=5.0, max_pending=32,
                telemetry=telemetry,
            )
            await service.start()
            try:
                sessions = [service.open_session() for _ in range(4)]
                for frame in frames:
                    for session in sessions:
                        await session.submit(frame)
                for session in sessions:
                    await _drain(session, len(frames))
            finally:
                await service.shutdown()
            return telemetry.snapshot()
        snap = run(scenario())
        assert snap.counters["serve.batch.multi_frame"] >= 1
        sizes = snap.histograms["serve.batch.size"]
        assert sizes.count == snap.counters["serve.batch.formed"]
        assert sizes.maximum > 1

    def test_process_backend_reports_batches(self, detector, frames):
        async def scenario():
            telemetry = MetricsRegistry()
            service = DetectionService(
                detector, workers=2, backend="process", max_batch=4,
                batch_window_ms=5.0, max_pending=32,
                telemetry=telemetry,
            )
            await service.start()
            try:
                sessions = [service.open_session() for _ in range(4)]
                for frame in frames[:4]:
                    for session in sessions:
                        await session.submit(frame)
                for session in sessions:
                    await _drain(session, 4)
            finally:
                await service.shutdown()
            return telemetry.snapshot()
        snap = run(scenario())
        assert snap.counters["parallel.batches"] >= 1

    def test_parameter_validation(self, detector):
        with pytest.raises(ParameterError, match="max_batch"):
            DetectionService(detector, max_batch=0)
        with pytest.raises(ParameterError, match="batch_window_ms"):
            DetectionService(detector, batch_window_ms=-1.0)
        with pytest.raises(ParameterError, match="max_fps"):
            DetectionService(detector, max_fps=0.0)


#: Batch window of the work-conserving pump tests: long enough that
#: a frame which waited it out cannot pass for one dispatched at once.
WINDOW_MS = 1000.0
WINDOW_S = WINDOW_MS / 1e3

#: Seconds a gated scenario may wait on a worker before it counts as a
#: stall.
STALL_S = 60.0


class _Gate:
    """Thread-backend detectors whose ``detect`` blocks on chosen frames.

    Installed over :meth:`DetectorSpec.build`, so the service's thread
    workers each get a real detector wrapped here.  A worker that picks
    up a frame passed to :meth:`hold` puts it on ``entered`` and waits
    for :meth:`release`; every ``detect`` records when it began in
    ``started`` (keyed by frame identity).
    """

    def __init__(self, monkeypatch):
        self.entered: queue.Queue = queue.Queue()
        self.started: dict[int, float] = {}
        self._held: set[int] = set()
        self._open = threading.Event()
        build = DetectorSpec.build
        gate = self

        class Gated:
            def __init__(self, inner):
                self._inner = inner

            def detect(self, frame):
                gate.started[id(frame)] = time.perf_counter()
                if id(frame) in gate._held:
                    gate.entered.put(id(frame))
                    assert gate._open.wait(STALL_S), "gate never opened"
                return self._inner.detect(frame)

        monkeypatch.setattr(DetectorSpec, "build",
                            lambda spec: Gated(build(spec)))

    def hold(self, frame):
        """A copy of ``frame`` that blocks its worker until release."""
        held = frame.copy()
        self._held.add(id(held))
        return held

    async def wait_entered(self):
        return await asyncio.to_thread(self.entered.get, True, STALL_S)

    def release(self):
        self._open.set()


async def _batches_formed(telemetry, n):
    """Wait until the pump has formed ``n`` batches."""
    deadline = time.perf_counter() + STALL_S
    while telemetry.snapshot().counters.get("serve.batch.formed", 0) < n:
        assert time.perf_counter() < deadline, "batches never formed"
        await asyncio.sleep(0.005)


def _pump_scenario(detector, body, workers):
    """Run ``body(service, telemetry)`` against a batching service whose
    window is ``WINDOW_MS``; returns its value and the final snapshot."""
    async def scenario():
        telemetry = MetricsRegistry()
        service = DetectionService(
            detector, workers=workers, max_batch=4,
            batch_window_ms=WINDOW_MS, max_pending=16,
            telemetry=telemetry,
        )
        await service.start()
        try:
            value = await body(service, telemetry)
        finally:
            await service.shutdown()
        return value, telemetry.snapshot()
    return run(scenario())


class TestWorkConservingPump:
    """A frame waits out the batch window only while every worker of
    its pool already holds a batch."""

    def test_idle_pool_dispatches_a_lone_frame_at_once(self, detector,
                                                       frames):
        async def body(service, telemetry):
            session = service.open_session()
            start = time.perf_counter()
            await session.submit(frames[0])
            [result] = await _drain(session, 1)
            return result, time.perf_counter() - start
        (result, elapsed), snap = _pump_scenario(detector, body, workers=1)
        assert result.status is FrameStatus.OK
        assert elapsed < WINDOW_S / 2
        assert snap.counters.get("serve.batch.lingered", 0) == 0

    def test_busy_worker_coalesces_frames_into_one_batch(
            self, monkeypatch, detector, frames):
        gate = _Gate(monkeypatch)
        blocker = gate.hold(frames[0])

        async def body(service, telemetry):
            session = service.open_session()
            start = time.perf_counter()
            await session.submit(blocker)
            await gate.wait_entered()
            entered_s = time.perf_counter() - start
            try:
                # The only worker holds a batch: these three linger
                # together for the window, then leave as one batch.
                for frame in frames[1:4]:
                    await session.submit(frame)
                    await asyncio.sleep(0.02)
                await _batches_formed(telemetry, 2)
                sizes = telemetry.snapshot().histograms["serve.batch.size"]
            finally:
                gate.release()
            results = await _drain(session, 4)
            return entered_s, sizes, results
        (entered_s, sizes, results), snap = _pump_scenario(
            detector, body, workers=1)
        assert entered_s < WINDOW_S / 2  # the idle worker took it at once
        assert sizes.count == 2 and sizes.maximum == 3
        assert snap.counters["serve.batch.multi_frame"] == 1
        assert snap.counters["serve.batch.lingered"] == 1
        linger = snap.histograms["serve.batch.linger_ms"]
        assert linger.count == 1
        assert WINDOW_MS * 0.9 <= linger.maximum < WINDOW_MS * 2
        assert [r.index for r in results] == [0, 1, 2, 3]
        assert {r.status for r in results} == {FrameStatus.OK}

    def test_released_worker_ends_the_linger(self, monkeypatch, detector,
                                             frames):
        gate = _Gate(monkeypatch)
        blocker = gate.hold(frames[0])
        waiting = frames[1].copy()

        async def body(service, telemetry):
            session = service.open_session()
            await session.submit(blocker)
            await gate.wait_entered()
            try:
                await session.submit(waiting)
                await asyncio.sleep(0.05)  # lingering on the busy worker
            finally:
                released = time.perf_counter()
                gate.release()
            results = await _drain(session, 2)
            return released, results
        (released, results), snap = _pump_scenario(
            detector, body, workers=1)
        assert {r.status for r in results} == {FrameStatus.OK}
        assert gate.started[id(waiting)] - released < WINDOW_S / 2
        assert snap.counters["serve.batch.lingered"] == 1
        assert snap.histograms["serve.batch.linger_ms"].maximum \
            < WINDOW_MS / 2

    def test_busy_counts_batches_not_frames(self, monkeypatch, detector,
                                            frames):
        gate = _Gate(monkeypatch)
        pair = [gate.hold(frames[0]), gate.hold(frames[1])]

        async def body(service, telemetry):
            busy = service.open_session()
            for frame in pair:  # no await point between: one batch
                await busy.submit(frame)
            await gate.wait_entered()
            try:
                # One worker holds a 2-frame batch, the other is idle:
                # two frames in flight on two workers, yet no linger.
                lone = service.open_session()
                start = time.perf_counter()
                await lone.submit(frames[2])
                [result] = await _drain(lone, 1)
                elapsed = time.perf_counter() - start
            finally:
                gate.release()
            await _drain(busy, 2)
            return result, elapsed
        (result, elapsed), snap = _pump_scenario(detector, body, workers=2)
        assert result.status is FrameStatus.OK
        assert elapsed < WINDOW_S / 2
        sizes = snap.histograms["serve.batch.size"]
        assert sizes.count == 2 and sizes.maximum == 2
        assert snap.counters.get("serve.batch.lingered", 0) == 0


class TestThrottle:
    def test_max_fps_refuses_in_order(self, detector, frames):
        async def scenario():
            telemetry = MetricsRegistry()
            service = DetectionService(
                detector, workers=1, telemetry=telemetry,
            )
            await service.start()
            try:
                session = service.open_session(max_fps=0.5)
                tickets = [await session.submit(frame)
                           for frame in frames[:5]]
                got = await _drain(session, 5)
            finally:
                await service.shutdown()
            return tickets, got, session.report(), telemetry.snapshot()
        tickets, got, report, snap = run(scenario())
        # Burst headroom is one frame: the first submit is admitted,
        # the immediate follow-ups are throttled.
        assert tickets[0].accepted
        throttled = [t for t in tickets if not t.accepted]
        assert throttled and all(
            t.reason == "throttled" for t in throttled
        )
        # No silent loss, no holes: every seq yields an in-order
        # result; throttled frames are DROPPED records.
        assert [r.index for r in got] == list(range(5))
        for ticket in throttled:
            assert got[ticket.seq].status is FrameStatus.DROPPED
        assert report.throttled == len(throttled)
        assert report.rejected == 0
        assert report.dropped == len(throttled)
        assert snap.counters["serve.frames_throttled"] == len(throttled)

    def test_throttle_applies_under_block_policy(self, detector,
                                                 frames):
        async def scenario():
            service = DetectionService(
                detector, workers=1, default_policy="block",
            )
            await service.start()
            try:
                session = service.open_session(max_fps=0.25)
                tickets = [await session.submit(frame)
                           for frame in frames[:3]]
                await _drain(session, 3)
            finally:
                await service.shutdown()
            return tickets
        tickets = run(scenario())
        # block pacing would hide the overrun; the cap refuses instead.
        assert not all(t.accepted for t in tickets)

    def test_session_report_counts_stay_consistent(self, detector,
                                                   frames):
        async def scenario():
            service = DetectionService(detector, workers=1)
            await service.start()
            try:
                session = service.open_session(max_fps=0.5)
                for frame in frames[:4]:
                    await session.submit(frame)
                report = await session.close(drain=True)
            finally:
                service_report = await service.shutdown()
            return report, service_report
        report, service_report = run(scenario())
        assert report.submitted == report.ok + report.failed \
            + report.dropped
        assert report.dropped == report.throttled + report.rejected \
            + report.evicted
        assert service_report.frames_throttled == report.throttled


class _HttpHarness:
    """DetectionService + ServeApp on a private loop thread, with the
    service/app keyword knobs the batching PR added."""

    def __init__(self, detector, *, keep_alive=False, auth_token=None,
                 **service_kwargs):
        self._detector = detector
        self._keep_alive = keep_alive
        self._auth_token = auth_token
        self._service_kwargs = service_kwargs
        self._ports: queue.Queue = queue.Queue()
        self._loop = None
        self._stop = None
        self.telemetry = MetricsRegistry()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        port = self._ports.get(timeout=60)
        if isinstance(port, BaseException):
            raise port
        return ServeClient(port=port, timeout=60.0,
                           auth_token=self._auth_token)

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)

    def _run(self):
        try:
            asyncio.run(self._main())
        except BaseException as error:  # startup failures -> the test
            self._ports.put(error)

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        service = DetectionService(
            self._detector, workers=2, telemetry=self.telemetry,
            **self._service_kwargs,
        )
        await service.start()
        app, _, port = await start_http_server(
            service, "127.0.0.1", 0,
            keep_alive=self._keep_alive, auth_token=self._auth_token,
        )
        self._ports.put(port)
        await self._stop.wait()
        await app.stop()
        await service.shutdown()


class TestAuth:
    def test_v1_routes_require_the_bearer_token(self, detector):
        harness = _HttpHarness(detector, auth_token="sesame")
        with harness as client:
            # Probes and metrics stay open for liveness checks and
            # scrapers.
            bare = ServeClient(port=client.port, timeout=60.0)
            try:
                assert bare.health()
                assert bare.ready()
                assert "repro_serve_ready" in bare.metrics_text()
                with pytest.raises(ServeError, match="401"):
                    bare.open_session()
                status, _, _ = bare._request("POST", "/v1/sessions")
                assert status == 401
            finally:
                bare.close()
            wrong = ServeClient(port=client.port, timeout=60.0,
                                auth_token="wrong")
            try:
                with pytest.raises(ServeError, match="401"):
                    wrong.open_session()
            finally:
                wrong.close()
            session = client.open_session()
            report = client.close_session(session)
            assert report["session"] == session
            client.close()

    def test_http_max_fps_throttles_with_429(self, detector, frames):
        with _HttpHarness(detector) as client:
            session = client.open_session(max_fps=0.5)
            tickets = [client.submit_frame(session, frames[0])
                       for _ in range(4)]
            throttled = [t for t in tickets if not t["accepted"]]
            assert throttled and all(
                t["reason"] == "throttled" for t in throttled
            )
            results = client.collect(session, 4)
            assert [r["index"] for r in results] == [0, 1, 2, 3]
            report = client.close_session(session)
            assert report["throttled"] == len(throttled)
            client.close()

    def test_bad_max_fps_is_rejected(self, detector):
        with _HttpHarness(detector) as client:
            with pytest.raises(ServeError, match="max_fps"):
                client.open_session(max_fps=-1.0)
            client.close()


class TestKeepAlive:
    def test_connection_reuse(self, detector, frames):
        harness = _HttpHarness(detector, keep_alive=True)
        with harness as client:
            session = client.open_session()
            for frame in frames[:3]:
                assert client.submit_frame(session, frame)["accepted"]
            results = client.collect(session, 3)
            assert [r["index"] for r in results] == [0, 1, 2]
            client.close_session(session)
            metrics = client.metrics()
            client.close()
        samples = metrics["samples"]
        connections = samples[("repro_serve_http_connections", ())]
        requests = samples[("repro_serve_http_requests", ())]
        # One persistent client connection served every request.
        assert connections == 1
        assert requests > connections

    def test_close_header_still_honoured(self, detector):
        harness = _HttpHarness(detector, keep_alive=True)
        with harness as client:
            status, _, _ = client._request(
                "GET", "/healthz", headers={"Connection": "close"}
            )
            assert status == 200
            # The server honoured Connection: close; the client saw it
            # and dropped its cached connection.
            assert client._connection is None
            assert client.ready()  # next request dials fresh
            client.close()

    def test_stale_connection_is_retried_once(self, detector):
        # Against a keep-alive server, simulate the server closing an
        # idle connection under the client: the next request must
        # transparently retry on a fresh socket.
        harness = _HttpHarness(detector, keep_alive=True)
        with harness as client:
            assert client.health()
            assert client._connection is not None
            client._connection.sock.close()  # yank the socket
            assert client.health()
            client.close()

    def test_default_mode_still_closes_per_request(self, detector):
        with _HttpHarness(detector) as client:
            assert client.health()
            # Every response carries Connection: close, so the client
            # never caches a connection in default mode.
            assert client._connection is None
            metrics = client.metrics()
            client.close()
        samples = metrics["samples"]
        assert samples[("repro_serve_http_connections", ())] \
            == samples[("repro_serve_http_requests", ())]
