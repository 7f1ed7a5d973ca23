"""Tests for the detection-as-a-service layer (repro.serve).

The contracts under test, in the ISSUE's words:

* N concurrent sessions over one shared pool each receive exactly
  their own frames back, in order;
* per-session fault isolation — one client's corrupt frame fails that
  frame on that session only;
* every backpressure policy preserves the no-silent-loss invariant
  (refused/evicted frames still yield in-order ``DROPPED`` results);
* ``/metrics`` renders parseable Prometheus text exposition and every
  registered ``serve.*`` name round-trips through it;
* the HTTP front end + ``ServeClient`` drive the same machinery.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import queue
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import DetectorConfig, MultiScalePedestrianDetector
from repro.errors import ParameterError, ServeError
from repro.serve import (
    DetectionService,
    ServeClient,
    metric_identity,
    parse_exposition,
    render_prometheus,
    start_http_server,
)
from repro.serve.http import ServeApp
from repro.serve.prometheus import escape_label
from repro.stream import FrameStatus
from repro.telemetry import MetricsRegistry
from repro.telemetry import names as telemetry_names


@pytest.fixture(scope="module")
def detector(trained_model):
    return MultiScalePedestrianDetector(
        trained_model,
        DetectorConfig(scales=(1.0,), threshold=0.5),
    )


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(23)
    return [rng.random((160, 112)) for _ in range(6)]


def run(coro):
    return asyncio.run(coro)


async def _drain(session, count):
    """Collect exactly ``count`` results from one session."""
    collected = []
    while len(collected) < count:
        batch = await session.results(
            max_items=count - len(collected), timeout=30.0
        )
        assert batch or not session.done, "session ended early"
        collected.extend(batch)
    return collected


class TestDetectionService:
    def test_sessions_share_pool_and_keep_their_own_order(
        self, detector, frames
    ):
        async def scenario():
            telemetry = MetricsRegistry()
            service = DetectionService(
                detector, workers=2, telemetry=telemetry
            )
            await service.start()
            try:
                one = service.open_session()
                two = service.open_session()
                # Interleave submissions so worker completions race.
                for frame in frames:
                    await one.submit(frame)
                    await two.submit(frame)
                got_one = await _drain(one, len(frames))
                got_two = await _drain(two, len(frames))
            finally:
                report = await service.shutdown()
            return one.report(), two.report(), got_one, got_two, \
                report, telemetry
        rep_one, rep_two, got_one, got_two, report, telemetry = run(
            scenario()
        )
        for got in (got_one, got_two):
            assert [r.index for r in got] == list(range(len(frames)))
            assert all(r.status is FrameStatus.OK for r in got)
        # Same spec => same cache key => one shared pool.
        assert rep_one.pool == rep_two.pool
        assert report.pools_built == 1
        assert report.frames_submitted == 2 * len(frames)
        assert report.frames_ok == 2 * len(frames)
        assert report.drained_clean
        snap = telemetry.snapshot()
        assert snap.counters["serve.frames_submitted"] == 2 * len(frames)
        assert snap.counters["serve.frames_ok"] == 2 * len(frames)
        assert snap.counters["serve.sessions_opened"] == 2
        # The second session hit the pool the first one built (the
        # default pool is warmed at start, so both are hits).
        assert snap.counters["serve.pool_cache_hits"] == 2

    def test_fault_is_isolated_to_the_offending_session(
        self, detector, frames
    ):
        async def scenario():
            service = DetectionService(detector, workers=2)
            await service.start()
            try:
                healthy = service.open_session()
                faulty = service.open_session()
                corrupt = np.full_like(frames[0], np.nan)
                for i, frame in enumerate(frames):
                    await healthy.submit(frame)
                    await faulty.submit(corrupt if i == 2 else frame)
                got_healthy = await _drain(healthy, len(frames))
                got_faulty = await _drain(faulty, len(frames))
            finally:
                await service.shutdown()
            return got_healthy, got_faulty
        got_healthy, got_faulty = run(scenario())
        assert all(r.ok for r in got_healthy)
        statuses = [r.status for r in got_faulty]
        assert statuses.count(FrameStatus.FAILED) == 1
        assert got_faulty[2].status is FrameStatus.FAILED
        assert got_faulty[2].error
        assert [r.index for r in got_faulty] == list(range(len(frames)))

    def test_drop_newest_refuses_but_never_silently_loses(
        self, detector, frames
    ):
        async def scenario():
            service = DetectionService(
                detector, workers=1, default_policy="drop-newest",
                max_pending=2,
            )
            await service.start()
            try:
                session = service.open_session()
                tickets = [
                    await session.submit(frame)
                    for frame in frames
                ]
                got = await _drain(session, len(frames))
            finally:
                await service.shutdown()
            return tickets, got, session.report()
        tickets, got, report = run(scenario())
        rejected = [t for t in tickets if not t.accepted]
        assert rejected, "quota of 2 never saturated across 6 submits"
        # Every submit got a seq; every seq produced exactly one
        # result, in order — a refusal is a DROPPED record, not a gap.
        assert [t.seq for t in tickets] == list(range(len(frames)))
        assert [r.index for r in got] == list(range(len(frames)))
        for ticket in rejected:
            assert got[ticket.seq].status is FrameStatus.DROPPED
        assert report.rejected == len(rejected)
        assert report.dropped == len(rejected)
        assert report.evicted == 0
        assert report.ok == len(frames) - len(rejected)

    def test_drop_oldest_evicts_queued_frames_in_order(
        self, detector, frames
    ):
        async def scenario():
            service = DetectionService(
                detector, workers=1, default_policy="drop-oldest",
                max_pending=2,
            )
            await service.start()
            try:
                session = service.open_session()
                tickets = [
                    await session.submit(frame)
                    for frame in frames
                ]
                got = await _drain(session, len(frames))
            finally:
                await service.shutdown()
            return tickets, got, session.report()
        tickets, got, report = run(scenario())
        assert [r.index for r in got] == list(range(len(frames)))
        dropped = [r for r in got if r.status is FrameStatus.DROPPED]
        assert report.evicted + report.rejected == len(dropped)
        assert report.evicted > 0, "nothing was ever evicted"
        # drop-oldest favours the newcomer: the *last* submit is never
        # the refused one as long as something queued was evictable.
        assert got[-1].status is not FrameStatus.DROPPED or \
            tickets[-1].accepted
        assert report.ok + report.failed + report.dropped == len(frames)

    def test_block_policy_is_lossless(self, detector, frames):
        async def scenario():
            service = DetectionService(
                detector, workers=2, default_policy="block",
                max_pending=1,
            )
            await service.start()
            try:
                session = service.open_session()

                async def submit_all():
                    for frame in frames:
                        ticket = await session.submit(frame)
                        assert ticket.accepted
                submitter = asyncio.ensure_future(submit_all())
                got = await _drain(session, len(frames))
                await submitter
            finally:
                await service.shutdown()
            return got, session.report()
        got, report = run(scenario())
        assert [r.index for r in got] == list(range(len(frames)))
        assert all(r.status is FrameStatus.OK for r in got)
        assert report.dropped == report.rejected == report.evicted == 0

    def test_session_close_drains_and_reports(self, detector, frames):
        async def scenario():
            service = DetectionService(detector, workers=2)
            await service.start()
            try:
                session = service.open_session()
                for frame in frames[:3]:
                    await session.submit(frame)
                report = await session.close(drain=True)
                leftovers = await session.results(timeout=1.0)
            finally:
                service_report = await service.shutdown()
            return report, leftovers, service_report
        report, leftovers, service_report = run(scenario())
        assert report.submitted == 3
        assert report.ok == 3
        # Results not consumed before close are still there — close
        # drains the workers, it does not discard the output queue.
        assert [r.index for r in leftovers] == [0, 1, 2]
        assert service_report.sessions_closed == 1
        assert service_report.drained_clean

    def test_draining_service_refuses_new_work(self, detector, frames):
        async def scenario():
            service = DetectionService(detector, workers=1)
            await service.start()
            session = service.open_session()
            await service.shutdown()
            with pytest.raises(ServeError):
                service.open_session()
            with pytest.raises(ServeError):
                await session.submit(frames[0])
        run(scenario())

    def test_parameter_validation(self, detector):
        with pytest.raises(ParameterError, match="detector"):
            DetectionService()
        with pytest.raises(ParameterError, match="workers"):
            DetectionService(detector, workers=0)
        with pytest.raises(ParameterError, match="max_pending"):
            DetectionService(detector, max_pending=0)

        async def bad_session():
            service = DetectionService(detector)
            await service.start()
            try:
                with pytest.raises(ParameterError, match="max_pending"):
                    service.open_session(max_pending=0)
            finally:
                await service.shutdown()
        run(bad_session())


class TestPrometheusExposition:
    def test_counter_gauge_and_summary_lines(self):
        reg = MetricsRegistry()
        reg.inc("serve.frames_submitted", 7)
        reg.set_gauge("serve.workers", 2.0)
        for value in (1.0, 2.0, 3.0, 4.0):
            reg.observe("serve.latency_ms", value)
        text = render_prometheus(reg.snapshot())
        assert "# TYPE repro_serve_frames_submitted counter" in text
        assert "repro_serve_frames_submitted 7" in text
        assert "# TYPE repro_serve_workers gauge" in text
        assert "repro_serve_workers 2.0" in text
        assert "# TYPE repro_serve_latency_ms summary" in text
        assert 'repro_serve_latency_ms{quantile="0.5"}' in text
        assert 'repro_serve_latency_ms{quantile="0.95"}' in text
        assert "repro_serve_latency_ms_sum 10" in text
        assert "repro_serve_latency_ms_count 4" in text
        assert "_bucket" not in text

    def test_template_instances_become_labels(self):
        reg = MetricsRegistry()
        reg.inc("serve.http.responses[200]", 3)
        reg.inc("serve.http.responses[429]")
        text = render_prometheus(reg.snapshot())
        assert 'repro_serve_http_responses{code="200"} 3' in text
        assert 'repro_serve_http_responses{code="429"} 1' in text
        parsed = parse_exposition(text)
        samples = parsed["samples"]
        assert samples[
            ("repro_serve_http_responses", (("code", "200"),))
        ] == 3.0

    def test_spans_render_as_duration_summary(self):
        reg = MetricsRegistry()
        with reg.span("detect.frame"):
            pass
        text = render_prometheus(reg.snapshot())
        assert "# TYPE repro_stage_duration_seconds summary" in text
        assert 'repro_stage_duration_seconds_count{path="detect.frame"}' \
            in text

    def test_label_escaping_round_trips(self):
        hostile = 'sla\\sh "quote"\nnewline'
        escaped = escape_label(hostile)
        assert "\n" not in escaped
        reg = MetricsRegistry()
        reg.inc(f"serve.http.responses[{hostile}]")
        reg.inc('serve.http.responses[5"03]', 2)
        text = render_prometheus(reg.snapshot())
        parsed = parse_exposition(text)
        # The embedded newline defeats template resolution, so this
        # instance gets the generic fallback label key — but its value
        # must still survive escaping byte-for-byte.
        samples = parsed["samples"]
        assert samples[
            ("repro_serve_http_responses", (("instance", hostile),))
        ] == 1.0
        # A resolvable instance keeps the template's label key even
        # with a quote in the value.
        assert samples[
            ("repro_serve_http_responses", (("code", '5"03'),))
        ] == 2.0

    def test_every_registered_serve_name_round_trips(self):
        """The golden contract: record every ``serve.*`` name, render,
        parse, and find each one again under its mangled identity."""
        reg = MetricsRegistry()
        serve_names = [
            entry for entry in telemetry_names.canonical_names()
            if entry.name.startswith("serve.")
        ]
        assert len(serve_names) >= 18
        concrete = {}
        for entry in serve_names:
            name = entry.name.replace("<status>", "ok")
            name = name.replace("<code>", "200")
            assert "<" not in name, f"unhandled placeholder in {entry.name}"
            concrete[name] = entry.kind
            if entry.kind == "counter":
                reg.inc(name)
            elif entry.kind == "gauge":
                reg.set_gauge(name, 1.0)
            elif entry.kind == "histogram":
                reg.observe(name, 1.0)
            else:  # pragma: no cover - no serve.* spans are registered
                pytest.fail(f"unexpected kind {entry.kind} for {entry.name}")
        parsed = parse_exposition(render_prometheus(reg.snapshot()))
        expected_type = {"counter": "counter", "gauge": "gauge",
                         "histogram": "summary"}
        for name, kind in concrete.items():
            metric, labels = metric_identity(name)
            assert parsed["types"][metric] == expected_type[kind], name
            key = (metric, tuple(sorted(labels.items())))
            if kind == "histogram":
                key = (metric + "_count", key[1])
            assert key in parsed["samples"], (name, metric)
            assert (metric + "_bucket", ()) not in parsed["samples"]

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_exposition("repro_thing{unterminated 1\n")
        with pytest.raises(ValueError):
            parse_exposition("repro_thing not-a-number\n")


class _HttpHarness:
    """Run a DetectionService + ServeApp on a private loop thread so
    the synchronous ServeClient can talk to it from the test thread."""

    def __init__(self, detector, **service_kwargs):
        self._detector = detector
        self._service_kwargs = {"workers": 2, **service_kwargs}
        self._ports: queue.Queue = queue.Queue()
        self._loop = None
        self._stop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        port = self._ports.get(timeout=60)
        if isinstance(port, BaseException):
            raise port
        return ServeClient(port=port, timeout=60.0)

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
            self._detector, telemetry=MetricsRegistry(),
            **self._service_kwargs,
        )
        await service.start()
        app, _, port = await start_http_server(service, "127.0.0.1", 0)
        self._ports.put(port)
        await self._stop.wait()
        await app.stop()
        await service.shutdown()


class TestHttpFrontEnd:
    def test_client_round_trip(self, detector, frames):
        with _HttpHarness(detector) as client:
            assert client.health()
            assert client.ready()
            session = client.open_session(policy="drop-newest",
                                          max_pending=16)
            for frame in frames[:3]:
                ticket = client.submit_frame(session, frame)
                assert ticket["accepted"]
            results = client.collect(session, 3)
            assert [r["index"] for r in results] == [0, 1, 2]
            assert all(r["status"] == "ok" for r in results)
            report = client.close_session(session)
            assert report["ok"] == 3
            metrics = client.metrics()
            submitted = metrics["samples"][
                ("repro_serve_frames_submitted", ())
            ]
            assert submitted == 3
            assert metrics["types"]["repro_serve_latency_ms"] == "summary"

    def test_unknown_routes_and_sessions_are_404(self, detector):
        with _HttpHarness(detector) as client:
            status, _, body = client._request("GET", "/nope")
            assert status == 404
            assert b"no route" in body
            status, _, body = client._request(
                "GET", "/v1/sessions/s-999/results"
            )
            assert status == 404
            assert b"no such session" in body

    def test_readyz_is_503_after_the_worker_pool_dies(self, detector,
                                                      frames):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        before = set(multiprocessing.active_children())
        harness = _HttpHarness(detector, workers=1, backend="process",
                               mp_start_method="fork")
        ready_gauge = ("repro_serve_ready", ())
        with harness as client:
            assert client.ready()
            assert client.metrics()["samples"][ready_gauge] == 1.0
            (worker,) = set(multiprocessing.active_children()) - before
            os.kill(worker.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while client.ready():
                assert time.monotonic() < deadline, (
                    "/readyz still 200 after the worker was killed"
                )
                time.sleep(0.05)
            status, _, body = client._request("GET", "/readyz")
            assert (status, body) == (503, b"unhealthy\n")
            # The gauge agrees with /readyz, not with the start-up state.
            assert client.metrics()["samples"][ready_gauge] == 0.0
            # Admission is unchanged: frames on the dead pool are
            # accepted and resolve FAILED, none lost.
            session = client.open_session(max_pending=16)
            for frame in frames[:3]:
                assert client.submit_frame(session, frame)["accepted"]
            results = client.collect(session, 3)
            assert [r["status"] for r in results] == ["failed"] * 3
            report = client.close_session(session)
            assert report["submitted"] == 3
            assert report["submitted"] == (
                report["ok"] + report["failed"] + report["dropped"]
            )


def _read_only(frame):
    """The frame as the HTTP front end hands it on: a read-only view
    of the request body's bytes."""
    view = np.frombuffer(frame.tobytes(), dtype=frame.dtype)
    return view.reshape(frame.shape)


def _boxes(detections):
    return [(d.top, d.left, d.height, d.width, d.scale, d.score)
            for d in detections]


class TestReadOnlyFrames:
    """The server passes request bodies on without copying them, so
    detection must give the same answer on a read-only frame."""

    @pytest.fixture(scope="class")
    def scene(self, tiny_dataset):
        return tiny_dataset.make_scene(
            240, 320, n_pedestrians=2, pedestrian_heights=(128, 160),
            scene_index=0,
        ).image

    def test_decode_returns_a_read_only_view_of_the_body(self, scene):
        body = scene.tobytes()
        frame = ServeApp._decode_frame(
            {"x-frame-shape": "240,320", "x-frame-dtype": "float64"}, body
        )
        assert not frame.flags.writeable
        assert not frame.flags.owndata
        np.testing.assert_array_equal(frame, scene)

    @pytest.mark.parametrize("arena", [True, False])
    def test_detect_matches_writable_copy(self, trained_model, scene,
                                          arena):
        det = MultiScalePedestrianDetector(
            trained_model,
            DetectorConfig(scales=(1.0, 1.2), stride=1, threshold=0.0,
                           arena=arena),
        )
        expected = _boxes(det.detect(scene.copy()).detections)
        assert expected
        frame = _read_only(scene)
        assert _boxes(det.detect(frame).detections) == expected
        assert not frame.flags.writeable

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_service_backends_match_writable_copy(self, trained_model,
                                                  scene, backend):
        det = MultiScalePedestrianDetector(
            trained_model,
            DetectorConfig(scales=(1.0, 1.2), stride=1, threshold=0.0,
                           arena=True),
        )
        expected = _boxes(det.detect(scene.copy()).detections)

        async def scenario():
            service = DetectionService(det, workers=1, backend=backend)
            await service.start()
            try:
                session = service.open_session()
                await session.submit(_read_only(scene))
                return await _drain(session, 1)
            finally:
                await service.shutdown()

        (result,) = run(scenario())
        assert result.status is FrameStatus.OK
        assert _boxes(result.detections) == expected
