"""Per-layer metrics of the traced run.

Three sources, because some layers run in a worker or server process
that the benchmark's span recorder cannot reach:

* spans recorded around the calls the benchmark process makes during
  the traced phase (stream hand-in and emission, pool submits and
  replies, HTTP round trips);
* the server's own counters and histograms, scraped from ``/metrics``
  before and after the traced phase;
* an in-process replay of the workload's frames through the same entry
  points (``MultiScalePedestrianDetector.detect`` for the kernels, the
  detector core and the arena; ``DetectionService`` for the process
  pool behind the HTTP front end).

A layer the workload does not run reports 0.  Times are means per frame,
so the kernel spans plus ``core.detect_self_ms`` add up to
``core.detect_ms``.
"""

from __future__ import annotations

import math
import time

from perfbench.gate import fingerprint
from perfbench.metrics import mean, percentile
from perfbench.trace import SpanRecorder

#: Kernel stages inside ``detect`` (their entry points: ``kernel_patches``).
KERNELS = ("hog.gradient", "hog.histogram", "hog.normalize", "hog.scale",
           "detect.classify", "detect.nms")

#: The replay runs at least this many cycles of the frame mix and at
#: least this long, after one untimed warm-up cycle.
REPLAY_CYCLES = 2
REPLAY_SECONDS = 2.0


def kernel_patches():
    from repro.core import MultiScalePedestrianDetector
    from repro.detect import detector as detect_module
    from repro.hog import extractor as extractor_module
    from repro.hog.pyramid import FeaturePyramid

    return [
        (MultiScalePedestrianDetector, "detect", "core.detect", {}),
        (extractor_module, "gradient_polar", "hog.gradient", {}),
        (extractor_module, "cell_histograms", "hog.histogram", {}),
        (extractor_module, "normalize_blocks", "hog.normalize", {}),
        (FeaturePyramid, "build", "hog.scale", {}),
        (detect_module, "classify_grid", "detect.classify", {}),
        (detect_module, "non_maximum_suppression", "detect.nms",
         {"attrs_of": lambda args, kwargs, result:
          {"candidates": len(args[0])}}),
    ]


def pool_patches(pools: dict):
    """Spans around the process pool's dispatch-side entry points.

    ``pools`` collects each pool seen, with its transport counts at its
    first traced submit, so shm shares cover the traced frames only.
    """
    from repro.parallel import ProcessWorkerPool

    def remember(args, kwargs):
        pool = args[0]
        if pool not in pools:
            pools[pool] = pool.transport_counts()

    def submitted(args, kwargs, transport):
        frame = args[3]
        return {"indices": [args[2]], "bytes": frame.nbytes,
                "shm": int(transport == "shm")}

    def batch_submitted(args, kwargs, transports):
        items = args[2]
        return {"indices": [index for index, _, _ in items],
                "bytes": sum(frame.nbytes for _, frame, _ in items),
                "shm": transports.count("shm")}

    def replied(args, kwargs, message):
        if message is not None and message[0] == "result":
            return {"index": message[2]}
        return None

    return [
        (ProcessWorkerPool, "submit", "parallel.submit",
         {"before": remember, "attrs_of": submitted}),
        (ProcessWorkerPool, "submit_batch", "parallel.submit",
         {"before": remember, "attrs_of": batch_submitted}),
        (ProcessWorkerPool, "next_message", "parallel.next_message",
         {"attrs_of": replied}),
    ]


def client_patches():
    from repro.serve import ServeClient

    return [
        (ServeClient, "submit_frame", "http.submit", {}),
        (ServeClient, "results", "http.poll",
         {"attrs_of": lambda args, kwargs, doc:
          {"results": len(doc["results"])}}),
    ]


def _ms(seconds: float) -> float:
    return seconds * 1e3


def replay_detect(workload, model_path, frames, references,
                  unmeasured: list) -> tuple:
    """Kernel, core and arena metrics from an in-process replay.

    Returns ``(metrics, recorder, mismatches)``; every replayed result
    is also gated against its reference.  Entry points that no longer
    exist are appended to ``unmeasured``.
    """
    from repro.core import MultiScalePedestrianDetector

    detector = MultiScalePedestrianDetector.load_model(
        model_path, workload.detector_config())
    for frame in frames:
        detector.detect(frame)
    misses = detector.arena.misses
    recorder = SpanRecorder()
    mismatches = n = 0
    with recorder.installed(kernel_patches()) as missing:
        started = time.perf_counter()
        while (n % len(frames) or n < REPLAY_CYCLES * len(frames)
               or time.perf_counter() - started < REPLAY_SECONDS):
            frame_id = n % len(frames)
            with recorder.frame(n):
                result = detector.detect(frames[frame_id])
            mismatches += (fingerprint(result.detections)
                           != references[frame_id])
            n += 1
    unmeasured += missing

    self_times = recorder.self_times()
    detects = [i for i, s in enumerate(recorder.spans)
               if s.name == "core.detect"]
    metrics = {
        "core.detect_ms": _ms(mean(recorder.spans[i].duration
                                   for i in detects)),
        "core.detect_self_ms": _ms(mean(self_times[i] for i in detects)),
        "arena.slab_mib": detector.arena.slab_bytes / 2**20,
        "arena.misses_per_frame": (detector.arena.misses - misses) / n,
    }
    for name in KERNELS:
        metrics[f"{name}_ms"] = _ms(sum(recorder.per_frame(name).values())
                                    / n)
    metrics["detect.nms_candidates_per_frame"] = sum(
        s.attrs["candidates"] for s in recorder.named("detect.nms")) / n

    counting = MultiScalePedestrianDetector.load_model(
        model_path, workload.detector_config(telemetry=True))
    for frame in frames:
        counting.detect(frame)
    counters = counting.snapshot().counters
    anchors = counters.get("detect.cascade.anchors_in", 0)
    metrics["detect.cascade_reject_ratio"] = (
        1.0 - counters.get("detect.cascade.anchors_survived", 0) / anchors
        if anchors else 0.0)
    metrics["detect.windows_per_frame"] = (
        counters.get("detect.windows_scanned", 0) / len(frames))
    return metrics, recorder, mismatches


def replay_service(workload, model_path, frames, recorder: SpanRecorder,
                   pools: dict, unmeasured: list) -> None:
    """:data:`REPLAY_CYCLES` passes over the frames through an in-process
    ``DetectionService`` configured like the workload's server, one
    frame outstanding, with the pool traced."""
    import asyncio

    from repro.core import MultiScalePedestrianDetector
    from repro.serve import DetectionService

    detector = MultiScalePedestrianDetector.load_model(
        model_path, workload.detector_config())

    async def replay() -> None:
        service = DetectionService(
            detector, workers=workload.workers, backend=workload.backend,
            max_batch=workload.max_batch,
            batch_window_ms=workload.batch_window_ms,
            max_pending=workload.max_pending,
        )
        await service.start()
        try:
            session = service.open_session()
            for k in range(REPLAY_CYCLES * len(frames)):
                await session.submit(frames[k % len(frames)])
                while not await session.results(max_items=1,
                                                timeout=60.0):
                    pass
            await session.close()
        finally:
            await service.shutdown()

    with recorder.installed(pool_patches(pools)) as missing:
        asyncio.run(replay())
    unmeasured += missing


def parallel_metrics(recorder: SpanRecorder, pools: dict) -> dict:
    """Dispatch-side cost of the process pool over the traced frames."""
    submits = recorder.named("parallel.submit")
    frames = sum(len(s.attrs["indices"]) for s in submits)
    if not frames:
        return {"parallel.submit_ms": 0.0, "parallel.bytes_per_frame": 0.0,
                "parallel.shm_ratio": 0.0}
    results_shm = sum(pool.transport_counts()["results_shm"]
                      - first["results_shm"]
                      for pool, first in pools.items())
    return {
        "parallel.submit_ms": _ms(sum(s.duration for s in submits)
                                  / frames),
        # Bytes are the submitted arrays' shape x dtype size, not a
        # measurement of what crossed the process boundary.
        "parallel.bytes_per_frame": sum(s.attrs["bytes"]
                                        for s in submits) / frames,
        "parallel.shm_ratio": (sum(s.attrs["shm"] for s in submits)
                               + results_shm) / (2 * frames),
    }


def stream_metrics(recorder: SpanRecorder) -> dict:
    """Hand-in to pool submit, and worker reply to in-order emission."""
    handed = {s.frame: s.start for s in recorder.named("stream.handed")}
    emitted = {s.frame: s.start for s in recorder.named("stream.emitted")}
    submitted = {index: s.start
                 for s in recorder.named("parallel.submit")
                 for index in s.attrs["indices"]}
    replied = {s.attrs["index"]: s.end
               for s in recorder.named("parallel.next_message")
               if s.attrs}
    return {
        "stream.queue_wait_ms": _ms(mean(
            submitted[i] - handed[i] for i in handed if i in submitted)),
        "stream.reorder_wait_ms": _ms(mean(
            emitted[i] - replied[i] for i in emitted if i in replied)),
    }


def serve_metrics(before: dict, after: dict) -> dict:
    """The server's batching, queueing and admission over the traced
    phase, from two ``/metrics`` scrapes."""
    def delta(metric: str) -> float:
        return after.get((metric, ()), 0.0) - before.get((metric, ()), 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    if not after:
        return dict.fromkeys(
            ("serve.batch_size_mean", "serve.multi_frame_batch_ratio",
             "serve.queue_depth_p95", "serve.refused_ratio",
             "http.connections"), 0.0)
    submitted = delta("repro_serve_frames_submitted")
    return {
        "serve.batch_size_mean": ratio(delta("repro_serve_batch_size_sum"),
                                       delta("repro_serve_batch_size_count")),
        "serve.multi_frame_batch_ratio": ratio(
            delta("repro_serve_batch_multi_frame"),
            delta("repro_serve_batch_formed")),
        "serve.queue_depth_p95": after.get(
            ("repro_serve_queue_depth", (("quantile", "0.95"),)), 0.0),
        "serve.refused_ratio": ratio(
            delta("repro_serve_frames_rejected")
            + delta("repro_serve_frames_throttled"), submitted),
        # The second scrape's own connection is not load.
        "http.connections": delta("repro_serve_http_connections") - 1,
    }


def http_metrics(recorder: SpanRecorder) -> dict:
    """Client-side HTTP round trips of the traced phase."""
    submits = recorder.named("http.submit")
    polls = recorder.named("http.poll")
    results = sum(s.attrs["results"] for s in polls)
    return {
        "http.submit_ms": _ms(mean(s.duration for s in submits)),
        "http.poll_ms": _ms(mean(s.duration for s in polls)),
        "http.polls_per_result": len(polls) / results if results else 0.0,
    }


def lateness_p90_ms(lateness_s) -> float:
    """How late the open-loop generator sent its frames (0 in a closed
    loop, which has no schedule to fall behind)."""
    values = [v for v in lateness_s if not math.isinf(v)]
    return _ms(percentile(values, 90)) if values else 0.0
