"""Command-line interface.

Ten subcommands cover the everyday flows (full reference: docs/CLI.md,
generated from this parser by ``repro-das docs --write``)::

    repro-das train    --out model.npz [--seed 0] [--bootstrap]
    repro-das detect   --model model.npz [--scene-seed 0] [--threshold 0.5]
    repro-das evaluate --model model.npz [--scale 1.3] [--method hog|image]
    repro-das report   --what timing|resources|stopping
    repro-das profile  [--model model.npz] [--frames 3] [--format json|text]
                       [--workers 2] [--backend thread|process]
    repro-das stream   [--frames 60] [--workers 2] [--policy block] [--json]
                       [--backend thread|process]
    repro-das serve    [--host 127.0.0.1] [--port 8787] [--workers 2]
                       [--policy block] [--max-pending 8] [--max-fps N]
                       [--max-batch 1] [--batch-window-ms 0]
                       [--keep-alive] [--auth-token TOKEN]
    repro-das lint     [paths ...] [--format text|json] [--rules a,b]
    repro-das names    [--write [PATH]] [--check [PATH]]
    repro-das docs     [--write [PATH]] [--check [PATH]]

``train`` fits a pedestrian model on the synthetic dataset; ``detect``
renders a street scene and runs the feature-pyramid detector;
``evaluate`` reruns the Figure 3 protocol at one scale; ``report``
prints the hardware timing / resource / DAS-kinematics summaries;
``profile`` runs frames through the telemetry-instrumented pipeline and
emits the per-stage cost report (gradient / histogram / normalize /
scale / classify / nms timings plus per-scale window counters — see
docs/TELEMETRY.md and docs/PERFORMANCE.md); ``stream`` runs a synthetic
video through the streaming pipeline (``repro.stream``)
with per-frame fault isolation and feeds the in-order results to the
IoU tracker — see docs/STREAMING.md.  Both ``profile`` and ``stream``
accept ``--backend process`` to run detection in the shared-memory
process pool of ``repro.parallel`` instead of worker threads (worker
telemetry is merged back into the printed report).  Images can also
be supplied as ``.npy`` arrays via ``--image``.  ``serve`` starts the
detection-as-a-service HTTP front end of :mod:`repro.serve` (concurrent
client sessions over shared warm pools, ``/metrics`` in Prometheus
format — see docs/SERVING.md); it drains gracefully on SIGINT/SIGTERM,
coalesces dispatches with ``--max-batch``/``--batch-window-ms``, and
serves persistent connections with ``--keep-alive``.
``lint`` runs the project's static analysis rules (:mod:`repro.analysis`,
see docs/ANALYSIS.md) and exits non-zero on findings — the same
invocation CI enforces.  ``names`` renders or syncs the canonical
telemetry name table (docs/TELEMETRY.md) and ``docs`` does the same for
the generated CLI reference (docs/CLI.md); both ``--check`` modes are
CI gates.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.stream.types import BACKENDS

#: ``--write`` / ``--check`` given without a path: use the page's
#: canonical location (docs/TELEMETRY.md or docs/CLI.md).
_DEFAULT_SENTINEL = "<default>"


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core import bootstrap_train
    from repro.core.experiments import train_window_model
    from repro.dataset import DatasetSizes, SyntheticPedestrianDataset
    from repro.dataset.background import negative_window

    sizes = DatasetSizes(
        train_positive=args.train_pos,
        train_negative=args.train_neg,
        test_positive=1,
        test_negative=1,
    )
    dataset = SyntheticPedestrianDataset(seed=args.seed, sizes=sizes)
    print(f"Training on {args.train_pos} positive / {args.train_neg} "
          f"negative synthetic windows (seed {args.seed})...")
    if args.bootstrap:
        rng = np.random.default_rng(args.seed + 1)
        scenes = [negative_window(rng, 256, 320) for _ in range(8)]
        result = bootstrap_train(dataset.train_windows(), scenes,
                                 max_rounds=2)
        model = result.model
        print(f"Bootstrapping mined {result.total_added} hard negatives "
              f"over {result.rounds} round(s).")
    else:
        model, _ = train_window_model(dataset.train_windows())
    model.save(args.out)
    print(f"Model written to {args.out} "
          f"({model.n_features} weights, bias {model.bias:+.4f}).")
    return 0


def _load_image(args: argparse.Namespace):
    from repro.dataset import SyntheticPedestrianDataset

    if args.image is not None:
        image = np.load(args.image)
        return image, None
    dataset = SyntheticPedestrianDataset(seed=args.scene_seed)
    scene = dataset.make_scene(
        height=args.height, width=args.width, n_pedestrians=args.pedestrians,
        scene_index=args.scene_seed,
    )
    return scene.image, scene


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.core import DetectorConfig, MultiScalePedestrianDetector
    from repro.eval import match_detections

    scales = tuple(args.scales)
    detector = MultiScalePedestrianDetector.load_model(
        args.model,
        DetectorConfig(scales=scales, threshold=args.threshold,
                       chained_pyramid=False),
    )
    image, scene = _load_image(args)
    result = detector.detect(image)
    print(f"{len(result.detections)} detections "
          f"({result.n_windows_evaluated} windows, scales "
          f"{[round(s, 2) for s in result.scales_used]}):")
    for d in result.detections:
        print(f"  top={d.top:7.1f} left={d.left:7.1f} "
              f"{d.height:.0f}x{d.width:.0f}px score={d.score:+.3f} "
              f"scale={d.scale:.2f}")
    if scene is not None and scene.boxes:
        match = match_detections(result.detections, scene.boxes)
        print(f"ground truth: {len(scene.boxes)} pedestrians -> "
              f"recall {match.recall:.2f}, precision {match.precision:.2f}")
    t = result.timings
    print(f"timings: extract {t.extraction * 1e3:.0f} ms, pyramid "
          f"{t.pyramid * 1e3:.0f} ms, classify "
          f"{t.classification * 1e3:.0f} ms")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.core.experiments import run_scaling_experiment
    from repro.dataset import DatasetSizes, SyntheticPedestrianDataset

    sizes = DatasetSizes().scaled(args.fraction)
    dataset = SyntheticPedestrianDataset(seed=args.seed, sizes=sizes)
    print(f"Figure 3 protocol at scale {args.scale} on "
          f"{sizes.test_positive}+{sizes.test_negative} test windows...")
    experiment = run_scaling_experiment(dataset, scales=(args.scale,))
    print(experiment.table1().format())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.what == "timing":
        from repro.hardware import FrameTimingModel

        model = FrameTimingModel()
        report = model.frame_report(scales=(1.0, 1.2))
        t1 = model.scale_timing(1.0)
        print(f"HDTV classifier cycles/frame: {t1.cycles:,} "
              f"({t1.cycles / model.clock_hz * 1e3:.2f} ms @125 MHz)")
        print(f"extractor cycles/frame:       {report.extractor_cycles:,}")
        print(f"frame interval:               "
              f"{report.frame_time_s * 1e3:.2f} ms "
              f"-> {report.frames_per_second:.2f} fps")
    elif args.what == "resources":
        from repro.hardware import ResourceEstimator, Zc7020

        usage = ResourceEstimator().total()
        util = usage.utilization(Zc7020)
        for field in ("lut", "ff", "lutram", "bram36", "dsp48", "bufg"):
            print(f"{field.upper():7s}: {getattr(usage, field):9.1f} "
                  f"({util[field]:5.1f} %)")
        print(f"fits {Zc7020.name}: {usage.fits(Zc7020)}")
    else:  # stopping
        from repro.das import StoppingScenario, detection_range_requirement

        for speed in (50.0, 70.0):
            s = StoppingScenario(speed)
            print(f"{speed:3.0f} km/h: braking {s.braking_distance_m:6.2f} m, "
                  f"stopping {s.total_stopping_distance_m:6.2f} m")
        lo, hi = detection_range_requirement()
        print(f"detection range requirement: {lo:.1f} .. {hi:.1f} m")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.core import DetectorConfig, MultiScalePedestrianDetector
    from repro.dataset import DatasetSizes, SyntheticPedestrianDataset
    from repro.hardware.event_sim import PipelineConfig, simulate_frame
    from repro.telemetry import render_text, stage_report

    config = DetectorConfig(
        scales=tuple(args.scales),
        threshold=args.threshold,
        stride=args.stride,
        telemetry=True,
    )
    if args.model is not None:
        detector = MultiScalePedestrianDetector.load_model(args.model, config)
    else:
        # No model given: fit a small throwaway model so the profile is
        # one self-contained command (status on stderr keeps stdout a
        # clean JSON document).
        print("no --model given; training a small synthetic model...",
              file=sys.stderr)
        sizes = DatasetSizes(
            train_positive=60, train_negative=120,
            test_positive=1, test_negative=1,
        )
        dataset = SyntheticPedestrianDataset(seed=args.scene_seed, sizes=sizes)
        detector = MultiScalePedestrianDetector.train(
            dataset.train_windows(), config
        )

    if args.image is not None:
        frames = [np.load(args.image)] * args.frames
    else:
        dataset = SyntheticPedestrianDataset(seed=args.scene_seed)
        frames = [
            dataset.make_scene(
                height=args.height, width=args.width,
                n_pedestrians=args.pedestrians, scene_index=i,
            ).image
            for i in range(args.frames)
        ]
    if args.workers > 1 or args.backend != "thread":
        # detect_batch closes its pipeline before returning, which is
        # what merges the worker processes' telemetry snapshots into
        # detector.telemetry — the report below then covers work done
        # in the workers, not just in this process.
        detector.detect_batch(
            frames, workers=args.workers, backend=args.backend
        )
    else:
        for frame in frames:
            detector.detect(frame)

    # Put the paper-configuration cycle model (HDTV, two scales) in the
    # same snapshot so the software split can be read against the
    # hardware budget (docs/PERFORMANCE.md).
    simulate_frame(PipelineConfig(), telemetry=detector.telemetry)

    snapshot = detector.snapshot()
    if args.format == "text":
        output = render_text(snapshot)
    else:
        report = stage_report(snapshot)
        report["frames"] = args.frames
        report["frame_shape"] = [int(frames[0].shape[0]),
                                 int(frames[0].shape[1])]
        report["backend"] = args.backend
        report["workers"] = args.workers
        output = json.dumps(report, indent=2, sort_keys=True)
    print(output)
    if args.out is not None:
        args.out.write_text(output + "\n")
        print(f"profile written to {args.out}", file=sys.stderr)
    return 0


def _stream_detector(args, config):
    from repro.core import MultiScalePedestrianDetector
    from repro.dataset import DatasetSizes, SyntheticPedestrianDataset

    if args.model is not None:
        return MultiScalePedestrianDetector.load_model(args.model, config)
    print("no --model given; training a small synthetic model...",
          file=sys.stderr)
    sizes = DatasetSizes(
        train_positive=60, train_negative=120,
        test_positive=1, test_negative=1,
    )
    dataset = SyntheticPedestrianDataset(seed=args.scene_seed, sizes=sizes)
    return MultiScalePedestrianDetector.train(dataset.train_windows(), config)


def _cmd_stream(args: argparse.Namespace) -> int:
    import json

    from repro.core import DetectorConfig
    from repro.das import IouTracker
    from repro.errors import StreamError
    from repro.stream import StreamPipeline, SyntheticVideoSource
    from repro.telemetry import stage_report

    config = DetectorConfig(
        scales=tuple(args.scales),
        threshold=args.threshold,
        stride=args.stride,
        telemetry=True,
    )
    detector = _stream_detector(args, config)
    source = SyntheticVideoSource(
        args.frames,
        height=args.height,
        width=args.width,
        n_pedestrians=args.pedestrians,
        seed=args.scene_seed,
        scene_hold=args.scene_hold,
        corrupt_frames=args.corrupt_frame or (),
    )
    pipeline = StreamPipeline(
        detector,
        workers=args.workers,
        queue_size=args.queue_size,
        policy=args.policy,
        max_consecutive_failures=args.max_consecutive_failures,
        telemetry=detector.telemetry,
        backend=args.backend,
    )

    tracker = IouTracker()
    print(f"streaming {args.frames} synthetic frames "
          f"({args.height}x{args.width}) through {args.workers} "
          f"{args.backend} worker(s), policy {args.policy}...",
          file=sys.stderr)
    try:
        run = pipeline.run(
            source, on_result=lambda fr: tracker.consume([fr])
        )
    except StreamError as exc:
        print(f"stream aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        # Shut the process-backend pool down *before* the snapshot is
        # read: close() is what merges worker-side telemetry into
        # detector.telemetry (no-op for the thread backend).
        pipeline.close()
    report = run.report

    failures = [fr.to_dict() for fr in run.results if not fr.ok
                and fr.status.value == "failed"]
    document = {
        "frames": args.frames,
        "frame_shape": [args.height, args.width],
        "stream": report.to_dict(),
        "failures": failures,
        "tracking": {
            "tracks_live": len(tracker.tracks),
            "tracks_confirmed": len(tracker.confirmed_tracks()),
        },
        "telemetry": stage_report(detector.snapshot()),
    }
    if args.json:
        output = json.dumps(document, indent=2, sort_keys=True)
        print(output)
        if args.out is not None:
            args.out.write_text(output + "\n")
            print(f"stream report written to {args.out}", file=sys.stderr)
        return 0

    print(f"frames: {report.frames_in} in -> {report.frames_ok} ok, "
          f"{report.frames_failed} failed, {report.frames_dropped} dropped")
    for f in failures:
        print(f"  frame {f['index']} failed: {f['error']}")
    print(f"throughput: {report.achieved_fps:.1f} fps over "
          f"{report.elapsed_s * 1e3:.0f} ms "
          f"({report.workers} worker(s), utilization "
          f"{report.worker_utilization * 100:.0f} %)")
    print(f"latency: p50 {report.latency_p50_ms:.1f} ms, "
          f"p95 {report.latency_p95_ms:.1f} ms, "
          f"max {report.latency_max_ms:.1f} ms")
    print(f"pending at admission: max {report.queue_depth_max:.0f}, "
          f"mean {report.queue_depth_mean:.1f} "
          f"(queue size {args.queue_size})")
    print(f"tracking: {len(tracker.tracks)} live track(s), "
          f"{len(tracker.confirmed_tracks())} confirmed")
    if args.out is not None:
        args.out.write_text(json.dumps(document, indent=2, sort_keys=True)
                            + "\n")
        print(f"stream report written to {args.out}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core import DetectorConfig
    from repro.parallel.blas import limit_blas_threads

    # A spinning BLAS helper would take the core the event loop and the
    # workers need (docs/SERVING.md).
    limit_blas_threads(1)
    config = DetectorConfig(
        scales=tuple(args.scales),
        threshold=args.threshold,
        stride=args.stride,
        scorer=args.scorer,
        telemetry=True,
    )
    detector = _stream_detector(args, config)
    return asyncio.run(_serve_async(args, detector))


async def _serve_async(args: argparse.Namespace, detector) -> int:
    import asyncio
    import signal

    from repro.serve import DetectionService, start_http_server

    service = DetectionService(
        detector,
        workers=args.workers,
        backend=args.backend,
        default_policy=args.policy,
        max_pending=args.max_pending,
        max_fps=args.max_fps,
        max_batch=args.max_batch,
        batch_window_ms=args.batch_window_ms,
        telemetry=detector.telemetry,
    )
    await service.start()
    app, host, port = await start_http_server(
        service, args.host, args.port,
        keep_alive=args.keep_alive, auth_token=args.auth_token,
    )
    print(f"serving on http://{host}:{port} "
          f"({args.workers} {args.backend} worker(s), policy "
          f"{args.policy}, max-pending {args.max_pending}, "
          f"max-batch {args.max_batch}, "
          f"keep-alive {'on' if args.keep_alive else 'off'})",
          file=sys.stderr, flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    try:
        await stop.wait()
    finally:
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.remove_signal_handler(sig)
    print("draining...", file=sys.stderr, flush=True)
    await app.stop()
    report = await service.shutdown(drain=True)
    print(f"drained {'clean' if report.drained_clean else 'DIRTY'}: "
          f"{report.frames_submitted} submitted -> "
          f"{report.frames_ok} ok, {report.frames_failed} failed, "
          f"{report.frames_dropped} dropped "
          f"({report.sessions_opened} session(s))",
          file=sys.stderr, flush=True)
    return 0 if report.drained_clean else 1


def _cmd_names(args: argparse.Namespace) -> int:
    from repro.telemetry import names as telemetry_names

    argv: list[str] = []
    if args.write is not None:
        argv.append("--write")
        if args.write != _DEFAULT_SENTINEL:
            argv.append(str(args.write))
    if args.check is not None:
        argv.append("--check")
        if args.check != _DEFAULT_SENTINEL:
            argv.append(str(args.check))
    return telemetry_names.main(argv)


def _cmd_docs(args: argparse.Namespace) -> int:
    from repro import cli_docs

    if args.write is not None:
        path = (cli_docs.default_docs_path()
                if args.write == _DEFAULT_SENTINEL else Path(args.write))
        changed = cli_docs.write_cli_reference(path)
        print(f"{path}: {'updated' if changed else 'already current'}")
        return 0
    if args.check is not None:
        path = (cli_docs.default_docs_path()
                if args.check == _DEFAULT_SENTINEL else Path(args.check))
        problems = cli_docs.docs_problems(
            path.read_text(encoding="utf-8")
        )
        for problem in problems:
            print(f"{path}: {problem}", file=sys.stderr)
        return 1 if problems else 0
    print(cli_docs.render_cli_reference(), end="")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        all_rule_classes,
        get_rules,
        iter_python_files,
        lint_paths,
        render_json_report,
        render_sarif_report,
        render_text_report,
    )
    from repro.errors import ParameterError

    if args.list_rules:
        for cls in all_rule_classes():
            print(f"{cls.name}: {cls.description}")
        return 0
    names = None
    if args.rules is not None:
        names = [n.strip() for n in args.rules.split(",") if n.strip()]
    try:
        rules = get_rules(names)
    except ParameterError as exc:
        print(f"repro-das lint: {exc}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("repro-das lint: --jobs must be >= 1", file=sys.stderr)
        return 2
    paths = args.paths or [
        p for p in (Path("src"), Path("tests"), Path("benchmarks"))
        if p.is_dir()
    ]
    checked = len(iter_python_files(paths))
    findings = lint_paths(paths, rules=rules, root=args.root,
                          jobs=args.jobs)
    if args.format == "json":
        print(render_json_report(findings, rules=rules,
                                 checked_files=checked))
    elif args.format == "sarif":
        print(render_sarif_report(findings, rules=rules,
                                  checked_files=checked))
    else:
        print(render_text_report(findings, checked_files=checked))
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-das`` argument parser (public for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-das",
        description="Multi-scale HOG+SVM pedestrian detection (DAC 2017 "
        "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a pedestrian model")
    train.add_argument("--out", type=Path, required=True,
                       help="output .npz model path")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--train-pos", type=int, default=300)
    train.add_argument("--train-neg", type=int, default=600)
    train.add_argument("--bootstrap", action="store_true",
                       help="run hard-negative mining rounds")
    train.set_defaults(func=_cmd_train)

    detect = sub.add_parser("detect", help="detect pedestrians in a frame")
    detect.add_argument("--model", type=Path, required=True)
    detect.add_argument("--image", type=Path, default=None,
                        help="optional .npy grayscale frame")
    detect.add_argument("--scene-seed", type=int, default=0)
    detect.add_argument("--height", type=int, default=480)
    detect.add_argument("--width", type=int, default=640)
    detect.add_argument("--pedestrians", type=int, default=3)
    detect.add_argument("--threshold", type=float, default=0.5)
    detect.add_argument("--scales", type=float, nargs="+",
                        default=[1.0, 1.2, 1.44])
    detect.set_defaults(func=_cmd_detect)

    evaluate = sub.add_parser("evaluate",
                              help="run the Figure 3 protocol at one scale")
    evaluate.add_argument("--scale", type=float, default=1.3)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--fraction", type=float, default=0.1,
                          help="fraction of the paper's test split size")
    evaluate.set_defaults(func=_cmd_evaluate)

    report = sub.add_parser("report", help="print model/hardware reports")
    report.add_argument("--what", choices=("timing", "resources", "stopping"),
                        default="timing")
    report.set_defaults(func=_cmd_report)

    profile = sub.add_parser(
        "profile",
        help="run frames through the instrumented pipeline and emit the "
        "per-stage telemetry report",
    )
    profile.add_argument("--model", type=Path, default=None,
                         help="trained .npz model (a small synthetic model "
                         "is trained when omitted)")
    profile.add_argument("--image", type=Path, default=None,
                         help="optional .npy grayscale frame")
    profile.add_argument("--scene-seed", type=int, default=0)
    profile.add_argument("--height", type=int, default=240)
    profile.add_argument("--width", type=int, default=320)
    profile.add_argument("--pedestrians", type=int, default=2)
    profile.add_argument("--frames", type=int, default=3,
                         help="frames to run (more frames -> stabler "
                         "p50/p95)")
    profile.add_argument("--threshold", type=float, default=0.5)
    profile.add_argument("--stride", type=int, default=1)
    profile.add_argument("--scales", type=float, nargs="+",
                         default=[1.0, 1.2])
    profile.add_argument("--workers", type=int, default=1,
                         help="detection workers (>1 routes frames through "
                         "detect_batch)")
    profile.add_argument("--backend", choices=BACKENDS,
                         default="thread",
                         help="run workers as threads or as the "
                         "shared-memory process pool (repro.parallel); "
                         "worker telemetry is merged into the report")
    profile.add_argument("--format", choices=("json", "text"),
                         default="json")
    profile.add_argument("--out", type=Path, default=None,
                         help="also write the report to this path")
    profile.set_defaults(func=_cmd_profile)

    stream = sub.add_parser(
        "stream",
        help="run a synthetic video through the streaming pipeline "
        "(admission quota, worker threads, per-frame fault isolation)",
    )
    stream.add_argument("--model", type=Path, default=None,
                        help="trained .npz model (a small synthetic model "
                        "is trained when omitted)")
    stream.add_argument("--frames", type=int, default=60,
                        help="length of the synthetic video")
    stream.add_argument("--workers", type=int, default=1,
                        help="detection workers")
    stream.add_argument("--backend", choices=BACKENDS,
                        default="thread",
                        help="run workers as threads (default) or as the "
                        "shared-memory process pool (repro.parallel) — "
                        "see docs/STREAMING.md for selection guidance")
    stream.add_argument("--queue-size", type=int, default=8,
                        help="quota of frames admitted but not yet "
                        "emitted (queued, in flight or awaiting reorder)")
    stream.add_argument("--policy",
                        choices=("block", "drop-oldest", "drop-newest"),
                        default="block",
                        help="backpressure policy for a frame that would "
                        "exceed the quota")
    stream.add_argument("--max-consecutive-failures", type=int, default=None,
                        help="circuit breaker: abort after this many "
                        "consecutive frame failures (default: disabled)")
    stream.add_argument("--corrupt-frame", type=int, action="append",
                        default=None, metavar="INDEX",
                        help="inject an all-NaN frame at INDEX (repeatable); "
                        "exercises per-frame fault isolation")
    stream.add_argument("--scene-seed", type=int, default=0)
    stream.add_argument("--scene-hold", type=int, default=5,
                        help="consecutive frames sharing one scene (gives "
                        "the tracker frame-to-frame coherence)")
    stream.add_argument("--height", type=int, default=240)
    stream.add_argument("--width", type=int, default=320)
    stream.add_argument("--pedestrians", type=int, default=2)
    stream.add_argument("--threshold", type=float, default=0.5)
    stream.add_argument("--stride", type=int, default=1)
    stream.add_argument("--scales", type=float, nargs="+",
                        default=[1.0, 1.2])
    stream.add_argument("--json", action="store_true",
                        help="emit the full JSON report on stdout")
    stream.add_argument("--out", type=Path, default=None,
                        help="also write the JSON report to this path")
    stream.set_defaults(func=_cmd_stream)

    serve = sub.add_parser(
        "serve",
        help="start the detection-as-a-service HTTP front end "
        "(repro.serve): concurrent client sessions over shared warm "
        "pools, Prometheus /metrics — see docs/SERVING.md",
    )
    serve.add_argument("--model", type=Path, default=None,
                       help="trained .npz model (a small synthetic model "
                       "is trained when omitted)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind")
    serve.add_argument("--port", type=int, default=8787,
                       help="TCP port to bind (0 picks an ephemeral port, "
                       "printed on stderr)")
    serve.add_argument("--workers", type=int, default=2,
                       help="detection workers per pool")
    serve.add_argument("--backend", choices=BACKENDS,
                       default="thread",
                       help="run workers as threads (default) or as the "
                       "shared-memory process pool (repro.parallel)")
    serve.add_argument("--policy",
                       choices=("block", "drop-oldest", "drop-newest"),
                       default="block",
                       help="default per-session backpressure policy "
                       "(sessions may override at open)")
    serve.add_argument("--max-pending", type=int, default=8,
                       help="default per-session quota of admitted but "
                       "unemitted frames")
    serve.add_argument("--max-fps", type=float, default=None,
                       help="default per-session frames-per-second "
                       "admission cap (sessions may override at open; "
                       "default: uncapped)")
    serve.add_argument("--max-batch", type=int, default=1,
                       help="frames coalesced into one worker dispatch "
                       "(across sessions); 1 disables micro-batching")
    serve.add_argument("--batch-window-ms", type=float, default=0.0,
                       help="longest the dispatcher lingers for a "
                       "fuller batch before sending a partial one; it "
                       "lingers only while every worker of the pool "
                       "is busy, and a worker freeing up ends the "
                       "linger (only with --max-batch > 1)")
    serve.add_argument("--keep-alive", action="store_true",
                       help="serve multiple HTTP requests per "
                       "connection (default: one request per "
                       "connection)")
    serve.add_argument("--auth-token", default=None,
                       help="require 'Authorization: Bearer <token>' "
                       "on /v1/* requests (probes and /metrics stay "
                       "open)")
    serve.add_argument("--scene-seed", type=int, default=0)
    serve.add_argument("--threshold", type=float, default=0.5)
    serve.add_argument("--stride", type=int, default=1)
    serve.add_argument("--scorer", choices=("conv-cascade",),
                       default="conv-cascade",
                       help="the window scorer; conv-cascade, the "
                       "early-reject cascade, is the only one")
    serve.add_argument("--scales", type=float, nargs="+",
                       default=[1.0, 1.2])
    serve.set_defaults(func=_cmd_serve)

    lint = sub.add_parser(
        "lint",
        help="run the project's static analysis rules (repro.analysis); "
        "exits 1 on findings",
    )
    lint.add_argument("paths", nargs="*", type=Path,
                      help="files or directories to lint (default: src, "
                      "tests and benchmarks, where present; per-directory "
                      "rule subsets are in repro.analysis.runner."
                      "RULE_COVERAGE)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text",
                      help="report format (JSON schema: docs/ANALYSIS.md; "
                      "sarif emits SARIF 2.1.0 for code-scanning upload)")
    lint.add_argument("--rules", default=None, metavar="A,B",
                      help="comma-separated subset of rules to run "
                      "(default: all; see --list-rules)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the registered rules and exit")
    lint.add_argument("--root", type=Path, default=None,
                      help="repo root anchoring display paths and the "
                      "docs/TELEMETRY.md cross-check (default: cwd)")
    lint.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="fan the per-file pass out over N worker "
                      "processes (default: 1, in-process)")
    lint.set_defaults(func=_cmd_lint)

    names = sub.add_parser(
        "names",
        help="render or sync the canonical telemetry name table "
        "(docs/TELEMETRY.md); --check is the CI drift gate",
    )
    names.add_argument("--write", nargs="?", const=_DEFAULT_SENTINEL,
                       default=None, metavar="PATH",
                       help="regenerate the table between the markers "
                       "(default PATH: docs/TELEMETRY.md)")
    names.add_argument("--check", nargs="?", const=_DEFAULT_SENTINEL,
                       default=None, metavar="PATH",
                       help="exit 1 when the page disagrees with the "
                       "registry")
    names.set_defaults(func=_cmd_names)

    docs = sub.add_parser(
        "docs",
        help="render or sync the generated CLI reference (docs/CLI.md) "
        "from this parser tree; --check is the CI drift gate",
    )
    docs.add_argument("--write", nargs="?", const=_DEFAULT_SENTINEL,
                      default=None, metavar="PATH",
                      help="regenerate the reference between the markers "
                      "(default PATH: docs/CLI.md)")
    docs.add_argument("--check", nargs="?", const=_DEFAULT_SENTINEL,
                      default=None, metavar="PATH",
                      help="exit 1 when the page disagrees with the "
                      "parser tree")
    docs.set_defaults(func=_cmd_docs)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
