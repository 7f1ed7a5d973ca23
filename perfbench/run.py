"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload hdtv-stream --seed 1 \\
        --seconds 25 --trace 0

The run trains its fixture model (once per source tree) and renders
its frames (timed apart as ``fixture_s``), sets the system up several times (``setup_s`` is the
median), warms it up, measures one timed phase, tears the system down,
and gates every OK result against an in-process reference.  With
``--trace 1`` it instead measures an untraced and a traced phase and
replays the frames in-process, and reports the per-layer metrics.

Stdout ends with two lines: the full report (configuration,
provenance, sample counts, loss breakdown) and, last, the result
object ``{"correct", "attempted", "failed", "metrics"}`` whose metrics
are exactly those ``BENCHMARK.json`` declares for the mode.  A
human-readable table goes to stderr.  Before it prints, the run waits
until every process it started has ended.  Exits non-zero without a result
when the program's source is not beside the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Independent set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5

#: Longest a closed-loop timed phase may run while it collects
#: ``MIN_SAMPLES`` latency samples.
MAX_TIMED_S = 120.0

#: Where runs keep the fixture model and span files, inside the checkout.
OUT_DIR = ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """SHA-256 over the program's source tree: a source checkout need
    not be a git repository, so this is what names the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fixture_model() -> Path:
    """The trained fixture model, trained once per source tree and kept
    under ``OUT_DIR``: its seed is fixed, so every run of a checkout
    would train the same model."""
    from perfbench.workloads import TRAIN_SEED, TRAIN_WINDOWS, train_model

    key = hashlib.sha256(
        f"{source_digest()} {TRAIN_SEED} {TRAIN_WINDOWS}".encode()
    ).hexdigest()[:16]
    path = ROOT / OUT_DIR / f"model-{key}.npz"
    if not path.exists():
        partial = path.with_name(f"{path.stem}.{os.getpid()}.npz")
        train_model(partial)
        os.replace(partial, path)
    return path


def provenance() -> dict:
    """Where and on what the numbers were measured."""
    import numpy

    from repro.parallel import default_start_method

    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = done.stdout.strip() or None
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mp_start_method": default_start_method(),
        "platform": platform.platform(),
        "cpu_model": cpu_model,
    }


def summarize(phase, references) -> dict:
    """Loss breakdown and latency sample of one timed phase.

    A frame that failed, was dropped or refused, got no result, or
    failed the gate is lost and counts as infinitely late.
    """
    from perfbench.gate import matches
    from perfbench.layers import lateness_p90_ms
    from perfbench.metrics import MIN_BEYOND, window_count, windowed_percentile

    counts = {"ok": 0, "failed": 0, "dropped": 0, "refused": 0, "lost": 0,
              "mismatched": 0}
    latencies = []
    for outcome in sorted(phase.outcomes, key=lambda o: o.start):
        good = outcome.status == "ok" and matches(
            outcome, references[outcome.frame])
        if outcome.status == "ok" and not good:
            counts["mismatched"] += 1
        else:
            counts[outcome.status] += 1
        latencies.append(outcome.latency_s if good else math.inf)
    submitted = len(phase.outcomes)
    p90 = windowed_percentile(latencies, 90)
    if p90 is None:
        raise RuntimeError(
            f"{submitted} latency samples leave fewer than {MIN_BEYOND} "
            f"beyond p90")

    def ms(seconds: float) -> float:
        # A lost frame is at least as late as the whole phase is long.
        return 1e3 * (phase.duration if math.isinf(seconds) else seconds)

    return {
        "submitted": submitted,
        **counts,
        "duration_s": phase.duration,
        "latency_samples": submitted,
        "latency_windows": window_count(submitted),
        "lateness_p90_ms": lateness_p90_ms(phase.lateness_s),
        "fps": counts["ok"] / phase.duration,
        "latency_p50_ms": ms(windowed_percentile(latencies, 50)),
        "latency_p90_ms": ms(p90),
        "frame_loss_ratio": (submitted - counts["ok"]) / submitted,
    }


def make_system(workload, model_path, frames, seed: int):
    from perfbench.systems import HttpSystem, StreamSystem

    if workload.system == "stream":
        return StreamSystem(workload, model_path, frames)
    return HttpSystem(workload, model_path, frames, ROOT, seed)


def start_system(workload, model_path, frames, seed: int, times: int,
                 errors: list):
    """Set the system up ``times`` times; keep the last one running.
    Returns ``(system, setup seconds per try)``."""
    from perfbench.systems import release_freed_memory

    setups = []
    system = None
    for _ in range(times):
        if system is not None:
            errors += system.stop()
            release_freed_memory()
        system = make_system(workload, model_path, frames, seed)
        try:
            setups.append(system.start())
        except BaseException:
            system.stop()
            raise
    return system, setups


def run(workload, seed: int, seconds: float,
        trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns ``(result line, full report)``."""
    from perfbench import layers
    from perfbench.gate import matches, reference, shm_segments
    from perfbench.metrics import declared, result_line
    from perfbench.systems import PeakMemory
    from perfbench.trace import SpanRecorder
    from perfbench.workloads import make_frames

    started = time.perf_counter()
    model_path = fixture_model()
    frames = make_frames(workload, seed)
    fixture_s = time.perf_counter() - started

    errors: list[str] = []
    unmeasured: list[str] = []
    segments_before = shm_segments()
    phases = {}
    recorder = SpanRecorder()
    pools: dict = {}
    scrapes: list[dict] = [{}, {}]
    http = workload.system == "http"
    system, setups = start_system(workload, model_path, frames, seed,
                                  1 if trace else SETUPS, errors)
    try:
        phases["warm-up"] = system.warm_up()
        if not trace:
            with PeakMemory(system.pid) as memory:
                phases["timed"] = system.phase(
                    seconds, _min_samples(workload), MAX_TIMED_S)
        else:
            phases["untraced"] = system.phase(seconds, 0, seconds)
            if http:
                scrapes[0] = system.scrape()
            patches = (layers.client_patches() if http
                       else layers.pool_patches(pools))
            with recorder.installed(patches) as missing:
                phases["traced"] = system.phase(seconds, 0, seconds,
                                                recorder)
            unmeasured += missing
            if http:
                scrapes[1] = system.scrape()
    finally:
        errors += system.stop()
    leaked = sorted(shm_segments() - segments_before)
    if leaked:
        errors.append(f"shared-memory segments left behind: {leaked}")

    references = reference(workload, model_path, frames)
    mismatches = sum(
        1 for phase in phases.values() for o in phase.outcomes
        if o.status == "ok" and not matches(o, references[o.frame]))
    for name, phase in phases.items():
        errors += [f"{name}: {e}" for e in phase.errors]

    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": workload.to_dict(),
        "provenance": provenance(),
        "fixture_s": fixture_s,
        "setup_runs_s": setups,
        "errors": errors,
    }
    if not trace:
        timed = summarize(phases["timed"], references)
        report["timed_phase"] = timed
        values = {
            "fps": timed["fps"],
            "latency_p50_ms": timed["latency_p50_ms"],
            "latency_p90_ms": timed["latency_p90_ms"],
            "frames_ok_ratio": 1.0 - timed["frame_loss_ratio"],
            "setup_s": statistics.median(setups),
            "rss_peak_mib": memory.peak_mib,
        }
        measured = [phases["timed"]]
    else:
        values, replay, replay_mismatches = layers.replay_detect(
            workload, model_path, frames, references, unmeasured)
        mismatches += replay_mismatches
        service = SpanRecorder()
        if http and workload.backend == "process":
            service_pools: dict = {}
            layers.replay_service(workload, model_path, frames, service,
                                  service_pools, unmeasured)
            values.update(layers.parallel_metrics(service, service_pools))
        else:
            values.update(layers.parallel_metrics(recorder, pools))
        values.update(layers.stream_metrics(recorder))
        values.update(layers.http_metrics(recorder))
        values.update(layers.serve_metrics(*scrapes))
        untraced, traced = phases["untraced"], phases["traced"]
        values["loadgen.lateness_p90_ms"] = layers.lateness_p90_ms(
            untraced.lateness_s)
        values["trace.overhead_ratio"] = _ok_fps(traced) / _ok_fps(untraced)
        report["span_file"] = _write_spans(
            workload, seed, traced_phase=recorder, detect_replay=replay,
            service_replay=service)
        report["kernel_sum_check_ms"] = _kernel_sum_gap_ms(replay)
        report["unmeasured_entry_points"] = unmeasured
        measured = [untraced, traced]
    report["mismatched_results"] = mismatches
    attempted = sum(len(phase.outcomes) for phase in measured)
    ok = sum(o.status == "ok" for phase in measured for o in phase.outcomes)
    line = result_line(declared(ROOT), trace,
                       correct=not errors and mismatches == 0,
                       attempted=attempted, failed=attempted - ok + mismatches,
                       values=values)
    report["metrics"] = line["metrics"]
    return line, report


def _write_spans(workload, seed: int, **recorders) -> str:
    """Write every recording of the traced run to one span file."""
    from perfbench.trace import FIELDS

    path = ROOT / OUT_DIR / f"spans-{workload.name}-{seed}.json"
    path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "fields": FIELDS,
        **{name: rec.rows() for name, rec in recorders.items()},
    }) + "\n")
    return str(path.relative_to(ROOT))


def _ok_fps(phase) -> float:
    return sum(o.status == "ok" for o in phase.outcomes) / phase.duration


def _min_samples(workload) -> int:
    from perfbench.metrics import MIN_SAMPLES

    return MIN_SAMPLES if workload.loop == "closed" else 0


def _kernel_sum_gap_ms(replay) -> float:
    """Largest per-frame gap between ``core.detect`` and its kernel spans
    plus its self time (0 up to float round-off)."""
    self_times = replay.self_times()
    gap = 0.0
    for index, span in enumerate(replay.spans):
        if span.name != "core.detect":
            continue
        children = sum(s.duration for s in replay.spans
                       if s.parent == index)
        gap = max(gap, abs(span.duration - children - self_times[index]))
    return gap * 1e3


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: the program's source (src/repro) is not beside "
              "the benchmark; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    from perfbench.systems import adopt_orphans, stop_children

    (ROOT / OUT_DIR).mkdir(exist_ok=True)
    adopt_orphans()
    try:
        line, report = run(WORKLOADS[args.workload], args.seed,
                           args.seconds, bool(args.trace))
    finally:
        killed = stop_children()
    if killed:
        report["errors"].append(f"processes still running at exit, "
                                f"killed: {killed}")
        line["correct"] = False
    for name, metric in line["metrics"].items():
        print(f"{name:34s} {metric['value']:14.4f} {metric['unit']}",
              file=sys.stderr)
    print(f"fixture {report['fixture_s']:.1f} s (not in setup_s); "
          f"correct={line['correct']}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
