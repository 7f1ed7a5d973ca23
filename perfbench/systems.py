"""The systems under test, built and torn down through public entry points.

``StreamSystem`` drives a ``StreamPipeline`` (process backend) in the
benchmark process.  ``ServerProcess`` runs ``repro-das serve`` in its
own process, so the load generator never shares a GIL with the system.
``PeakMemory`` samples the memory of a process and its descendants;
``adopt_orphans`` and ``stop_children`` make sure that no process the
run started outlives it.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from perfbench.gate import fingerprint
from perfbench.loadgen import (
    ClosedLoopFeed,
    Deadline,
    Outcome,
    Phase,
    closed_loop_session,
    open_loop_schedule,
    open_loop_session,
)

#: Untimed load before the timed phase, at the workload's own load.  A
#: freshly started system runs several times slower for its first
#: second or so; a warm-up of a few frames left that in the timed phase.
WARM_UP_S = 3.0

_BANNER = re.compile(r"serving on http://([^:]+):(\d+)")
_DRAINED = re.compile(
    r"drained (clean|DIRTY): (\d+) submitted -> (\d+) ok, (\d+) failed, "
    r"(\d+) dropped"
)


# -- memory -------------------------------------------------------------------

def _descendants(pid: int) -> list[int]:
    found, todo = [], [pid]
    while todo:
        parent = todo.pop()
        found.append(parent)
        try:
            tids = os.listdir(f"/proc/{parent}/task")
        except FileNotFoundError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as f:
                    todo.extend(int(c) for c in f.read().split())
            except FileNotFoundError:
                continue
    return found


def _pss_bytes(pid: int) -> int:
    """Proportional set size: shared pages split among their users, so
    forked workers do not count their parent's pages twice."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) * 1024
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass
    return 0


# -- child processes ----------------------------------------------------------

#: ``prctl`` option that makes a process the reaper of its orphaned
#: descendants (Linux).
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the subreaper of every process it starts.

    A process the system under test starts and leaves behind when it
    exits (the server's ``multiprocessing`` resource tracker) is then
    reparented here instead of to init, so ``stop_children`` can wait
    for it.  A no-op where ``prctl`` is unavailable.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_children(timeout_s: float = 30.0) -> list[int]:
    """Stop this process's resource tracker and wait until every child
    has ended; children still running after ``timeout_s`` are killed.
    Returns the pids that had to be killed."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    killed: list[int] = []
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _descendants(os.getpid())[1:]:
                if child not in killed:
                    killed.append(child)
                    try:
                        os.kill(child, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
        time.sleep(0.01)


def release_freed_memory() -> None:
    """Return freed heap pages to the OS (glibc ``malloc_trim``).

    A torn-down ``StreamSystem`` leaves the malloc arenas of its
    threads full of freed memory in the benchmark process; without the
    trim, ``rss_peak_mib`` of the stream counts ~16 MiB of it per
    earlier set-up.  A no-op where ``malloc_trim`` is unavailable.
    """
    try:
        import ctypes

        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


class PeakMemory:
    """Peak summed PSS of ``pid`` and its descendants, sampled every
    ``interval_s`` while the block runs."""

    def __init__(self, pid: int, interval_s: float = 0.05) -> None:
        self.pid = pid
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample,
                                        name="perfbench-memory",
                                        daemon=True)

    def _sample(self) -> None:
        while True:
            total = sum(_pss_bytes(p) for p in _descendants(self.pid))
            self.peak_bytes = max(self.peak_bytes, total)
            if self._stop.wait(self.interval_s):
                return

    def __enter__(self) -> "PeakMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def peak_mib(self) -> float:
        return self.peak_bytes / 2**20


# -- the stream system ----------------------------------------------------------

class StreamSystem:
    """A ``StreamPipeline`` on the workload's backend, fed closed loop."""

    def __init__(self, workload, model_path: Path, frames) -> None:
        self.workload = workload
        self.model_path = model_path
        self.frames = frames
        self.pipeline = None

    def start(self) -> float:
        """Build the detector and pipeline; seconds until the first
        result came back."""
        from repro.core import MultiScalePedestrianDetector
        from repro.stream import StreamPipeline

        t0 = time.perf_counter()
        detector = MultiScalePedestrianDetector.load_model(
            self.model_path, self.workload.detector_config()
        )
        self.pipeline = StreamPipeline(
            detector, workers=self.workload.workers,
            backend=self.workload.backend,
            queue_size=self.workload.depth,
        )
        phase = self.run(ClosedLoopFeed(self.frames, 1, count=1))
        if phase.errors or phase.outcomes[0].status != "ok":
            raise RuntimeError(f"first frame did not succeed: {phase}")
        return time.perf_counter() - t0

    def run(self, feed: ClosedLoopFeed, recorder=None) -> Phase:
        """Drive one ``process`` call over ``feed`` to completion."""
        phase = Phase()
        try:
            for result in self.pipeline.process(feed):
                now = time.perf_counter()
                frame_id, handed = feed.handed[result.index]
                detail = (fingerprint(result.detections) if result.ok
                          else None)
                phase.record(Outcome(frame_id, result.status.value,
                                     now - handed, detail, handed))
                if recorder is not None:
                    recorder.mark("stream.emitted", frame=result.index,
                                  when=now)
                feed.completed()
        finally:
            feed.close()
        phase.start = feed.handed[0][1] if feed.handed else phase.end
        report = self.pipeline.report()
        if report.frames_in != report.frames_out or \
                report.frames_in != len(phase.outcomes):
            phase.errors.append(
                f"stream accounting: {report.frames_in} in, "
                f"{report.frames_out} out, {len(phase.outcomes)} received"
            )
        return phase

    def phase(self, seconds: float, min_samples: int, cap_s: float,
              recorder=None) -> Phase:
        deadline = Deadline(seconds, min_samples, cap_s)
        return self.run(ClosedLoopFeed(self.frames, self.workload.depth,
                                       deadline=deadline,
                                       recorder=recorder), recorder)

    def warm_up(self) -> Phase:
        return self.phase(WARM_UP_S, len(self.frames), 60.0)

    @property
    def pid(self) -> int:
        return os.getpid()

    def stop(self) -> list[str]:
        if self.pipeline is not None:
            self.pipeline.close()
            self.pipeline = None
        return []


# -- the HTTP server ------------------------------------------------------------

class ServerProcess:
    """``repro-das serve`` in a subprocess on an ephemeral port."""

    def __init__(self, workload, model_path: Path, root: Path) -> None:
        self.workload = workload
        self.model_path = model_path
        self.root = root
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.lines: list[str] = []
        self._banner = threading.Event()
        self._reader: threading.Thread | None = None

    def _read_stderr(self, stream) -> None:
        with stream:
            for line in stream:
                self.lines.append(line.rstrip("\n"))
                match = _BANNER.search(line)
                if match:
                    self.port = int(match.group(2))
                    self._banner.set()
        self._banner.set()

    def start(self, timeout_s: float = 60.0) -> int:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--model", str(self.model_path), "--host", "127.0.0.1",
             "--port", "0", *self.workload.serve_args()],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, cwd=self.root, env=env,
        )
        self._reader = threading.Thread(target=self._read_stderr,
                                        args=(self.proc.stderr,),
                                        name="perfbench-server-log",
                                        daemon=True)
        self._reader.start()
        if not self._banner.wait(timeout_s) or not self.port:
            self.stop()
            raise RuntimeError(
                "server did not start: " + " | ".join(self.lines[-5:])
            )
        return self.port

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self, timeout_s: float = 60.0) -> list[str]:
        """Drain the server (SIGTERM) and return accounting errors."""
        if self.proc is None:
            return []
        errors = []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            # Its pool workers would outlive a killed server.
            for pid in reversed(_descendants(self.proc.pid)):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self.proc.wait()
            errors.append("server did not drain in time")
        self._reader.join(timeout_s)
        if self.proc.returncode != 0:
            errors.append(f"server exited with {self.proc.returncode}")
        drained = [m for m in map(_DRAINED.search, self.lines) if m]
        if not drained:
            errors.append("server printed no drain report")
        else:
            state, submitted, ok, failed, dropped = drained[-1].groups()
            if state != "clean" or int(submitted) != (
                    int(ok) + int(failed) + int(dropped)):
                errors.append(f"server drain: {drained[-1].group(0)}")
        self.proc = None
        return errors


def session_errors(report: dict, submitted: int) -> list[str]:
    """``frames_in == ok + failed + dropped`` for one closed session."""
    total = report["ok"] + report["failed"] + report["dropped"]
    if report["submitted"] != submitted or total != submitted:
        return [f"session {report['session']}: {submitted} sent, "
                f"report {report}"]
    return []


class HttpSystem:
    """A ``ServerProcess`` plus the first-result handshake of setup."""

    def __init__(self, workload, model_path: Path, frames, root: Path,
                 seed: int) -> None:
        self.workload = workload
        self.frames = frames
        self.server = ServerProcess(workload, model_path, root)
        self.arrivals = np.random.default_rng([seed, 1])

    def start(self) -> float:
        """Spawn the server; seconds until its first result came back."""
        from repro.serve import ServeClient

        t0 = time.perf_counter()
        port = self.server.start()
        with ServeClient(port=port, timeout=60.0) as client:
            session = client.open_session()
            client.submit_frame(session, self.frames[0])
            results = client.collect(session, 1)
            elapsed = time.perf_counter() - t0
            report = client.close_session(session)
        if results[0]["status"] != "ok" or session_errors(report, 1):
            raise RuntimeError(f"first frame did not succeed: {results}")
        return elapsed

    def _drive(self, targets) -> Phase:
        """Run one client loop per workload session, each on its own
        thread and keep-alive connection; then close every session and
        check its accounting."""
        from repro.serve import ServeClient

        phase = Phase()
        clients = [ServeClient(port=self.server.port, timeout=60.0)
                   for _ in range(self.workload.sessions)]
        try:
            sessions = [client.open_session() for client in clients]
            counts = [0] * len(clients)

            def run(j: int) -> None:
                try:
                    counts[j] = targets(j, clients[j], sessions[j], phase)
                except Exception as exc:
                    phase.errors.append(f"session {j}: {exc!r}")

            threads = [threading.Thread(target=run, args=(j,),
                                        name=f"perfbench-load-{j}")
                       for j in range(len(clients))]
            phase.start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for client, session, count in zip(clients, sessions, counts):
                phase.errors += session_errors(
                    client.close_session(session), count)
        finally:
            for client in clients:
                client.close()
        return phase

    def _closed(self, deadline: Deadline) -> Phase:
        step = self.workload.sessions
        return self._drive(lambda j, client, session, phase:
                           closed_loop_session(client, session,
                                               self.frames, j, step,
                                               deadline, phase))

    def warm_up(self) -> Phase:
        return self.phase(WARM_UP_S, len(self.frames), 60.0)

    def phase(self, seconds: float, min_samples: int, cap_s: float,
              recorder=None) -> Phase:
        """One phase of the workload's load.  ``recorder`` is unused:
        the HTTP round trips are traced by patching ``ServeClient``."""
        w = self.workload
        if w.loop == "closed":
            phase = self._closed(Deadline(seconds, min_samples, cap_s))
        else:
            schedules = open_loop_schedule(
                time.perf_counter() + 0.05, w.rate_fps, seconds,
                w.sessions, len(self.frames), self.arrivals)
            phase = self._drive(lambda j, client, session, phase:
                                open_loop_session(client, session,
                                                  self.frames,
                                                  *schedules[j], phase))
            phase.start = schedules[0][0][0]
        return phase

    def scrape(self) -> dict:
        """The server's ``/metrics`` samples, over a fresh connection."""
        from repro.serve import ServeClient

        with ServeClient(port=self.server.port, timeout=60.0) as client:
            return client.metrics()["samples"]

    @property
    def pid(self) -> int:
        return self.server.pid

    def stop(self) -> list[str]:
        return self.server.stop()
