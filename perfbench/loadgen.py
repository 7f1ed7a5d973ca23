"""Load generation: closed- and open-loop clients and their records.

A closed loop hands a client's next frame in only after its previous
one completed (latency is timed from hand-in).  An open loop sends
frames on a fixed absolute schedule whatever the replies, and times
each frame from when it was due, so a stall shows as growing latency
and growing generator lateness instead of as a slower offered rate.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time

import numpy as np


@dataclasses.dataclass
class Outcome:
    """What became of one submitted frame.

    ``status`` is the program's ``ok`` / ``failed`` / ``dropped``, or
    ``refused`` (HTTP 429) or ``lost`` (no result before the grace
    period ended).  ``detail`` is what the correctness gate compares:
    a detection fingerprint in-process, a detection count over HTTP.
    ``start`` is when the latency clock started (hand-in or due time).
    """

    frame: int
    status: str
    latency_s: float
    detail: object = None
    start: float = 0.0


@dataclasses.dataclass
class Phase:
    """One timed phase: outcomes of every frame submitted in it."""

    start: float = 0.0
    end: float = 0.0
    outcomes: list[Outcome] = dataclasses.field(default_factory=list)
    lateness_s: list[float] = dataclasses.field(default_factory=list)
    errors: list[str] = dataclasses.field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self, outcome: Outcome) -> None:
        self.outcomes.append(outcome)
        self.end = max(self.end, time.perf_counter())


class Deadline:
    """When a closed-loop phase stops handing in frames.

    After ``seconds``, once ``min_samples`` frames completed; in any
    case after ``cap_s``.
    """

    def __init__(self, seconds: float, min_samples: int = 0,
                 cap_s: float | None = None) -> None:
        self.start = time.perf_counter()
        self.end = self.start + seconds
        self.cap = self.start + (cap_s if cap_s is not None else seconds)
        self.min_samples = min_samples

    def reached(self, completed: int) -> bool:
        now = time.perf_counter()
        return now >= self.cap or (
            now >= self.end and completed >= self.min_samples)


class ClosedLoopFeed:
    """A ``StreamPipeline`` frame source keeping ``depth`` frames
    outstanding: the next frame is handed in when a result comes back
    (:meth:`completed`).  Stops after ``count`` frames or at
    ``deadline``."""

    def __init__(self, frames, depth: int, *, count: int | None = None,
                 deadline: Deadline | None = None,
                 recorder=None) -> None:
        self.frames = frames
        self.count = count
        self.deadline = deadline
        self.recorder = recorder
        self.handed: list[tuple[int, float]] = []
        self.done = 0
        self._permits = threading.Semaphore(depth)
        self._closed = threading.Event()

    def __iter__(self):
        k = 0
        while True:
            while not self._permits.acquire(timeout=0.1):
                if self._closed.is_set():
                    return
            if self._closed.is_set():
                return
            if self.count is not None and k >= self.count:
                return
            if self.deadline is not None and self.deadline.reached(
                    self.done):
                return
            frame_id = k % len(self.frames)
            now = time.perf_counter()
            self.handed.append((frame_id, now))
            if self.recorder is not None:
                self.recorder.mark("stream.handed", frame=k, when=now)
            yield self.frames[frame_id]
            k += 1

    def completed(self) -> None:
        self.done += 1
        self._permits.release()

    def close(self) -> None:
        self._closed.set()


def _status(ticket: dict, result: dict) -> str:
    return "refused" if not ticket["accepted"] else result["status"]


def closed_loop_session(client, session: str, frames, first: int,
                        step: int, deadline: Deadline, phase: Phase,
                        poll_s: float = 5.0) -> int:
    """One client with one frame outstanding: submit, wait for that
    frame's result, repeat until the deadline.  Returns the number of
    frames submitted."""
    k = first
    while not deadline.reached(len(phase.outcomes)):
        frame_id = k % len(frames)
        t_in = time.perf_counter()
        ticket = client.submit_frame(session, frames[frame_id])
        result = None
        while result is None:
            doc = client.results(session, timeout=poll_s)
            for item in doc["results"]:
                if item["index"] == ticket["seq"]:
                    result = item
            if result is None and doc["done"]:
                raise RuntimeError(f"session {session} ended early")
        latency = time.perf_counter() - t_in
        phase.record(Outcome(frame_id, _status(ticket, result), latency,
                             result["n_detections"], t_in))
        k += step
    return (k - first) // step


def open_loop_session(client, session: str, frames, due_times,
                      frame_ids, phase: Phase, grace_s: float = 30.0,
                      max_poll_s: float = 0.5) -> int:
    """Send frame ``frame_ids[i]`` at absolute time ``due_times[i]``,
    polling for results between sends; latency is timed from the due
    time.  Frames without a result ``grace_s`` after the last due time
    are ``lost``.  Returns the number of frames submitted."""
    pending: dict[int, tuple[int, float, bool]] = {}

    def collect(timeout: float) -> None:
        doc = client.results(session, timeout=timeout)
        received = time.perf_counter()
        for item in doc["results"]:
            frame_id, due, accepted = pending.pop(item["index"])
            status = item["status"] if accepted else "refused"
            phase.record(Outcome(frame_id, status, received - due,
                                 item["n_detections"], due))

    i = 0
    give_up = (due_times[-1] if due_times else time.perf_counter()) \
        + grace_s
    while i < len(due_times) or pending:
        now = time.perf_counter()
        if i < len(due_times) and now >= due_times[i]:
            ticket = client.submit_frame(session, frames[frame_ids[i]])
            phase.lateness_s.append(now - due_times[i])
            pending[ticket["seq"]] = (frame_ids[i], due_times[i],
                                      ticket["accepted"])
            i += 1
            if i < len(due_times) and time.perf_counter() >= due_times[i]:
                # Behind schedule: still pick up finished results, or
                # their latency would include the generator's backlog.
                collect(0.0)
            continue
        if now >= give_up:
            break
        wait = (due_times[i] - now if i < len(due_times)
                else max_poll_s)
        if not pending:
            time.sleep(wait)
        elif wait >= 5e-4:
            collect(min(wait, max_poll_s))
    for frame_id, due, _ in pending.values():
        phase.record(Outcome(frame_id, "lost", math.inf, start=due))
    return i


def open_loop_schedule(start: float, rate_fps: float, seconds: float,
                       sessions: int, n_frames: int,
                       rng: np.random.Generator):
    """Per session: (due times, frame ids) of a fixed-rate schedule over
    ``seconds``, dealt round-robin across sessions.

    Frame ``k`` is due at ``(k + u) / rate_fps`` with ``u`` uniform in
    [0, 0.5): gaps stay between half and one and a half periods.  A
    strictly periodic schedule locks onto one phase of the server's own
    periodic behaviour (the interpreter's 5 ms thread switch interval,
    for one), and which phase a run happens to lock to changed its tail
    latency twofold from run to run.
    """
    total = max(1, int(rate_fps * seconds))
    due = (start + (np.arange(total) + rng.uniform(0.0, 0.5, total))
           / rate_fps).tolist()
    return [(due[j::sessions],
             [k % n_frames for k in range(j, total, sessions)])
            for j in range(sessions)]
