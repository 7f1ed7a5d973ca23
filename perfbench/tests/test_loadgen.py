from __future__ import annotations

import time

import numpy as np

from perfbench.loadgen import Phase, open_loop_schedule, open_loop_session


class StalledClient:
    """An in-process stand-in for ``ServeClient`` whose every submit
    stalls for ``stall_s``, longer than the schedule's period."""

    def __init__(self, stall_s: float, service_s: float) -> None:
        self.stall_s = stall_s
        self.service_s = service_s
        self.ready: dict[int, float] = {}

    def submit_frame(self, session, frame):
        time.sleep(self.stall_s)
        seq = len(self.ready)
        self.ready[seq] = time.perf_counter() + self.service_s
        return {"seq": seq, "accepted": True}

    def results(self, session, timeout=0.0):
        deadline = time.perf_counter() + timeout
        while True:
            now = time.perf_counter()
            done = [seq for seq, at in self.ready.items() if at <= now]
            if done or now >= deadline:
                break
            time.sleep(0.0005)
        for seq in done:
            self.ready[seq] = float("inf")
        return {"results": [{"index": seq, "status": "ok",
                             "n_detections": 0} for seq in done],
                "done": False}


def test_open_loop_times_from_the_due_time_so_a_stall_accumulates():
    client = StalledClient(stall_s=0.010, service_s=0.002)
    start = time.perf_counter() + 0.01
    due = [start + 0.005 * k for k in range(60)]    # one every 5 ms
    ids = [k % 4 for k in range(60)]
    phase = Phase()
    sent = open_loop_session(client, "s", [None] * 4, due, ids, phase)

    assert sent == len(due) == 60
    assert [o.status for o in phase.outcomes] == ["ok"] * sent
    lateness = phase.lateness_s
    latency = [o.latency_s for o in phase.outcomes]
    # Each submit takes twice the period, so frame k leaves ~5k ms late.
    assert lateness[-1] - lateness[0] > 0.2
    assert all(b >= a for a, b in zip(lateness, lateness[1:]))
    assert sum(latency[-10:]) / 10 > sum(latency[:10]) / 10 + 0.2
    assert all(lat >= late for lat, late in zip(latency, lateness))


def test_schedule_is_seeded_jittered_and_dealt_round_robin():
    def schedule(seed):
        return open_loop_schedule(10.0, 100.0, 20.0, 2, 3,
                                  np.random.default_rng(seed))

    (due0, ids0), (due1, ids1) = schedule(4)
    assert schedule(4) == [(due0, ids0), (due1, ids1)]
    assert schedule(5) != [(due0, ids0), (due1, ids1)]
    due = sorted(due0 + due1)
    assert due0 == due[0::2] and due1 == due[1::2]
    assert ids0[:3] == [0, 2, 1] and ids1[:3] == [1, 0, 2]
    assert len(due) == 2000 and 10.0 <= due[0] and due[-1] < 30.0
    gaps = np.diff(due)
    assert gaps.min() >= 0.005 and gaps.max() <= 0.015
