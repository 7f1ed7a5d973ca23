"""Sequence-ordered settlement of frame outcomes.

The stream pipeline and each service session hand frames to an
executor that finishes them in any order.  :class:`OrderedLedger` is
the one place that turns those outcomes back into an in-order stream of
:class:`~repro.stream.types.FrameResult` records: it stamps each
frame's latency as it is emitted, counts OK / FAILED / DROPPED, and
tracks the consecutive-failure streak a circuit breaker reads.
"""

from __future__ import annotations

import time
from typing import Any

from repro.stream.types import FrameResult, FrameStatus


class OrderedLedger:
    """Reorders settled frames by sequence number and accounts for each.

    Every sequence number is settled once, in any order, and emitted
    once by :meth:`pop`, in sequence order.  Latency is measured from
    the ``t0`` given at settlement to the moment of emission; a DROPPED
    frame has none.  ``streak`` counts consecutive FAILED emissions; an
    OK frame resets it and a DROPPED frame leaves it alone.

    Not thread-safe: only its owner touches it — the stream collector
    thread, or the service's event loop.
    """

    def __init__(self) -> None:
        self.next_seq = 0
        self.counts = dict.fromkeys(FrameStatus, 0)
        self.streak = 0
        self._settled: dict[int, tuple] = {}

    def settle(self, seq: int, status: FrameStatus | str,
               t0: float | None = None, *, result: Any = None,
               error: str | None = None,
               worker: int | None = None) -> None:
        """Record the outcome of frame ``seq`` (``status`` may be the
        executor's ``"ok"``/``"failed"``); an OK frame's detections
        are taken from ``result``."""
        self._settled[seq] = (FrameStatus(status), t0, result, error,
                              worker)

    def pop(self) -> FrameResult | None:
        """The next frame in sequence order, if it has settled."""
        entry = self._settled.pop(self.next_seq, None)
        if entry is None:
            return None
        status, t0, result, error, worker = entry
        seq = self.next_seq
        self.next_seq += 1
        self.counts[status] += 1
        if status is FrameStatus.FAILED:
            self.streak += 1
        elif status is FrameStatus.OK:
            self.streak = 0
        latency_s = (0.0 if status is FrameStatus.DROPPED or t0 is None
                     else time.perf_counter() - t0)
        return FrameResult(
            index=seq, status=status,
            detections=tuple(result.detections) if result is not None
            else (),
            result=result, error=error, latency_s=latency_s,
            worker=worker,
        )
