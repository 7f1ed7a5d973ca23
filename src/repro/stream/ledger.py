"""Admission and sequence-ordered settlement of frame outcomes.

The stream pipeline and each service session hand frames to an
executor that finishes them in any order.  :class:`AdmissionCore` is
the one place that decides which frames get in: it numbers them,
applies the backpressure policy against a quota, and holds the
admitted frames no worker has taken yet.  Its :class:`OrderedLedger`
turns the outcomes back into an in-order stream of
:class:`~repro.stream.types.FrameResult` records: it stamps each
frame's latency as it is emitted, counts OK / FAILED / DROPPED, and
tracks the consecutive-failure streak a circuit breaker reads.
"""

from __future__ import annotations

import collections
import time
from typing import Any

from repro.errors import ParameterError, StreamError
from repro.stream.types import BackpressurePolicy, FrameResult, FrameStatus


class OrderedLedger:
    """Reorders settled frames by sequence number and accounts for each.

    Every sequence number is settled once, in any order, and emitted
    once by :meth:`pop`, in sequence order.  Latency is measured from
    the ``t0`` given at settlement to the moment of emission; a DROPPED
    frame has none.  ``streak`` counts consecutive FAILED emissions; an
    OK frame resets it and a DROPPED frame leaves it alone.

    Not thread-safe: only its owner touches it.
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


class AdmissionCore:
    """Sequence numbers, quota, backlog and ledger of one frame stream.

    The stream pipeline owns one per run and each service session owns
    one; both front ends decide block / drop-oldest / drop-newest here
    and nowhere else.  No lock and no ``await``: the stream wraps the
    core in one ``threading.Condition``, a session touches it only
    from its event loop.

    **Quota rule.**  :attr:`pending` counts frames admitted but not yet
    emitted — queued, on a worker, or settled and awaiting reorder.
    An admission that takes it past ``quota`` is resolved by the
    policy:

    * ``block`` — callers wait while :attr:`full`; an admission made
      anyway is refused.
    * ``drop-oldest`` — the oldest *queued* frame is evicted.  Frames
      a worker holds are never evicted; with none queued, the newcomer
      is refused instead.
    * ``drop-newest`` — the newcomer is refused.

    A refused or evicted frame still consumes its sequence number and
    settles DROPPED, tallied by reason in :attr:`dropped_as`, so the
    ledger emits every number exactly once.
    """

    def __init__(self, quota: int,
                 policy: BackpressurePolicy | str = (
                     BackpressurePolicy.BLOCK)) -> None:
        if quota < 1:
            raise ParameterError(f"quota must be >= 1, got {quota}")
        self.quota = int(quota)
        self.policy = BackpressurePolicy(policy)
        self.ledger = OrderedLedger()
        self.submitted = 0
        self.dropped_as = dict.fromkeys(
            ("rejected", "evicted", "throttled"), 0
        )
        self.closed = False
        self._queued: collections.deque = collections.deque()
        self._held: set[int] = set()
        self._t0: dict[int, float] = {}

    @property
    def pending(self) -> int:
        """Frames admitted but not yet emitted."""
        return self.submitted - self.ledger.next_seq

    @property
    def full(self) -> bool:
        """True while a ``block`` admission has to wait."""
        return self.pending >= self.quota

    @property
    def queued(self) -> int:
        """Admitted frames no worker has taken yet."""
        return len(self._queued)

    @property
    def inflight(self) -> int:
        """Frames taken by a worker and not yet settled."""
        return len(self._held)

    def admit(self, frame: Any, *, refuse: str | None = None
              ) -> tuple[int, str | None, int | None]:
        """Number ``frame`` and apply the policy to it.

        ``refuse`` names a reason the caller refuses it for regardless
        of the quota (the service's ``"throttled"``).  Returns ``(seq,
        refused, evicted)``: the newcomer's sequence number, the reason
        it was refused (``None`` if admitted), and the sequence number
        drop-oldest evicted to make room (``None`` if none).
        """
        if self.closed:
            raise StreamError("admit() on a closed admission core")
        seq = self.submitted
        self.submitted += 1
        self._t0[seq] = time.perf_counter()
        evicted = None
        if refuse is None and self.pending > self.quota:
            if (self.policy is BackpressurePolicy.DROP_OLDEST
                    and self._queued):
                evicted = self._queued.popleft()[0]
                self._drop(evicted, "evicted")
            else:
                refuse = "rejected"
        if refuse is not None:
            self._drop(seq, refuse)
        else:
            self._queued.append((seq, frame))
        return seq, refuse, evicted

    def take(self, n: int) -> list[tuple[int, Any]]:
        """Hand up to ``n`` queued ``(seq, frame)`` pairs, oldest
        first, to a worker."""
        taken: list[tuple[int, Any]] = []
        while self._queued and len(taken) < n:
            item = self._queued.popleft()
            self._held.add(item[0])
            taken.append(item)
        return taken

    def settle(self, seq: int, status: FrameStatus | str, *,
               result: Any = None, error: str | None = None,
               worker: int | None = None) -> None:
        """Record the outcome of a frame a worker took."""
        self._held.discard(seq)
        self.ledger.settle(seq, status, self._t0.pop(seq, None),
                           result=result, error=error, worker=worker)

    def close(self, drain: bool = True) -> list[int]:
        """Admit no more frames.

        ``drain=False`` also evicts every queued frame; frames a worker
        holds still settle.  Returns the evicted sequence numbers.
        """
        self.closed = True
        if drain:
            return []
        evicted = [seq for seq, _ in self._queued]
        self._queued.clear()
        for seq in evicted:
            self._drop(seq, "evicted")
        return evicted

    def abandon(self) -> list[int]:
        """Settle every frame a worker holds as DROPPED (tallied as
        evicted), for an owner that stops waiting for them; returns
        their sequence numbers."""
        held = sorted(self._held)
        self._held.clear()
        for seq in held:
            self._drop(seq, "evicted")
        return held

    def _drop(self, seq: int, reason: str) -> None:
        self.dropped_as[reason] += 1
        self.ledger.settle(seq, FrameStatus.DROPPED, self._t0.pop(seq, None))
