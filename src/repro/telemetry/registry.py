"""Process-local metrics registry: counters, gauges, histograms, spans.

:class:`MetricsRegistry` is the hub of the telemetry layer.  It is
deliberately dependency-free and synchronous — the detection pipeline is
a straight-line NumPy program, so unlike a server-side metrics stack
(cf. the async container-scoped collector in *fapilog*) there is no
concurrency to protect against; the cost of recording must stay small
against stages measured in microseconds.

Design rules:

* **Zero global state.**  Registries are instance-scoped; the pipeline
  that wants telemetry creates one and threads it through its stages.
* **Safe no-op when disabled.**  A registry constructed with
  ``enabled=False`` (or the shared :data:`NULL_TELEMETRY` singleton)
  turns every method into a guard-and-return; ``span()`` hands back one
  shared null context manager.  Instrumentation can therefore run
  unconditionally in library code.
* **Bounded memory.**  Histograms keep at most ``max_samples`` raw
  values (aggregates keep counting beyond that); raw span records stop
  accumulating after ``max_spans`` while per-path aggregation continues.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any

from repro.errors import ParameterError
from repro.telemetry.spans import NULL_SPAN, NullSpan, Span, SpanRecord


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


@dataclasses.dataclass(frozen=True)
class HistogramSummary:
    """Aggregate view of one histogram (or one span path)."""

    count: int
    total: float
    minimum: float
    maximum: float
    p50: float
    p95: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p95": self.p95,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HistogramSummary":
        return cls(
            count=int(data["count"]),
            total=float(data["total"]),
            minimum=float(data["min"]),
            maximum=float(data["max"]),
            p50=float(data["p50"]),
            p95=float(data["p95"]),
        )

    def merge(self, other: "HistogramSummary") -> "HistogramSummary":
        """Combine two summaries of disjoint sample populations.

        Count, total, min and max merge exactly.  The quantiles of the
        union cannot be recovered from two summaries, so the merged
        p50/p95 are the count-weighted means of the inputs' quantiles —
        exact when the populations are identically distributed (the
        worker-pool case: every worker samples the same stage), an
        approximation otherwise.  See docs/TELEMETRY.md.
        """
        if other.count == 0:
            return self
        if self.count == 0:
            return other
        count = self.count + other.count
        wa = self.count / count
        wb = other.count / count
        return HistogramSummary(
            count=count,
            total=self.total + other.total,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
            p50=self.p50 * wa + other.p50 * wb,
            p95=self.p95 * wa + other.p95 * wb,
        )


class Histogram:
    """Streaming value distribution with bounded raw-sample storage.

    Aggregates (count, total, min, max) are exact for every observation;
    quantiles are computed from the first ``max_samples`` raw values
    (good enough for per-stage latency profiles, which observe a few
    values per frame).
    """

    __slots__ = ("count", "total", "minimum", "maximum", "_samples",
                 "_max_samples")

    def __init__(self, max_samples: int = 8192) -> None:
        if max_samples < 1:
            raise ParameterError(
                f"max_samples must be >= 1, got {max_samples}"
            )
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self._samples: list[float] = []
        self._max_samples = max_samples

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if len(self._samples) < self._max_samples:
            self._samples.append(value)

    def summary(self) -> HistogramSummary:
        ordered = sorted(self._samples)
        return HistogramSummary(
            count=self.count,
            total=self.total,
            minimum=self.minimum if self.count else 0.0,
            maximum=self.maximum if self.count else 0.0,
            p50=_quantile(ordered, 0.50),
            p95=_quantile(ordered, 0.95),
        )


@dataclasses.dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable point-in-time copy of a registry's state.

    This is the hand-off format between the instrumented pipeline and
    every consumer: the ``repro-das profile`` CLI, the benchmark
    harness, and the JSON exporter all read snapshots, never live
    registries.
    """

    counters: dict
    gauges: dict
    histograms: dict  # name -> HistogramSummary
    spans: dict       # path -> HistogramSummary of duration_ns

    def to_dict(self) -> dict:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: s.to_dict() for name, s in self.histograms.items()
            },
            "spans": {
                path: s.to_dict() for path, s in self.spans.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetrySnapshot":
        return cls(
            counters={k: int(v) for k, v in data.get("counters", {}).items()},
            gauges={k: float(v) for k, v in data.get("gauges", {}).items()},
            histograms={
                name: HistogramSummary.from_dict(s)
                for name, s in data.get("histograms", {}).items()
            },
            spans={
                path: HistogramSummary.from_dict(s)
                for path, s in data.get("spans", {}).items()
            },
        )


class MetricsRegistry:
    """Counters, gauges, histograms and timing spans for one pipeline.

    Parameters
    ----------
    enabled:
        When False every recording method is a no-op and ``span()``
        returns the shared null span; ``snapshot()`` reports empty
        state.  This is what makes library-side instrumentation free
        for callers that never asked for telemetry.
    max_samples:
        Raw-value cap per histogram (quantile fidelity bound).
    max_spans:
        Cap on retained raw :class:`SpanRecord` objects; per-path
        aggregation continues past it.
    """

    def __init__(
        self,
        enabled: bool = True,
        *,
        max_samples: int = 8192,
        max_spans: int = 10000,
    ) -> None:
        self.enabled = bool(enabled)
        self._max_samples = max_samples
        self._max_spans = max_spans
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._span_durations: dict[str, Histogram] = {}
        self._span_records: list[SpanRecord] = []
        self._span_stack: list[str] = []
        # Summaries absorbed from other registries' snapshots (worker
        # processes); merged into snapshot() output, kept separate from
        # the live Histogram objects because a summary has no raw
        # samples to re-observe.
        self._absorbed_histograms: dict[str, HistogramSummary] = {}
        self._absorbed_spans: dict[str, HistogramSummary] = {}

    # -- Recording ----------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at 0)."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + int(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        if not self.enabled:
            return
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        if not self.enabled:
            return
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram(self._max_samples)
            self._histograms[name] = hist
        hist.observe(value)

    def span(self, name: str) -> "Span | NullSpan":
        """A context manager timing one pass through stage ``name``."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name)

    # Timer is the name the rest of the codebase uses when the measured
    # quantity is a duration; it is the same object as a Span.
    timer = span

    def record_span(self, name: str, seconds: float) -> None:
        """Record stage ``name`` as a span of ``seconds`` ending now.

        For a duration measured elsewhere, e.g. summed over threads that
        must not touch the registry.  It nests under the open spans, as
        a ``with span(name)`` block here would.
        """
        if not self.enabled:
            return
        stack = self._span_stack
        duration = int(seconds * 1e9)
        self._record_span(SpanRecord(
            name=name,
            path=f"{stack[-1]}/{name}" if stack else name,
            start_ns=time.perf_counter_ns() - duration,
            duration_ns=duration,
            depth=len(stack),
        ))

    def _record_span(self, record: SpanRecord) -> None:
        if len(self._span_records) < self._max_spans:
            self._span_records.append(record)
        hist = self._span_durations.get(record.path)
        if hist is None:
            hist = Histogram(self._max_samples)
            self._span_durations[record.path] = hist
        hist.observe(record.duration_ns)

    # -- Merging ------------------------------------------------------------

    def absorb_snapshot(
        self, snapshot: TelemetrySnapshot, prefix: str = ""
    ) -> None:
        """Merge another registry's snapshot into this one.

        The cross-process hand-off: a worker process snapshots its own
        registry, ships the immutable snapshot back (it pickles), and
        the parent absorbs it — counters add, gauges last-write-wins,
        histogram/span summaries merge per
        :meth:`HistogramSummary.merge`.  ``prefix`` namespaces every
        absorbed key (e.g. ``"parallel.worker[0]."``); leave it empty to
        accumulate workers into the parent's own keys.

        No-op on a disabled registry, like every recording method.
        """
        if not self.enabled:
            return
        for name, value in snapshot.counters.items():
            self.inc(prefix + name, value)
        for name, value in snapshot.gauges.items():
            self.set_gauge(prefix + name, value)
        for store, incoming in (
            (self._absorbed_histograms, snapshot.histograms),
            (self._absorbed_spans, snapshot.spans),
        ):
            for name, summary in incoming.items():
                key = prefix + name
                held = store.get(key)
                store[key] = summary if held is None else held.merge(summary)

    # -- Pickling -----------------------------------------------------------

    def __reduce__(self) -> tuple[Any, ...]:
        # Two pickle hazards live here.  First, NULL_TELEMETRY is a
        # documented shared singleton ("never enable or record into
        # it"); naively pickling a component wired with it would
        # resurrect a private disabled copy per unpickle, silently
        # breaking `is NULL_TELEMETRY` identity.  Second, an open span
        # stack refers to `with` blocks on the source side that will
        # never exit in the unpickled copy, so it must not travel.
        if self is NULL_TELEMETRY:
            return (_restore_null_telemetry, ())
        state = dict(self.__dict__)
        state["_span_stack"] = []
        return (_new_registry, (), state)

    # -- Reading ------------------------------------------------------------

    @property
    def span_records(self) -> tuple[SpanRecord, ...]:
        """Raw completed spans, in completion order (bounded)."""
        return tuple(self._span_records)

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    def snapshot(self) -> TelemetrySnapshot:
        """Immutable copy of the current state (safe to keep around).

        Locally-observed histograms/spans are merged with any summaries
        absorbed from other registries (:meth:`absorb_snapshot`).
        """
        histograms = {
            name: h.summary() for name, h in self._histograms.items()
        }
        for name, summary in self._absorbed_histograms.items():
            held = histograms.get(name)
            histograms[name] = (
                summary if held is None else held.merge(summary)
            )
        spans = {
            path: h.summary() for path, h in self._span_durations.items()
        }
        for path, summary in self._absorbed_spans.items():
            held = spans.get(path)
            spans[path] = summary if held is None else held.merge(summary)
        return TelemetrySnapshot(
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            histograms=histograms,
            spans=spans,
        )

    def reset(self) -> None:
        """Drop all recorded state (open span nesting is preserved)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._span_durations.clear()
        self._span_records.clear()
        self._absorbed_histograms.clear()
        self._absorbed_spans.clear()


def _new_registry() -> "MetricsRegistry":
    """Unpickling shell for :meth:`MetricsRegistry.__reduce__`."""
    return MetricsRegistry.__new__(MetricsRegistry)


def _restore_null_telemetry() -> "MetricsRegistry":
    """Unpickling hook preserving the NULL_TELEMETRY singleton identity."""
    return NULL_TELEMETRY


def merge_snapshots(*snapshots: TelemetrySnapshot) -> TelemetrySnapshot:
    """Combine snapshots from independent registries into one view.

    Counters add, gauges last-write-wins (argument order), histogram
    and span summaries merge per :meth:`HistogramSummary.merge`.  This
    is the functional counterpart of
    :meth:`MetricsRegistry.absorb_snapshot` for callers that hold
    snapshots (e.g. per-worker JSON files) rather than a live registry.
    """
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.absorb_snapshot(snapshot)
    return registry.snapshot()


#: Shared disabled registry: the default ``telemetry`` of every
#: instrumented component.  Never enable or record into it.
NULL_TELEMETRY = MetricsRegistry(enabled=False)
