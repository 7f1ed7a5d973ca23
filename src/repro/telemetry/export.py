"""Snapshot exporters: JSON (machine) and aligned text (stdout).

The JSON form is the interchange format — ``repro-das profile`` emits
it, the benchmark harness persists it under ``benchmarks/results/``,
and :func:`snapshot_from_json` round-trips it back into a
:class:`~repro.telemetry.registry.TelemetrySnapshot` for comparison
across runs.

:func:`stage_report` distills a snapshot into the per-stage view the
paper argues about (PAPER.md §4/§5): wall time per pipeline stage plus
per-scale window counters, independent of where in the span tree a
stage was recorded.
"""

from __future__ import annotations

import json
from typing import TextIO

from repro.telemetry.registry import HistogramSummary, TelemetrySnapshot

#: Report stage -> span leaf name recorded by the instrumented pipeline.
#: A stage aggregates every span whose *leaf* matches, wherever it sat
#: in the tree (the extractor runs under both the detector and the
#: accelerator, for example).
STAGE_LEAVES = {
    "gradient": "hog.gradient",
    "histogram": "hog.histogram",
    "normalize": "hog.normalize",
    "scale": "scale.grid",
    "classify": "detect.classify",
    "nms": "detect.nms",
}

#: Stages recorded with a per-instance span name (one leaf per pyramid
#: scale) rather than one fixed leaf.  Stage -> leaf *suffix*: every
#: leaf ending in the suffix aggregates into the stage.  The first
#: instance is ``detect.scale[<s>].partial_matmul`` — the scorer's
#: partial-score matmul, a sub-span of ``detect.classify`` (so the
#: classify stage total already contains it; the stage entry shows the
#: matmul share of it).
STAGE_LEAF_SUFFIXES = {
    "partial_matmul": ".partial_matmul",
    "cascade_aggregate": ".cascade_aggregate",
}


def snapshot_to_json(snapshot: TelemetrySnapshot, indent: int = 2) -> str:
    """Serialize a snapshot to a JSON document."""
    return json.dumps(snapshot.to_dict(), indent=indent, sort_keys=True)


def snapshot_from_json(text: str) -> TelemetrySnapshot:
    """Rebuild a snapshot from :func:`snapshot_to_json` output."""
    return TelemetrySnapshot.from_dict(json.loads(text))


def _merge(a: HistogramSummary, b: HistogramSummary) -> HistogramSummary:
    """Combine two summaries (quantiles approximated count-weighted)."""
    count = a.count + b.count
    if count == 0:
        return a
    wa, wb = a.count / count, b.count / count
    return HistogramSummary(
        count=count,
        total=a.total + b.total,
        minimum=min(a.minimum, b.minimum),
        maximum=max(a.maximum, b.maximum),
        p50=a.p50 * wa + b.p50 * wb,
        p95=a.p95 * wa + b.p95 * wb,
    )


def aggregate_by_leaf(snapshot: TelemetrySnapshot) -> dict:
    """Span summaries keyed by leaf name instead of full path."""
    leaves: dict[str, HistogramSummary] = {}
    for path, summary in snapshot.spans.items():
        leaf = path.rsplit("/", 1)[-1]
        leaves[leaf] = _merge(leaves[leaf], summary) if leaf in leaves \
            else summary
    return leaves


def stage_report(snapshot: TelemetrySnapshot) -> dict:
    """The per-stage profile as a plain JSON-ready dict.

    Keys:

    ``stages``
        One entry per pipeline stage (gradient, histogram, normalize,
        scale, classify, nms, plus partial_matmul when the partial-score
        matmul ran and cascade_aggregate when the cascade did): call count,
        total/p50/p95/max milliseconds.
    ``windows``
        Per-scale window counters (scanned / accepted / rejected) read
        from the ``detect.scale[<s>].*`` counters, plus totals.
    ``histograms``
        Value distributions recorded with ``registry.observe`` (count,
        total, min/max, p50/p95) — e.g. the stream layer's
        ``stream.latency_ms`` and ``stream.queue_depth``.
    ``counters``, ``gauges``
        Everything else, verbatim.
    """
    leaves = aggregate_by_leaf(snapshot)
    summaries: dict[str, HistogramSummary] = {}
    for stage, leaf in STAGE_LEAVES.items():
        summary = leaves.get(leaf)
        if summary is not None:
            summaries[stage] = summary
    for stage, suffix in STAGE_LEAF_SUFFIXES.items():
        for leaf, summary in leaves.items():
            if leaf.endswith(suffix):
                summaries[stage] = (
                    _merge(summaries[stage], summary)
                    if stage in summaries else summary
                )
    stages = {}
    for stage, summary in summaries.items():
        stages[stage] = {
            "count": summary.count,
            "total_ms": summary.total / 1e6,
            "p50_ms": summary.p50 / 1e6,
            "p95_ms": summary.p95 / 1e6,
            "max_ms": summary.maximum / 1e6,
        }

    windows: dict[str, dict] = {}
    for name, value in snapshot.counters.items():
        if not name.startswith("detect.scale["):
            continue
        scale, _, kind = name[len("detect.scale["):].partition("].")
        windows.setdefault(scale, {})[kind] = value
    totals = {
        kind: snapshot.counters.get(f"detect.{kind}", 0)
        for kind in ("windows_scanned", "windows_accepted",
                     "windows_rejected")
    }
    if any(totals.values()):
        windows["total"] = totals

    return {
        "stages": stages,
        "windows": windows,
        "histograms": {
            name: summary.to_dict()
            for name, summary in snapshot.histograms.items()
        },
        "counters": dict(snapshot.counters),
        "gauges": dict(snapshot.gauges),
    }


def render_text(snapshot: TelemetrySnapshot) -> str:
    """Human-readable profile table (the ``--format text`` view)."""
    report = stage_report(snapshot)
    lines = ["stage        calls   total ms     p50 ms     p95 ms     max ms"]
    for stage, s in report["stages"].items():
        lines.append(
            f"{stage:<10s} {s['count']:7d} {s['total_ms']:10.3f} "
            f"{s['p50_ms']:10.3f} {s['p95_ms']:10.3f} {s['max_ms']:10.3f}"
        )
    if report["windows"]:
        lines.append("")
        lines.append("scale      scanned  accepted  rejected")
        for scale, kinds in sorted(report["windows"].items()):
            lines.append(
                f"{scale:<8s} {kinds.get('windows_scanned', 0):9d} "
                f"{kinds.get('windows_accepted', 0):9d} "
                f"{kinds.get('windows_rejected', 0):9d}"
            )
    cascade = {
        name[len("detect.cascade."):]: value
        for name, value in sorted(report["counters"].items())
        if name.startswith("detect.cascade.")
    }
    if cascade:
        # The early-reject cascade's per-stage rejection accounting:
        # how many anchors each stage
        # resolved and how much accumulation actually ran.
        lines.append("")
        lines.append("cascade counter                      value")
        for name, value in cascade.items():
            lines.append(f"{name:<32s} {int(value):10d}")
    if report["histograms"]:
        lines.append("")
        lines.append("histogram                 count        p50        p95"
                     "        max")
        for name, h in sorted(report["histograms"].items()):
            lines.append(
                f"{name:<24s} {h['count']:6d} {h['p50']:10.3f} "
                f"{h['p95']:10.3f} {h['max']:10.3f}"
            )
    if report["gauges"]:
        lines.append("")
        for name, value in sorted(report["gauges"].items()):
            lines.append(f"{name}: {value:g}")
    return "\n".join(lines)


def write_json(snapshot: TelemetrySnapshot, stream: TextIO) -> None:
    """Write the JSON form of ``snapshot`` to an open text stream."""
    stream.write(snapshot_to_json(snapshot))
    stream.write("\n")
