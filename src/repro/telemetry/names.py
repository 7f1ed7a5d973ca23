"""Canonical registry of every telemetry name the pipeline records.

Telemetry keys used to exist only as string literals scattered across
the instrumented modules, with ``docs/TELEMETRY.md`` mirroring them by
hand — the exact drift class that static analysis exists to stop.  This
module is now the single source of truth:

* Every ``inc`` / ``set_gauge`` / ``observe`` / ``span`` literal in
  ``src/`` must resolve to an entry here.  The ``telemetry-names`` rule
  of :mod:`repro.analysis` enforces this mechanically (f-string
  placeholders at record sites match ``<var>`` placeholders in
  registered templates), and also checks that the recorded *kind*
  matches the registered one — incrementing a gauge is a lint failure.
* The name table in ``docs/TELEMETRY.md`` is generated from this
  registry (:func:`render_name_table`) between marker comments, and the
  same lint rule fails when the generated block and the registry
  disagree.  Regenerate with::

      PYTHONPATH=src python -m repro.telemetry.names --write

Registering a name is deliberately cheap: add a :class:`TelemetryName`
to :data:`NAMES`, regenerate the docs table, done.  Templated families
(one name per pyramid scale, say) are registered once with a ``<var>``
placeholder, e.g. ``detect.scale[<s>].windows_scanned``.

This module is dependency-free (no NumPy) so the linter can import it
from any environment.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from pathlib import Path

#: Metric kinds a name can be registered under; each maps to exactly one
#: family of :class:`~repro.telemetry.MetricsRegistry` record methods.
KINDS = ("counter", "gauge", "histogram", "span")

#: ``<var>`` placeholder inside a registered template.
_PLACEHOLDER_RE = re.compile(r"<[a-z_]+>")

#: Marker comments delimiting the generated block in docs/TELEMETRY.md.
TABLE_BEGIN = "<!-- telemetry-name-table:begin -->"
TABLE_END = "<!-- telemetry-name-table:end -->"


@dataclass(frozen=True)
class TelemetryName:
    """One registered telemetry key (or templated key family).

    Attributes
    ----------
    name:
        The canonical key, possibly containing ``<var>`` placeholders
        for per-instance interpolation (``detect.scale[<s>].*``).
    kind:
        One of :data:`KINDS`; the only record methods allowed for this
        name are the ones of that kind.
    description:
        One line for the generated docs table.
    """

    name: str
    kind: str
    description: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"kind must be one of {KINDS}, got {self.kind!r}"
            )
        if not self.name:
            raise ValueError("telemetry name must be non-empty")
        if "|" in self.name or "|" in self.description:
            raise ValueError(
                f"'|' would break the generated Markdown table: {self.name!r}"
            )

    @property
    def normalized(self) -> str:
        """The name with every ``<var>`` placeholder collapsed to ``<>``."""
        return normalize_template(self.name)

    @property
    def is_template(self) -> bool:
        return bool(_PLACEHOLDER_RE.search(self.name))


def normalize_template(name: str) -> str:
    """Collapse ``<var>`` placeholders so templates compare structurally.

    Record sites build keys with f-strings; the linter renders each
    formatted field as ``<>``.  Registered templates write placeholders
    as ``<s>`` / ``<status>`` for readability; both normalize to the
    same string, so resolution is exact string equality.
    """
    return _PLACEHOLDER_RE.sub("<>", name)


NAMES: tuple[TelemetryName, ...] = (
    # -- Sliding-window detector -------------------------------------------
    TelemetryName("detect.frame", "span",
                  "one full frame through the detector"),
    TelemetryName("detect.extract", "span",
                  "base HOG extraction (image strategy: fused pyramid)"),
    TelemetryName("detect.pyramid", "span",
                  "feature-pyramid construction from the base grid"),
    TelemetryName("detect.classify", "span",
                  "one scale's sliding-window scoring"),
    TelemetryName("detect.nms", "span", "non-maximum suppression"),
    TelemetryName("detect.partial_matmul", "span",
                  "the scorer's partial-score matmul (default span when "
                  "the caller names no scale)"),
    TelemetryName("detect.scale[<s>].partial_matmul", "span",
                  "the scorer's partial-score matmul at pyramid scale "
                  "<s>, nested inside detect.classify"),
    TelemetryName("detect.cascade_aggregate", "span",
                  "the cascade's staged aggregation (default span when "
                  "the caller names no scale)"),
    TelemetryName("detect.scale[<s>].cascade_aggregate", "span",
                  "the cascade's staged aggregation at pyramid scale "
                  "<s>, nested inside detect.classify"),
    TelemetryName("detect.cascade.anchors_in", "counter",
                  "anchors entering the cascade aggregation"),
    TelemetryName("detect.cascade.anchors_survived", "counter",
                  "anchors that completed full accumulation (everything "
                  "else was bounded out below threshold)"),
    TelemetryName("detect.cascade.positions_accumulated", "counter",
                  "block-position partial sums actually accumulated "
                  "(dense cost would be anchors_in * 105)"),
    TelemetryName("detect.cascade.bailouts", "counter",
                  "cascade runs that fell back to dense aggregation "
                  "because stage 0 rejected too few anchors"),
    TelemetryName("detect.cascade.stage[<stage>].anchors_rejected",
                  "counter",
                  "anchors bounded out below threshold at rejection "
                  "check <stage> (0 = after the top-K positions)"),
    TelemetryName("detect.frames", "counter",
                  "frames processed by SlidingWindowDetector.detect"),
    TelemetryName("detect.windows_scanned", "counter",
                  "windows scored per frame, all scales (matches "
                  "DetectionResult.n_windows_evaluated)"),
    TelemetryName("detect.windows_accepted", "counter",
                  "windows above threshold, all scales"),
    TelemetryName("detect.windows_rejected", "counter",
                  "windows at or below threshold, all scales"),
    TelemetryName("detect.nms_candidates", "counter",
                  "detections entering non-maximum suppression"),
    TelemetryName("detect.nms_kept", "counter",
                  "detections surviving non-maximum suppression"),
    TelemetryName("detect.scale[<s>].windows_scanned", "counter",
                  "windows scored at pyramid scale <s>"),
    TelemetryName("detect.scale[<s>].windows_accepted", "counter",
                  "windows above threshold at pyramid scale <s>"),
    TelemetryName("detect.scale[<s>].windows_rejected", "counter",
                  "windows at or below threshold at pyramid scale <s>"),
    TelemetryName("detect.scorer.plan_cache_hits", "counter",
                  "ScorerPlan cache hits"),
    TelemetryName("detect.scorer.plan_cache_misses", "counter",
                  "ScorerPlan cache misses (one per (model, "
                  "window geometry))"),
    # -- HOG extraction -----------------------------------------------------
    TelemetryName("hog.extract", "span", "whole HOG extraction pass"),
    TelemetryName("hog.gradient", "span",
                  "gamma + gradient magnitude/orientation, summed over "
                  "the extractor's bands"),
    TelemetryName("hog.histogram", "span",
                  "cell histogram voting, summed over the extractor's "
                  "bands, plus the seam fold"),
    TelemetryName("hog.normalize", "span",
                  "block normalization, summed over the extractor's "
                  "bands"),
    TelemetryName("hog.extractions", "counter",
                  "full-grid extraction passes"),
    TelemetryName("hog.pixels", "counter",
                  "pixels consumed by extraction passes"),
    TelemetryName("hog.flat_cell_rows", "counter",
                  "cell rows of extracted grids that are all +0.0 "
                  "(textureless bands, which the extractor kernels "
                  "skip or fill cheaply)"),
    # -- Feature scaling ----------------------------------------------------
    TelemetryName("scale.grid", "span",
                  "one feature-grid resampling pass (scaler or "
                  "accelerator cascade)"),
    TelemetryName("scale.grids", "counter",
                  "feature-grid resampling passes"),
    # -- Hardware accelerator model ----------------------------------------
    TelemetryName("accel.frame", "span",
                  "one frame through the fixed-point accelerator model"),
    TelemetryName("accel.extract", "span",
                  "accelerator-side extraction + feature quantization"),
    TelemetryName("accel.frames", "counter",
                  "frames processed by the accelerator model"),
    TelemetryName("accel.scale[<s>].windows_scanned", "counter",
                  "accelerator windows classified at scale <s>"),
    TelemetryName("accel.scale[<s>].windows_accepted", "counter",
                  "accelerator windows above threshold at scale <s>"),
    TelemetryName("hw.extractor_cycles", "gauge",
                  "analytic cycle model: extractor cycles per frame"),
    TelemetryName("hw.classifier_cycles_effective", "gauge",
                  "analytic cycle model: effective classifier cycles "
                  "per frame"),
    TelemetryName("hw.frame_time_s", "gauge",
                  "analytic cycle model: frame interval in seconds"),
    TelemetryName("hw.frames_per_second", "gauge",
                  "analytic cycle model: projected throughput"),
    TelemetryName("hw.simulate_frame", "span",
                  "one discrete-event simulation run"),
    TelemetryName("hw.sim.total_cycles", "gauge",
                  "event simulator: total cycles for the frame"),
    TelemetryName("hw.sim.extractor_busy_cycles", "gauge",
                  "event simulator: cycles the extractor was busy"),
    TelemetryName("hw.sim.classifier_busy_cycles", "gauge",
                  "event simulator: cycles the classifier was busy"),
    TelemetryName("hw.sim.classifier_stall_cycles", "gauge",
                  "event simulator: classifier stall cycles"),
    TelemetryName("hw.sim.classifier_utilization", "gauge",
                  "event simulator: classifier busy fraction"),
    TelemetryName("hw.sim.peak_buffer_occupancy", "gauge",
                  "event simulator: peak N-HOGMem buffer occupancy"),
    # -- Streaming pipeline -------------------------------------------------
    TelemetryName("stream.frames_in", "counter",
                  "frames read from the source"),
    TelemetryName("stream.frames_<status>", "counter",
                  "per-frame outcomes (ok / failed / dropped; the three "
                  "sum to stream.frames_in)"),
    TelemetryName("stream.latency_ms", "histogram",
                  "source-read to emission latency per frame"),
    TelemetryName("stream.queue_depth", "histogram",
                  "frames admitted but not yet emitted (queued, in "
                  "flight or awaiting reorder), sampled at each "
                  "admission; queue_size is its quota"),
    TelemetryName("stream.workers", "gauge",
                  "worker count of the finished run"),
    TelemetryName("stream.achieved_fps", "gauge",
                  "end-of-run throughput"),
    TelemetryName("stream.worker_utilization", "gauge",
                  "end-of-run worker busy fraction"),
    TelemetryName("stream.queue_depth_max", "gauge",
                  "peak stream.queue_depth of the run"),
    # -- Detection-as-a-service front end -----------------------------------
    TelemetryName("serve.sessions_opened", "counter",
                  "client sessions opened"),
    TelemetryName("serve.sessions_closed", "counter",
                  "client sessions closed"),
    TelemetryName("serve.sessions_active", "gauge",
                  "currently open client sessions"),
    TelemetryName("serve.frames_submitted", "counter",
                  "frames admitted into a session (every submit that "
                  "received a sequence number)"),
    TelemetryName("serve.frames_<status>", "counter",
                  "per-frame serving outcomes (ok / failed / dropped; "
                  "dropped includes rejected and evicted frames)"),
    TelemetryName("serve.frames_rejected", "counter",
                  "frames refused at admission when the session was "
                  "saturated (drop-newest; HTTP 429)"),
    TelemetryName("serve.frames_evicted", "counter",
                  "queued frames displaced by drop-oldest admission or "
                  "discarded by a no-drain session close"),
    TelemetryName("serve.frames_throttled", "counter",
                  "frames refused by a session's max_fps admission cap "
                  "(HTTP 429; still yield an in-order DROPPED result)"),
    TelemetryName("serve.batch.formed", "counter",
                  "dispatch batches formed by the service pump (a batch "
                  "may hold frames from several sessions)"),
    TelemetryName("serve.batch.size", "histogram",
                  "frames per dispatch batch"),
    TelemetryName("serve.batch.multi_frame", "counter",
                  "dispatch batches that coalesced more than one frame"),
    TelemetryName("serve.batch.lingered", "counter",
                  "times the pump held partial batches back for more "
                  "frames because every worker of their pool held a "
                  "batch"),
    TelemetryName("serve.batch.linger_ms", "histogram",
                  "length of each linger: until batch_window_ms, "
                  "max_batch frames waiting, or a worker freeing up"),
    TelemetryName("serve.queue_depth", "histogram",
                  "frames a session admitted but has not yet emitted, "
                  "sampled at each admission; max_pending is its "
                  "quota"),
    TelemetryName("serve.latency_ms", "histogram",
                  "submit-to-emission latency per served frame"),
    TelemetryName("serve.inflight", "gauge",
                  "frames currently dispatched to detection workers"),
    TelemetryName("serve.pool_cache_hits", "counter",
                  "sessions attached to an already-warm worker pool"),
    TelemetryName("serve.pool_cache_misses", "counter",
                  "worker pools built for a new DetectorSpec cache key"),
    TelemetryName("serve.pools_active", "gauge",
                  "warm worker pools currently alive"),
    TelemetryName("serve.workers", "gauge",
                  "total detection workers across active pools"),
    TelemetryName("serve.worker_busy_ms", "histogram",
                  "wall time a detection worker spent per served frame"),
    TelemetryName("serve.worker_cpu_ms", "histogram",
                  "CPU time behind serve.worker_busy_ms (a process "
                  "worker counts all its threads, a thread worker its "
                  "own)"),
    TelemetryName("serve.ready", "gauge",
                  "1 while the service accepts sessions and every worker "
                  "pool is healthy (/readyz 200), else 0; set at each "
                  "snapshot"),
    TelemetryName("serve.drained_clean", "gauge",
                  "1 when the last shutdown drained every pending frame"),
    TelemetryName("serve.http.requests", "counter",
                  "HTTP requests received by the serving front end"),
    TelemetryName("serve.http.responses[<code>]", "counter",
                  "HTTP responses by status code"),
    TelemetryName("serve.http.connections", "counter",
                  "TCP connections accepted by the serving front end "
                  "(with keep-alive, fewer connections than requests)"),
    # -- Multiprocess backend -----------------------------------------------
    TelemetryName("parallel.workers", "gauge",
                  "worker-process count of the active pool"),
    TelemetryName("parallel.frames_shm", "counter",
                  "frames handed off through a shared-memory ring slot"),
    TelemetryName("parallel.frames_pickled", "counter",
                  "frames that outgrew the slot size and fell back to "
                  "pickling"),
    TelemetryName("parallel.worker_snapshots_merged", "counter",
                  "worker telemetry snapshots absorbed at pool close"),
    TelemetryName("parallel.results_shm", "counter",
                  "detection results returned through the ring's "
                  "shared-memory result lane"),
    TelemetryName("parallel.results_pickled", "counter",
                  "detection results that fell back to the pickle "
                  "channel (lane full, result too large, or not "
                  "lane-encodable)"),
    TelemetryName("parallel.blas_threads", "gauge",
                  "OpenBLAS thread count a worker process pinned itself "
                  "to (absent when no OpenBLAS is loaded)"),
    TelemetryName("parallel.core_share", "gauge",
                  "cores a worker process may use, usable CPUs over pool "
                  "workers (at least 1): the most HOG extractor bands "
                  "it splits a frame into"),
    TelemetryName("parallel.frames_stale", "counter",
                  "frames of an abandoned run that a process worker "
                  "answered without detecting them (their ring and "
                  "result-lane slots are still freed)"),
    TelemetryName("parallel.batches", "counter",
                  "multi-frame task messages sent to process workers "
                  "(each amortizes the per-message queue cost over its "
                  "frames)"),
    # -- Buffer arena --------------------------------------------------------
    TelemetryName("arena.slab_bytes", "gauge",
                  "total bytes held by the arena's named slabs"),
    TelemetryName("arena.hits", "counter",
                  "buffer requests served from an existing slab"),
    TelemetryName("arena.misses", "counter",
                  "buffer requests that allocated a new named slab "
                  "(warmup)"),
    TelemetryName("arena.resizes", "counter",
                  "buffer requests that grew an existing slab (frame "
                  "shape or scale-ladder change)"),
    TelemetryName("arena.fallback_alloc", "counter",
                  "buffer requests a capped arena served with a plain "
                  "allocation instead of growing past max_bytes"),
)


def _build_index() -> dict[str, TelemetryName]:
    index: dict[str, TelemetryName] = {}
    for entry in NAMES:
        key = entry.normalized
        if key in index:
            raise ValueError(f"duplicate telemetry name: {entry.name!r}")
        index[key] = entry
    return index


#: Normalized template -> entry; the linter's lookup table.
_INDEX: dict[str, TelemetryName] = _build_index()


def lookup(template: str) -> TelemetryName | None:
    """The registered entry a (possibly templated) key resolves to.

    ``template`` may be a concrete key (``"hog.pixels"``), a registered
    template (``"detect.scale[<s>].windows_scanned"``), or a
    linter-normalized one (``"detect.scale[<>].windows_scanned"``).
    Returns ``None`` when nothing matches structurally.
    """
    return _INDEX.get(normalize_template(template))


def resolve(concrete: str) -> TelemetryName | None:
    """Match a *concrete* recorded key against the registry.

    Unlike :func:`lookup` this also matches template instantiations:
    ``resolve("detect.scale[1.20].windows_scanned")`` finds the
    ``detect.scale[<s>].windows_scanned`` entry.  Runtime helper for
    tools that see recorded snapshots rather than source code.
    """
    entry = _INDEX.get(concrete)
    if entry is not None:
        return entry
    for candidate in NAMES:
        if not candidate.is_template:
            continue
        pattern = "".join(
            ".+" if part == "<>" else re.escape(part)
            for part in re.split(r"(<>)", candidate.normalized)
        )
        if re.fullmatch(pattern, concrete):
            return candidate
    return None


def canonical_names(kind: str | None = None) -> tuple[TelemetryName, ...]:
    """All registered names, optionally filtered by kind, sorted."""
    entries = NAMES if kind is None else tuple(
        e for e in NAMES if e.kind == kind
    )
    return tuple(sorted(entries, key=lambda e: e.name))


def render_name_table() -> str:
    """The Markdown name table embedded in docs/TELEMETRY.md.

    Deterministic (sorted by name) so the docs block can be compared
    with string equality by the ``telemetry-names`` lint rule.
    """
    lines = [
        "| Name | Kind | Meaning |",
        "|---|---|---|",
    ]
    for entry in canonical_names():
        lines.append(
            f"| `{entry.name}` | {entry.kind} | {entry.description} |"
        )
    return "\n".join(lines)


def docs_table_problems(text: str) -> list[str]:
    """Why ``text`` (a docs page) disagrees with the registry, if it does.

    Empty list means the page embeds exactly the generated table between
    the :data:`TABLE_BEGIN` / :data:`TABLE_END` markers.
    """
    begin = text.find(TABLE_BEGIN)
    end = text.find(TABLE_END)
    if begin < 0 or end < 0 or end < begin:
        return [
            f"missing the generated name-table markers {TABLE_BEGIN!r} / "
            f"{TABLE_END!r}"
        ]
    embedded = text[begin + len(TABLE_BEGIN):end].strip("\n")
    expected = render_name_table()
    if embedded == expected:
        return []
    embedded_rows = set(embedded.splitlines())
    expected_rows = set(expected.splitlines())
    problems = []
    for row in sorted(expected_rows - embedded_rows):
        problems.append(f"docs table is missing registry row: {row}")
    for row in sorted(embedded_rows - expected_rows):
        problems.append(f"docs table has a row the registry lacks: {row}")
    if not problems:
        problems.append("docs table rows are out of order or reformatted")
    return [
        p + "  (regenerate: PYTHONPATH=src python -m repro.telemetry.names"
            " --write)"
        for p in problems
    ]


def write_docs_table(path: Path) -> bool:
    """Replace the generated block in ``path``; True if the file changed."""
    text = path.read_text(encoding="utf-8")
    begin = text.find(TABLE_BEGIN)
    end = text.find(TABLE_END)
    if begin < 0 or end < 0 or end < begin:
        raise ValueError(
            f"{path} does not contain the {TABLE_BEGIN!r} / {TABLE_END!r} "
            f"markers"
        )
    updated = (
        text[:begin + len(TABLE_BEGIN)]
        + "\n" + render_name_table() + "\n"
        + text[end:]
    )
    if updated == text:
        return False
    path.write_text(updated, encoding="utf-8")
    return True


def _default_docs_path() -> Path:
    # src/repro/telemetry/names.py -> repo root is four parents up.
    return (
        Path(__file__).resolve().parents[3] / "docs" / "TELEMETRY.md"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.names",
        description="Render or sync the canonical telemetry name table.",
    )
    parser.add_argument(
        "--write", nargs="?", type=Path, const=_default_docs_path(),
        default=None, metavar="DOCS_MD",
        help="rewrite the generated block in DOCS_MD "
             "(default: docs/TELEMETRY.md)",
    )
    parser.add_argument(
        "--check", nargs="?", type=Path, const=_default_docs_path(),
        default=None, metavar="DOCS_MD",
        help="exit 1 if the generated block in DOCS_MD is stale",
    )
    args = parser.parse_args(argv)
    if args.write is not None:
        changed = write_docs_table(args.write)
        print(f"{args.write}: {'updated' if changed else 'already current'}")
        return 0
    if args.check is not None:
        problems = docs_table_problems(
            args.check.read_text(encoding="utf-8")
        )
        for problem in problems:
            print(f"{args.check}: {problem}", file=sys.stderr)
        return 1 if problems else 0
    print(render_name_table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
