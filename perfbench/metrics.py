"""Latency statistics and the result line every run prints.

Metric names, units and bounds are declared once, in ``BENCHMARK.json``
at the repository root; :func:`result_line` refuses to print a metric
set that differs from that declaration.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

#: Closed-loop phases run until at least this many frames completed, the
#: smallest round count that gives p90 its ``MIN_BEYOND`` samples.
MIN_SAMPLES = 100


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (NumPy's default rule).

    ``inf`` entries (lost frames) sort last; a percentile that falls on
    or interpolates towards one is ``inf``.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    frac = rank - lo
    if frac == 0.0:
        return ordered[lo]
    low, high = ordered[lo], ordered[lo + 1]
    if math.isinf(high):
        return math.inf
    return low + (high - low) * frac


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` ranked samples lie above the ``q``-th percentile."""
    return n - 1 - math.floor(q / 100.0 * (n - 1))


def tail_percentile(values, q: float) -> float | None:
    """The ``q``-th percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


#: Most windows a timed phase's latency sample is split into.
MAX_WINDOWS = 5


def window_count(n: int) -> int:
    """Windows an ``n``-sample latency sample is split into."""
    return max(1, min(MAX_WINDOWS, n // MIN_SAMPLES))


def windowed_percentile(values, q: float) -> float | None:
    """Median over consecutive windows of the ``q``-th percentile of each.

    ``values`` are in time order.  They are split into as many
    equal-count windows of at least :data:`MIN_SAMPLES` as fit, at most
    :data:`MAX_WINDOWS`.  One window holding a stall of the host
    (seconds in which the load generator and the server both stopped)
    then moves the result no more than any other window.  ``None`` when
    a window has fewer than :data:`MIN_BEYOND` samples beyond its
    percentile.
    """
    values = list(values)
    count = window_count(len(values))
    size = len(values) // count
    windows = [values[i * size:(i + 1) * size] for i in range(count - 1)]
    windows.append(values[(count - 1) * size:])
    results = [tail_percentile(window, q) for window in windows]
    if None in results:
        return None
    return percentile(results, 50)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def declared(root: Path) -> dict:
    """``BENCHMARK.json``: the metric and workload declaration."""
    return json.loads((root / "BENCHMARK.json").read_text())


def result_line(declaration: dict, trace: bool, *, correct: bool,
                attempted: int, failed: int, values: dict) -> dict:
    """The last stdout line: exactly the declared metrics of this mode.

    Raises ``KeyError`` if ``values`` misses a declared metric or holds
    an undeclared one, so a renamed metric cannot go out silently.
    """
    specs = declaration["per_layer" if trace else "end_to_end"]
    names = {spec["name"] for spec in specs}
    if set(values) != names:
        raise KeyError(
            f"measured {sorted(set(values) ^ names)} do not match the "
            f"declaration"
        )
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            spec["name"]: {"value": float(values[spec["name"]]),
                           "unit": spec["unit"]}
            for spec in specs
        },
    }
