"""The correctness gate: every OK result against an in-process reference.

Each OK result is compared with ``MultiScalePedestrianDetector.detect``
run in the benchmark process on the same frame with the same model and
configuration.  In-process results (the stream workload, the replays)
carry their detections and must match box for box with bitwise-equal
scores.  The HTTP API returns a detection count per frame, so HTTP
results are gated on status and count.
"""

from __future__ import annotations

import os

SHM_DIR = "/dev/shm"


def fingerprint(detections) -> tuple:
    """Detections as exactly comparable values (scores as float hex)."""
    return tuple(
        (float(d.top), float(d.left), float(d.height), float(d.width),
         float(d.scale), d.label, float(d.score).hex())
        for d in detections
    )


def reference(workload, model_path, frames) -> list[tuple]:
    """The reference fingerprint of each distinct frame."""
    from repro.core import MultiScalePedestrianDetector

    detector = MultiScalePedestrianDetector.load_model(
        model_path, workload.detector_config()
    )
    return [fingerprint(detector.detect(frame).detections)
            for frame in frames]


def matches(outcome, expected: tuple) -> bool:
    """Does one OK outcome agree with its frame's reference?

    ``outcome.detail`` is a fingerprint for in-process results and a
    detection count for HTTP results.
    """
    if isinstance(outcome.detail, int):
        return outcome.detail == len(expected)
    return outcome.detail == expected


def shm_segments() -> set[str]:
    """The program's shared-memory segments currently present."""
    from repro.parallel import SEGMENT_PREFIX

    try:
        names = os.listdir(SHM_DIR)
    except FileNotFoundError:
        return set()
    return {name for name in names if name.startswith(SEGMENT_PREFIX)}
