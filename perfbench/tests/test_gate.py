from __future__ import annotations

import dataclasses

import numpy as np

from perfbench.gate import fingerprint, matches
from perfbench.loadgen import Outcome, Phase
from perfbench.run import summarize
from repro.detect.types import Detection

DETECTIONS = [Detection(10.0, 20.0, 128.0, 64.0, 1.25, 1.0),
              Detection(40.0, 96.0, 154.0, 77.0, 0.75, 1.2)]


def _perturbed():
    last = DETECTIONS[-1]
    nudged = float(np.nextafter(last.score, np.inf))
    return DETECTIONS[:-1] + [dataclasses.replace(last, score=nudged)]


def test_gate_catches_one_ulp_on_one_score():
    expected = fingerprint(DETECTIONS)
    assert matches(Outcome(0, "ok", 0.1, fingerprint(DETECTIONS)), expected)
    assert not matches(Outcome(0, "ok", 0.1, fingerprint(_perturbed())),
                       expected)


def test_gate_on_http_results_compares_counts():
    expected = fingerprint(DETECTIONS)
    assert matches(Outcome(0, "ok", 0.1, 2), expected)
    assert not matches(Outcome(0, "ok", 0.1, 1), expected)


def test_a_mismatch_counts_as_lost_and_infinitely_late():
    references = [fingerprint(DETECTIONS)]
    phase = Phase(start=0.0, end=2.0)
    phase.outcomes = [Outcome(0, "ok", 0.01, references[0])
                      for _ in range(99)]
    phase.outcomes.append(Outcome(0, "ok", 0.01, fingerprint(_perturbed())))
    summary = summarize(phase, references)
    assert summary["mismatched"] == 1 and summary["ok"] == 99
    assert summary["frame_loss_ratio"] == 0.01
    # 1 of 100 samples is infinitely late: p90 is unaffected, and an
    # infinitely late percentile would read as the phase length.
    assert summary["latency_p90_ms"] == 10.0
