from __future__ import annotations

import math

import numpy as np
import pytest

from perfbench.metrics import (
    MIN_BEYOND,
    MIN_SAMPLES,
    percentile,
    samples_beyond,
    tail_percentile,
    window_count,
    windowed_percentile,
)


def test_percentile_matches_numpy_linear_rule():
    values = np.random.default_rng(3).random(57).tolist()
    for q in (0, 10, 50, 90, 99, 100):
        assert percentile(values, q) == pytest.approx(
            np.percentile(values, q))


@pytest.mark.parametrize("n, supported", [(91, False), (92, True),
                                          (100, True), (1000, True)])
def test_p90_reported_only_with_ten_samples_beyond(n, supported):
    values = list(range(n))
    assert (samples_beyond(n, 90) >= MIN_BEYOND) is supported
    assert (tail_percentile(values, 90) is not None) is supported


def test_min_samples_supports_p90():
    assert samples_beyond(MIN_SAMPLES, 90) >= MIN_BEYOND


def test_lost_frames_are_infinitely_late():
    values = [0.01] * 80 + [math.inf] * 20
    assert percentile(values, 50) == 0.01
    assert math.isinf(percentile(values, 90))


def test_windowed_percentile_is_the_median_of_window_percentiles():
    calm = [0.005] * 900
    stalled = calm[:400] + [0.5] * 100 + calm[500:]    # one window stalls
    assert window_count(900) == 5
    assert windowed_percentile(stalled, 90) == 0.005
    assert windowed_percentile(calm[:150], 50) == 0.005    # one window
    assert windowed_percentile(list(range(91)), 90) is None
    # Every window stalled: the stall shows.
    assert windowed_percentile([0.5] * 900, 90) == 0.5
