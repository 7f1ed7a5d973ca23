"""The extractor kernels' zero skips are invisible, bit for bit.

``gradient_polar`` (per row strip), ``cell_histograms``,
``normalize_blocks`` and ``resize_grid`` (per call) skip input that
:func:`repro.validation.is_positive_zero` reports as all +0.0 and
write the +0.0 their arithmetic would have produced.  The oracle is the
same kernel with that test patched to always report energy, so every
comparison here is between the skip and the full arithmetic on the
same input, compared as ``uint64`` bit patterns (signed zeros count).
"""

from __future__ import annotations

import contextlib
import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arena import BufferArena
from repro.core import MultiScalePedestrianDetector
from repro.errors import ParameterError, ReproError
from repro.hog import HogExtractor, HogParameters
from repro.hog.parameters import BlockNormalization
from repro.imgproc.resize import Interpolation
from repro.telemetry import MetricsRegistry

gradients = importlib.import_module("repro.imgproc.gradients")
resize = importlib.import_module("repro.imgproc.resize")
histogram = importlib.import_module("repro.hog.histogram")
normalize = importlib.import_module("repro.hog.normalize")

#: Every module that binds the zero test.
SKIPPING = (gradients, histogram, normalize, resize)

CS = HogParameters().cell_size


@contextlib.contextmanager
def strips(pixels: int | None):
    """Run the streaming kernels with ``STRIP_PIXELS = pixels``."""
    with pytest.MonkeyPatch.context() as mp:
        if pixels is not None:
            mp.setattr(gradients, "STRIP_PIXELS", pixels)
            mp.setattr(histogram, "STRIP_PIXELS", pixels)
        yield


@contextlib.contextmanager
def no_skip():
    """The oracle: the zero test never fires, so nothing is skipped."""
    with pytest.MonkeyPatch.context() as mp:
        for module in SKIPPING:
            mp.setattr(module, "is_positive_zero", lambda array: False)
        yield


def assert_same_bits(skip: np.ndarray, full: np.ndarray) -> None:
    assert skip.dtype == full.dtype == np.float64
    assert skip.shape == full.shape
    np.testing.assert_array_equal(skip.view(np.uint64), full.view(np.uint64))


def both(kernel, *args, **kwargs):
    """``kernel``'s result with the skip and with the oracle."""
    skip = kernel(*args, **kwargs)
    with no_skip():
        full = kernel(*args, **kwargs)
    return skip, full


# -- Inputs -------------------------------------------------------------------

#: Band fills: +0.0, -0.0 and an ordinary constant.
BAND_VALUES = (0.0, -0.0, 0.25, 0.625)


@st.composite
def row_bands(draw, texture: np.ndarray):
    """``texture`` with up to three constant row bands drawn over it.

    Band edges are either multiples of the cell size (aligned to cells
    and to the one-cell-row strips) or arbitrary rows.
    """
    image = texture.copy()
    h = image.shape[0]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            r0 = CS * draw(st.integers(0, h // CS))
            r1 = CS * draw(st.integers(r0 // CS, h // CS))
        else:
            r0 = draw(st.integers(0, h))
            r1 = draw(st.integers(r0, h))
        image[r0:r1] = draw(st.sampled_from(BAND_VALUES))
    return image


@st.composite
def frames(draw):
    """Gray frames: banded, fully constant, or +-0.0 mixes, C or F order."""
    h = draw(st.integers(CS, 9 * CS + 5))
    w = draw(st.integers(CS, 9 * CS + 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("bands", "constant", "signed-zeros")))
    if kind == "bands":
        frame = draw(row_bands(rng.random((h, w))))
    elif kind == "constant":
        frame = np.full((h, w), draw(st.sampled_from(BAND_VALUES)))
    else:
        # Zeros of both signs: differences of +0/-0 pairs give -0.0
        # derivatives.  A +0.0 band keeps some strips skippable.
        frame = np.where(rng.random((h, w)) < 0.5, 0.0, -0.0)
        r0 = draw(st.integers(0, h))
        frame[r0:draw(st.integers(r0, h))] = 0.0
    if draw(st.booleans()):
        frame = np.asfortranarray(frame)
    return frame


#: Strip budgets: the default, one-row gradient strips (one cell row
#: for the histogram), and exactly one cell row for both kernels.
STRIP_BUDGETS = st.sampled_from((None, 1, "cell-row"))


def strip_pixels(budget, width: int) -> int | None:
    return CS * width if budget == "cell-row" else budget


# -- Stage properties ---------------------------------------------------------


class TestGradientSkip:
    @given(frame=frames(), signed=st.booleans(), use_arena=st.booleans(),
           budget=STRIP_BUDGETS)
    @settings(max_examples=120, deadline=None)
    def test_matches_full_arithmetic(self, frame, signed, use_arena, budget):
        def run():
            kwargs = {}
            if use_arena:
                kwargs = dict(arena=BufferArena(),
                              out_magnitude=np.empty(frame.shape),
                              out_orientation=np.empty(frame.shape))
            return gradients.gradient_polar(frame, signed=signed, **kwargs)

        with strips(strip_pixels(budget, frame.shape[1])):
            (mag, ori), (full_mag, full_ori) = both(run)
        assert_same_bits(mag, full_mag)
        assert_same_bits(ori, full_ori)

    def test_negative_zero_strip_takes_the_normal_path(self):
        # fx = -0.0 everywhere: arctan2(+0, -0) = pi, folded to pi when
        # signed.  Skipping it would write 0.
        frame = np.zeros((16, 16))
        frame[:, 1::2] = -0.0
        frame[:, ::4] = -0.0
        _, ori = gradients.gradient_polar(frame, signed=True)
        assert (ori == np.pi).any()

    def test_flat_strips_skip_equations_1_and_2(self, monkeypatch):
        calls = []
        polar = gradients._polar_into
        monkeypatch.setattr(gradients, "_polar_into",
                            lambda fx, *rest: calls.append(len(fx))
                            or polar(fx, *rest))
        monkeypatch.setattr(gradients, "STRIP_PIXELS", 64 * 8)
        frame = np.full((64, 64), 0.3)
        frame[20:30] = np.random.default_rng(0).random((10, 64))
        gradients.gradient_polar(frame)
        # Rows 19..30 see texture: strips [16, 24) and [24, 32) only.
        assert calls == [8, 8]


@st.composite
def polar_inputs(draw):
    """(magnitude, orientation) with +0.0, -0.0 and negative bands.

    Half come from :func:`gradient_polar` of a drawn frame; the rest
    are drawn directly, magnitudes of either sign (the kernel accepts
    any), angles anywhere in the range including both wrap points.
    """
    signed = draw(st.booleans())
    if draw(st.booleans()):
        mag, ori = gradients.gradient_polar(draw(frames()), signed=signed)
        return mag, ori, signed
    h = draw(st.integers(CS, 9 * CS + 5))
    w = draw(st.integers(CS, 9 * CS + 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    texture = rng.random((h, w))
    if draw(st.booleans()):
        texture -= 0.5
    mag = draw(row_bands(texture))
    span = 2.0 * np.pi if signed else np.pi
    ori = rng.random((h, w)) * span
    pick = rng.random((h, w)) < 0.2
    ori[pick] = rng.choice([0.0, np.nextafter(span, 0.0)], int(pick.sum()))
    return mag, ori, signed


class TestHistogramSkip:
    @given(inputs=polar_inputs(), interpolate=st.booleans(),
           use_arena=st.booleans(), budget=STRIP_BUDGETS)
    @settings(max_examples=150, deadline=None)
    def test_matches_full_arithmetic(self, inputs, interpolate, use_arena,
                                     budget):
        mag, ori, signed = inputs
        params = HogParameters(signed_gradients=signed,
                               spatial_interpolation=interpolate)

        def run():
            arena = BufferArena() if use_arena else None
            return histogram.cell_histograms(mag, ori, params, arena=arena)

        with strips(strip_pixels(budget, mag.shape[1])):
            skip, full = both(run)
        assert_same_bits(skip, full)

    @pytest.mark.parametrize("textured_row", [None, 0, 17, 47])
    def test_only_an_all_zero_grid_skips_the_votes(self, monkeypatch,
                                                   textured_row):
        calls = []
        votes = histogram._orientation_votes
        monkeypatch.setattr(histogram, "_orientation_votes",
                            lambda mag, *rest: calls.append(len(mag))
                            or votes(mag, *rest))
        monkeypatch.setattr(histogram, "STRIP_PIXELS", CS * 32)
        mag = np.zeros((48, 32))
        if textured_row is not None:
            mag[textured_row] = 1.0
        histogram.cell_histograms(mag, np.zeros_like(mag), HogParameters())
        # The test is made once per grid: any energy runs every strip.
        assert calls == ([] if textured_row is None else [CS] * 6)


class TestRangeCheckOnSkippedGrids:
    """A zero-magnitude grid still rejects angles out of range."""

    @pytest.mark.parametrize("interpolate", [True, False])
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("bad", ["below", "above", "nan", "inf",
                                     "-inf", "huge"])
    @pytest.mark.parametrize("use_arena", [False, True])
    def test_same_exception_as_full_arithmetic(self, interpolate, signed,
                                               bad, use_arena):
        params = HogParameters(signed_gradients=signed,
                               spatial_interpolation=interpolate)
        span = params.orientation_span
        mag = np.zeros((32, 24))
        ori = np.full(mag.shape, 0.3)
        width = span / params.n_bins  # one bin past either end
        ori[21, 5] = {"below": -width, "above": span + width,
                      "nan": np.nan, "inf": np.inf, "-inf": -np.inf,
                      "huge": 1e300}[bad]
        errors = []
        for patch in (contextlib.nullcontext, no_skip):
            arena = BufferArena() if use_arena else None
            with patch(), strips(CS * 24), \
                    np.errstate(invalid="ignore"), \
                    pytest.raises(ReproError) as caught:
                histogram.cell_histograms(mag, ori, params, arena=arena)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        assert errors[0][0] is ParameterError

    def test_in_range_extremes_pass(self):
        params = HogParameters()
        ori = np.zeros((16, 16))
        ori[3, 3] = np.nextafter(np.pi, 0.0)
        hist = histogram.cell_histograms(np.zeros((16, 16)), ori, params)
        assert not hist.view(np.uint64).any()


@st.composite
def cell_grids(draw):
    """Cell grids: all +0.0, zero rows, +-0.0 mixes, or textured."""
    rows = draw(st.integers(2, 12))
    cols = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("zero", "rows", "signed-zeros")))
    if kind == "zero":
        return np.zeros((rows, cols, 9))
    if kind == "signed-zeros":
        return np.where(rng.random((rows, cols, 9)) < 0.9, 0.0, -0.0)
    grid = rng.random((rows, cols, 9))
    r0 = draw(st.integers(0, rows))
    grid[r0:draw(st.integers(r0, rows))] = 0.0
    return grid


class TestNormalizeSkip:
    @given(cells=cell_grids(),
           method=st.sampled_from(list(BlockNormalization)),
           epsilon=st.sampled_from((1e-6, 1.0, 1e-200)),
           use_out=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_blocks_match_full_arithmetic(self, cells, method, epsilon,
                                          use_out):
        params = HogParameters(normalization=method, epsilon=epsilon)

        @np.errstate(invalid="ignore")  # 0/0 once epsilon**2 underflows
        def run():
            if not use_out:
                return normalize.normalize_blocks(cells, params)
            out = np.empty(params.block_grid_shape(*cells.shape[:2])
                           + (params.block_dim,))
            assert normalize.normalize_blocks(cells, params, out=out) is out
            return out

        skip, full = both(run)
        assert_same_bits(skip, full)

    def test_zero_grid_skips_the_block_copy(self, monkeypatch):
        monkeypatch.setattr(normalize, "block_view", None)  # would raise
        blocks = normalize.normalize_blocks(np.zeros((6, 5, 9)),
                                            HogParameters())
        assert blocks.shape == (5, 4, 36)
        assert not blocks.view(np.uint64).any()

    def test_zero_grid_checks_out(self):
        with pytest.raises(ParameterError, match="shape"):
            normalize.normalize_blocks(np.zeros((6, 5, 9)), HogParameters(),
                                       out=np.empty((5, 4, 35)))


class TestResizeSkip:
    @given(grid=cell_grids(),
           method=st.sampled_from(list(Interpolation)),
           out_shape=st.tuples(st.integers(1, 16), st.integers(1, 16)))
    @settings(max_examples=150, deadline=None)
    def test_matches_full_arithmetic(self, grid, method, out_shape):
        skip, full = both(resize.resize_grid, grid, out_shape, method)
        assert_same_bits(skip, full)
        assert skip.strides == full.strides

    @pytest.mark.parametrize("out_shape", [(10, 12), (8, 10)])
    def test_invalid_method_on_a_zero_grid(self, out_shape):
        errors = []
        for patch in (contextlib.nullcontext, no_skip):
            with patch():
                try:
                    result = resize.resize_grid(np.zeros((10, 12, 9)),
                                                out_shape, method=None)
                except ParameterError as exc:
                    errors.append(str(exc))
                else:
                    errors.append(result.shape)
        assert errors[0] == errors[1]

    def test_zero_grid_skips_the_taps(self, monkeypatch):
        monkeypatch.setattr(resize, "_source_positions", None)
        scaled = resize.resize_grid(np.zeros((10, 12, 36)), (8, 10),
                                    Interpolation.BICUBIC)
        assert scaled.shape == (8, 10, 36)
        assert not scaled.view(np.uint64).any()


# -- Observability ------------------------------------------------------------


class TestFlatCellRowsCounter:
    def test_counts_all_zero_cell_rows(self):
        frame = np.full((128, 64), 0.4)
        frame[40:50] = np.random.default_rng(2).random((10, 64))
        registry = MetricsRegistry()
        grid = HogExtractor(telemetry=registry).extract(frame)
        flat = int((~grid.cells.reshape(16, -1).any(axis=1)).sum())
        assert 0 < flat < 16
        assert registry.counter("hog.flat_cell_rows") == flat
        HogExtractor(telemetry=registry).extract(np.zeros((128, 64)))
        assert registry.counter("hog.flat_cell_rows") == flat + 16


# -- Detector level -----------------------------------------------------------


@pytest.mark.parametrize("name", ["hdtv-stream", "vga-http", "roi-burst"])
def test_workload_detections_identical(name, workloads, trained_model):
    workload = workloads.WORKLOADS[name]
    detector = MultiScalePedestrianDetector(
        trained_model, workload.detector_config())

    def boxes(frame):
        return [(d.top, d.left, d.height, d.width, d.scale,
                 float(d.score).hex())
                for d in detector.detect(frame).detections]

    frames = workloads.make_frames(workload, 1)
    skip = [boxes(frame) for frame in frames]
    with no_skip():
        full = [boxes(frame) for frame in frames]
    assert skip == full
    assert any(skip)
