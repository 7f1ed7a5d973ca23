"""Unit tests for repro.hog.histogram."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arena import BufferArena
from repro.errors import ParameterError, ShapeError
from repro.hog import HogParameters, cell_histograms, histogram
from repro.imgproc import gradient_polar


def hard_params(**kw):
    """Parameters with spatial interpolation off — votes stay in-cell."""
    return HogParameters(spatial_interpolation=False, **kw)


def dense_oracle(mag, ori, params):
    """The dense formulation of the cell histogram.

    Every vote is scattered into a full-height pixel-row accumulator
    with the column weights applied, then one matmul against the banded
    row-weight matrix collapses pixel rows onto cell rows.  The votes
    use the kernel's own arithmetic, so only the summation order
    differs from :func:`cell_histograms`.
    """
    cs, n_bins = params.cell_size, params.n_bins
    n_rows, n_cols = mag.shape[0] // cs, mag.shape[1] // cs
    h, w = n_rows * cs, n_cols * cs
    mag, ori = mag[:h, :w], ori[:h, :w]

    def axis_votes(n_pixels, n_cells):
        if not params.spatial_interpolation:
            return [(np.arange(n_pixels) // cs, np.ones(n_pixels))]
        pos = (np.arange(n_pixels) + 0.5) / cs - 0.5
        lo = np.floor(pos).astype(np.intp)
        frac = pos - lo
        return [(np.clip(cell, 0, n_cells - 1),
                 weight * ((cell >= 0) & (cell < n_cells)))
                for cell, weight in ((lo, 1.0 - frac), (lo + 1, frac))]

    coord = ori * (1.0 / (params.orientation_span / n_bins)) - 0.5
    lo = np.floor(coord)
    w_hi = mag * (coord - lo)
    bin_votes = [(lo.astype(np.intp) % n_bins, mag - w_hi),
                 ((lo.astype(np.intp) + 1) % n_bins, w_hi)]
    acc = np.zeros((h, n_cols, n_bins))
    rows = np.broadcast_to(np.arange(h)[:, None], (h, w))
    for col, col_w in axis_votes(w, n_cols):
        cols = np.broadcast_to(col, (h, w))
        for bins, bin_w in bin_votes:
            np.add.at(acc, (rows, cols, bins), bin_w * col_w)
    row_weights = np.zeros((n_rows, h))
    for row, row_w in axis_votes(h, n_rows):
        np.add.at(row_weights, (row, np.arange(h)), row_w)
    hist = row_weights @ acc.reshape(h, n_cols * n_bins)
    return hist.reshape(n_rows, n_cols, n_bins)


@st.composite
def histogram_inputs(draw):
    """A random frame, its parameters and a strip budget.

    Sizes are rarely whole cells; a fifth of the angles sit exactly on
    a bin center, a bin edge, zero or just under the span.
    """
    cs = draw(st.sampled_from([4, 5, 8]))
    params = HogParameters(
        cell_size=cs, window_width=8 * cs, window_height=16 * cs,
        signed_gradients=draw(st.booleans()),
        spatial_interpolation=draw(st.booleans()),
    )
    h = draw(st.integers(cs, 7 * cs + cs - 1))
    w = draw(st.integers(cs, 6 * cs + cs - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = params.orientation_span
    bin_width = span / params.n_bins
    mag = rng.random((h, w))
    ori = rng.random((h, w)) * span
    special = np.array([0.0, 0.5 * bin_width, 3.0 * bin_width,
                        (params.n_bins - 0.5) * bin_width,
                        np.nextafter(span, 0.0)])
    pick = rng.random((h, w)) < 0.2
    ori[pick] = rng.choice(special, size=int(pick.sum()))
    one_cell_row = draw(st.booleans())
    return mag, ori, params, one_cell_row


class TestDenseOracle:
    """The strip-local fold equals the dense matmul formulation."""

    @given(inputs=histogram_inputs(), use_arena=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_matmul(self, inputs, use_arena):
        mag, ori, params, one_cell_row = inputs
        budget = 1 if one_cell_row else histogram.STRIP_PIXELS
        arena = BufferArena() if use_arena else None
        with mock.patch.object(histogram, "STRIP_PIXELS", budget):
            hist = cell_histograms(mag, ori, params, arena=arena)
        np.testing.assert_allclose(hist, dense_oracle(mag, ori, params),
                                   rtol=1e-12, atol=0.0)


class TestBasicAccumulation:
    def test_output_shape(self):
        mag = np.ones((32, 24))
        ori = np.zeros((32, 24))
        out = cell_histograms(mag, ori, hard_params())
        assert out.shape == (4, 3, 9)

    def test_truncates_partial_cells(self):
        mag = np.ones((19, 17))
        out = cell_histograms(mag, np.zeros_like(mag), hard_params())
        assert out.shape == (2, 2, 9)

    def test_total_energy_equals_magnitude_sum(self):
        """Bilinear orientation voting conserves total magnitude."""
        rng = np.random.default_rng(0)
        mag = rng.random((16, 16))
        ori = rng.random((16, 16)) * np.pi * 0.999
        hist = cell_histograms(mag, ori, hard_params())
        assert hist.sum() == pytest.approx(mag.sum())

    def test_energy_conserved_with_spatial_interpolation_interior(self):
        """With trilinear voting, interior pixels' mass is conserved;
        only border pixels lose the share that would fall outside."""
        mag = np.zeros((32, 32))
        mag[12:20, 12:20] = 1.0  # interior pixels only
        ori = np.full((32, 32), 0.3)
        hist = cell_histograms(mag, ori, HogParameters())
        assert hist.sum() == pytest.approx(mag.sum())

    def test_zero_magnitude_gives_zero_histogram(self):
        out = cell_histograms(
            np.zeros((16, 16)), np.ones((16, 16)), hard_params()
        )
        assert out.sum() == 0.0


class TestOrientationVoting:
    def test_bin_center_gets_full_vote(self):
        """An angle exactly at a bin center votes only into that bin."""
        p = hard_params()
        bin_width = np.pi / 9
        center_angle = 3.5 * bin_width  # center of bin 3
        mag = np.ones((8, 8))
        ori = np.full((8, 8), center_angle)
        hist = cell_histograms(mag, ori, p)[0, 0]
        assert hist[3] == pytest.approx(64.0)
        assert np.delete(hist, 3).max() == pytest.approx(0.0)

    def test_bin_edge_splits_evenly(self):
        """An angle exactly on a bin edge splits 50/50."""
        p = hard_params()
        bin_width = np.pi / 9
        edge_angle = 4.0 * bin_width  # boundary between bins 3 and 4
        mag = np.ones((8, 8))
        hist = cell_histograms(mag, np.full((8, 8), edge_angle), p)[0, 0]
        assert hist[3] == pytest.approx(32.0)
        assert hist[4] == pytest.approx(32.0)

    def test_wraparound_between_last_and_first_bin(self):
        """Angles just below pi split between bin 8 and bin 0."""
        p = hard_params()
        bin_width = np.pi / 9
        angle = np.pi - 0.25 * bin_width  # past bin 8's center
        mag = np.ones((8, 8))
        hist = cell_histograms(mag, np.full((8, 8), angle), p)[0, 0]
        assert hist[8] == pytest.approx(64.0 * 0.75)
        assert hist[0] == pytest.approx(64.0 * 0.25)

    def test_votes_proportional_to_magnitude(self):
        p = hard_params()
        ori = np.full((8, 8), 0.5 * np.pi / 9)
        weak = cell_histograms(np.full((8, 8), 0.5), ori, p)
        strong = cell_histograms(np.full((8, 8), 2.0), ori, p)
        np.testing.assert_allclose(strong, 4.0 * weak)

    def test_signed_gradients_use_full_circle(self):
        p = hard_params(signed_gradients=True)
        bin_width = 2.0 * np.pi / 9
        angle = 5.5 * bin_width
        hist = cell_histograms(
            np.ones((8, 8)), np.full((8, 8), angle), p
        )[0, 0]
        assert hist[5] == pytest.approx(64.0)


class TestSpatialInterpolation:
    def test_cell_center_pixelblock_stays_home(self):
        """Mass at a cell's center should stay mostly in that cell."""
        p = HogParameters()
        mag = np.zeros((24, 24))
        mag[11:13, 11:13] = 1.0  # center of cell (1, 1)
        ori = np.full((24, 24), 0.3)
        hist = cell_histograms(mag, ori, p)
        per_cell = hist.sum(axis=2)
        assert per_cell[1, 1] > 0.8 * mag.sum()

    def test_cell_corner_splits_four_ways(self):
        """A pixel at the junction of four cells splits across them."""
        p = HogParameters()
        mag = np.zeros((32, 32))
        mag[7:9, 7:9] = 1.0  # the 2x2 pixels around the cell corner
        ori = np.full((32, 32), 0.3)
        per_cell = cell_histograms(mag, ori, p).sum(axis=2)
        quad = per_cell[:2, :2]
        np.testing.assert_allclose(quad, quad[0, 0])
        assert quad.sum() == pytest.approx(4.0)


class TestValidation:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError, match="matching"):
            cell_histograms(np.ones((8, 8)), np.ones((8, 9)), hard_params())

    def test_rejects_subcell_image(self):
        with pytest.raises(ShapeError, match="smaller"):
            cell_histograms(np.ones((4, 4)), np.ones((4, 4)), hard_params())

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            cell_histograms(np.ones(64), np.ones(64), hard_params())

    @pytest.mark.parametrize("interpolate", [True, False])
    @pytest.mark.parametrize("use_arena", [False, True])
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_rejects_out_of_range_orientation(self, interpolate, use_arena,
                                              signed, side):
        params = HogParameters(signed_gradients=signed,
                               spatial_interpolation=interpolate)
        bin_width = params.orientation_span / params.n_bins
        ori = np.full((16, 16), 0.3)
        ori[9, 4] = (-bin_width if side == "below"
                     else params.orientation_span + bin_width)
        arena = BufferArena() if use_arena else None
        with pytest.raises(ParameterError, match="orientation"):
            cell_histograms(np.ones((16, 16)), ori, params, arena=arena)

    @pytest.mark.parametrize("use_arena", [False, True])
    def test_rejects_raw_arctan2_angles(self, use_arena):
        # Unfolded arctan2 output lies in [-pi, pi]: its negative
        # angles would otherwise wrap to other cells' bins silently.
        fy, fx = np.random.default_rng(5).standard_normal((2, 64, 64))
        arena = BufferArena() if use_arena else None
        with pytest.raises(ParameterError, match="orientation"):
            cell_histograms(np.hypot(fx, fy), np.arctan2(fy, fx),
                            HogParameters(), arena=arena)


class TestRowStrips:
    """Strip height never changes a bit of the result."""

    @staticmethod
    def _run(monkeypatch, budget, mag, ori, params, use_arena):
        monkeypatch.setattr(histogram, "STRIP_PIXELS", budget)
        arena = BufferArena() if use_arena else None
        return cell_histograms(mag, ori, params, arena=arena)

    @pytest.fixture(scope="class")
    def random_frame(self):
        # Neither dimension is a whole number of cells, and the 1080
        # kept rows are no multiple of the default 16-row strip.
        rng = np.random.default_rng(12)
        mag = rng.random((1083, 1925))
        ori = rng.random((1083, 1925)) * np.pi * 0.999
        return mag, ori

    @pytest.mark.parametrize("interpolate", [True, False])
    @pytest.mark.parametrize("use_arena", [False, True])
    def test_random_frame_bitwise_equal(self, monkeypatch, random_frame,
                                        interpolate, use_arena):
        mag, ori = random_frame
        params = HogParameters(spatial_interpolation=interpolate)
        whole = self._run(monkeypatch, mag.size, mag, ori, params,
                          use_arena)
        # One cell row per strip, then 7 cell rows (a ragged last strip).
        for budget in (1, 7 * 8 * 1920):
            strips = self._run(monkeypatch, budget, mag, ori, params,
                               use_arena)
            assert strips.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("interpolate", [True, False])
    @pytest.mark.parametrize("use_arena", [False, True])
    @pytest.mark.parametrize("angle", [0.0, np.nextafter(np.pi, 0.0)])
    def test_flat_frame_every_pixel_wraps(self, monkeypatch, interpolate,
                                          use_arena, angle):
        # Angle 0 puts every pixel's low bin at -1 and an angle just
        # under pi its high bin at n_bins: both wrap for every pixel.
        mag = np.ones((96, 80))
        ori = np.full((96, 80), angle)
        params = HogParameters(spatial_interpolation=interpolate)
        whole = self._run(monkeypatch, mag.size, mag, ori, params,
                          use_arena)
        strips = self._run(monkeypatch, 1, mag, ori, params, use_arena)
        assert strips.tobytes() == whole.tobytes()
        per_bin = whole.sum(axis=(0, 1))
        assert per_bin[0] > 0 and per_bin[-1] > 0
        assert not per_bin[1:-1].any()

    def test_hdtv_scratch_is_strip_sized(self):
        # No scratch slab of the two streaming kernels spans the frame:
        # each holds at most two strips, and the gradient and histogram
        # scratch together stay under 4 MiB at 1080x1920.
        image = np.random.default_rng(3).random((1080, 1920))
        mag, ori = np.empty_like(image), np.empty_like(image)
        arena = BufferArena()
        gradient_polar(image, out_magnitude=mag, out_orientation=ori,
                       arena=arena)
        cell_histograms(mag, ori, HogParameters(), arena=arena)
        strip_budget = 2 * histogram.STRIP_PIXELS * 8
        for name in arena.names:
            assert arena.capacity(name) <= strip_budget, name
        assert arena.slab_bytes < 4 * 2**20  # 179 MiB full-frame
