"""Unit tests for repro.hog.histogram."""

import numpy as np
import pytest

from repro.arena import BufferArena
from repro.errors import ShapeError
from repro.hog import HogParameters, cell_histograms, histogram


def hard_params(**kw):
    """Parameters with spatial interpolation off — votes stay in-cell."""
    return HogParameters(spatial_interpolation=False, **kw)


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
        # Only the pixel-row accumulator and the row-weight matrix span
        # the frame; every other slab holds at most two strips.
        rng = np.random.default_rng(3)
        mag = rng.random((1080, 1920))
        ori = rng.random((1080, 1920)) * np.pi * 0.999
        arena = BufferArena()
        cell_histograms(mag, ori, HogParameters(), arena=arena)
        full_height = {"hog.hist_acc": 1080 * 240 * 9 * 8,
                       "hog.row_weights": 135 * 1080 * 8}
        for name, nbytes in full_height.items():
            assert arena.capacity(name) == nbytes
        strip_budget = 2 * histogram.STRIP_PIXELS * 8
        for name in set(arena.names) - set(full_height):
            assert arena.capacity(name) <= strip_budget, name
        assert arena.slab_bytes < 24 * 2**20  # 179 MiB full-frame
