"""Unit tests for repro.imgproc.gradients."""

import numpy as np
import pytest

from repro.arena import BufferArena
from repro.imgproc import (
    GradientFilter,
    gradient_polar,
    gradient_xy,
    gradients,
)


class TestGradientXy:
    def test_horizontal_ramp_constant_fx(self, gradient_ramp):
        fx, fy = gradient_xy(gradient_ramp)
        interior = fx[2:-2, 2:-2]
        expected = 1.0 / 63.0  # ramp slope per pixel
        np.testing.assert_allclose(interior, expected, rtol=1e-9)
        np.testing.assert_allclose(fy[2:-2, 2:-2], 0.0, atol=1e-12)

    def test_vertical_ramp_constant_fy(self):
        img = np.tile(np.linspace(0, 1, 32)[:, None], (1, 32))
        fx, fy = gradient_xy(img)
        np.testing.assert_allclose(fx[2:-2, 2:-2], 0.0, atol=1e-12)
        np.testing.assert_allclose(fy[2:-2, 2:-2], 1.0 / 31.0, rtol=1e-9)

    def test_constant_image_zero_gradient(self):
        fx, fy = gradient_xy(np.full((16, 16), 0.5))
        assert np.abs(fx).max() == 0.0
        assert np.abs(fy).max() == 0.0

    def test_output_shapes_match_input(self):
        fx, fy = gradient_xy(np.zeros((11, 17)))
        assert fx.shape == (11, 17)
        assert fy.shape == (11, 17)

    def test_border_replication_keeps_edges_finite(self):
        rng = np.random.default_rng(0)
        fx, fy = gradient_xy(rng.random((8, 8)))
        assert np.all(np.isfinite(fx))
        assert np.all(np.isfinite(fy))

    def test_sobel_and_prewitt_scale_centered(self, gradient_ramp):
        fx_c, _ = gradient_xy(gradient_ramp, GradientFilter.CENTERED)
        fx_s, _ = gradient_xy(gradient_ramp, GradientFilter.SOBEL)
        fx_p, _ = gradient_xy(gradient_ramp, GradientFilter.PREWITT)
        # On a pure ramp, Sobel = 8x and Prewitt = 6x the [-1,0,1]/2 mask.
        mid = (8, 8)
        assert fx_s[mid] == pytest.approx(8.0 * fx_c[mid])
        assert fx_p[mid] == pytest.approx(6.0 * fx_c[mid])

    def test_string_method(self, gradient_ramp):
        fx1, _ = gradient_xy(gradient_ramp, "centered")
        fx2, _ = gradient_xy(gradient_ramp, GradientFilter.CENTERED)
        np.testing.assert_array_equal(fx1, fx2)


class TestGradientPolar:
    def test_magnitude_of_ramp(self, gradient_ramp):
        mag, _ = gradient_polar(gradient_ramp)
        np.testing.assert_allclose(mag[2:-2, 2:-2], 1.0 / 63.0, rtol=1e-9)

    def test_unsigned_orientation_in_range(self, rng):
        mag, ori = gradient_polar(rng.random((32, 32)))
        assert ori.min() >= 0.0
        assert ori.max() < np.pi

    def test_signed_orientation_in_range(self, rng):
        _, ori = gradient_polar(rng.random((32, 32)), signed=True)
        assert ori.min() >= 0.0
        assert ori.max() < 2.0 * np.pi

    def test_horizontal_edge_has_vertical_gradient(self):
        img = np.zeros((16, 16))
        img[8:, :] = 1.0
        mag, ori = gradient_polar(img)
        row = 8  # strongest response at the edge
        strongest = np.argmax(mag[:, 8])
        assert strongest in (7, 8)
        # Gradient direction is vertical: angle ~ pi/2 (unsigned).
        assert ori[row, 8] == pytest.approx(np.pi / 2.0, abs=1e-9)

    def test_vertical_edge_has_horizontal_gradient(self):
        img = np.zeros((16, 16))
        img[:, 8:] = 1.0
        _, ori = gradient_polar(img)
        assert ori[8, 8] == pytest.approx(0.0, abs=1e-9)

    def test_opposite_edges_fold_to_same_unsigned_angle(self):
        up = np.zeros((16, 16))
        up[8:, :] = 1.0
        down = 1.0 - up
        _, ori_up = gradient_polar(up)
        _, ori_down = gradient_polar(down)
        assert ori_up[8, 8] == pytest.approx(ori_down[8, 8], abs=1e-9)

    def test_magnitude_is_hypot_of_components(self, rng):
        img = rng.random((24, 24))
        fx, fy = gradient_xy(img)
        mag, _ = gradient_polar(img)
        np.testing.assert_allclose(mag, np.hypot(fx, fy))


class TestGradientPolarStrips:
    """The CENTERED strip loop is bitwise equal to the gradient_xy formula."""

    @staticmethod
    def _reference(image, signed):
        fx, fy = gradient_xy(image)
        magnitude = np.sqrt(fx * fx + fy * fy)
        orientation = np.arctan2(fy, fx)
        period = 2.0 * np.pi if signed else np.pi
        orientation = np.where(orientation < 0.0, orientation + period,
                               orientation)
        orientation[orientation >= period] = 0.0
        return magnitude, orientation

    @pytest.mark.parametrize("height", [1, 2, 3, 17])
    @pytest.mark.parametrize("width", [1, 2, 13])
    @pytest.mark.parametrize("strip_rows", [1, 2, None])
    @pytest.mark.parametrize("use_arena", [False, True])
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bitwise_equal_to_gradient_xy(self, monkeypatch, height, width,
                                          strip_rows, use_arena, signed,
                                          order):
        rng = np.random.default_rng(height * 100 + width)
        image = np.asarray(rng.random((height, width)), order=order)
        # One-row strips, two-row strips (ragged at odd heights) and a
        # single strip covering the frame.
        budget = image.size if strip_rows is None else strip_rows * width
        monkeypatch.setattr(gradients, "STRIP_PIXELS", budget)
        if use_arena:
            magnitude, orientation = gradient_polar(
                image, signed=signed, arena=BufferArena(),
                out_magnitude=np.empty(image.shape),
                out_orientation=np.empty(image.shape),
            )
        else:
            magnitude, orientation = gradient_polar(image, signed=signed)
        ref_magnitude, ref_orientation = self._reference(image, signed)
        assert magnitude.tobytes() == ref_magnitude.tobytes()
        assert orientation.tobytes() == ref_orientation.tobytes()

    def test_scratch_is_strip_sized(self):
        image = np.random.default_rng(2).random((100, 1920))
        arena = BufferArena()
        gradient_polar(image, arena=arena,
                       out_magnitude=np.empty(image.shape),
                       out_orientation=np.empty(image.shape))
        strip_rows = gradients.STRIP_PIXELS // 1920
        assert strip_rows < 100  # several strips at this width...
        assert arena.names == ("imgproc.fx", "imgproc.fy")
        for name in arena.names:  # ...and scratch for one of them
            assert arena.capacity(name) == strip_rows * 1920 * 8
