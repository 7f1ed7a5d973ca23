"""Unit tests for repro.imgproc.resize."""

import numpy as np
import pytest

from repro.errors import ImageError, ParameterError
from repro.imgproc import Interpolation, rescale, resize, resize_grid


@pytest.fixture(params=[Interpolation.NEAREST, Interpolation.BILINEAR,
                        Interpolation.BICUBIC])
def method(request):
    return request.param


class TestResizeBasics:
    def test_identity_shape_is_noop(self, method):
        img = np.random.default_rng(0).random((16, 24))
        np.testing.assert_array_equal(resize(img, (16, 24), method), img)

    def test_output_shape(self, method):
        out = resize(np.zeros((10, 20)), (7, 13), method)
        assert out.shape == (7, 13)

    def test_constant_image_stays_constant(self, method):
        img = np.full((12, 12), 0.37)
        out = resize(img, (30, 5), method)
        np.testing.assert_allclose(out, 0.37, atol=1e-12)

    def test_color_image_keeps_channels(self, method):
        out = resize(np.zeros((8, 8, 3)), (4, 4), method)
        assert out.shape == (4, 4, 3)

    def test_string_method_alias(self):
        img = np.random.default_rng(1).random((8, 8))
        np.testing.assert_array_equal(
            resize(img, (4, 4), "bilinear"),
            resize(img, (4, 4), Interpolation.BILINEAR),
        )

    def test_rejects_zero_output(self):
        with pytest.raises(ParameterError, match="positive"):
            resize(np.zeros((4, 4)), (0, 4))


class TestBilinearExactness:
    def test_2x_downsample_averages_pairs(self):
        # With half-pixel centers, exact 2:1 bilinear lands midway
        # between two source samples.
        img = np.arange(8, dtype=np.float64).reshape(1, 8)
        img = np.repeat(img, 2, axis=0)
        out = resize(img, (1, 4), Interpolation.BILINEAR)
        np.testing.assert_allclose(out[0], [0.5, 2.5, 4.5, 6.5])

    def test_linear_ramp_preserved_by_upsampling(self):
        ramp = np.linspace(0.0, 1.0, 32).reshape(1, 32).repeat(4, axis=0)
        out = resize(ramp, (4, 64), Interpolation.BILINEAR)
        diffs = np.diff(out[0, 2:-2])
        assert np.all(diffs >= 0)

    def test_range_never_exceeded(self):
        rng = np.random.default_rng(3)
        img = rng.random((16, 16))
        out = resize(img, (40, 40), Interpolation.BILINEAR)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12


class TestBicubic:
    def test_smooth_signal_closer_than_nearest(self):
        x = np.linspace(0, np.pi * 2, 64)
        img = np.tile(np.sin(x), (8, 1)) * 0.5 + 0.5
        target = np.tile(np.sin(np.linspace(0, np.pi * 2, 64)), (8, 1)) * 0.5 + 0.5
        small_b = resize(img, (8, 32), Interpolation.BICUBIC)
        back_b = resize(small_b, (8, 64), Interpolation.BICUBIC)
        small_n = resize(img, (8, 32), Interpolation.NEAREST)
        back_n = resize(small_n, (8, 64), Interpolation.NEAREST)
        err_b = np.abs(back_b - target).mean()
        err_n = np.abs(back_n - target).mean()
        assert err_b < err_n

    def test_interpolates_exactly_at_sample_positions(self):
        # Upsampling by an odd integer factor keeps original samples at
        # aligned output positions for the symmetric Catmull-Rom kernel.
        img = np.random.default_rng(5).random((1, 8))
        out = resize(np.repeat(img, 4, axis=0), (4, 24), Interpolation.BICUBIC)
        np.testing.assert_allclose(out[0, 1::3][2:-2], img[0][2:-2], atol=1e-9)


class TestRescale:
    def test_scale_two_doubles_dims(self):
        assert rescale(np.zeros((5, 7)), 2.0).shape == (10, 14)

    def test_scale_below_one_shrinks(self):
        assert rescale(np.zeros((10, 10)), 0.5).shape == (5, 5)

    def test_minimum_one_pixel(self):
        assert rescale(np.zeros((2, 2)), 0.01).shape == (1, 1)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ParameterError, match="positive"):
            rescale(np.zeros((4, 4)), 0.0)

    @pytest.mark.parametrize("image", [np.zeros(5), np.array(3.0),
                                       [1.0, 2.0, 3.0]],
                             ids=["1-d", "0-d", "list"])
    def test_rejects_non_image_input(self, image):
        with pytest.raises(ImageError, match="2-D or 3-D"):
            rescale(image, 2.0)


class TestResizeGrid:
    def test_arbitrary_channel_depth(self):
        grid = np.random.default_rng(0).random((6, 8, 36))
        out = resize_grid(grid, (3, 4))
        assert out.shape == (3, 4, 36)

    def test_matches_resize_per_channel(self):
        rng = np.random.default_rng(1)
        grid = rng.random((9, 9, 5))
        out = resize_grid(grid, (5, 6))
        for c in range(5):
            np.testing.assert_allclose(
                out[..., c], resize(grid[..., c], (5, 6)), atol=1e-12
            )

    def test_rejects_empty_grid(self):
        with pytest.raises(ParameterError):
            resize_grid(np.zeros((0, 4, 9)), (2, 2))
