"""Unit tests for repro.imgproc.convert."""

import numpy as np
import pytest

from repro.errors import ImageError, ParameterError
from repro.imgproc import (
    from_uint8,
    gamma_correct,
    rescale_intensity,
    rgb_to_gray,
    to_uint8,
)


class TestRgbToGray:
    def test_luma_weights(self):
        img = np.zeros((1, 3, 3))
        img[0, 0] = [1.0, 0.0, 0.0]
        img[0, 1] = [0.0, 1.0, 0.0]
        img[0, 2] = [0.0, 0.0, 1.0]
        out = rgb_to_gray(img)
        np.testing.assert_allclose(out[0], [0.299, 0.587, 0.114])

    def test_white_maps_to_one(self):
        np.testing.assert_allclose(rgb_to_gray(np.ones((2, 2, 3))), 1.0)

    def test_rgba_alpha_ignored(self):
        img = np.ones((2, 2, 4))
        img[..., 3] = 0.0
        np.testing.assert_allclose(rgb_to_gray(img), 1.0)

    def test_rejects_grayscale(self):
        with pytest.raises(ImageError, match="expects an"):
            rgb_to_gray(np.ones((4, 4)))


class TestGammaCorrect:
    def test_sqrt_compression(self):
        img = np.full((2, 2), 0.25)
        np.testing.assert_allclose(gamma_correct(img, 0.5), 0.5)

    def test_identity(self):
        img = np.random.default_rng(0).random((4, 4))
        np.testing.assert_allclose(gamma_correct(img, 1.0), img)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ParameterError, match="gamma"):
            gamma_correct(np.ones((2, 2)), 0.0)

    def test_rejects_negative_pixels(self):
        with pytest.raises(ImageError, match="non-negative"):
            gamma_correct(np.full((2, 2), -0.5), 0.5)


class TestRescaleIntensity:
    def test_full_range(self):
        img = np.array([[2.0, 4.0], [6.0, 8.0]])
        out = rescale_intensity(img)
        assert out.min() == 0.0
        assert out.max() == 1.0

    def test_custom_range(self):
        img = np.array([[0.0, 1.0]])
        out = rescale_intensity(img, (10.0, 20.0))
        np.testing.assert_allclose(out, [[10.0, 20.0]])

    def test_constant_image_maps_to_lower_bound(self):
        out = rescale_intensity(np.full((3, 3), 7.0), (0.2, 0.9))
        np.testing.assert_allclose(out, 0.2)

    def test_rejects_degenerate_range(self):
        with pytest.raises(ParameterError, match="increasing"):
            rescale_intensity(np.ones((2, 2)), (1.0, 1.0))


class TestUint8Roundtrip:
    def test_roundtrip(self):
        img = np.linspace(0, 1, 256).reshape(16, 16)
        back = from_uint8(to_uint8(img))
        assert np.abs(back - img).max() <= 1.0 / 255.0

    def test_to_uint8_clips(self):
        img = np.array([[-0.5, 1.5]])
        out = to_uint8(img)
        assert out[0, 0] == 0
        assert out[0, 1] == 255

    def test_from_uint8_rejects_float(self):
        with pytest.raises(ImageError, match="uint8"):
            from_uint8(np.ones((2, 2)))

    @pytest.mark.parametrize(
        "shape",
        [(4,), (0, 4), (4, 0), (2, 2, 2), (2, 2, 5), (1, 2, 2, 3)],
        ids=["1-d", "no-rows", "no-cols", "2-channel", "5-channel", "4-d"],
    )
    def test_from_uint8_rejects_what_to_uint8_rejects(self, shape):
        with pytest.raises(ImageError):
            to_uint8(np.zeros(shape))
        with pytest.raises(ImageError):
            from_uint8(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("shape", [(3, 5), (3, 5, 1), (3, 5, 3), (3, 5, 4)])
    def test_from_uint8_values_are_bitwise_unchanged(self, shape):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
        out = from_uint8(img)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(
            out.view(np.uint64), (img.astype(np.float64) / 255.0).view(np.uint64)
        )
