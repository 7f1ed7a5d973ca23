"""Unit tests for the image validators of repro.validation."""

import numpy as np
import pytest

from repro.errors import ImageError
from repro.imgproc import as_float_image, ensure_grayscale, require_min_size


class TestAsFloatImage:
    def test_grayscale_passthrough(self):
        img = np.ones((4, 5))
        out = as_float_image(img)
        assert out.shape == (4, 5)
        assert out.dtype == np.float64

    def test_integer_input_converts_without_rescaling(self):
        img = np.array([[0, 128], [255, 64]], dtype=np.uint8)
        out = as_float_image(img)
        assert out[1, 0] == 255.0

    def test_color_image_accepted(self):
        assert as_float_image(np.zeros((3, 3, 3))).shape == (3, 3, 3)

    def test_rgba_accepted(self):
        assert as_float_image(np.zeros((3, 3, 4))).shape == (3, 3, 4)

    def test_rejects_1d(self):
        with pytest.raises(ImageError, match="2-D or 3-D"):
            as_float_image(np.zeros(5))

    def test_rejects_4d(self):
        with pytest.raises(ImageError, match="2-D or 3-D"):
            as_float_image(np.zeros((2, 2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ImageError, match="empty"):
            as_float_image(np.zeros((0, 5)))

    def test_rejects_bad_channel_count(self):
        with pytest.raises(ImageError, match="channels"):
            as_float_image(np.zeros((2, 2, 2)))

    def test_rejects_nan(self):
        img = np.ones((3, 3))
        img[1, 1] = np.nan
        with pytest.raises(ImageError, match="NaN or infinite"):
            as_float_image(img)

    def test_rejects_inf(self):
        img = np.ones((3, 3))
        img[0, 0] = np.inf
        with pytest.raises(ImageError):
            as_float_image(img)

    def test_custom_name_in_message(self):
        with pytest.raises(ImageError, match="patch"):
            as_float_image(np.zeros(3), name="patch")


class TestEnsureGrayscale:
    def test_passthrough(self):
        img = np.random.default_rng(0).random((5, 6))
        np.testing.assert_array_equal(ensure_grayscale(img), img)

    def test_squeezes_singleton_channel(self):
        img = np.ones((4, 4, 1))
        assert ensure_grayscale(img).shape == (4, 4)

    def test_converts_rgb(self):
        img = np.zeros((2, 2, 3))
        img[..., 1] = 1.0  # pure green
        out = ensure_grayscale(img)
        assert out.shape == (2, 2)
        np.testing.assert_allclose(out, 0.587)


class TestRequireMinSize:
    def test_accepts_exact_size(self):
        require_min_size(np.zeros((8, 8)), 8, 8)

    def test_rejects_too_small(self):
        with pytest.raises(ImageError, match="at least"):
            require_min_size(np.zeros((7, 8)), 8, 8)
