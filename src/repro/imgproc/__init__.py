"""Pure-NumPy image-processing substrate.

This sub-package replaces the OpenCV / MATLAB image operations used by
the paper's software reference flow: grayscale conversion, image
resizing (the *image pyramid* of the conventional detector), gradient
computation (the first HOG stage), smoothing filters, and the drawing
primitives used by the synthetic dataset generator.

All functions accept and return ``numpy.ndarray`` images.  Grayscale
images are ``(H, W)`` float64 arrays; color images are ``(H, W, 3)``.
Pixel values are conventionally in ``[0, 1]`` but are not clipped unless
a function documents otherwise.
"""

from repro.imgproc.convert import (
    from_uint8,
    gamma_correct,
    rescale_intensity,
    rgb_to_gray,
    to_uint8,
)
from repro.imgproc.draw import (
    alpha_blend_region,
    draw_line,
    fill_ellipse,
    fill_polygon,
    fill_rectangle,
)
from repro.imgproc.filters import (
    box_blur,
    convolve2d,
    gaussian_blur,
    gaussian_kernel1d,
    separable_filter,
)
from repro.imgproc.gradients import (
    GradientFilter,
    gradient_polar,
    gradient_xy,
)
from repro.imgproc.resize import Interpolation, rescale, resize, resize_grid
from repro.validation import (
    as_float_image,
    check_canvas,
    ensure_grayscale,
    require_min_size,
)

__all__ = [
    "as_float_image",
    "check_canvas",
    "ensure_grayscale",
    "require_min_size",
    "rgb_to_gray",
    "gamma_correct",
    "rescale_intensity",
    "to_uint8",
    "from_uint8",
    "resize",
    "rescale",
    "resize_grid",
    "Interpolation",
    "gradient_xy",
    "gradient_polar",
    "GradientFilter",
    "convolve2d",
    "separable_filter",
    "gaussian_kernel1d",
    "gaussian_blur",
    "box_blur",
    "fill_rectangle",
    "fill_ellipse",
    "fill_polygon",
    "draw_line",
    "alpha_blend_region",
]
