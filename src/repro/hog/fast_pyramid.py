"""Fast feature pyramids after Dollar et al. [4] — the paper's ancestor.

Dollar, Appel, Belongie, Perona (*Fast Feature Pyramids for Object
Detection*, TPAMI 2014) observed that channel features computed at one
scale predict the features at nearby scales via a power law,

    C(s) ~ C(s0) * (s / s0) ** -lambda,

so a pyramid only needs *real* feature extraction at octave scales
(1, 2, 4, ...); intermediate levels are resampled from the nearest real
level and magnitude-corrected.  "Their approach reduced the required
image resizing scales by a factor of 10" (paper, Section 2).  The
paper's own method is the lambda = 0 special case applied to
*normalized* HOG (normalization removes the power law), with a single
real level.

This module implements the genuine Dollar scheme over raw (pre-
normalization) cell histograms so the two can be compared, plus the
estimator for lambda.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.errors import ParameterError
from repro.hog.extractor import HogExtractor, HogFeatureGrid
from repro.hog.normalize import normalize_blocks
from repro.hog.scaling import scale_to_cells
from repro.imgproc.resize import Interpolation, rescale


def estimate_power_law(
    extractor: HogExtractor,
    images: Sequence[np.ndarray],
    scale: float = 2.0,
) -> float:
    """Estimate Dollar's lambda for raw HOG cell energy.

    For each image, compares mean cell-histogram energy at the original
    resolution against the image down-sampled by ``scale``;
    ``lambda = -mean(log ratio) / log(scale)``.  Dollar report
    lambda ~ 0.07 for normalized gradient channels on natural images;
    the synthetic dataset lands in the same small-positive regime.
    """
    if scale <= 1.0:
        raise ParameterError(f"scale must exceed 1.0, got {scale}")
    if not images:
        raise ParameterError("need at least one image")
    ratios = []
    for image in images:
        base = extractor.extract(image).cells.mean()
        small = extractor.extract(rescale(image, 1.0 / scale)).cells.mean()
        if base > 0 and small > 0:
            ratios.append(np.log(small / base))
    if not ratios:
        raise ParameterError("all images produced zero feature energy")
    return float(-np.mean(ratios) / np.log(scale))


@dataclasses.dataclass
class FastFeaturePyramid:
    """A Dollar-style pyramid: real octave levels + extrapolated levels.

    Attributes
    ----------
    levels:
        Per-scale feature grids, ascending scale.
    real_scales:
        The scales where features were actually extracted from pixels.
    """

    levels: list[HogFeatureGrid]
    real_scales: list[float]

    def __iter__(self):
        return iter(self.levels)

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, i: int) -> HogFeatureGrid:
        return self.levels[i]

    @property
    def scales(self) -> list[float]:
        return [level.scale for level in self.levels]

    @classmethod
    def build(
        cls,
        image: np.ndarray,
        scales: Sequence[float],
        extractor: HogExtractor,
        *,
        power_law: float = 0.07,
        octave: float = 2.0,
        method: Interpolation | str = Interpolation.BILINEAR,
    ) -> "FastFeaturePyramid":
        """Build the pyramid: extract per octave, extrapolate between.

        Parameters
        ----------
        scales:
            Requested pyramid scales (>= 1).
        power_law:
            Dollar's lambda; features resampled from a real level at
            ``s0`` to a level at ``s`` are multiplied by
            ``(s / s0) ** -power_law``.
        octave:
            Spacing of real extractions (2.0 = one per octave, Dollar's
            choice).
        """
        if not scales:
            raise ParameterError("scales must be non-empty")
        ordered = sorted(float(s) for s in scales)
        if ordered[0] < 1.0:
            raise ParameterError(f"scales must be >= 1, got {ordered[0]}")
        if octave <= 1.0:
            raise ParameterError(f"octave must exceed 1.0, got {octave}")

        params = extractor.params
        bx, by = params.blocks_per_window

        # Real levels at octave powers covering the requested range.
        max_scale = ordered[-1]
        real_scales = [1.0]
        while real_scales[-1] * octave <= max_scale * (1.0 + 1e-9):
            real_scales.append(real_scales[-1] * octave)
        real_grids: dict[float, HogFeatureGrid] = {}
        for s in real_scales:
            resized = image if s == 1.0 else rescale(image, 1.0 / s, method=method)
            if (
                resized.shape[0] < params.window_height
                or resized.shape[1] < params.window_width
            ):
                break
            grid = extractor.extract(resized)
            grid.scale = s
            real_grids[s] = grid
        if not real_grids:
            raise ParameterError("image is smaller than one detection window")

        levels = []
        for s in ordered:
            nearest = min(real_grids, key=lambda r: abs(np.log(s / r)))
            source = real_grids[nearest]
            if s == nearest:
                levels.append(source)
                continue
            rows, cols = source.cells.shape[0], source.cells.shape[1]
            out_cells = (
                max(1, round(rows * nearest / s)),
                max(1, round(cols * nearest / s)),
            )
            cells = scale_to_cells(source.cells, out_cells, method=method)
            cells = cells * (s / nearest) ** (-power_law)
            block_shape = params.block_grid_shape(*out_cells)
            if block_shape[0] < by or block_shape[1] < bx:
                continue
            blocks = normalize_blocks(cells, params)
            levels.append(
                HogFeatureGrid(cells=cells, blocks=blocks, params=params,
                               scale=float(s))
            )
        return cls(levels=levels, real_scales=sorted(real_grids))
