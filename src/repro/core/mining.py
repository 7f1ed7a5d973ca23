"""Hard-negative mining (bootstrapping) — the INRIA training protocol.

Dalal & Triggs [3] train in two passes: fit an initial model on random
negatives, scan person-free images exhaustively, collect the false
positives ("hard negatives"), and retrain with them appended.  Every
serious HOG+SVM deployment — including models destined for the paper's
accelerator, whose training happens off-line — uses this loop; it is
what turns a window classifier into a usable full-frame detector.

:func:`mine_hard_negatives` runs the scan over negative scenes;
:func:`bootstrap_train` wraps the full iterate-until-quiet loop.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.dataset.windows import WindowSet
from repro.detect.sliding import classify_grid
from repro.errors import ParameterError, TrainingError
from repro.hog.extractor import HogExtractor
from repro.svm.model import LinearSvmModel
from repro.svm.trainer import TrainOptions, train_linear_svm


def mine_hard_negatives(
    model: LinearSvmModel,
    extractor: HogExtractor,
    negative_images: Sequence[np.ndarray],
    *,
    threshold: float = 0.0,
    max_per_image: int = 20,
) -> list[np.ndarray]:
    """Collect false-positive windows from person-free images.

    Every window of every image is scored; windows above ``threshold``
    are cropped and returned (highest-scoring first, at most
    ``max_per_image`` per image).
    """
    if max_per_image < 1:
        raise ParameterError(f"max_per_image must be >= 1, got {max_per_image}")
    params = extractor.params
    cell = params.cell_size
    wh, ww = params.window_height, params.window_width
    hard: list[np.ndarray] = []
    for image in negative_images:
        if image.shape[0] < wh or image.shape[1] < ww:
            continue
        grid = extractor.extract(image)
        scores = classify_grid(grid, model, threshold=threshold)
        if scores.size == 0:
            continue
        rows, cols = np.nonzero(scores > threshold)
        if rows.size == 0:
            continue
        order = np.argsort(-scores[rows, cols])[:max_per_image]
        for idx in order:
            top = rows[idx] * cell
            left = cols[idx] * cell
            hard.append(image[top : top + wh, left : left + ww].copy())
    return hard


@dataclasses.dataclass
class BootstrapResult:
    """Outcome of the bootstrapping loop."""

    model: LinearSvmModel
    rounds: int
    hard_negatives_added: list[int]

    @property
    def total_added(self) -> int:
        return sum(self.hard_negatives_added)


def bootstrap_train(
    train_windows: WindowSet,
    negative_images: Sequence[np.ndarray],
    extractor: HogExtractor | None = None,
    options: TrainOptions | None = None,
    *,
    max_rounds: int = 3,
    mining_threshold: float = 0.0,
    max_per_image: int = 20,
) -> BootstrapResult:
    """Train, mine, retrain — until quiet or ``max_rounds``.

    Parameters
    ----------
    train_windows:
        Initial labeled windows (positives + random negatives).
    negative_images:
        Person-free full images to scan for hard negatives (the INRIA
        protocol's negative set).
    max_rounds:
        Mining rounds; the loop also stops early when a scan finds no
        false positives.
    """
    if max_rounds < 1:
        raise ParameterError(f"max_rounds must be >= 1, got {max_rounds}")
    if train_windows.n_positive == 0 or train_windows.n_negative == 0:
        raise TrainingError("bootstrap needs both classes in the initial set")
    extractor = extractor if extractor is not None else HogExtractor()

    descriptors = [extractor.extract_window(w) for w in train_windows.images]
    labels = list(train_windows.labels)

    model = train_linear_svm(np.stack(descriptors), np.asarray(labels), options)
    added_per_round: list[int] = []
    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        hard = mine_hard_negatives(
            model,
            extractor,
            negative_images,
            threshold=mining_threshold,
            max_per_image=max_per_image,
        )
        added_per_round.append(len(hard))
        if not hard:
            break
        descriptors.extend(extractor.extract_window(w) for w in hard)
        labels.extend([0] * len(hard))
        model = train_linear_svm(
            np.stack(descriptors), np.asarray(labels), options
        )
    return BootstrapResult(
        model=model, rounds=rounds, hard_negatives_added=added_per_round
    )
