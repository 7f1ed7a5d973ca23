"""Shared fixtures for the benchmark harness.

The expensive artifact — the Figure 3 scaling experiment over the full
1.1-2.0 scale sweep — is computed once per session and shared by the
Table 1, Figure 4 and crossover benches.

Dataset size is controlled by the ``REPRO_BENCH_SCALE`` environment
variable: the fraction of the paper's test-split size (1126 positive /
4530 negative) to generate.  The default 0.2 keeps the whole harness
around two minutes; set ``REPRO_BENCH_SCALE=1.0`` for the full-size
protocol run reported in EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.experiments import run_scaling_experiment
from repro.dataset import DatasetSizes, SyntheticPedestrianDataset
from repro.dataset.augment import PAPER_SCALES

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.2"))

#: Training split is kept fixed (a weak model would confound the
#: scale-sweep comparison); only the test split scales.
TRAIN_POSITIVE = 600
TRAIN_NEGATIVE = 1200


def bench_sizes() -> DatasetSizes:
    paper = DatasetSizes()
    return DatasetSizes(
        train_positive=TRAIN_POSITIVE,
        train_negative=TRAIN_NEGATIVE,
        test_positive=max(1, round(paper.test_positive * BENCH_SCALE)),
        test_negative=max(1, round(paper.test_negative * BENCH_SCALE)),
    )


@pytest.fixture(scope="session")
def bench_dataset():
    return SyntheticPedestrianDataset(seed=42, sizes=bench_sizes())


@pytest.fixture(scope="session")
def scaling_experiment(bench_dataset):
    """The full Figure 3 protocol over all ten paper scales (1.1-2.0)."""
    return run_scaling_experiment(bench_dataset, scales=PAPER_SCALES)


@pytest.fixture(scope="session")
def trained_bench_model(bench_dataset):
    """(model, extractor) trained on the bench dataset's training split."""
    from repro.core.experiments import train_window_model

    return train_window_model(bench_dataset.train_windows())


@pytest.fixture(scope="session")
def results_dir() -> Path:
    path = Path(__file__).parent / "results"
    path.mkdir(exist_ok=True)
    return path


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n")

