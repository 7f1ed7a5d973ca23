"""Shared fixtures.

Heavy artifacts (the synthetic dataset and a trained SVM) are session
scoped: training a pedestrian model once (~5 s) serves every test that
needs realistic weights.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.experiments import train_window_model
from repro.dataset import DatasetSizes, SyntheticPedestrianDataset
from repro.hog import HogExtractor, HogParameters


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def default_params():
    return HogParameters()


@pytest.fixture(scope="session")
def extractor(default_params):
    return HogExtractor(default_params)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small but learnable dataset shared across the suite."""
    return SyntheticPedestrianDataset(
        seed=7, sizes=DatasetSizes(80, 160, 30, 120)
    )


@pytest.fixture(scope="session")
def trained(tiny_dataset):
    """(model, extractor) trained on the tiny dataset's training split."""
    return train_window_model(tiny_dataset.train_windows())


@pytest.fixture(scope="session")
def trained_model(trained):
    return trained[0]


@pytest.fixture()
def gradient_ramp():
    """A horizontal intensity ramp: constant fx, zero fy."""
    return np.tile(np.linspace(0.0, 1.0, 64), (64, 1))


@pytest.fixture()
def checkerboard():
    base = np.indices((64, 64)).sum(axis=0) % 2
    return base.astype(np.float64)


@pytest.fixture(scope="session")
def workloads():
    """``perfbench/workloads.py``, loaded from its file."""
    name = "perfbench_workloads"
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, name, module)  # for its dataclass
        spec.loader.exec_module(module)
    return module
