"""Integration tests for the core detector API and experiment drivers."""

import numpy as np
import pytest

from repro.core import (
    DetectorConfig,
    MultiScalePedestrianDetector,
    run_roc_experiment,
    run_table1,
)
from repro.core.experiments import run_scaling_experiment
from repro.dataset import DatasetSizes, SyntheticPedestrianDataset, WindowSet
from repro.errors import ParameterError, TrainingError


@pytest.fixture(scope="module")
def detector(tiny_dataset):
    return MultiScalePedestrianDetector.train_default(tiny_dataset)


class TestDetectorConfig:
    def test_defaults(self):
        cfg = DetectorConfig()
        assert cfg.strategy == "feature"
        assert cfg.scales == (1.0, 1.2)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ParameterError, match="strategy"):
            DetectorConfig(strategy="cascade")


class TestTraining:
    def test_train_default_classifies_training_data(self, tiny_dataset, detector):
        train = tiny_dataset.train_windows()
        correct = sum(
            detector.classify_window(img) == bool(label)
            for img, label in zip(train.images, train.labels)
        )
        assert correct / len(train) > 0.97

    def test_generalizes_to_test_split(self, tiny_dataset, detector):
        test = tiny_dataset.test_windows()
        correct = sum(
            detector.classify_window(img) == bool(label)
            for img, label in zip(test.images, test.labels)
        )
        assert correct / len(test) > 0.85

    def test_train_rejects_single_class(self):
        ws = WindowSet(
            images=[np.random.default_rng(0).random((128, 64))] * 3,
            labels=np.array([1, 1, 1]),
        )
        with pytest.raises(TrainingError, match="both classes"):
            MultiScalePedestrianDetector.train(ws)

    def test_model_dimension_checked(self, trained_model):
        from repro.hog import HogParameters

        cfg = DetectorConfig(hog=HogParameters(window_width=72))
        with pytest.raises(ParameterError, match="descriptor"):
            MultiScalePedestrianDetector(trained_model, cfg)


class TestDetection:
    def test_full_frame_detection(self, tiny_dataset, detector):
        scene = tiny_dataset.make_scene(
            height=288, width=288, n_pedestrians=1,
            pedestrian_heights=(128, 150), scene_index=8,
        )
        result = detector.detect(scene.image)
        gt = scene.boxes[0]
        assert any(
            abs(d.top - gt.top) < 32 and abs(d.left - gt.left) < 24
            for d in result.detections
        )

    def test_score_window_shape_guard(self, detector):
        from repro.errors import ShapeError

        with pytest.raises(ShapeError):
            detector.score_window(np.zeros((64, 64)))

    def test_image_strategy_variant(self, tiny_dataset, trained_model):
        det = MultiScalePedestrianDetector(
            trained_model, DetectorConfig(strategy="image")
        )
        scene = tiny_dataset.make_scene(height=256, width=256, n_pedestrians=0)
        result = det.detect(scene.image)
        assert result.scales_used == [1.0, 1.2]


class TestPersistence:
    def test_save_load_roundtrip(self, detector, tmp_path, tiny_dataset):
        path = tmp_path / "pedestrian.npz"
        detector.save_model(path)
        loaded = MultiScalePedestrianDetector.load_model(path)
        img = tiny_dataset.test_windows().images[0]
        assert loaded.score_window(img) == pytest.approx(
            detector.score_window(img)
        )


class TestAcceleratorBridge:
    def test_to_accelerator_inherits_scales(self, detector):
        acc = detector.to_accelerator()
        assert acc.config.scales == detector.config.scales

    def test_accelerator_agrees_with_software(self, detector, tiny_dataset):
        acc = detector.to_accelerator()
        img = tiny_dataset.test_windows().images[0]
        sw_score = detector.score_window(img)
        grid = detector.extractor.extract(img)
        hw_score = acc.classifier.classify_grid(grid).scores[0, 0]
        assert hw_score == pytest.approx(sw_score, abs=0.05)


class TestExperimentDrivers:
    @pytest.fixture(scope="class")
    def small_data(self):
        return SyntheticPedestrianDataset(
            seed=13, sizes=DatasetSizes(50, 100, 30, 120)
        )

    @pytest.fixture(scope="class")
    def experiment(self, small_data):
        return run_scaling_experiment(small_data, scales=(1.1, 1.5))

    def test_table1_structure(self, experiment):
        table = experiment.table1()
        assert len(table.rows) == 2
        assert table.n_positive == 30
        assert table.n_negative == 120
        assert table.baseline.accuracy_percent > 80.0

    def test_table1_format_contains_all_scales(self, experiment):
        text = experiment.table1().format()
        assert "1.0" in text and "1.1" in text and "1.5" in text

    def test_counts_are_bounded(self, experiment):
        table = experiment.table1()
        for row in table.rows:
            assert 0 <= row.image.true_positives <= 30
            assert 0 <= row.feature.true_negatives <= 120

    def test_roc_curves(self, experiment):
        image_curve, feature_curve = experiment.roc_at_scale(1.1)
        assert 0.8 < image_curve.auc <= 1.0
        assert 0.8 < feature_curve.auc <= 1.0
        assert experiment.roc_baseline().auc > 0.8

    def test_roc_unknown_scale_raises(self, experiment):
        with pytest.raises(ParameterError, match="not part"):
            experiment.roc_at_scale(1.3)

    def test_run_table1_wrapper(self, small_data):
        table = run_table1(small_data, scales=(1.2,))
        assert len(table.rows) == 1

    def test_run_roc_wrapper(self, small_data):
        result = run_roc_experiment(small_data, scales=(1.2,))
        assert 1.2 in result.image_curves
        assert "AUC" in result.format()

    def test_rejects_downscale_protocol(self, small_data):
        with pytest.raises(ParameterError, match="up-sample"):
            run_scaling_experiment(small_data, scales=(0.9,))
