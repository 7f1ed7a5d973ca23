"""Reproduction of *Real-Time Multi-Scale Pedestrian Detection for Driver
Assistance Systems* (Hemmati, Biglari-Abhari, Niar, Berber — DAC 2017).

The package is organized as one sub-package per subsystem:

``repro.imgproc``
    Pure-NumPy image-processing substrate (resize, gradients, filtering,
    drawing) — replaces the OpenCV/MATLAB operations the paper relied on.
``repro.hog``
    Histogram-of-Oriented-Gradients feature extraction, block
    normalization, and the paper's novel *feature down-scaling* module
    used to build HOG feature pyramids.
``repro.svm``
    Linear support vector machine: model, LibLinear-style dual
    coordinate-descent trainer and a Pegasos SGD trainer.
``repro.dataset``
    Synthetic INRIA-substitute pedestrian dataset (seeded, deterministic)
    and the paper's test-set up-sampling protocol.
``repro.detect``
    Sliding-window detection, the conventional image-pyramid detector and
    the proposed feature-pyramid detector, non-maximum suppression.
``repro.eval``
    Accuracy / TP / TN tables, ROC curves, AUC and EER.
``repro.hardware``
    Cycle-level behavioural model of the FPGA accelerator: fixed-point
    arithmetic, banked N-HOGMem, MAC / MACBAR / pipelined SVM classifier
    array, shift-and-add scalers, timing and resource models.
``repro.das``
    Driver-assistance kinematics from the paper's introduction
    (perception-reaction time, braking and stopping distances).
``repro.telemetry``
    Stage-level observability: timing spans, counters, gauges and JSON
    snapshots for the detection hot path (off by default; enable with
    ``DetectorConfig(telemetry=True)`` or ``repro-das profile``).
``repro.stream``
    Streaming frame pipeline: producer/worker/collector around the
    detector behind an admission quota with explicit backpressure,
    per-frame fault
    isolation and in-order emission (``repro-das stream``,
    docs/STREAMING.md).
``repro.core``
    The paper's primary contribution assembled into a user-facing API:
    :class:`repro.core.MultiScalePedestrianDetector`.

Quickstart
----------
>>> from repro.core import MultiScalePedestrianDetector, DetectorConfig
>>> from repro.dataset import SyntheticPedestrianDataset
>>> data = SyntheticPedestrianDataset(seed=0)
>>> det = MultiScalePedestrianDetector.train_default(data, seed=0)
>>> scene = data.make_scene(height=480, width=640, n_pedestrians=2)
>>> detections = det.detect(scene.image)
"""

from repro._version import __version__

__all__ = ["__version__"]
