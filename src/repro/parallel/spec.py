"""Picklable detector hand-off for worker processes.

The process backend cannot ship a live detector: it holds NumPy views,
an open telemetry registry and (for the accelerator) banked-memory
state.  What crosses the process boundary instead is a
:class:`DetectorSpec` — the trained hyper-plane plus the
:class:`~repro.core.config.DetectorConfig`, which together are the
*complete* recipe for a detector (that is the point of the config
object).  Workers rebuild from the spec exactly once and cache the
result per process, keyed by :meth:`DetectorSpec.cache_key`, so a
long-lived worker re-used across pools warm-starts for free.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
from typing import Any, TYPE_CHECKING

import numpy as np

from repro.errors import ParallelError

if TYPE_CHECKING:
    from repro.core.pipeline import MultiScalePedestrianDetector


@dataclasses.dataclass(frozen=True, eq=False)
class DetectorSpec:
    """Everything a worker process needs to rebuild a detector.

    Attributes
    ----------
    weights, bias:
        The trained linear SVM hyper-plane (model data).
    config:
        The full :class:`~repro.core.config.DetectorConfig`; its
        ``telemetry`` flag decides whether the rebuilt worker detector
        records per-stage telemetry (each worker owns a private
        registry — process isolation is what makes per-worker
        telemetry safe where the thread backend must disable it).
        The config also carries the detection ``threshold``, so workers
        rebuild the cascade scorer with the parent's rejection bound;
        the scorer's partial-score plan cache
        (:func:`repro.detect.scoring.plan_for`) lives on each worker's
        rebuilt model, so every worker pays one plan build per window
        geometry and hits the cache for the rest of its lifetime —
        plans never cross the process boundary.
    """

    weights: np.ndarray
    bias: float
    config: Any  # DetectorConfig; typed loosely to avoid import cycle

    @classmethod
    def from_detector(cls, detector: object) -> "DetectorSpec":
        """Extract a spec from anything with ``.model`` and ``.config``."""
        model = getattr(detector, "model", None)
        config = getattr(detector, "config", None)
        if model is None or config is None:
            raise ParallelError(
                "the process backend needs detector.model/.config to "
                "rebuild per-worker detectors; "
                f"{type(detector).__name__} exposes neither"
            )
        return cls(
            weights=np.asarray(model.weights, dtype=np.float64),
            bias=float(model.bias),
            config=config,
        )

    def to_bytes(self) -> bytes:
        """Pickle the spec, raising :class:`ParallelError` if it cannot.

        Failing here — in the parent, before any process exists —
        turns an obscure worker-side crash into an actionable error.
        """
        try:
            return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise ParallelError(
                f"detector spec is not picklable: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def cache_key(self) -> str:
        """Stable digest of the model + config (per-process cache key)."""
        payload = pickle.dumps(
            (self.weights.tobytes(), self.weights.shape, self.bias,
             self.config),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        return hashlib.sha256(payload).hexdigest()

    def build(self) -> "MultiScalePedestrianDetector":
        """Construct the detector this spec describes."""
        from repro.core.pipeline import MultiScalePedestrianDetector
        from repro.svm.model import LinearSvmModel

        return MultiScalePedestrianDetector(
            LinearSvmModel(self.weights, self.bias), self.config
        )
