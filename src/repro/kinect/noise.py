"""Sensor noise models for the Kinect simulator.

Real Kinect skeleton tracking exhibits per-joint jitter of a few millimetres
to a few centimetres (depending on distance and occlusion).  The learning
pipeline must tolerate this noise — it is one of the reasons poses are
expressed as spatial windows rather than exact points — so the simulator
injects it explicitly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, Optional

import numpy as np

from repro.kinect.skeleton import JOINTS, TRACKED_AXES, joint_field


class NoiseModel(ABC):
    """Perturbs a flat ``<joint>_<axis>`` measurement dictionary in place."""

    @abstractmethod
    def apply(self, record: Dict[str, float]) -> Dict[str, float]:
        """Return a (possibly new) record with noise applied."""


class NoNoise(NoiseModel):
    """The identity noise model (useful for exact-geometry tests)."""

    def apply(self, record: Dict[str, float]) -> Dict[str, float]:
        return record


class GaussianNoise(NoiseModel):
    """Independent Gaussian jitter on every joint coordinate.

    Parameters
    ----------
    sigma_mm:
        Standard deviation of the jitter in millimetres.  Kinect-class
        skeleton tracking is typically in the 5–15 mm range at 2 m distance.
    rng:
        Numpy random generator; pass a seeded generator for reproducibility.
    joints:
        Optional subset of joints to perturb; defaults to all joints.
    """

    def __init__(
        self,
        sigma_mm: float = 8.0,
        rng: Optional[np.random.Generator] = None,
        joints: Optional[Iterable[str]] = None,
    ) -> None:
        if sigma_mm < 0:
            raise ValueError("sigma must be non-negative")
        self.sigma_mm = float(sigma_mm)
        self.rng = rng or np.random.default_rng()
        self.joints = tuple(joints) if joints is not None else JOINTS

    def apply(self, record: Dict[str, float]) -> Dict[str, float]:
        if self.sigma_mm == 0:
            return record
        noisy = dict(record)
        for joint in self.joints:
            for axis in TRACKED_AXES:
                key = joint_field(joint, axis)
                if key in noisy:
                    noisy[key] = float(noisy[key] + self.rng.normal(0.0, self.sigma_mm))
        return noisy
