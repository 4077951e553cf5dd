"""Evaluation harness: metrics, workloads and experiment runners.

The paper is a demo paper and reports its evaluation qualitatively ("3-5
samples are sufficient", "overlaps reveal fast during testing", …).  To make
those claims measurable this package provides:

* :mod:`repro.evaluation.metrics` — precision / recall / F1 and confusion
  matrices,
* :mod:`repro.evaluation.workloads` — generation of labelled train/test
  splits from the simulator (per gesture, per user),
* :mod:`repro.evaluation.harness` — experiment runners used by the
  ``benchmarks/`` directory: detection accuracy vs number of samples,
  cross-gesture confusion, overlap vs window scaling and optimisation
  impact (throughput is ``benchmarks/e2e``'s).
"""

from repro.evaluation.metrics import (
    ClassificationMetrics,
    ConfusionMatrix,
    f1_score,
    precision,
    recall,
)
from repro.evaluation.workloads import EvaluationWorkload, WorkloadConfig, build_workload
from repro.evaluation.harness import (
    AccuracyResult,
    DetectionExperiment,
    ExperimentConfig,
)

__all__ = [
    "precision",
    "recall",
    "f1_score",
    "ClassificationMetrics",
    "ConfusionMatrix",
    "WorkloadConfig",
    "EvaluationWorkload",
    "build_workload",
    "ExperimentConfig",
    "DetectionExperiment",
    "AccuracyResult",
]
