"""Experiment runners used by the benchmark suite.

Two families of experiments cover the paper's claims:

* :class:`DetectionExperiment` — learn every workload gesture from its
  training samples, deploy the generated queries on a fresh engine, replay
  the (held-out) test performances and idle segments, and score detections
  per gesture.  This powers the accuracy-vs-samples curve ("3-5 samples are
  sufficient"), the cross-user invariance experiment, the overlap study and
  the optimisation ablation.
* :func:`measure_throughput` — stream synthetic frames through an engine
  with a configurable number of deployed gesture queries and measure
  per-tuple latency and sustained throughput against the Kinect's 30 Hz.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.cep.engine import CEPEngine
from repro.cep.query import Query
from repro.cep.views import RAW_STREAM_NAME, install_kinect_view
from repro.core.description import GestureDescription
from repro.core.learner import GestureLearner, LearnerConfig
from repro.core.optimization import OptimizerConfig, PatternOptimizer
from repro.core.querygen import QueryGenConfig, QueryGenerator
from repro.detection.detector import GestureDetector
from repro.evaluation.metrics import ClassificationMetrics, ConfusionMatrix, LatencyStats
from repro.evaluation.workloads import EvaluationWorkload
from repro.kinect.recordings import Recording
from repro.streams.clock import SimulatedClock


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of a detection experiment.

    Attributes
    ----------
    training_samples:
        How many of each gesture's training samples to use (``None`` = all).
    window_scale:
        Extra scaling applied to every learned window before deployment
        (the generalisation knob of the overlap study).
    optimize:
        Run the pattern optimiser before deployment.
    learner / querygen / optimizer:
        Component configurations.
    """

    training_samples: Optional[int] = None
    window_scale: float = 1.0
    optimize: bool = False
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    querygen: QueryGenConfig = field(default_factory=QueryGenConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self) -> None:
        if self.training_samples is not None and self.training_samples < 1:
            raise ValueError("training_samples must be at least 1 when given")
        if self.window_scale <= 0:
            raise ValueError("window_scale must be positive")


@dataclass
class AccuracyResult:
    """Outcome of one detection experiment."""

    per_gesture: Dict[str, ClassificationMetrics] = field(default_factory=dict)
    confusion: Optional[ConfusionMatrix] = None
    descriptions: Dict[str, GestureDescription] = field(default_factory=dict)
    queries: Dict[str, Query] = field(default_factory=dict)
    predicate_evaluations: int = 0
    frames_processed: int = 0

    @property
    def macro_f1(self) -> float:
        if not self.per_gesture:
            return 0.0
        return sum(m.f1 for m in self.per_gesture.values()) / len(self.per_gesture)

    @property
    def macro_recall(self) -> float:
        if not self.per_gesture:
            return 0.0
        return sum(m.recall for m in self.per_gesture.values()) / len(self.per_gesture)

    @property
    def macro_precision(self) -> float:
        if not self.per_gesture:
            return 0.0
        return sum(m.precision for m in self.per_gesture.values()) / len(self.per_gesture)

    def rows(self) -> List[Dict[str, float]]:
        return [metrics.as_row() for _, metrics in sorted(self.per_gesture.items())]


class DetectionExperiment:
    """Learn → deploy → replay → score, on a generated workload."""

    def __init__(
        self,
        workload: EvaluationWorkload,
        config: Optional[ExperimentConfig] = None,
    ) -> None:
        self.workload = workload
        self.config = config or ExperimentConfig()

    # -- learning -------------------------------------------------------------------

    def learn_descriptions(self) -> Dict[str, GestureDescription]:
        """Learn one description per workload gesture from its training data."""
        descriptions: Dict[str, GestureDescription] = {}
        for gesture in self.workload.gesture_names:
            samples = self.workload.training_frames(gesture)
            if self.config.training_samples is not None:
                samples = samples[: self.config.training_samples]
            learner = GestureLearner(gesture, config=self.config.learner)
            description = learner.learn(samples)
            if self.config.window_scale != 1.0:
                description = description.scaled(self.config.window_scale)
            if self.config.optimize:
                optimizer = PatternOptimizer(self.config.optimizer)
                description, _ = optimizer.optimize(description)
            descriptions[gesture] = description
        return descriptions

    # -- full run ---------------------------------------------------------------------

    def run(self) -> AccuracyResult:
        """Execute the experiment and return per-gesture metrics."""
        descriptions = self.learn_descriptions()
        generator = QueryGenerator(self.config.querygen)
        result = AccuracyResult(descriptions=descriptions)

        detector = self._build_detector(descriptions, result, generator)
        gestures = self.workload.gesture_names
        confusion = ConfusionMatrix(gestures)
        metrics = {name: ClassificationMetrics(name) for name in gestures}

        for performed in gestures:
            for _user, recording in self.workload.test.get(performed, []):
                detected = self._replay(detector, recording)
                confusion.record(performed, detected[0] if detected else None)
                detected_set = set(detected)
                if performed in detected_set:
                    metrics[performed].true_positives += 1
                else:
                    metrics[performed].false_negatives += 1
                for other in detected_set - {performed}:
                    if other in metrics:
                        metrics[other].false_positives += 1

        for recording in self.workload.idle:
            detected = self._replay(detector, recording)
            for other in set(detected):
                if other in metrics:
                    metrics[other].false_positives += 1

        result.per_gesture = metrics
        result.confusion = confusion
        result.predicate_evaluations = sum(
            deployed.matcher.stats.predicate_evaluations
            for deployed in detector.engine.queries.values()
        )
        result.frames_processed = detector.engine.tuples_processed
        return result

    # -- helpers ------------------------------------------------------------------------

    def _build_detector(
        self,
        descriptions: Mapping[str, GestureDescription],
        result: AccuracyResult,
        generator: QueryGenerator,
    ) -> GestureDetector:
        engine = CEPEngine(clock=SimulatedClock())
        install_kinect_view(engine)
        detector = GestureDetector(engine=engine, querygen_config=self.config.querygen)
        for gesture, description in sorted(descriptions.items()):
            query = generator.generate(description)
            result.queries[gesture] = query
            detector.deploy(query)
        return detector

    @staticmethod
    def _replay(detector: GestureDetector, recording: Recording) -> List[str]:
        """Replay one recording on a clean detector; return detected gestures."""
        detector.clear()
        detector.process_frames(recording.frames)
        return [event.gesture for event in detector.events]


@dataclass
class ThroughputResult:
    """Outcome of an engine throughput measurement."""

    queries_deployed: int
    frames_processed: int
    elapsed_seconds: float
    per_tuple_latency: LatencyStats

    @property
    def tuples_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.frames_processed / self.elapsed_seconds

    @property
    def realtime_factor(self) -> float:
        """How many times faster than the Kinect's 30 Hz the engine runs."""
        return self.tuples_per_second / 30.0

    def as_row(self) -> Dict[str, float]:
        return {
            "queries": self.queries_deployed,
            "frames": self.frames_processed,
            "tuples_per_s": round(self.tuples_per_second, 1),
            "realtime_x": round(self.realtime_factor, 1),
            "mean_latency_us": round(self.per_tuple_latency.mean * 1e6, 1),
            "p95_latency_us": round(self.per_tuple_latency.p95 * 1e6, 1),
        }


def measure_throughput(
    queries: Sequence[Query],
    frames: Sequence[Mapping[str, float]],
    repeat: int = 1,
) -> ThroughputResult:
    """Measure engine throughput with ``queries`` deployed over ``frames``.

    The frames are raw sensor frames; they pass frame by frame through the
    ``kinect_t`` view and every deployed query, which is the paper's
    runtime data path.
    """
    engine = CEPEngine(clock=SimulatedClock())
    install_kinect_view(engine)
    for query in queries:
        engine.register_query(query, create_missing_streams=True)

    frames = list(frames)
    latency = LatencyStats()
    processed = 0
    start = time.perf_counter()
    for _ in range(max(1, repeat)):
        for frame in frames:
            tuple_start = time.perf_counter()
            engine.push(RAW_STREAM_NAME, frame)
            latency.add(time.perf_counter() - tuple_start)
            processed += 1
    elapsed = time.perf_counter() - start
    return ThroughputResult(
        queries_deployed=len(queries),
        frames_processed=processed,
        elapsed_seconds=elapsed,
        per_tuple_latency=latency,
    )
