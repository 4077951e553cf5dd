"""The interactive gesture-learning workflow (paper Fig. 2 / Sec. 3.1).

:class:`LearningWorkflow` wires every component of the reproduction into the
loop the paper demonstrates:

1. the Kinect stream flows through the engine and the ``kinect_t`` view,
   and, while samples are collected, into the recording controller,
2. pre-defined *control gestures* steer the tool itself: a wave arms the
   recording controller for a new sample, a two-hand swipe finalises the
   learning phase,
3. recorded samples are mined (distance-based sampling) and merged into the
   gesture description incrementally, with deviation warnings,
4. on finalisation the CEP query is generated, stored in the gesture
   database and deployed, and the workflow enters the *testing phase*, where
   the user's movements either produce detections or progress feedback that
   explains how far the best partial match got.

Besides the stream-driven path, every step can be driven programmatically
(``begin_gesture`` / ``record_sample`` / ``finalize``), which is what the
examples and benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.cep.engine import CEPEngine
from repro.cep.matcher import Detection
from repro.cep.sinks import CallbackSink
from repro.cep.views import RAW_STREAM_NAME, TRANSFORMED_STREAM_NAME, install_kinect_view
from repro.core.description import GestureDescription
from repro.core.learner import GestureLearner, LearnerConfig
from repro.core.merging import MergeResult
from repro.core.querygen import QueryGenConfig, QueryGenerator
from repro.core.validation import OverlapReport, PatternValidator
from repro.detection.controller import ControllerConfig, RecordingController, RecordingPhase
from repro.detection.detector import CONTROL_QUERY_PREFIX, GestureDetector
from repro.detection.events import DetectionFeedback, GestureEvent
from repro.errors import InvalidWorkflowStateError, RecordingError
from repro.storage.database import GestureDatabase
from repro.streams.clock import Clock, SimulatedClock
from repro.transform.pipeline import KinectTransformer

#: Query text of the pre-defined control gestures (paper Sec. 3.1).  They are
#: deliberately generous windows so they work without per-user training; the
#: workflow exposes them for reconfiguration.
WAVE_CONTROL_QUERY = """
SELECT "__control_record"
MATCHING (
  kinect_t( abs(rhand_x - 400) < 120 and abs(rhand_y - 450) < 160 ) ->
  kinect_t( abs(rhand_x - 100) < 120 and abs(rhand_y - 450) < 160 )
  within 2 seconds select first consume all
) ->
kinect_t( abs(rhand_x - 400) < 120 and abs(rhand_y - 450) < 160 )
within 2 seconds select first consume all;
"""

FINALIZE_CONTROL_QUERY = """
SELECT "__control_finalize"
MATCHING kinect_t(
  abs(rhand_x - 100) < 150 and abs(lhand_x + 100) < 150 and
  abs(rhand_y - 200) < 160 and abs(lhand_y - 200) < 160
) ->
kinect_t(
  abs(rhand_x - 600) < 200 and abs(lhand_x + 600) < 200
)
within 2 seconds select first consume all;
"""

#: Registration names of the control queries.
CONTROL_RECORD = CONTROL_QUERY_PREFIX + "record"
CONTROL_FINALIZE = CONTROL_QUERY_PREFIX + "finalize"


class WorkflowPhase(str, Enum):
    """Top-level states of the learning workflow."""

    IDLE = "idle"
    COLLECTING = "collecting"
    TESTING = "testing"


@dataclass(frozen=True)
class WorkflowConfig:
    """Configuration of the learning workflow.

    Attributes
    ----------
    min_samples:
        Minimum samples required before :meth:`LearningWorkflow.finalize`
        accepts (the paper reports 3–5 are usually sufficient).
    learner:
        Configuration template for per-gesture learners.
    querygen:
        Query-generation configuration.
    controller:
        Motion-detection / recording configuration.
    validate_on_finalize:
        Run the overlap validator against already stored gestures when a new
        gesture is finalised.
    auto_deploy:
        Deploy the generated query immediately on finalisation (the testing
        phase of the paper).
    """

    min_samples: int = 3
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    querygen: QueryGenConfig = field(default_factory=QueryGenConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    validate_on_finalize: bool = True
    auto_deploy: bool = True

    def __post_init__(self) -> None:
        if self.min_samples < 1:
            raise ValueError("min_samples must be at least 1")


class LearningWorkflow:
    """End-to-end interactive gesture learning.

    The recording controller reads the raw stream the ``kinect_t`` view
    reads, not ``kinect_t`` itself: the view computes only the joints the
    deployed queries read, while the learner needs every joint.  The
    workflow transforms the frames it records with its own
    :class:`~repro.transform.pipeline.KinectTransformer`, seeded from the
    view's smoothing state at :meth:`begin_gesture` (and again when the
    engine is cleared or restored), so a frame recorded from the stream
    equals the full frame the view would have computed, bit for bit.
    :meth:`record_sample` with ``raw=True`` transforms with the same
    transformer, and so never touches the view's state, which is session
    state no journal entry holds.  Transformed tuples pushed straight into
    ``kinect_t`` reach the control queries but are not recorded as samples;
    pass them to :meth:`record_sample` with ``raw=False``.
    """

    def __init__(
        self,
        engine: Optional[CEPEngine] = None,
        database: Optional[GestureDatabase] = None,
        config: Optional[WorkflowConfig] = None,
        clock: Optional[Clock] = None,
        deploy_control_gestures: bool = True,
        detector: Optional[GestureDetector] = None,
    ) -> None:
        self.config = config or WorkflowConfig()
        if engine is None:
            engine = detector.engine if detector is not None else None
        if engine is None:
            engine = CEPEngine(clock=clock or SimulatedClock())
            install_kinect_view(engine)
        self.engine = engine
        self.database = database or GestureDatabase(":memory:")
        # What the workflow deploys through: a detector, or anything with its
        # deploy / undeploy / deployed_gestures / events / feedback (a session).
        if detector is not None and detector.engine is not engine:
            raise InvalidWorkflowStateError(
                "the workflow's detector must share the workflow's engine"
            )
        self.detector = detector or GestureDetector(
            engine=engine, querygen_config=self.config.querygen
        )
        self.controller = RecordingController(self.config.controller)
        self.generator = QueryGenerator(self.config.querygen)
        self.validator = PatternValidator()

        self.phase = WorkflowPhase.IDLE
        self.messages: List[str] = []
        self._learner: Optional[GestureLearner] = None
        self._current_gesture: Optional[str] = None
        self._last_report: Optional[OverlapReport] = None

        self._view = self.engine.get_view(TRANSFORMED_STREAM_NAME)
        self._transformer = KinectTransformer(self._view.function.config)
        self._view.source.subscribe(self._on_raw_frame, name="workflow-controller")
        self.engine.add_control_tap(self._on_control)

        if deploy_control_gestures:
            self._deploy_control_gestures()

    # -- control-gesture wiring --------------------------------------------------------

    def _deploy_control_gestures(self) -> None:
        """Register the control queries, or adopt the ones recovery re-registered."""
        for text, name, handler in (
            (WAVE_CONTROL_QUERY, CONTROL_RECORD, self._on_record_control),
            (FINALIZE_CONTROL_QUERY, CONTROL_FINALIZE, self._on_finalize_control),
        ):
            if name not in self.engine.query_names():
                self.engine.register_query(text, name=name)
            self.engine.get_query(name).sink.add(CallbackSink(handler))

    def _on_record_control(self, detection: Detection) -> None:
        if self.phase is WorkflowPhase.COLLECTING:
            self._log("control: wave detected — move to the start pose and hold still")
            self.controller.arm()

    def _on_finalize_control(self, detection: Detection) -> None:
        if self.phase is WorkflowPhase.COLLECTING and self.sample_count >= self.config.min_samples:
            self._log("control: two-hand swipe detected — finalising gesture")
            self.finalize()

    # -- stream-driven path ---------------------------------------------------------------

    def process_frame(self, frame: Mapping[str, float]) -> None:
        """Push one raw sensor frame into the engine (streaming mode)."""
        self.engine.push(RAW_STREAM_NAME, frame)

    def process_frames(self, frames: Sequence[Mapping[str, float]]) -> int:
        for frame in frames:
            self.process_frame(frame)
        return len(frames)

    def _on_control(self, op: str, payload: Dict[str, Any]) -> None:
        if op in ("clear", "restore"):
            self._seed_transformer()

    def _seed_transformer(self) -> None:
        """Put the workflow's transformer in the view's current state."""
        self._transformer.restore_state(self._view.function.capture_state())

    def _on_raw_frame(self, frame: Mapping[str, float]) -> None:
        if self.phase is not WorkflowPhase.COLLECTING:
            return
        phase = self.controller.observe(self._transformer.transform(frame))
        if phase is RecordingPhase.COMPLETE and self.controller.has_sample:
            sample = self.controller.take_sample()
            result = self._add_transformed_sample(sample)
            self._log(
                f"recorded sample {result.sample_index + 1} "
                f"({len(sample)} frames, deviation {result.deviation:.2f})"
            )

    # -- programmatic path -----------------------------------------------------------------

    def begin_gesture(self, name: str) -> None:
        """Start collecting samples for a new gesture."""
        if self.phase is WorkflowPhase.COLLECTING:
            raise InvalidWorkflowStateError(
                f"already collecting samples for '{self._current_gesture}'"
            )
        learner_config = self.config.learner
        # The workflow always feeds the learner transformed frames.
        learner_config = LearnerConfig(
            joints=learner_config.joints,
            min_joint_path_mm=learner_config.min_joint_path_mm,
            joint_path_fraction=learner_config.joint_path_fraction,
            sampling=learner_config.sampling,
            merging=learner_config.merging,
            transform_input=False,
            stream=learner_config.stream,
        )
        self._learner = GestureLearner(name, config=learner_config)
        self._current_gesture = name
        self._seed_transformer()
        self.phase = WorkflowPhase.COLLECTING
        self._log(f"started learning gesture '{name}'")

    def record_sample(self, frames: Sequence[Mapping[str, float]], raw: bool = True) -> MergeResult:
        """Add one sample programmatically.

        Parameters
        ----------
        frames:
            The sample's sensor frames.
        raw:
            Whether the frames are raw camera frames (they are transformed
            with the workflow's own transformer, never the view's) or
            already transformed.
        """
        if self.phase is not WorkflowPhase.COLLECTING or self._learner is None:
            raise InvalidWorkflowStateError("call begin_gesture() before record_sample()")
        if not frames:
            raise RecordingError("cannot record an empty sample")
        if raw:
            frames = [self._transformer.transform(frame) for frame in frames]
        return self._add_transformed_sample(frames)

    def _add_transformed_sample(
        self, frames: Sequence[Mapping[str, float]]
    ) -> MergeResult:
        assert self._learner is not None
        result = self._learner.add_sample(frames)
        for warning in result.warnings:
            self._log(f"warning: {warning}")
        return result

    @property
    def sample_count(self) -> int:
        return self._learner.sample_count if self._learner else 0

    @property
    def current_gesture(self) -> Optional[str]:
        return self._current_gesture

    def finalize(self) -> GestureDescription:
        """Finish learning: generate, validate, store and deploy the query."""
        if self.phase is not WorkflowPhase.COLLECTING or self._learner is None:
            raise InvalidWorkflowStateError("no gesture is currently being learned")
        if self.sample_count < self.config.min_samples:
            raise InvalidWorkflowStateError(
                f"gesture '{self._current_gesture}' has only {self.sample_count} "
                f"sample(s); {self.config.min_samples} are required"
            )
        description = self._learner.description()
        query = self.generator.generate(description)
        query_text = query.to_query()

        if self.config.validate_on_finalize:
            existing = [record.description for record in self.database.all_gestures()]
            self._last_report = self.validator.validate(existing + [description])
            for first, second in self._last_report.subsumptions:
                self._log(f"validation: pattern '{first}' also detects '{second}'")

        self.database.save_gesture(description, query_text=query_text)
        if self.config.auto_deploy:
            if description.name in self.detector.deployed_gestures():
                self.detector.undeploy(description.name)
            self.detector.deploy(query, name=description.name)
            self.database.log_deployment(description.name, query_text)

        self.phase = WorkflowPhase.TESTING
        self._log(
            f"gesture '{description.name}' learned from {description.sample_count} "
            f"sample(s): {description.pose_count} poses, "
            f"{description.predicate_count()} predicates"
        )
        return description

    def accept(self) -> None:
        """Accept the tested gesture and return to the idle state."""
        if self.phase is not WorkflowPhase.TESTING:
            raise InvalidWorkflowStateError("there is no gesture under test to accept")
        self.phase = WorkflowPhase.IDLE
        self._learner = None
        self._current_gesture = None
        self._log("gesture accepted")

    def discard(self) -> None:
        """Throw away the gesture being learned or tested."""
        if self._current_gesture is not None:
            if self._current_gesture in self.detector.deployed_gestures():
                self.detector.undeploy(self._current_gesture)
            if self.database.has_gesture(self._current_gesture) and self.phase is WorkflowPhase.TESTING:
                self.database.delete_gesture(self._current_gesture)
        self.phase = WorkflowPhase.IDLE
        self._learner = None
        self._current_gesture = None
        self.controller.cancel()
        self._log("gesture discarded")

    # -- testing phase -------------------------------------------------------------------------

    def test_events(self) -> List[GestureEvent]:
        """Gesture events observed since deployment (the testing phase)."""
        return list(self.detector.events)

    def feedback(self) -> DetectionFeedback:
        """Partial-match progress of all deployed gestures (Fig. 5 feedback)."""
        return self.detector.feedback()

    @property
    def last_validation(self) -> Optional[OverlapReport]:
        return self._last_report

    # -- misc --------------------------------------------------------------------------------------

    def _log(self, message: str) -> None:
        self.messages.append(message)

    def __repr__(self) -> str:
        return (
            f"LearningWorkflow(phase={self.phase.value}, "
            f"gesture={self._current_gesture!r}, samples={self.sample_count})"
        )
