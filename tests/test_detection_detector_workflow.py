"""Unit tests for the gesture detector, events and the learning workflow."""

import pytest

from repro.api import GestureSession
from repro.cep.matcher import Detection
from repro.detection import (
    DetectionFeedback,
    GestureDetector,
    GestureEvent,
    LearningWorkflow,
    WorkflowConfig,
    WorkflowPhase,
)
from repro.errors import (
    BindingError,
    GestureNotFoundError,
    InvalidWorkflowStateError,
    RecordingError,
)
from repro.storage import GestureDatabase
from repro.streams import SimulatedClock


class TestGestureEvent:
    def test_from_detection_copies_measures(self):
        detection = Detection(
            output="swipe", query_name="swipe", timestamp=2.0, start_timestamp=1.0,
            step_timestamps=(1.0, 2.0),
            matched=({"rhand_x": 1.0}, {"rhand_x": 800.0, "rhand_y": 150.0}),
        )
        event = GestureEvent.from_detection(detection)
        assert event.gesture == "swipe"
        assert event.duration == pytest.approx(1.0)
        assert event.measures["rhand_x"] == 800.0

    def test_from_detection_without_matched_tuples(self):
        detection = Detection(
            output="swipe", query_name="swipe", timestamp=2.0, start_timestamp=1.0,
            step_timestamps=(1.0, 2.0), matched=None,
        )
        assert GestureEvent.from_detection(detection).measures == {}


class TestDetectionFeedback:
    def test_best_candidate(self):
        feedback = DetectionFeedback(timestamp=0.0, progress={"a": 0.2, "b": 0.8})
        assert feedback.best_candidate() == "b"

    def test_best_candidate_none_when_no_progress(self):
        assert DetectionFeedback(timestamp=0.0, progress={"a": 0.0}).best_candidate() is None
        assert DetectionFeedback(timestamp=0.0).best_candidate() is None

    def test_describe(self):
        feedback = DetectionFeedback(timestamp=0.0, progress={"a": 0.5})
        assert "a: 50%" in feedback.describe()
        assert DetectionFeedback(timestamp=0.0).describe() == "no gestures deployed"


class TestGestureDetector:
    def test_deploy_description_and_detect(self, swipe_description, simulator, swipe):
        detector = GestureDetector()
        detector.deploy(swipe_description)
        assert detector.deployed_gestures() == ["swipe_right"]
        detector.process_frames(simulator.perform_variation(swipe, hold_start_s=0.2, hold_end_s=0.2))
        assert [event.gesture for event in detector.events] == ["swipe_right"]

    def test_deploy_query_text(self):
        detector = GestureDetector()
        detector.deploy('SELECT "up" MATCHING kinect_t(rhand_y > 10000);')
        assert "up" in detector.deployed_gestures()

    def test_undeploy(self, swipe_description):
        detector = GestureDetector()
        detector.deploy(swipe_description)
        detector.undeploy("swipe_right")
        assert detector.deployed_gestures() == []
        with pytest.raises(GestureNotFoundError):
            detector.undeploy("swipe_right")

    def test_undeploy_by_the_name_it_was_deployed_under(self):
        detector = GestureDetector()
        detector.deploy('SELECT "up" MATCHING kinect_t(rhand_y > 10000);', name="up_v2")
        assert detector.deployed_gestures() == ["up_v2"]
        detector.undeploy("up_v2")
        assert detector.deployed_gestures() == []
        assert detector.engine.query_names() == []

    def test_handlers_per_gesture_and_global(self, swipe_description, simulator, swipe):
        detector = GestureDetector()
        detector.deploy(swipe_description)
        specific, all_events = [], []
        detector.on_gesture("swipe_right", specific.append)
        detector.on_any_gesture(all_events.append)
        detector.process_frames(simulator.perform_variation(swipe, hold_start_s=0.2, hold_end_s=0.2))
        assert len(specific) == 1
        assert len(all_events) == 1

    def test_handler_must_be_callable(self):
        detector = GestureDetector()
        with pytest.raises(BindingError):
            detector.on_gesture("x", "not callable")
        with pytest.raises(BindingError):
            detector.on_any_gesture(None)

    def test_enable_disable(self, swipe_description, simulator, swipe):
        detector = GestureDetector()
        detector.deploy(swipe_description)
        detector.set_enabled("swipe_right", False)
        detector.process_frames(simulator.perform_variation(swipe))
        assert detector.events == []
        with pytest.raises(GestureNotFoundError):
            detector.set_enabled("ghost", True)

    def test_feedback_reports_progress(self, swipe_description, simulator, swipe):
        detector = GestureDetector()
        detector.deploy(swipe_description)
        frames = simulator.perform_variation(swipe, hold_start_s=0.2)
        detector.process_frames(frames[: len(frames) // 2])
        feedback = detector.feedback()
        assert 0.0 < feedback.progress["swipe_right"] < 1.0
        assert feedback.active_runs["swipe_right"] >= 1

    def test_clear_resets_events_and_matchers(self, swipe_description, simulator, swipe):
        detector = GestureDetector()
        detector.deploy(swipe_description)
        detector.process_frames(simulator.perform_variation(swipe, hold_start_s=0.2, hold_end_s=0.2))
        detector.clear()
        assert detector.events == []
        assert detector.detections() == []

    def test_clear_resets_kinect_transformer_state(self, swipe_description, simulator, swipe):
        # clear() is the "new user steps in" hook: it must also drop the
        # kinect view's smoothed scale, or the previous user's body size
        # skews the next user's first seconds.
        detector = GestureDetector()
        detector.deploy(swipe_description)
        transformer = detector.transformer
        assert transformer is not None
        detector.process_frames(simulator.perform_variation(swipe))
        assert transformer.frames_transformed > 0
        detector.clear()
        assert transformer.frames_transformed == 0
        assert transformer.active_partitions == 0
        assert transformer.smoothed_scale(1) is None

    def test_transformer_exposed_for_external_engines(self):
        from repro.cep import CEPEngine
        from repro.cep.views import install_kinect_view

        engine = CEPEngine(clock=SimulatedClock())
        view = install_kinect_view(engine)
        detector = GestureDetector(engine=engine)
        assert detector.transformer is view.function
        assert detector.transformers == [view.function]

    def test_deploy_vocabulary_from_database(self, swipe_description):
        database = GestureDatabase(":memory:")
        database.save_gesture(swipe_description)
        with GestureSession() as session:
            assert session.deploy_vocabulary(database) == ["swipe_right"]
            assert session.detector.deployed_gestures() == ["swipe_right"]
            assert not hasattr(session.detector, "deploy_from_database")


class TestLearningWorkflow:
    def _samples(self, simulator, trajectory, count=3):
        return [
            simulator.perform_variation(trajectory, hold_start_s=0.3, hold_end_s=0.3)
            for _ in range(count)
        ]

    def test_programmatic_learning_cycle(self, simulator, swipe):
        workflow = LearningWorkflow()
        assert workflow.phase is WorkflowPhase.IDLE
        workflow.begin_gesture("swipe_right")
        assert workflow.phase is WorkflowPhase.COLLECTING
        for sample in self._samples(simulator, swipe):
            workflow.record_sample(sample)
        description = workflow.finalize()
        assert workflow.phase is WorkflowPhase.TESTING
        assert description.name == "swipe_right"
        assert workflow.database.has_gesture("swipe_right")
        assert "swipe_right" in workflow.detector.deployed_gestures()
        workflow.accept()
        assert workflow.phase is WorkflowPhase.IDLE

    def test_testing_phase_detects_new_performance(self, simulator, swipe):
        workflow = LearningWorkflow()
        workflow.begin_gesture("swipe_right")
        for sample in self._samples(simulator, swipe):
            workflow.record_sample(sample)
        workflow.finalize()
        workflow.process_frames(
            simulator.perform_variation(swipe, hold_start_s=0.2, hold_end_s=0.2)
        )
        assert [event.gesture for event in workflow.test_events()] == ["swipe_right"]
        assert isinstance(workflow.feedback(), DetectionFeedback)

    def test_finalize_requires_min_samples(self, simulator, swipe):
        workflow = LearningWorkflow(config=WorkflowConfig(min_samples=3))
        workflow.begin_gesture("swipe_right")
        workflow.record_sample(simulator.perform_variation(swipe, hold_start_s=0.3, hold_end_s=0.3))
        with pytest.raises(InvalidWorkflowStateError):
            workflow.finalize()

    def test_state_machine_guards(self, simulator, swipe):
        workflow = LearningWorkflow()
        with pytest.raises(InvalidWorkflowStateError):
            workflow.record_sample(simulator.perform_variation(swipe))
        with pytest.raises(InvalidWorkflowStateError):
            workflow.finalize()
        with pytest.raises(InvalidWorkflowStateError):
            workflow.accept()
        workflow.begin_gesture("swipe_right")
        with pytest.raises(InvalidWorkflowStateError):
            workflow.begin_gesture("another")
        with pytest.raises(RecordingError):
            workflow.record_sample([])

    def test_discard_removes_gesture(self, simulator, swipe):
        workflow = LearningWorkflow()
        workflow.begin_gesture("swipe_right")
        for sample in self._samples(simulator, swipe):
            workflow.record_sample(sample)
        workflow.finalize()
        workflow.discard()
        assert workflow.phase is WorkflowPhase.IDLE
        assert not workflow.database.has_gesture("swipe_right")
        assert "swipe_right" not in workflow.detector.deployed_gestures()

    def test_validation_detects_overlap_with_existing_gesture(self, simulator, swipe):
        workflow = LearningWorkflow()
        # Learn the same movement twice under two different names: the second
        # one must trigger an overlap/subsumption message.
        for name in ("first_swipe", "second_swipe"):
            workflow.begin_gesture(name)
            for sample in self._samples(simulator, swipe):
                workflow.record_sample(sample)
            workflow.finalize()
            workflow.accept()
        report = workflow.last_validation
        assert report is not None
        assert report.has_conflicts

    def test_relearning_same_gesture_redeploys(self, simulator, swipe):
        workflow = LearningWorkflow()
        for _ in range(2):
            workflow.begin_gesture("swipe_right")
            for sample in self._samples(simulator, swipe):
                workflow.record_sample(sample)
            workflow.finalize()
            workflow.accept()
        assert workflow.detector.deployed_gestures().count("swipe_right") == 1

    def test_control_gestures_are_deployed(self):
        workflow = LearningWorkflow()
        names = workflow.engine.query_names()
        assert "__control_record" in names
        assert "__control_finalize" in names

    def test_control_gestures_can_be_disabled(self):
        workflow = LearningWorkflow(deploy_control_gestures=False)
        assert workflow.engine.query_names() == []

    def test_min_samples_validation(self):
        with pytest.raises(ValueError):
            WorkflowConfig(min_samples=0)
