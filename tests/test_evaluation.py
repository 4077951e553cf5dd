"""Unit tests for metrics, workload generation and the experiment harness."""

import pytest

from repro.cep.parser import parse_query
from repro.evaluation import (
    ClassificationMetrics,
    ConfusionMatrix,
    DetectionExperiment,
    ExperimentConfig,
    WorkloadConfig,
    build_workload,
    f1_score,
    precision,
    recall,
)


class TestMetrics:
    def test_precision_recall_f1_basic(self):
        assert precision(8, 2) == pytest.approx(0.8)
        assert recall(8, 2) == pytest.approx(0.8)
        assert f1_score(0.5, 1.0) == pytest.approx(2 / 3)

    def test_degenerate_cases(self):
        assert precision(0, 0) == 1.0
        assert recall(0, 0) == 1.0
        assert f1_score(0.0, 0.0) == 0.0

    def test_classification_metrics_properties(self):
        metrics = ClassificationMetrics("g", true_positives=9, false_positives=1,
                                        false_negatives=3)
        assert metrics.precision == pytest.approx(0.9)
        assert metrics.recall == pytest.approx(0.75)
        row = metrics.as_row()
        assert row["gesture"] == "g"
        assert row["f1"] == pytest.approx(metrics.f1, abs=1e-3)

    def test_confusion_matrix(self):
        matrix = ConfusionMatrix(["a", "b"])
        matrix.record("a", "a")
        matrix.record("a", "b")
        matrix.record("b", None)
        assert matrix.count("a", "a") == 1
        assert matrix.count("b", None) == 1
        assert matrix.accuracy() == pytest.approx(1 / 3)
        table = matrix.to_table()
        assert table[0][0].startswith("performed")
        assert len(table) == 3

    def test_empty_confusion_matrix_accuracy(self):
        assert ConfusionMatrix(["a"]).accuracy() == 0.0


class TestWorkloads:
    def test_build_workload_structure(self):
        config = WorkloadConfig(
            gestures=("swipe_right", "circle"), training_samples=2,
            test_performances=1, test_users=("adult", "child"),
        )
        workload = build_workload(config)
        assert workload.gesture_names == ["circle", "swipe_right"]
        assert len(workload.training["circle"]) == 2
        assert len(workload.test["circle"]) == 2  # 1 performance x 2 users
        assert len(workload.idle) == 2
        assert workload.total_test_performances() == 4

    def test_unknown_gesture_rejected(self):
        with pytest.raises(ValueError):
            build_workload(WorkloadConfig(gestures=("moonwalk",)))

    def test_default_workload_excludes_control_gesture(self):
        workload = build_workload(WorkloadConfig(training_samples=1, test_performances=1,
                                                 test_users=("adult",)))
        assert "two_hand_swipe" not in workload.gesture_names

    def test_workload_is_reproducible(self):
        config = WorkloadConfig(gestures=("swipe_right",), training_samples=1,
                                test_performances=1, test_users=("adult",), seed=5)
        first = build_workload(config)
        second = build_workload(config)
        assert first.training["swipe_right"][0].frames[0]["rhand_x"] == pytest.approx(
            second.training["swipe_right"][0].frames[0]["rhand_x"]
        )

    def test_different_seeds_give_different_recordings(self):
        def first_frame(seed):
            config = WorkloadConfig(gestures=("swipe_right",), training_samples=1,
                                    test_performances=1, test_users=("adult",), seed=seed)
            return build_workload(config).training["swipe_right"][0].frames[0]

        assert first_frame(5)["rhand_x"] != pytest.approx(first_frame(6)["rhand_x"])

    def test_recordings_carry_their_gesture_and_user(self):
        config = WorkloadConfig(gestures=("swipe_right", "circle"), training_samples=1,
                                test_performances=2, training_user="child",
                                test_users=("adult", "tall_adult"))
        workload = build_workload(config)
        for name in workload.gesture_names:
            assert [(r.gesture, r.user) for r in workload.training[name]] == [(name, "child")]
            users = [user for user, _ in workload.test[name]]
            assert sorted(set(users)) == ["adult", "tall_adult"]
            assert all(users.count(user) == 2 for user in set(users))
            assert all(r.gesture == name for _, r in workload.test[name])

    def test_idle_recordings_cover_every_test_user(self):
        config = WorkloadConfig(gestures=("circle",), training_samples=1,
                                test_performances=1, test_users=("adult", "child"))
        idle = build_workload(config).idle
        assert [(r.gesture, r.user) for r in idle] == [("idle", "adult"), ("idle", "child")]
        assert all(r.duration_s > 2.5 for r in idle)

    def test_training_frames_are_the_recordings_frames(self):
        config = WorkloadConfig(gestures=("circle",), training_samples=2,
                                test_performances=1, test_users=("adult",))
        workload = build_workload(config)
        assert workload.training_frames("circle") == [
            r.frames for r in workload.training["circle"]
        ]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(training_samples=0)
        with pytest.raises(ValueError):
            WorkloadConfig(test_performances=0)
        with pytest.raises(ValueError):
            WorkloadConfig(noise_sigma_mm=-1.0)


class TestDetectionExperiment:
    @pytest.fixture(scope="class")
    def small_workload(self):
        return build_workload(
            WorkloadConfig(
                gestures=("swipe_right", "circle"), training_samples=3,
                test_performances=2, test_users=("adult", "child"),
            )
        )

    def test_learns_and_scores_all_gestures(self, small_workload):
        result = DetectionExperiment(small_workload).run()
        assert set(result.per_gesture) == {"swipe_right", "circle"}
        assert result.macro_recall > 0.7
        assert result.macro_precision > 0.7
        assert result.confusion is not None
        assert result.frames_processed > 0
        assert result.predicate_evaluations > 0

    def test_queries_are_valid_query_objects(self, small_workload):
        result = DetectionExperiment(small_workload).run()
        for query in result.queries.values():
            reparsed = parse_query(query.to_query())
            assert reparsed.event_count() >= 2

    def test_training_sample_limit(self, small_workload):
        config = ExperimentConfig(training_samples=1)
        descriptions = DetectionExperiment(small_workload, config).learn_descriptions()
        assert all(d.sample_count == 1 for d in descriptions.values())

    def test_window_scale_is_applied(self, small_workload):
        base = DetectionExperiment(small_workload).learn_descriptions()
        scaled = DetectionExperiment(
            small_workload, ExperimentConfig(window_scale=2.0)
        ).learn_descriptions()
        gesture = "swipe_right"
        assert scaled[gesture].poses[0].window.width["rhand_x"] == pytest.approx(
            2.0 * base[gesture].poses[0].window.width["rhand_x"]
        )

    def test_optimize_flag_reduces_predicates(self, small_workload):
        base = DetectionExperiment(small_workload).learn_descriptions()
        optimised = DetectionExperiment(
            small_workload, ExperimentConfig(optimize=True)
        ).learn_descriptions()
        total_base = sum(d.predicate_count() for d in base.values())
        total_opt = sum(d.predicate_count() for d in optimised.values())
        assert total_opt <= total_base

    def test_experiment_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(training_samples=0)
        with pytest.raises(ValueError):
            ExperimentConfig(window_scale=0.0)

    def test_result_rows_and_macro_f1_empty(self):
        from repro.evaluation.harness import AccuracyResult

        empty = AccuracyResult()
        assert empty.macro_f1 == 0.0
        assert empty.rows() == []
