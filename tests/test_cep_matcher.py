"""Unit tests for the NFA matcher runtime."""

import json
import math

import pytest

from repro.cep import matcher as matcher_module
from repro.cep.engine import CEPEngine
from repro.cep.expressions import Comparison, FieldRef, Literal
from repro.cep.matcher import MatcherConfig, NFAMatcher
from repro.cep.nfa import compile_pattern
from repro.cep.query import ConsumePolicy, EventPattern, SelectPolicy, sequence
from repro.errors import SerializationError
from repro.streams import SimulatedClock


def _step(low: float, high: float) -> EventPattern:
    """Event pattern matching low <= x < high."""
    predicate = Comparison("<", FieldRef("x"), Literal(high))
    lower = Comparison(">=", FieldRef("x"), Literal(low))
    from repro.cep.expressions import BooleanOp

    return EventPattern(stream="s", predicate=BooleanOp("and", [lower, predicate]))


def _matcher(within=None, select=SelectPolicy.FIRST, consume=ConsumePolicy.ALL,
             config=None, steps=3):
    events = [_step(i * 100, i * 100 + 50) for i in range(steps)]
    pattern = compile_pattern(
        sequence(events, within_seconds=within, select=select, consume=consume)
    )
    return NFAMatcher(pattern, output="g", config=config or MatcherConfig())


def _tuples(values, start_ts=0.0, dt=0.1):
    return [{"x": value, "ts": start_ts + index * dt} for index, value in enumerate(values)]


class TestBasicMatching:
    def test_detects_a_simple_sequence(self):
        matcher = _matcher()
        detections = matcher.process_many(_tuples([10, 110, 210]), "s")
        assert len(detections) == 1
        assert detections[0].output == "g"

    def test_non_matching_tuples_are_skipped(self):
        matcher = _matcher()
        detections = matcher.process_many(_tuples([10, 999, 110, 999, 210]), "s")
        assert len(detections) == 1

    def test_incomplete_sequence_produces_nothing(self):
        matcher = _matcher()
        assert matcher.process_many(_tuples([10, 110]), "s") == []

    def test_out_of_order_events_do_not_match(self):
        matcher = _matcher()
        assert matcher.process_many(_tuples([210, 110, 10]), "s") == []

    def test_detection_reports_duration_and_steps(self):
        matcher = _matcher()
        detections = matcher.process_many(_tuples([10, 110, 210], dt=0.2), "s")
        detection = detections[0]
        assert detection.duration == pytest.approx(0.4)
        assert len(detection.step_timestamps) == 3
        assert detection.matched is not None and len(detection.matched) == 3

    def test_single_step_pattern_fires_immediately(self):
        matcher = _matcher(steps=1)
        detections = matcher.process_many(_tuples([10, 20]), "s")
        assert len(detections) == 2  # every matching tuple is its own match

    def test_tuples_of_other_streams_are_ignored(self):
        matcher = _matcher()
        assert matcher.process({"x": 10, "ts": 0.0}, "other") == []
        assert matcher.active_runs == 0

    def test_matched_tuples_can_be_disabled(self):
        matcher = _matcher(config=MatcherConfig(store_matched_tuples=False))
        detections = matcher.process_many(_tuples([10, 110, 210]), "s")
        assert detections[0].matched is None


class TestTimeConstraints:
    def test_within_violation_prevents_detection(self):
        matcher = _matcher(within=0.5)
        # Steps are 0.4s apart -> total 0.8s > 0.5s window.
        assert matcher.process_many(_tuples([10, 110, 210], dt=0.4), "s") == []

    def test_within_satisfied_detects(self):
        matcher = _matcher(within=1.0)
        assert len(matcher.process_many(_tuples([10, 110, 210], dt=0.4), "s")) == 1

    def test_within_around_a_single_event_constrains_nothing(self):
        # `a -> (b within 1 seconds)` parses; the group spans no time.
        pattern = sequence([_step(0, 50), sequence([_step(100, 150)], within_seconds=1.0)])
        matcher = NFAMatcher(compile_pattern(pattern), output="g")
        assert len(matcher.process_many(_tuples([10, 110], dt=5.0), "s")) == 1

    def test_expired_runs_are_pruned(self):
        matcher = _matcher(within=0.5)
        matcher.process({"x": 10, "ts": 0.0}, "s")
        assert matcher.active_runs == 1
        matcher.process({"x": 999, "ts": 10.0}, "s")
        assert matcher.active_runs == 0
        assert matcher.stats.runs_pruned >= 1

    def test_restart_after_expiry_still_detects(self):
        matcher = _matcher(within=1.0)
        matcher.process_many(_tuples([10], start_ts=0.0), "s")
        detections = matcher.process_many(_tuples([10, 110, 210], start_ts=5.0), "s")
        assert len(detections) == 1

    def test_nested_constraint_checked_for_inner_group(self):
        events = [_step(0, 50), _step(100, 150), _step(200, 250)]
        inner = sequence(events[:2], within_seconds=0.2)
        outer = sequence([inner, events[2]], within_seconds=5.0)
        matcher = NFAMatcher(compile_pattern(outer), output="g")
        # Inner pair takes 0.3s -> violates the 0.2s inner window.
        assert matcher.process_many(_tuples([10, 110, 210], dt=0.3), "s") == []

    def test_run_ttl_prunes_unconstrained_patterns(self):
        matcher = _matcher(config=MatcherConfig(run_ttl_seconds=1.0))
        matcher.process({"x": 10, "ts": 0.0}, "s")
        matcher.process({"x": 999, "ts": 5.0}, "s")
        assert matcher.active_runs == 0

    def test_run_ttl_does_not_apply_to_constrained_patterns(self):
        # Per MatcherConfig docs the TTL is a fallback for patterns without
        # any `within`; a long-window pattern must not be pruned by it.
        matcher = _matcher(within=5.0, config=MatcherConfig(run_ttl_seconds=1.0))
        matcher.process({"x": 10, "ts": 0.0}, "s")
        matcher.process({"x": 999, "ts": 2.0}, "s")  # beyond TTL, inside window
        assert matcher.active_runs == 1
        detections = matcher.process_many(
            [{"x": 110, "ts": 3.0}, {"x": 210, "ts": 4.0}], "s"
        )
        assert len(detections) == 1

    def test_run_ttl_prunes_steps_not_covered_by_any_constraint(self):
        # Only the inner pair is constrained; a run stuck at the uncovered
        # first step must still fall under the TTL or it would live forever.
        events = [_step(0, 50), _step(100, 150), _step(200, 250)]
        inner = sequence(events[1:], within_seconds=1.0)
        outer = sequence([events[0], inner])
        matcher = NFAMatcher(
            compile_pattern(outer), output="g",
            config=MatcherConfig(run_ttl_seconds=2.0),
        )
        matcher.process({"x": 10, "ts": 0.0}, "s")
        assert matcher.active_runs == 1
        matcher.process({"x": 999, "ts": 5.0}, "s")
        assert matcher.active_runs == 0
        assert matcher.stats.runs_pruned == 1


class TestPolicies:
    def test_consume_all_clears_partial_matches(self):
        matcher = _matcher(consume=ConsumePolicy.ALL)
        tuples = _tuples([10, 10, 110, 210])
        detections = matcher.process_many(tuples, "s")
        assert len(detections) == 1
        assert matcher.active_runs == 0

    def test_consume_none_allows_overlapping_detections(self):
        matcher = _matcher(consume=ConsumePolicy.NONE, select=SelectPolicy.ALL)
        # Two start events -> two runs -> both complete on the same suffix.
        detections = matcher.process_many(_tuples([10, 20, 110, 210]), "s")
        assert len(detections) == 2

    def test_select_first_reports_earliest_run(self):
        matcher = _matcher(select=SelectPolicy.FIRST, consume=ConsumePolicy.NONE)
        detections = matcher.process_many(_tuples([10, 20, 110, 210]), "s")
        assert len(detections) == 1
        assert detections[0].start_timestamp == pytest.approx(0.0)

    def test_select_last_reports_latest_run(self):
        matcher = _matcher(select=SelectPolicy.LAST, consume=ConsumePolicy.NONE)
        detections = matcher.process_many(_tuples([10, 20, 110, 210]), "s")
        assert len(detections) == 1
        assert detections[0].start_timestamp == pytest.approx(0.1)


class TestRunManagement:
    def test_max_active_runs_is_enforced(self):
        matcher = _matcher(config=MatcherConfig(max_active_runs=5, run_ttl_seconds=None))
        matcher.process_many(_tuples([10] * 20), "s")
        assert matcher.active_runs == 5
        assert matcher.stats.runs_suppressed == 15

    def test_progress_and_furthest_step(self):
        matcher = _matcher()
        assert matcher.progress() == 0.0
        matcher.process({"x": 10, "ts": 0.0}, "s")
        assert matcher.furthest_step() == 1
        matcher.process({"x": 110, "ts": 0.1}, "s")
        assert matcher.progress() == pytest.approx(2 / 3)

    def test_reset_discards_partial_matches(self):
        matcher = _matcher()
        matcher.process({"x": 10, "ts": 0.0}, "s")
        matcher.reset()
        assert matcher.active_runs == 0

    def test_stats_track_predicate_evaluations(self):
        matcher = _matcher()
        matcher.process_many(_tuples([10, 110, 210]), "s")
        assert matcher.stats.tuples_processed == 3
        assert matcher.stats.predicate_evaluations > 0
        assert matcher.stats.detections == 1

    def test_each_tuple_advances_a_run_by_at_most_one_step(self):
        # A tuple satisfying both step 0 and step 1 must not jump two steps.
        from repro.cep.expressions import Literal as Lit

        events = [
            EventPattern(stream="s", predicate=Lit(True)),
            EventPattern(stream="s", predicate=Lit(True)),
        ]
        matcher = NFAMatcher(compile_pattern(sequence(events)), output="g")
        assert matcher.process({"ts": 0.0}, "s") == []
        assert len(matcher.process({"ts": 0.1}, "s")) == 1

    def test_identical_runs_complete_or_expire_on_their_own(self):
        # Two users starting the same pose in the same frame — and one user
        # sending the same frame twice — produce runs with identical field
        # values; each must still complete or expire by itself.
        matcher = _matcher(
            within=1.0, select=SelectPolicy.ALL, consume=ConsumePolicy.NONE
        )

        def feed(player, x, ts):
            return matcher.process({"x": x, "ts": ts, "player": player}, "s")

        for player in (1, 1, 2):
            assert feed(player, 10, 0.0) == []
        assert matcher.active_runs == 3
        assert feed(1, 110, 0.2) == []
        # Player 1's twins complete together, as two separate detections ...
        finished = feed(1, 210, 0.4)
        assert [d.partition for d in finished] == [1, 1]
        assert [d.step_timestamps for d in finished] == [(0.0, 0.2, 0.4)] * 2
        assert finished[0].matched is not finished[1].matched
        # ... while player 2's identical run is still waiting, and expires alone.
        assert matcher.active_runs == 1
        assert matcher.partition_keys() == [2]
        assert feed(2, 110, 5.0) == []
        assert matcher.active_runs == 0
        assert matcher.stats.runs_pruned == 1
        # One user's twins expire individually too.
        assert feed(1, 10, 6.0) == [] and feed(1, 10, 6.0) == []
        assert matcher.active_runs == 2
        assert feed(1, 999, 9.0) == []
        assert matcher.active_runs == 0
        assert matcher.stats.runs_pruned == 3
        assert matcher.stats.detections == 2

    def test_single_step_pattern_detects_even_at_run_cap(self):
        # A single-step match never occupies a run slot; the cap must not
        # suppress its completion.
        matcher = _matcher(steps=1, config=MatcherConfig(max_active_runs=0))
        detections = matcher.process_many(_tuples([10, 20]), "s")
        assert len(detections) == 2
        assert matcher.stats.runs_suppressed == 0

    def test_irrelevant_streams_short_circuit_before_predicates(self):
        matcher = _matcher()
        matcher.process({"x": 10, "ts": 0.0}, "other")
        assert matcher.stats.tuples_processed == 1
        assert matcher.stats.predicate_evaluations == 0


class TestBatchProcessing:
    def test_process_batch_matches_per_tuple_detections(self):
        values = [10, 999, 110, 20, 210, 10, 110, 210, 999]
        per_tuple = _matcher(within=1.0)
        batched = _matcher(within=1.0)
        expected = per_tuple.process_many(_tuples(values), "s")
        actual = batched.process_batch(_tuples(values), "s")
        assert actual == expected
        assert len(expected) > 0
        assert batched.stats.detections == per_tuple.stats.detections

    def test_process_batch_across_chunks_matches_per_tuple(self):
        values = [10, 110, 999, 10, 210, 110, 210, 10, 110, 210]
        per_tuple = _matcher(within=1.0)
        chunked = _matcher(within=1.0)
        expected = per_tuple.process_many(_tuples(values), "s")
        tuples = _tuples(values)
        actual = []
        for start in range(0, len(tuples), 3):
            actual.extend(chunked.process_batch(tuples[start : start + 3], "s"))
        assert actual == expected

    def test_process_batch_ignores_irrelevant_streams(self):
        matcher = _matcher()
        assert matcher.process_batch(_tuples([10, 110]), "other") == []
        assert matcher.stats.tuples_processed == 2
        assert matcher.active_runs == 0

    def test_process_batch_prunes_at_the_batch_boundary(self):
        matcher = _matcher(within=0.5)
        matcher.process({"x": 10, "ts": 0.0}, "s")
        assert matcher.active_runs == 1
        matcher.process_batch(_tuples([999, 999], start_ts=10.0), "s")
        assert matcher.active_runs == 0
        assert matcher.stats.runs_pruned >= 1

    def test_process_batch_matches_per_tuple_under_ttl(self):
        # TTL expiry is only checked by pruning, so TTL-governed patterns
        # must prune per tuple inside a batch to stay equivalent.
        per_tuple = _matcher(config=MatcherConfig(run_ttl_seconds=0.5))
        batched = _matcher(config=MatcherConfig(run_ttl_seconds=0.5))
        tuples = [
            {"x": 10, "ts": 0.0},
            {"x": 110, "ts": 0.2},
            {"x": 210, "ts": 1.0},  # arrives after the TTL expired
        ]
        expected = per_tuple.process_many(tuples, "s")
        assert expected == []  # the run must be pruned before completing
        assert batched.process_batch(tuples, "s") == expected

    def test_process_batch_matches_per_tuple_at_the_run_cap(self):
        # Expired runs lingering mid-batch must not hold run slots and
        # suppress the start that completes the gesture.
        config = MatcherConfig(max_active_runs=2, run_ttl_seconds=None)
        per_tuple = _matcher(within=0.5, steps=2, config=config)
        batched = _matcher(within=0.5, steps=2, config=config)
        # Hold the start pose long enough that early runs expire, then
        # finish the gesture: [0, 0.4, 0.8, 1.2, 1.6(start), 1.7(finish)].
        tuples = _tuples([10, 10, 10, 10, 10, 110], dt=0.4)
        tuples[-1]["ts"] = 1.7
        expected = per_tuple.process_many(tuples, "s")
        assert len(expected) == 1
        assert batched.process_batch(tuples, "s") == expected
        assert batched.stats.runs_suppressed == per_tuple.stats.runs_suppressed

    def test_process_batch_accepts_explicit_timestamps(self):
        matcher = _matcher(within=1.0)
        records = [{"x": 10}, {"x": 110}, {"x": 210}]
        detections = matcher.process_batch(records, "s", timestamps=[0.0, 0.3, 0.6])
        assert len(detections) == 1
        assert detections[0].step_timestamps == (0.0, 0.3, 0.6)

    def test_empty_batch_is_a_no_op(self):
        matcher = _matcher()
        assert matcher.process_batch([], "s") == []
        assert matcher.stats.tuples_processed == 0


class TestRestoreState:
    @staticmethod
    def _captured(*values):
        matcher = _matcher()
        matcher.process_many(_tuples(values), "s")
        return matcher.capture_state()

    @pytest.mark.parametrize(
        "damage",
        [
            {"next_step": 9},
            {"next_step": 3},
            {"next_step": 0},
            {"step_timestamps": [0.0, 0.1, 0.2]},
            {"matched": []},
        ],
    )
    def test_runs_the_pattern_cannot_hold_are_refused(self, damage):
        state = self._captured(10, 110)
        (run_state,) = state["partitions"][0]["runs"]
        assert run_state["next_step"] == 2
        run_state.update(damage)
        matcher = _matcher()
        with pytest.raises(SerializationError, match=r"query 'g'.*run 0 "):
            matcher.restore_state(state)
        assert matcher.furthest_step() == 0

    def test_unstored_tuples_need_no_matched_history(self):
        state = self._captured(10, 110)
        state["partitions"][0]["runs"][0]["matched"] = []
        matcher = _matcher(config=MatcherConfig(store_matched_tuples=False))
        matcher.restore_state(state)
        assert len(matcher.process({"x": 210, "ts": 0.2}, "s")) == 1

    def test_a_refused_restore_leaves_the_old_state_in_place(self):
        matcher = _matcher()
        matcher.process_many(_tuples([10, 110]), "s")
        before = matcher.capture_state()
        state = self._captured(10)
        good = state["partitions"][0]
        bad = {"key": {"value": 7}, "runs": [dict(good["runs"][0], next_step=9)]}
        state["partitions"] = [good, bad]
        state["run_counter"] = 99
        with pytest.raises(SerializationError):
            matcher.restore_state(state)
        assert matcher.capture_state() == before
        assert len(matcher.process({"x": 210, "ts": 0.2}, "s")) == 1

    def test_engine_restore_surfaces_the_error_not_an_index_error_later(self):
        from repro.cep.engine import CEPEngine

        text = 'SELECT "g" MATCHING s(x > 0) -> s(x > 10) -> s(x > 20);'
        engine = CEPEngine()
        engine.create_stream("s")
        engine.register_query(text)
        engine.push("s", {"ts": 0.0, "x": 5})
        state = engine.capture_state()
        state["queries"][0]["matcher"]["partitions"][0]["runs"][0]["next_step"] = 9
        with pytest.raises(SerializationError):
            engine.restore_state(state)
        engine.push("s", {"ts": 0.1, "x": 15})
        engine.push("s", {"ts": 0.2, "x": 25})
        assert len(engine.detections("g")) == 1


class TestOrderedPartitions:
    """A partition whose time runs forward prunes by cutting expired
    prefixes off its buckets; the full scan (``_prune_scan``) is entered
    only for a partition whose order is lost, and only for that one."""

    QUERY = 'SELECT "g" MATCHING (s(abs(x) < 5) -> s(abs(x - 100) < 5) within 1 seconds);'

    @pytest.fixture
    def scanned(self, monkeypatch):
        parts = []
        full_scan = NFAMatcher._prune_scan

        def spy(matcher, part, timestamp):
            parts.append(part)
            full_scan(matcher, part, timestamp)

        monkeypatch.setattr(NFAMatcher, "_prune_scan", spy)
        return parts

    @staticmethod
    def _held(frames=120, players=3):
        """Every player holds the start pose at 30 Hz: one run per frame,
        each expiring a second later."""
        return [
            {"ts": frame / 30.0, "player": player, "x": 0.0}
            for frame in range(frames)
            for player in range(1, players + 1)
        ]

    def _engine(self, records):
        engine = CEPEngine(clock=SimulatedClock())
        engine.create_stream("s")
        engine.register_query(self.QUERY, "g")
        for record in records:
            engine.push("s", record)
        return engine.get_query("g").matcher

    def _restored(self, state, records):
        matcher = NFAMatcher(self._engine([]).pattern, "g")
        matcher.restore_state(json.loads(json.dumps(state)))
        for record in records:
            matcher.process(record, "s")
        return matcher

    def test_a_held_start_pose_never_takes_the_full_scan(self, scanned):
        matcher = self._engine(self._held())
        assert matcher.stats.runs_pruned == 3 * (120 - 31)
        assert scanned == []
        assert all(part.ordered for part in matcher.runs.values())

    @pytest.mark.parametrize("late", [0.5, math.nan], ids=["out-of-order", "nan"])
    def test_a_late_or_nan_timestamp_sends_only_its_player_to_the_full_scan(self, scanned, late):
        records = self._held()
        records.insert(151, dict(records[150], ts=records[150]["ts"] - late))
        matcher = self._engine(records)
        runs = matcher.runs
        assert not runs[1].ordered and runs[2].ordered and runs[3].ordered
        assert scanned and all(part is runs[1] for part in scanned)

    def test_the_idle_sweep_reclaims_only_the_player_who_left(self, monkeypatch):
        # Every partition is older than the idle limit, so none is passed
        # over on `oldest` alone; only the one whose newest run is stale goes.
        monkeypatch.setattr(matcher_module, "_IDLE_SWEEP_TUPLES", 3)
        matcher = NFAMatcher(
            self._engine([]).pattern, "g", config=MatcherConfig(partition_idle_seconds=0.5)
        )
        records = [r for r in self._held() if r["player"] != 3 or r["ts"] < 2.0]
        for record in records:
            matcher.process(record, "s")
        assert sorted(matcher.runs) == [1, 2]
        assert matcher.stats.runs_evicted == 31

    def test_a_restored_partition_is_checked_for_order(self, scanned):
        records = self._held()
        state = self._engine(records[:150]).capture_state()
        matcher = self._restored(state, records[150:])
        assert scanned == [] and all(part.ordered for part in matcher.runs.values())

        late = dict(records[148], ts=records[148]["ts"] - 0.5)
        state = self._engine(records[:150] + [late]).capture_state()
        scanned.clear()
        matcher = self._restored(state, records[150:])
        assert [part.ordered for part in matcher.runs.values()] == [True, False, True]
        assert scanned and all(part is matcher.runs[2] for part in scanned)
