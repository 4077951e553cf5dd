"""Multi-user partitioning of the detection path.

The shared-sensor-space contract: any interleaving of K single-user streams
must yield, per player, exactly the detections each player's isolated stream
yields — on the per-tuple and batched matching paths, against the
interpreted reference matcher of ``tests/reference_matcher.py``.  These
tests exercise the contract property-style on synthetic tuple streams, pin
down the per-partition semantics (run caps, ``consume all``, cross-player
isolation), and cover the end-to-end path from two simulators through one
engine to per-player gesture events.
"""

import random

import pytest

from reference_matcher import ReferenceMatcher
from repro.cep import fanout as fanout_module
from repro.cep.engine import CEPEngine
from repro.cep.expressions import BooleanOp, Comparison, FieldRef, Literal
from repro.cep.matcher import MatcherConfig, NFAMatcher
from repro.cep.nfa import compile_pattern
from repro.cep.query import ConsumePolicy, EventPattern, SelectPolicy, sequence
from repro.cep.views import install_kinect_view
from repro.detection import GestureDetector, GestureEvent
from repro.kinect import (
    SwipeTrajectory,
    generate_multiuser_recording,
    user_by_name,
)
from repro.streams import SimulatedClock


def _step(low: float, high: float) -> EventPattern:
    lower = Comparison(">=", FieldRef("x"), Literal(low))
    upper = Comparison("<", FieldRef("x"), Literal(high))
    return EventPattern(stream="s", predicate=BooleanOp("and", [lower, upper]))


def _matcher(
    within=1.0,
    select=SelectPolicy.FIRST,
    consume=ConsumePolicy.ALL,
    steps=3,
    **config_kwargs,
) -> NFAMatcher:
    events = [_step(i * 100, i * 100 + 50) for i in range(steps)]
    pattern = compile_pattern(
        sequence(events, within_seconds=within, select=select, consume=consume)
    )
    return NFAMatcher(pattern, output="g", config=MatcherConfig(**config_kwargs))


def _feed_as_a_stream(matcher, records, pushed):
    """Feed ``records`` one by one to a stream that had ``pushed`` tuples,
    sweeping as an engine stream does: after every ``_IDLE_SWEEP_TUPLES``-th
    tuple, at its timestamp."""
    for number, record in enumerate(records, start=pushed + 1):
        matcher.process(record, "s")
        if not number % fanout_module._IDLE_SWEEP_TUPLES:
            matcher.sweep(record["ts"])


def _player_tuples(player: int, values, start_ts=0.0, dt=0.1):
    return [
        {"x": float(value), "ts": start_ts + index * dt, "player": player}
        for index, value in enumerate(values)
    ]


def _random_stream(rng: random.Random, player: int, count: int):
    """A noisy single-user stream with step values planted at random."""
    vocabulary = [10, 110, 210, 999, 45, 160, -5]
    return _player_tuples(
        player,
        [rng.choice(vocabulary) for _ in range(count)],
        start_ts=rng.random(),
        dt=0.05 + rng.random() * 0.1,
    )


def _riffle(rng: random.Random, streams):
    """A random interleaving that preserves each stream's internal order."""
    queues = [list(stream) for stream in streams if stream]
    merged = []
    while queues:
        queue = rng.choice(queues)
        merged.append(queue.pop(0))
        if not queue:
            queues.remove(queue)
    return merged


class TestInterleavingEquivalence:
    @pytest.mark.parametrize("store_matched_tuples", [True, False])
    @pytest.mark.parametrize(
        "select,consume",
        [
            (SelectPolicy.FIRST, ConsumePolicy.ALL),
            (SelectPolicy.ALL, ConsumePolicy.NONE),
        ],
    )
    def test_any_riffle_detects_the_union_of_isolated_runs(
        self, store_matched_tuples, select, consume
    ):
        # Property-style: many random single-user streams, many random
        # interleavings; the merged stream must detect, per player, exactly
        # what the interpreted reference detects on each isolated stream.
        for seed in range(12):
            rng = random.Random(seed)
            players = list(range(1, 2 + rng.randrange(3)))
            streams = {
                player: _random_stream(rng, player, 40 + rng.randrange(40))
                for player in players
            }

            expected = {}
            total = 0
            for player, stream in streams.items():
                isolated = _matcher(
                    select=select,
                    consume=consume,
                    store_matched_tuples=store_matched_tuples,
                )
                reference = ReferenceMatcher(isolated.pattern, "g", isolated.config)
                expected[player] = [d for r in stream for d in reference.process(r, "s")]
                total += len(expected[player])

            merged = _riffle(rng, streams.values())
            interleaved = _matcher(
                select=select,
                consume=consume,
                store_matched_tuples=store_matched_tuples,
            )
            detections = interleaved.process_many(merged, "s")
            grouped = {player: [] for player in players}
            for detection in detections:
                grouped[detection.partition].append(detection)
            assert grouped == expected, f"seed={seed}"
            assert len(detections) == total

    def test_riffles_detect_identically_on_the_batched_path(self):
        rng = random.Random(99)
        streams = [_random_stream(rng, player, 120) for player in (1, 2, 3)]
        merged = _riffle(rng, streams)
        per_tuple = _matcher().process_many(merged, "s")
        assert per_tuple, "stream produced no detections; the test is vacuous"
        for batch_size in (1, 7, 64, len(merged)):
            batched = _matcher()
            detections = []
            for start in range(0, len(merged), batch_size):
                detections.extend(
                    batched.process_batch(merged[start : start + batch_size], "s")
                )
            assert detections == per_tuple, f"batch_size={batch_size}"

    def test_planted_gestures_are_attributed_to_their_players(self):
        # Player 2 performs the gesture twice, player 1 once, player 3 never.
        streams = [
            _player_tuples(1, [999, 10, 110, 210, 999]),
            _player_tuples(2, [10, 110, 210, 10, 110, 210]),
            _player_tuples(3, [999, 10, 110, 999, 999, 999]),
        ]
        merged = _riffle(random.Random(5), streams)
        matcher = _matcher()
        detections = matcher.process_many(merged, "s")
        counts = {}
        for detection in detections:
            counts[detection.partition] = counts.get(detection.partition, 0) + 1
        assert counts == {1: 1, 2: 2}


class TestPartitionSemantics:
    def test_cross_player_frames_cannot_complete_a_run(self):
        # The seed bug: player 1 starts the gesture, player 2 finishes it.
        frankenstein = (
            _player_tuples(1, [10])
            + _player_tuples(2, [110, 210], start_ts=0.1)
        )
        assert _matcher().process_many(frankenstein, "s") == []
        # Unpartitioned matching accepts the cross-player match (the old
        # global-run-table behaviour, still available via partition_field=None).
        legacy = _matcher(partition_field=None)
        assert len(legacy.process_many(frankenstein, "s")) == 1

    def test_partition_field_none_preserves_single_stream_detections(self):
        # On a single-player stream, partitioned and unpartitioned matching
        # must be indistinguishable (except for the partition attribution).
        rng = random.Random(3)
        stream = _random_stream(rng, 1, 200)
        partitioned = _matcher().process_many(stream, "s")
        unpartitioned = _matcher(partition_field=None).process_many(stream, "s")
        strip = lambda ds: [
            (d.output, d.timestamp, d.start_timestamp, d.step_timestamps) for d in ds
        ]
        assert strip(partitioned) == strip(unpartitioned)
        assert all(d.partition == 1 for d in partitioned)
        assert all(d.partition is None for d in unpartitioned)

    def test_tuples_without_the_field_share_one_partition(self):
        stream = [{"x": v, "ts": i * 0.1} for i, v in enumerate([10, 110, 210])]
        detections = _matcher().process_many(stream, "s")
        assert len(detections) == 1
        assert detections[0].partition is None

    def test_run_cap_applies_per_partition(self):
        # One player holding the start pose must not starve the others.
        config = dict(max_active_runs=1, run_ttl_seconds=None)
        matcher = _matcher(within=None, **config)
        both_start = _riffle(
            random.Random(0),
            [_player_tuples(1, [10, 110, 210]), _player_tuples(2, [10, 110, 210])],
        )
        detections = matcher.process_many(both_start, "s")
        assert {d.partition for d in detections} == {1, 2}
        assert matcher.stats.runs_suppressed == 0
        # The same traffic through a single global table hits the cap.
        legacy = _matcher(within=None, partition_field=None, **config)
        legacy.process_many(both_start, "s")
        assert legacy.stats.runs_suppressed > 0

    def test_consume_all_clears_only_the_completing_player(self):
        # Player 2 completes while player 1 is mid-gesture; player 1's
        # partial match must survive the consumption and complete later.
        stream = (
            _player_tuples(1, [10, 110], dt=0.1)
            + _player_tuples(2, [10, 110, 210], start_ts=0.05, dt=0.1)
            + _player_tuples(1, [210], start_ts=0.3)
        )
        stream.sort(key=lambda t: (t["ts"], t["player"]))
        detections = _matcher().process_many(stream, "s")
        assert sorted(d.partition for d in detections) == [1, 2]

    def test_introspection_aggregates_partitions(self):
        matcher = _matcher()
        matcher.process_many(
            _player_tuples(1, [10, 110]) + _player_tuples(2, [10], start_ts=0.05),
            "s",
        )
        assert matcher.active_runs == 2
        assert matcher.active_partitions == 2
        assert sorted(matcher.partition_keys()) == [1, 2]
        assert matcher.furthest_step() == 2
        assert matcher.furthest_step(partition=2) == 1
        assert matcher.progress(partition=1) == pytest.approx(2 / 3)
        matcher.reset()
        assert matcher.active_partitions == 0

    def test_departed_player_partitions_are_swept(self):
        # Player 1 abandons a partial match mid-gesture; only player 2
        # keeps streaming.  Pruning runs against a partition's own tuples,
        # so the periodic sweep must reclaim player 1's runs (and stop the
        # stale progress feedback) once they are idle past the TTL.
        matcher = _matcher(within=None, run_ttl_seconds=None,
                           partition_idle_seconds=5.0)
        matcher.process_many(_player_tuples(1, [10, 110]), "s")
        assert matcher.partition_keys() == [1]
        # >512 player-2 tuples spanning >5s of event time trigger the sweep.
        filler = _player_tuples(2, [999] * 600, start_ts=1.0, dt=0.05)
        _feed_as_a_stream(matcher, filler, pushed=2)
        assert matcher.partition_keys() == []
        assert matcher.furthest_step() == 0

    def test_recent_partitions_survive_the_sweep(self):
        matcher = _matcher(within=None, run_ttl_seconds=None,
                           partition_idle_seconds=5.0)
        matcher.process_many(_player_tuples(1, [10, 110]), "s")
        # Plenty of traffic, but little event time passes: no eviction.
        filler = _player_tuples(2, [999] * 600, start_ts=0.2, dt=0.001)
        _feed_as_a_stream(matcher, filler, pushed=2)
        assert matcher.partition_keys() == [1]
        # The surviving run still completes.
        detections = matcher.process(
            {"x": 210.0, "ts": 1.0, "player": 1}, "s"
        )
        assert [d.partition for d in detections] == [1]

    def test_empty_partitions_are_dropped(self):
        # consume all / pruning must not leave ghost players behind.
        matcher = _matcher()
        matcher.process_many(_player_tuples(1, [10, 110, 210]), "s")
        assert matcher.active_partitions == 0
        matcher.process_many(_player_tuples(2, [10]), "s")
        assert matcher.partition_keys() == [2]
        # Expire player 2's run via the within constraint.
        matcher.process(_player_tuples(2, [999], start_ts=10.0)[0], "s")
        assert matcher.active_partitions == 0


class TestEngineEndToEnd:
    def _deploy(self, engine):
        return engine.register_query(
            'SELECT "ping" MATCHING ( s(x >= 10 AND x < 50)'
            " -> s(x >= 110 AND x < 150) within 1 seconds"
            " select first consume all );",
        )

    def test_engine_detections_filter_by_partition(self):
        engine = CEPEngine(clock=SimulatedClock())
        deployed = self._deploy(engine)
        stream = _riffle(
            random.Random(1),
            [_player_tuples(1, [10, 110]), _player_tuples(2, [10, 110, 10, 110])],
        )
        for record in stream:
            engine.push("s", record)
        assert len(deployed.detections(partition=1)) == 1
        assert len(deployed.detections(partition=2)) == 2
        assert len(engine.detections("ping", partition=2)) == 2
        assert len(engine.detections()) == 3

    def test_two_simulated_players_produce_attributed_events(
        self, swipe_description
    ):
        # Two simulators — one child, one tall adult — feed one engine; the
        # detector must report who swiped, with each player's gesture
        # detected despite their very different body scales.
        recording = generate_multiuser_recording(
            {"swipe_right": SwipeTrajectory("right")},
            users=[user_by_name("child"), user_by_name("tall_adult")],
            gestures_per_user=1,
            seed=21,
        )
        detector = GestureDetector()
        detector.deploy(swipe_description)
        events_by_player = {}
        detector.on_gesture(
            "swipe_right",
            lambda event: events_by_player.setdefault(event.player, []).append(event),
        )
        detector.process_frames(recording.frames)
        assert set(events_by_player) == {1, 2}
        for events in events_by_player.values():
            assert all(isinstance(event, GestureEvent) for event in events)

    def test_multiuser_stream_equals_isolated_streams_through_the_view(
        self, swipe_description
    ):
        # End to end (raw frames -> kinect_t view -> matcher): interleaved
        # detections per player equal each player's isolated replay, on the
        # per-tuple and batched delivery paths.
        recording = generate_multiuser_recording(
            {"swipe_right": SwipeTrajectory("right")},
            users=[user_by_name("child"), user_by_name("adult")],
            gestures_per_user=1,
            seed=33,
        )

        def run(frames, batch_size=None):
            engine = CEPEngine(clock=SimulatedClock())
            install_kinect_view(engine)
            detector = GestureDetector(engine=engine)
            detector.deploy(swipe_description)
            detector.process_frames(frames, batch_size=batch_size)
            return [
                (d.partition, d.output, d.timestamp, d.step_timestamps)
                for d in detector.detections()
            ]

        expected = []
        for player_id in recording.player_ids:
            expected.extend(run(recording.players[player_id].frames))
        assert expected, "isolated replays produced no detections"
        interleaved = run(recording.frames)
        assert sorted(interleaved) == sorted(expected)
        batched = run(recording.frames, batch_size=32)
        assert sorted(batched) == sorted(expected)

    def test_torsoless_frames_cost_the_same_per_tuple_and_batched(self, swipe_description):
        # Malformed input must not make the execution modes diverge: a
        # frame without torso fields is lost (and reported) on both paths,
        # its 63 chunk neighbours on neither.
        recording = generate_multiuser_recording(
            {"swipe_right": SwipeTrajectory("right")},
            users=[user_by_name("child"), user_by_name("adult")],
            gestures_per_user=3,
            seed=33,
        )
        frames = [dict(frame) for frame in recording.frames]
        for index in range(10, len(frames), len(frames) // 5):
            for axis in "xyz":
                del frames[index][f"torso_{axis}"]

        def run(chunk_size):
            engine = CEPEngine(clock=SimulatedClock())
            install_kinect_view(engine)
            detector = GestureDetector(engine=engine)
            detector.deploy(swipe_description)
            errors = 0
            for start in range(0, len(frames), chunk_size or 1):
                try:
                    if chunk_size is None:
                        engine.push("kinect", frames[start])
                    else:
                        engine.push_many(
                            "kinect", frames[start : start + chunk_size], batch_size=chunk_size
                        )
                except KeyError:
                    errors += 1
            detections = sorted(
                (d.partition, d.output, d.timestamp, d.step_timestamps)
                for d in detector.detections()
            )
            return detections, errors

        per_tuple, per_tuple_errors = run(None)
        batched, batched_errors = run(64)
        assert len({partition for partition, *_ in per_tuple}) == 2
        assert batched == per_tuple
        assert per_tuple_errors == 5 and 1 <= batched_errors <= 5
