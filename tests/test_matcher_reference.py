"""``NFAMatcher`` against the naive reference, on generated patterns and streams.

Every execution shape of the matcher — per tuple, batched under any
chunking, snapshot-restored midway, and deployed beside other queries on
one engine stream, where a shared step index answers the predicates — must
report what ``reference_matcher.ReferenceMatcher`` reports, as
``Detection.to_state()`` JSON.  Patterns draw their steps from a handful of
predicates over two small-valued fields, so many runs wait for the same
step and see the same verdict: the case the step buckets exist for.
"""

import dataclasses
import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from reference_matcher import ReferenceMatcher, merge_detections
from repro.cep.expressions import (
    BooleanOp,
    Comparison,
    FieldRef,
    Literal,
    abs_diff_predicate,
)
from repro.cep import fanout as fanout_module
from repro.cep.engine import CEPEngine
from repro.cep.matcher import MatcherConfig, NFAMatcher
from repro.cep.nfa import CompiledPattern, Step, TimeConstraint, compile_pattern
from repro.cep.parser import parse_expression
from repro.cep.query import ConsumePolicy, EventPattern, Query, SelectPolicy, sequence
from repro.streams import SimulatedClock

PREDICATES = (
    abs_diff_predicate("x", 0.0, 6.0),
    abs_diff_predicate("x", 10.0, 6.0),
    BooleanOp("and", [abs_diff_predicate("x", 5.0, 8.0), abs_diff_predicate("y", 0.0, 5.0)]),
    Comparison(">", FieldRef("x"), Literal(4.0)),
    BooleanOp("or", [Comparison("<", FieldRef("y"), Literal(2.0)), abs_diff_predicate("x", 15.0, 3.0)]),
)


@st.composite
def patterns(draw):
    chosen = draw(st.lists(st.sampled_from(PREDICATES), min_size=1, max_size=5))
    last_step = len(chosen) - 1
    groups = draw(
        st.lists(
            st.tuples(
                st.integers(0, last_step),
                st.integers(0, last_step),
                st.sampled_from([0.25, 0.5, 1.0, 2.0]),
            ),
            max_size=3,
        )
    )
    return CompiledPattern(
        steps=tuple(Step(index, "s", predicate) for index, predicate in enumerate(chosen)),
        constraints=tuple(
            TimeConstraint(min(a, b), max(a, b), seconds) for a, b, seconds in groups
        ),
        select=draw(st.sampled_from(list(SelectPolicy))),
        consume=draw(st.sampled_from(list(ConsumePolicy))),
    )


configs = st.builds(
    MatcherConfig,
    max_active_runs=st.sampled_from([1, 3, 256]),
    run_ttl_seconds=st.sampled_from([None, 0.4]),
    store_matched_tuples=st.booleans(),
    partition_field=st.sampled_from(["player", None]),
    partition_idle_seconds=st.none(),
)


@st.composite
def streams(draw, jitter, players=3):
    """Tuples of 1–``players`` players; ``jitter`` is what a tuple's clock
    may run behind."""
    players = draw(st.integers(1, players))
    frames = draw(
        st.lists(
            st.tuples(
                st.integers(1, players),
                st.sampled_from([-5.0, 0.0, 5.0, 10.0, 15.0]),
                st.sampled_from([0.0, 3.0, 8.0]),
                st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.7]),
                st.sampled_from(jitter),
            ),
            min_size=20,  # long enough for runs to pile up in a bucket and expire
            max_size=80,
        )
    )
    now, records = 0.0, []
    for player, x, y, step, behind in frames:
        now += step
        records.append({"ts": now - behind, "player": player, "x": x, "y": y})
    return records


class Stream:
    """Standalone matchers fed as one engine stream feeds its queries: a
    tuple or a chunk goes to each matcher, then every matcher is swept once
    the stream's count reaches a multiple of ``_IDLE_SWEEP_TUPLES`` — after
    that tuple at its timestamp, or at the end of the chunk reaching it at
    the chunk's last timestamp.  ``matchers`` may be swapped (a restore)."""

    def __init__(self, matchers):
        self.matchers = matchers
        self.pushed = 0

    def push(self, record):
        """Each matcher's detections on ``record``."""
        detections = [matcher.process(record, "s") for matcher in self.matchers]
        self._count(1, record["ts"])
        return detections

    def push_batch(self, chunk):
        """Each matcher's detections on ``chunk``."""
        detections = [matcher.process_batch(chunk, "s") for matcher in self.matchers]
        self._count(len(chunk), chunk[-1]["ts"])
        return detections

    def _count(self, tuples, now):
        period = fanout_module._IDLE_SWEEP_TUPLES
        before, self.pushed = self.pushed, self.pushed + tuples
        if before // period != self.pushed // period:
            for matcher in self.matchers:
                matcher.sweep(now)


def _states(detections):
    return [json.dumps(detection.to_state(), sort_keys=True) for detection in detections]


def _counters(matcher):
    stats = matcher.stats
    return stats.runs_started, stats.runs_completed, stats.detections


@settings(max_examples=150, deadline=None)
@given(patterns(), configs, streams(jitter=[0.0]), st.data())
def test_every_execution_shape_matches_the_reference(pattern, config, records, data):
    reference = ReferenceMatcher(pattern, "g", config)
    expected = _states([d for record in records for d in reference.process(record, "s")])
    expected_counters = (reference.started, reference.completed, reference.detections)

    per_tuple = NFAMatcher(pattern, "g", config=config)
    assert _states(per_tuple.process_many(records, "s")) == expected
    assert _counters(per_tuple) == expected_counters

    batched = NFAMatcher(pattern, "g", config=config)
    detections, position = [], 0
    while position < len(records):
        size = data.draw(st.integers(1, 12), label="chunk")
        detections += batched.process_batch(records[position : position + size], "s")
        position += size
    assert _states(detections) == expected
    assert _counters(batched) == expected_counters

    midpoint = data.draw(st.integers(0, len(records)), label="midpoint")
    first_half = NFAMatcher(pattern, "g", config=config)
    detections = first_half.process_many(records[:midpoint], "s")
    resumed = NFAMatcher(pattern, "g", config=config)
    resumed.restore_state(json.loads(json.dumps(first_half.capture_state())))
    detections += resumed.process_many(records[midpoint:], "s")
    assert _states(detections) == expected
    assert resumed.stats == per_tuple.stats


@settings(max_examples=150, deadline=None)
@given(patterns(), configs, streams(jitter=[0.0, 0.0, 0.0, 0.45, 1.3]))
def test_per_tuple_path_matches_the_reference_on_disordered_time(pattern, config, records):
    # Only the per-tuple path promises anything once time runs backwards; it
    # must prune exactly the runs the reference's unconditional scan prunes,
    # tuple by tuple — which is what holds the `oldest` bound to "exact".
    reference = ReferenceMatcher(pattern, "g", config)
    matcher = NFAMatcher(pattern, "g", config=config)
    for record in records:
        assert _states(matcher.process(record, "s")) == _states(reference.process(record, "s"))
        assert matcher.active_runs == reference.active_runs
        assert matcher.stats.runs_pruned == reference.pruned


#: Indexed (windows, ``field <op> literal`` false at +inf) and unindexed
#: (``x > 4``, the disjunction) steps side by side, boundaries on the grid.
ENGINE_PREDICATES = PREDICATES + (
    BooleanOp("and", [parse_expression("abs(x - 5) <= 5"), parse_expression("y < 8")]),
    parse_expression("abs(y + -3) == 5 and abs(x - 5.0) < 10"),
)


@st.composite
def queries(draw, output):
    """A query of 1–5 steps, optionally opening with a nested ``within`` group."""
    chosen = draw(st.lists(st.sampled_from(ENGINE_PREDICATES), min_size=1, max_size=5))
    events = [EventPattern("s", predicate) for predicate in chosen]
    within = st.none() | st.sampled_from([0.25, 0.5, 1.0, 2.0])
    split = draw(st.integers(0, len(events)))
    if split >= 2 and split < len(events):
        events = [sequence(events[:split], within_seconds=draw(within))] + events[split:]
    return Query(
        output=output,
        pattern=sequence(
            events,
            within_seconds=draw(within),
            select=draw(st.sampled_from(list(SelectPolicy))),
            consume=draw(st.sampled_from(list(ConsumePolicy))),
        ),
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), configs, streams(jitter=[0.0]), st.booleans(), st.data())
def test_queries_sharing_an_engine_stream_match_the_reference(
    count, config, records, batched, data
):
    # One engine stream, one step index over every query's steps: per query,
    # the detections are the reference's and the run state is what a
    # standalone matcher fed the same tuples holds.
    deployed = [data.draw(queries(f"g{number}"), label="query") for number in range(count)]
    engine = CEPEngine(clock=SimulatedClock(), matcher_config=config)
    engine.create_stream("s")
    for query in deployed:
        engine.register_query(query)
    chunks, position = [], 0
    while batched and position < len(records):
        size = data.draw(st.integers(1, 12), label="chunk")
        chunks.append(records[position : position + size])
        position += size
    for chunk in chunks:
        engine.push_many("s", chunk, batch_size=len(chunk))
    if not batched:
        engine.push_many("s", records)
    for query in deployed:
        pattern = compile_pattern(query.pattern)
        reference = ReferenceMatcher(pattern, query.output, config)
        expected = [d for record in records for d in reference.process(record, "s")]
        # The engine reads its log in the canonical (timestamp, partition) order.
        assert _states(engine.detections(query.output)) == _states(merge_detections(expected))
        standalone = NFAMatcher(pattern, query.output, config=config)
        for chunk in chunks:
            standalone.process_batch(chunk, "s")
        if not batched:
            standalone.process_many(records, "s")
        matcher = engine.get_query(query.output).matcher
        assert matcher.capture_state() == standalone.capture_state()


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    count=st.integers(2, 6),
    config=configs,
    records=streams(jitter=[0.0, 0.0, 0.45, 1.3]),
    sweeps=st.booleans(),
    batched_prefix=st.booleans(),
    data=st.data(),
)
def test_per_tuple_counters_match_standalone_matchers(
    monkeypatch, count, config, records, sweeps, batched_prefix, data
):
    # Per tuple, the engine calls a query's matcher only when the tuple can
    # change its runs and counts the other tuples in bulk: every counter
    # and the whole run state must still be what a standalone matcher fed
    # every tuple holds — after a batched prefix, on disordered time, and
    # across idle sweeps.
    if sweeps:
        config = dataclasses.replace(config, partition_idle_seconds=0.3)
    deployed = [data.draw(queries(f"g{number}"), label="query") for number in range(count)]
    chunks, position = [], 0
    prefix = data.draw(st.integers(0, len(records)), label="prefix") if batched_prefix else 0
    while position < prefix:
        size = data.draw(st.integers(1, 12), label="chunk")
        chunks.append(records[position : min(position + size, prefix)])
        position += size
    midpoint = data.draw(st.integers(prefix, len(records)), label="midpoint")
    with monkeypatch.context() as patch:
        if sweeps:
            patch.setattr(fanout_module, "_IDLE_SWEEP_TUPLES", 3)
        engine = CEPEngine(clock=SimulatedClock(), matcher_config=config)
        engine.create_stream("s")
        for query in deployed:
            engine.register_query(query)
        standalone = {
            query.output: NFAMatcher(compile_pattern(query.pattern), query.output, config=config)
            for query in deployed
        }
        stream = Stream(list(standalone.values()))
        for chunk in chunks:
            engine.push_many("s", chunk, batch_size=len(chunk))
            stream.push_batch(chunk)
        for number, record in enumerate(records[prefix:], start=prefix):
            if number == midpoint:
                assert engine.query_stats() == {
                    name: matcher.stats.as_dict() for name, matcher in sorted(standalone.items())
                }
            engine.push("s", record)
            stream.push(record)
        for name, matcher in standalone.items():
            assert engine.get_query(name).matcher.capture_state() == matcher.capture_state()


class FullScan(NFAMatcher):
    """The matcher with every partition unordered and no sweep shortcut:
    each prune, advance filter and idle sweep reads every run."""

    def _new_partition(self, latest):
        part = super()._new_partition(latest)
        part.ordered = False
        return part

    @staticmethod
    def _stale(part, now, idle):
        return not any(
            now - run.step_timestamps[-1] <= idle for bucket in part.waiting for run in bucket
        )


def _tables(matcher):
    return {key: (repr(part.oldest), part.occupied) for key, part in matcher.runs.items()}


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    pattern=patterns(),
    config=configs,
    idle=st.sampled_from([None, 0.3]),
    records=streams(jitter=[0.0]) | streams(jitter=[0.0, 0.45]),
    data=st.data(),
)
def test_the_prefix_cut_equals_the_full_scan(monkeypatch, pattern, config, idle, records, data):
    # Cutting expired prefixes off ordered partitions (and skipping sweeps
    # the `oldest` bound rules out) is work saved, never a change: per
    # tuple and in chunks, across a snapshot, on monotone and jittered
    # time, every detection, counter, snapshot and run-table bound must be
    # the full scan's.
    monkeypatch.setattr(fanout_module, "_IDLE_SWEEP_TUPLES", 3)
    config = dataclasses.replace(config, partition_idle_seconds=idle)
    fast = NFAMatcher(pattern, "g", config=config)
    full = FullScan(pattern, "g", config=config)
    stream = Stream([fast, full])
    midpoint = data.draw(st.integers(0, len(records)), label="midpoint")
    position = 0
    while position < len(records):
        if midpoint is not None and position >= midpoint:
            state = fast.capture_state()
            assert state == full.capture_state()
            fast = NFAMatcher(pattern, "g", config=config)
            full = FullScan(pattern, "g", config=config)
            fast.restore_state(json.loads(json.dumps(state)))
            full.restore_state(json.loads(json.dumps(state)))
            stream.matchers = [fast, full]
            midpoint = None
        chunk = records[position : position + data.draw(st.integers(1, 9), label="chunk")]
        position += len(chunk)
        if data.draw(st.booleans(), label="batched"):
            detected = [_states(found) for found in stream.push_batch(chunk)]
        else:
            pushed = [stream.push(record) for record in chunk]
            detected = [[s for found in pushed for s in _states(found[side])] for side in (0, 1)]
        assert detected[0] == detected[1]
        assert fast.stats.as_dict() == full.stats.as_dict()
        assert _tables(fast) == _tables(full)
    assert fast.capture_state() == full.capture_state()


def _unreadable(value, kind):
    """``value`` as the step index cannot read it but every closure can: an
    int beyond ``2**53`` or a :class:`~fractions.Fraction` (neither gets
    verdicts, so the tuple takes the closures)."""
    return value + 2**60 if kind == "huge" else Fraction(value)


def _encoded(detections):
    return [json.dumps(d.to_state(), sort_keys=True, default=repr) for d in detections]


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    count=st.integers(2, 6),
    config=configs,
    records=(
        streams(jitter=[0.0], players=8) | streams(jitter=[0.0, 0.0, 0.45, 1.3], players=8)
    ),
    sweeps=st.booleans(),
    data=st.data(),
)
def test_batched_counters_and_runs_match_standalone_matchers(
    monkeypatch, count, config, records, sweeps, data
):
    # Per chunk, the engine groups the tuples by player once, passes over
    # the queries and the tuples that cannot change a query's runs and
    # counts them in bulk: every counter and the whole run state must still
    # be what a standalone matcher taking every tuple of the same chunks
    # holds — after a per-tuple prefix, on disordered time, with players
    # away from every pose, with tuples the index cannot read, and across
    # idle sweeps.
    if sweeps:
        config = dataclasses.replace(config, partition_idle_seconds=0.3)
    # A player toggles between posing and standing away from every pose (no
    # step of ENGINE_PREDICATES holds), so the runs they opened wait across
    # tuples, and whole chunks, that cannot move them.
    records, away = [dict(record) for record in records], set()
    for record in records:
        change = data.draw(st.sampled_from([None] * 4 + ["toggle", "huge", "fraction"]))
        if change == "toggle":
            away ^= {record["player"]}
        if record["player"] in away:
            record.update(x=-100.0, y=100.0)
        elif change in ("huge", "fraction"):
            field = data.draw(st.sampled_from(["x", "y"]), label="field")
            record[field] = _unreadable(int(record[field]), change)
    deployed = [data.draw(queries(f"g{number}"), label="query") for number in range(count)]
    prefix = data.draw(st.integers(0, len(records)), label="prefix")
    chunks, position = [], prefix
    while position < len(records):
        size = data.draw(st.integers(1, 64), label="chunk")
        chunks.append(records[position : position + size])
        position += size
    with monkeypatch.context() as patch:
        if sweeps:
            patch.setattr(fanout_module, "_IDLE_SWEEP_TUPLES", 3)
        engine = CEPEngine(clock=SimulatedClock(), matcher_config=config)
        engine.create_stream("s")
        for query in deployed:
            engine.register_query(query)
        standalone = {
            query.output: NFAMatcher(compile_pattern(query.pattern), query.output, config=config)
            for query in deployed
        }
        stream = Stream(list(standalone.values()))
        found = {name: [] for name in standalone}
        for record in records[:prefix]:
            engine.push("s", record)
            for name, detections in zip(standalone, stream.push(record)):
                found[name] += detections
        for chunk in chunks:
            engine.push_many("s", chunk, batch_size=len(chunk))
            for name, detections in zip(standalone, stream.push_batch(chunk)):
                found[name] += detections
            assert engine.query_stats() == {
                name: matcher.stats.as_dict() for name, matcher in sorted(standalone.items())
            }
    monotone = all(a["ts"] <= b["ts"] for a, b in zip(records, records[1:]))
    for query in deployed:
        name = query.output
        assert engine.get_query(name).matcher.capture_state() == standalone[name].capture_state()
        detected = _encoded(engine.detections(name))
        assert detected == _encoded(merge_detections(found[name]))
        if monotone and not sweeps:
            # Time runs forward and no sweep fires: the reference's semantics.
            reference = ReferenceMatcher(compile_pattern(query.pattern), name, config)
            expected = [d for record in records for d in reference.process(record, "s")]
            assert detected == _encoded(merge_detections(expected))
