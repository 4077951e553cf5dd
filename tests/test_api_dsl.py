"""Tests of the fluent query DSL (repro.api.dsl).

Covers the expression layer (operator overloading builds the same AST the
parser produces), the builder layer (chains produce the existing ``Query``
dataclass), and the round-trip guarantees the compiled-predicate cache
relies on: ``parse_query(q.to_query())`` equals the original query, the
re-rendered text is byte-identical, and builder-produced queries detect
exactly what their hand-written text forms detect on the per-tuple and
batched engine paths, and what the interpreted reference matcher detects.
"""

from __future__ import annotations

import random

import pytest

from reference_matcher import reference_detections
from repro.api import Expr, F, Q, QueryBuilder, udf
from repro.cep import (
    CEPEngine,
    ConsumePolicy,
    EventPattern,
    Query,
    SelectPolicy,
    SequencePattern,
    parse_expression,
    parse_query,
)
from repro.core import GestureDescription, PoseWindow, QueryGenerator, Window
from repro.errors import QueryBuilderError
from repro.streams import SimulatedClock


# ---------------------------------------------------------------------------
# Expression layer
# ---------------------------------------------------------------------------


class TestExpressions:
    def test_field_reference(self):
        assert F("rhand_x").to_query() == "rhand_x"
        assert F.rhand_x.to_query() == "rhand_x"

    def test_paper_window_predicate(self):
        predicate = abs(F("x") - 0.3) < 0.05
        assert predicate.to_query() == "abs(x - 0.3) < 0.05"

    def test_arithmetic_and_reflected_operands(self):
        assert (F("a") + 1).to_query() == "a + 1"
        assert (1 + F("a")).to_query() == "1 + a"
        assert (2 * (F("a") - F("b"))).to_query() == "2 * (a - b)"
        assert (1 / F("a")).to_query() == "1 / a"
        assert (-F("a")).to_query() == "-a"

    def test_comparisons(self):
        assert (F("a") <= 3).to_query() == "a <= 3"
        assert (F("a") == 3).to_query() == "a == 3"
        assert (F("a") != 3).to_query() == "a != 3"
        # Reflected comparison flips the operator.
        assert (3 > F("a")).to_query() == "a < 3"

    def test_boolean_connectives_flatten_like_the_parser(self):
        conjunction = (F("a") < 1) & (F("b") < 2) & (F("c") < 3)
        assert conjunction.to_query() == "a < 1 and b < 2 and c < 3"
        parsed = parse_expression(conjunction.to_query())
        assert parsed == conjunction.build()
        # Structural identity, not just text equality: one flat n-ary node.
        assert len(conjunction.build().operands) == 3

    def test_or_and_not(self):
        expression = ((F("a") < 1) | (F("b") < 2)) & ~(F("c") == 3)
        assert expression.to_query() == "(a < 1 or b < 2) and not (c == 3)"
        assert parse_expression(expression.to_query()) == expression.build()

    def test_udf_and_literals(self):
        expression = udf("dist", F("rhand_x"), 0) < 100
        assert expression.to_query() == "dist(rhand_x, 0) < 100"

    def test_evaluates_like_the_parsed_form(self):
        expression = (abs(F("x") - 10) < 5) & (F("y") > 0)
        record = {"x": 12.0, "y": 1.0}
        assert expression.build().evaluate(record) is True
        assert parse_expression(expression.to_query()).evaluate(record) is True
        assert expression.build().compile()(record) is True

    def test_python_bool_context_is_rejected(self):
        with pytest.raises(QueryBuilderError, match="truth value"):
            bool(F("a") < 1)
        with pytest.raises(QueryBuilderError):
            if F("a") < 1 and F("b") < 2:  # noqa: PT018 — the mistake under test
                pass

    def test_expr_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(F("a"))

    def test_foreign_operand_rejected(self):
        with pytest.raises(QueryBuilderError, match="cannot use a"):
            F("a") + object()


# ---------------------------------------------------------------------------
# Builder layer
# ---------------------------------------------------------------------------


class TestQueryBuilder:
    def test_issue_example_chain(self):
        query = (
            Q.stream("kinect")
            .where(abs(F("x") - 0.3) < 0.05)
            .then(abs(F("x") - 0.7) < 0.05)
            .within(2.0)
            .select("first")
            .consume("all")
            .named("swipe_right")
        )
        assert isinstance(query, Query)
        assert query.output == "swipe_right"
        assert query.registration_name == "swipe_right"
        assert query.event_count() == 2
        assert query.streams() == {"kinect"}
        assert query.pattern.within_seconds == 2.0

    def test_builder_is_immutable_and_shareable(self):
        base = Q.stream("kinect_t").where(F("a") > 0)
        fast = base.within(1.0).named("fast")
        slow = base.within(4.0).named("slow")
        assert fast.pattern.within_seconds == 1.0
        assert slow.pattern.within_seconds == 4.0
        # The shared prefix was not mutated by either chain.
        assert base.pattern().within_seconds is None

    def test_nested_chain_becomes_nested_sequence(self):
        inner = Q.stream("kinect_t").where(F("a") > 0).then(F("b") > 0).within(1.0)
        query = Q.stream("kinect_t").then(inner).then(F("c") > 0).within(2.0).named("g")
        assert isinstance(query.pattern.elements[0], SequencePattern)
        assert isinstance(query.pattern.elements[1], EventPattern)
        assert query.event_count() == 3

    def test_single_event_nested_chain_is_inlined(self):
        # The parser collapses "( kinect_t(...) )" to the bare event; the
        # builder must produce what its own text reparses to.
        inner = Q.stream("kinect_t").where(F("a") > 0)
        query = Q.stream("kinect_t").then(inner).then(F("b") > 0).named("g")
        assert all(isinstance(e, EventPattern) for e in query.pattern.elements)
        assert parse_query(query.to_query()) == query

    def test_stream_and_label_rejected_for_prebuilt_steps(self):
        prebuilt = Q.event("other", F("b") > 0)
        with pytest.raises(QueryBuilderError, match="pre-built"):
            Q.stream("s").then(prebuilt, stream="s")
        with pytest.raises(QueryBuilderError, match="pre-built"):
            Q.stream("s").then(Q.stream("s").where(F("a") > 0), label="pose")

    def test_per_step_stream_override_and_mixed_streams(self):
        query = (
            Q.stream("kinect_t")
            .where(F("a") > 0)
            .then(Q.event("other", F("b") > 0))
            .then(F("c") > 0, stream="third")
            .named("multi")
        )
        assert query.streams() == {"kinect_t", "other", "third"}

    def test_policies_accept_enums_and_strings(self):
        query = (
            Q.stream("s")
            .where(F("a") > 0)
            .select(SelectPolicy.ALL)
            .consume(ConsumePolicy.NONE)
            .named("g")
        )
        assert query.pattern.select is SelectPolicy.ALL
        assert query.pattern.consume is ConsumePolicy.NONE

    def test_non_default_policies_round_trip_without_within(self):
        query = Q.stream("s").where(F("a") > 0).select("all").consume("none").named("g")
        text = query.to_query()
        assert "select all consume none" in text
        assert parse_query(text) == query
        assert parse_query(text).to_query() == text

    def test_registration_name_does_not_break_round_trip(self):
        # Query.name is rendering-invisible metadata (like EventPattern.label)
        # and must not participate in equality.
        query = Q.stream("s").where(F("a") > 1).named("g", name="registered_as")
        assert query.registration_name == "registered_as"
        assert parse_query(query.to_query()) == query

    def test_output_makes_builder_deployable(self):
        builder = Q.stream("s").where(F("a") > 0).output("g")
        assert builder.build().output == "g"
        assert builder.to_query().startswith('SELECT "g"')

    def test_sequence_shorthand(self):
        builder = Q.sequence(F("a") > 0, F("b") > 0, stream="s", within=1.5)
        query = builder.named("g")
        assert query.event_count() == 2
        assert query.pattern.within_seconds == 1.5

    def test_error_cases(self):
        with pytest.raises(QueryBuilderError, match="no event patterns"):
            Q.stream("s").build(output="g")
        with pytest.raises(QueryBuilderError, match="no output value"):
            Q.stream("s").where(F("a") > 0).build()
        with pytest.raises(QueryBuilderError, match="must be positive"):
            Q.stream("s").where(F("a") > 0).within(0)
        with pytest.raises(QueryBuilderError, match="unknown select policy"):
            Q.stream("s").where(F("a") > 0).select("sometimes")
        with pytest.raises(QueryBuilderError):
            QueryBuilder(stream="")
        with pytest.raises(TypeError):
            Q()

    def test_engine_accepts_builder_directly(self):
        engine = CEPEngine(clock=SimulatedClock())
        engine.create_stream("s")
        deployed = engine.register_query(
            Q.stream("s").where(F("a") > 0).output("direct")
        )
        engine.push("s", {"ts": 0.0, "a": 1.0})
        assert [d.output for d in deployed.detections()] == ["direct"]


# ---------------------------------------------------------------------------
# Round-trip properties
# ---------------------------------------------------------------------------


def _random_predicate(rng: random.Random) -> Expr:
    """A conjunction of 1–3 paper-style window predicates."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(["rhand_x", "rhand_y", "rhand_z", "lhand_x", "lhand_y"])
        center = rng.randint(-800, 800)
        width = rng.randint(10, 400)
        shape = rng.randrange(3)
        if shape == 0:
            terms.append(abs(F(name) - center) < width)
        elif shape == 1:
            terms.append(F(name) > center)
        else:
            terms.append((F(name) - center) * 2 <= width)
    predicate = terms[0]
    for term in terms[1:]:
        predicate = predicate & term
    return predicate


def _random_builder_query(rng: random.Random, depth: int = 0) -> QueryBuilder:
    builder = Q.stream(rng.choice(["kinect_t", "sensor"]))
    steps = rng.randint(1, 3)
    for _index in range(steps):
        if depth < 1 and rng.random() < 0.3:
            nested = _random_builder_query(rng, depth + 1).within(
                rng.choice([0.5, 1.0, 2.0])
            )
            builder = builder.then(nested)
        else:
            builder = builder.then(_random_predicate(rng))
    constrained = rng.random() < 0.8
    if constrained:
        builder = builder.within(rng.choice([0.5, 1.0, 2.0, 3.5]))
    if rng.random() < 0.5:
        builder = builder.select(rng.choice(["first", "last", "all"]))
        builder = builder.consume(rng.choice(["all", "none"]))
    return builder


@pytest.mark.parametrize("seed", range(25))
def test_random_builder_chains_round_trip(seed):
    """parse_query(q.to_query()) == q, byte-identically, for random chains."""
    rng = random.Random(seed)
    query = _random_builder_query(rng).named(f"gesture_{seed}")
    text = query.to_query()
    reparsed = parse_query(text)
    assert reparsed == query
    assert reparsed.to_query() == text


def _random_description(rng: random.Random, name: str) -> GestureDescription:
    poses = []
    for index in range(rng.randint(1, 5)):
        fields = sorted(
            rng.sample(["rhand_x", "rhand_y", "rhand_z", "lhand_x"], rng.randint(1, 3))
        )
        center = {field: float(rng.randint(-900, 900)) for field in fields}
        width = {field: float(rng.randint(5, 400)) for field in fields}
        poses.append(PoseWindow(index, Window(center, width)))
    return GestureDescription(
        name=name,
        poses=poses,
        joints=["rhand"],
        sample_count=rng.randint(1, 6),
        mean_duration_s=rng.uniform(0.3, 2.0),
        max_duration_s=rng.uniform(2.0, 4.0),
    )


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("nested", [True, False])
def test_generated_query_corpus_round_trips(seed, nested):
    """QueryGenerator output round-trips through the parser unchanged."""
    from repro.core import QueryGenConfig

    rng = random.Random(1000 + seed)
    description = _random_description(rng, f"g{seed}")
    query = QueryGenerator(QueryGenConfig(nested=nested)).generate(description)
    text = query.to_query()
    reparsed = parse_query(text)
    assert reparsed == query
    assert reparsed.to_query() == text


# ---------------------------------------------------------------------------
# Detection equivalence: builder vs text, on all three engine paths
# ---------------------------------------------------------------------------


def _drive(query, records, *, batch_size=None):
    engine = CEPEngine(clock=SimulatedClock())
    engine.create_stream("kinect_t")
    deployed = engine.register_query(query, create_missing_streams=True)
    engine.push_many("kinect_t", records, batch_size=batch_size)
    return _summary(deployed.detections())


def _summary(detections):
    return [
        (d.output, d.timestamp, d.start_timestamp, d.step_timestamps, d.partition)
        for d in detections
    ]


def _synthetic_records(rng: random.Random, count: int = 400):
    records = []
    for index in range(count):
        records.append(
            {
                "ts": index * 0.05,
                "player": rng.choice([1, 2]),
                "rhand_x": rng.uniform(-900, 900),
                "rhand_y": rng.uniform(-900, 900),
                "rhand_z": rng.uniform(-900, 900),
                "lhand_x": rng.uniform(-900, 900),
                "lhand_y": rng.uniform(-900, 900),
            }
        )
    return records


@pytest.mark.parametrize("seed", range(8))
def test_builder_and_text_detect_identically_on_all_paths(seed):
    rng = random.Random(3000 + seed)
    query = _random_builder_query(rng).named(f"g{seed}")
    text = query.to_query()
    records = _synthetic_records(random.Random(4000 + seed))

    baseline = _summary(reference_detections([query], "kinect_t", records))
    for deployable in (query, text):
        for kwargs in ({}, {"batch_size": 32}):
            assert _drive(deployable, records, **kwargs) == baseline, (
                f"mismatch for {type(deployable).__name__} with {kwargs}"
            )


def test_compiled_cache_keys_are_shared_between_builder_and_text():
    """Structurally identical predicates hit the engine-wide compile cache
    whether they arrive via the DSL or via parsed text."""
    engine = CEPEngine(clock=SimulatedClock())
    engine.create_stream("s")
    predicate = abs(F("a") - 10) < 5
    engine.register_query(Q.stream("s").where(predicate).output("via_builder"))
    misses = engine.compile_cache.misses
    engine.register_query('SELECT "via_text" MATCHING s( abs(a - 10) < 5 );')
    assert engine.compile_cache.misses == misses
    assert engine.compile_cache.hits >= 1
