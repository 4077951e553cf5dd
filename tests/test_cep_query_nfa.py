"""Unit tests for repro.cep.query (pattern model) and repro.cep.nfa (compilation)."""

import pytest

from repro.cep.expressions import Comparison, FieldRef, Literal
from repro.cep.nfa import CompiledPattern, Step, TimeConstraint, compile_pattern
from repro.cep.query import (
    ConsumePolicy,
    EventPattern,
    Query,
    SelectPolicy,
    SequencePattern,
    sequence,
)


def _event(threshold: float, stream: str = "kinect_t") -> EventPattern:
    return EventPattern(
        stream=stream, predicate=Comparison(">", FieldRef("x"), Literal(threshold))
    )


class TestQueryModel:
    def test_sequence_requires_elements(self):
        with pytest.raises(ValueError):
            SequencePattern(elements=())

    def test_sequence_rejects_nonpositive_within(self):
        with pytest.raises(ValueError):
            sequence([_event(1)], within_seconds=0.0)

    def test_event_and_predicate_counts(self):
        pattern = sequence([_event(1), sequence([_event(2), _event(3)])])
        assert pattern.event_count() == 3
        assert pattern.predicate_count() == 3

    def test_flatten_preserves_order(self):
        inner = sequence([_event(2), _event(3)])
        pattern = sequence([_event(1), inner, _event(4)])
        thresholds = [
            event.predicate.right.value for event in pattern.flatten()
        ]
        assert thresholds == [1, 2, 3, 4]

    def test_streams_are_collected(self):
        pattern = sequence([_event(1, "a"), _event(2, "b")])
        assert pattern.streams() == {"a", "b"}

    def test_query_requires_output(self):
        with pytest.raises(ValueError):
            Query(output="", pattern=sequence([_event(1)]))

    def test_query_registration_name_defaults_to_output(self):
        query = Query(output="swipe", pattern=sequence([_event(1)]))
        assert query.registration_name == "swipe"
        named = Query(output="swipe", pattern=sequence([_event(1)]), name="custom")
        assert named.registration_name == "custom"

    def test_query_text_contains_select_and_matching(self):
        query = Query(output="swipe", pattern=sequence([_event(1)], within_seconds=2.0))
        text = query.to_query()
        assert text.startswith('SELECT "swipe"')
        assert "MATCHING" in text
        assert "within 2 seconds" in text


    def test_a_literal_true_event_accepts_every_tuple(self):
        pattern = EventPattern("kinect", Literal(True))
        assert pattern.predicate.evaluate({}) is True
        assert pattern.predicate.evaluate({"x": -1.0}) is True
        assert pattern.to_query().split() == ["kinect(", "true", ")"]
        assert compile_pattern(sequence([pattern])).length == 1


class TestCompilation:
    def test_flat_sequence_compiles_one_step_per_event(self):
        compiled = compile_pattern(sequence([_event(1), _event(2)], within_seconds=1.0))
        assert compiled.length == 2
        assert [step.index for step in compiled.steps] == [0, 1]
        assert compiled.constraints == (TimeConstraint(0, 1, 1.0),)

    def test_nested_groups_produce_constraints_per_level(self):
        inner = sequence([_event(1), _event(2)], within_seconds=1.0)
        outer = sequence([inner, _event(3)], within_seconds=2.0)
        compiled = compile_pattern(outer)
        assert compiled.length == 3
        assert TimeConstraint(0, 1, 1.0) in compiled.constraints
        assert TimeConstraint(0, 2, 2.0) in compiled.constraints

    def test_policies_come_from_the_outermost_sequence(self):
        inner = sequence([_event(1), _event(2)], select=SelectPolicy.ALL)
        outer = sequence([inner, _event(3)], select=SelectPolicy.LAST,
                         consume=ConsumePolicy.NONE)
        compiled = compile_pattern(outer)
        assert compiled.select is SelectPolicy.LAST
        assert compiled.consume is ConsumePolicy.NONE

    def test_constraint_lookup_helpers(self):
        inner = sequence([_event(1), _event(2)], within_seconds=1.0)
        outer = sequence([inner, _event(3)], within_seconds=2.0)
        compiled = compile_pattern(outer)
        assert [c.last for c in compiled.constraints_ending_at(1)] == [1]
        assert len(compiled.constraints_covering(0)) == 2
        assert len(compiled.constraints_covering(1)) == 1

    def test_time_constraint_validation(self):
        with pytest.raises(ValueError):
            TimeConstraint(2, 1, 1.0)
        with pytest.raises(ValueError):
            TimeConstraint(0, 1, 0.0)

    def test_compiled_pattern_requires_steps(self):
        with pytest.raises(ValueError):
            CompiledPattern(steps=(), constraints=())

    def test_compile_pattern_and_describe(self):
        query = Query(output="g", pattern=sequence([_event(1), _event(2)], within_seconds=1.0))
        compiled = compile_pattern(query.pattern)
        description = compiled.describe()
        assert "within 1s" in description
        assert "select first" in description
        assert compiled.streams() == {"kinect_t"}

    def test_step_describe_mentions_stream_and_predicate(self):
        step = Step(index=0, stream="kinect_t", predicate=Comparison(">", FieldRef("x"), Literal(1)))
        assert "kinect_t" in step.describe()
        assert "x > 1" in step.describe()
