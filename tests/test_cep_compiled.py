"""Equivalence suite: compiled expression closures vs the interpreted walk.

``Expression.compile`` must return closures that produce exactly the values
(and the error types) of ``Expression.evaluate`` — the NFA matcher's fast
path relies on it, and the batched benchmarks assert it end to end.  The
corpus below covers every node type the parser can produce, including the
two specialized comparison shapes (``field <op> literal`` and the learner's
``abs(field ± c) <op> w`` pose-window template).
"""

import pytest

from reference_matcher import ReferenceMatcher
from repro.cep.expressions import (
    Comparison,
    CompiledPredicateCache,
    Expression,
    Literal,
    abs_diff_predicate,
)
from repro.cep.matcher import MatcherConfig, NFAMatcher
from repro.cep.nfa import compile_pattern
from repro.cep.parser import parse_expression, parse_query
from repro.cep.query import EventPattern, sequence
from repro.cep.udf import default_functions
from repro.errors import ExpressionError, UnknownFunctionError

#: The paper's Fig. 1 swipe query (lower-cased fields); its step predicates
#: are the canonical generated-query corpus.
FIG1_QUERY = """
SELECT "swipe_right"
MATCHING (
  kinect(
    abs(rhand_x - torso_x - 0) < 50 and
    abs(rhand_y - torso_y - 150) < 50 and
    abs(rhand_z - torso_z + 120) < 50
  ) ->
  kinect(
    abs(rhand_x - torso_x - 400) < 50 and
    abs(rhand_y - torso_y - 150) < 50 and
    abs(rhand_z - torso_z + 420) < 50
  )
  within 1 seconds select first consume all
) ->
kinect(
  abs(rhand_x - torso_x - 800) < 50 and
  abs(rhand_y - torso_y - 150) < 50 and
  abs(rhand_z - torso_z + 120) < 50
)
within 1 seconds select first consume all;
"""

#: Expression corpus exercising every AST node and operator.
EXPRESSIONS = [
    "1 + 2 * 3",
    "(1 + 2) * 3",
    "10 / 4 - 1",
    "-x + 5",
    "x - y * z",
    "2 + 3 < 10",
    "x < 5",
    "x <= 5",
    "x > 5",
    "x >= 5",
    "x == 5",
    "x != 5",
    "x = 5",
    "x <> 5",
    "x < 5 and y > 2",
    "x < 5 or y > 2",
    "not (x == 3)",
    "x < 5 and y > 2 or not (z == 3)",
    "true",
    "false",
    'name == "swipe"',
    "abs(x - 40) < 50",
    "abs(x + 120) <= 50",
    "abs(x - 0) < 50",
    "abs(x) > 2",
    "sqrt(y) < 3",
    "min(x, y, 3) == 3",
    "max(x, y) > 1",
    "dist(x, y, z, 0, 0, 0) < 100",
    "abs(x - 400) < 50 and abs(y - 150) < 50 and abs(z + 120) < 50",
]

#: Records the corpus is evaluated against.
RECORDS = [
    {"x": 3.0, "y": 4.0, "z": 3.0, "name": "swipe"},
    {"x": -7.5, "y": 9.0, "z": 0.0, "name": "circle"},
    {"x": 420.0, "y": 151.0, "z": -119.0, "name": "swipe"},
    {"x": 5, "y": 2, "z": 12, "name": ""},
]


class TestCompiledEquivalence:
    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_compiled_matches_interpreted_on_corpus(self, text):
        functions = default_functions()
        expression = parse_expression(text)
        compiled = expression.compile(functions)
        for record in RECORDS:
            assert compiled(record) == expression.evaluate(record, functions), (
                f"{text!r} diverged on {record!r}"
            )

    def test_fig1_step_predicates_are_equivalent(self):
        functions = default_functions()
        pattern = compile_pattern(parse_query(FIG1_QUERY).pattern)
        records = [
            {"rhand_x": rx, "rhand_y": 150.0, "rhand_z": -120.0,
             "torso_x": 0.0, "torso_y": 0.0, "torso_z": 0.0}
            for rx in (0.0, 390.0, 430.0, 800.0, 1200.0)
        ]
        for step in pattern.steps:
            compiled = step.predicate.compile(functions)
            for record in records:
                assert compiled(record) == step.predicate.evaluate(record, functions)

    def test_abs_diff_predicate_template_is_equivalent(self):
        functions = default_functions()
        for center in (-120.0, 0.0, 400.0):
            predicate = abs_diff_predicate("rhand_x", center, 50.0)
            compiled = predicate.compile(functions)
            for value in (center - 60, center - 49, center, center + 49, center + 60):
                record = {"rhand_x": value}
                assert compiled(record) == predicate.evaluate(record, functions)

    def test_division_by_zero_raises_in_both_paths(self):
        expression = parse_expression("x / y")
        record = {"x": 1.0, "y": 0.0}
        with pytest.raises(ExpressionError):
            expression.evaluate(record)
        with pytest.raises(ExpressionError):
            expression.compile()(record)

    def test_missing_field_raises_in_both_paths(self):
        for text in ("x + 1", "x < 5", "abs(x - 40) < 50"):
            expression = parse_expression(text)
            with pytest.raises(ExpressionError):
                expression.evaluate({"other": 1.0})
            with pytest.raises(ExpressionError):
                expression.compile()({"other": 1.0})

    def test_window_conjunction_tests_atoms_in_order_and_names_the_missing_field(self):
        expression = parse_expression("abs(x - 40) < 50 and abs(y - 1) < 2")
        compiled = expression.compile()
        assert compiled({"x": 500.0}) is False  # x decides; y is never read
        assert expression.evaluate({"x": 500.0}) is False
        with pytest.raises(ExpressionError, match="no field 'y'"):
            compiled({"x": 40.0})
        with pytest.raises(ExpressionError, match="no field 'y'"):
            expression.evaluate({"x": 40.0})

    def test_unknown_function_raises_at_compile_time(self):
        expression = parse_expression("mystery(x) < 5")
        with pytest.raises(UnknownFunctionError):
            expression.compile(default_functions())

    def test_arity_mismatch_raises_at_compile_time(self):
        expression = parse_expression("abs(x, y) < 5")
        with pytest.raises(ExpressionError):
            expression.compile(default_functions())

    def test_custom_udf_resolves_through_registry(self):
        functions = default_functions()
        functions.register("double", lambda value: value * 2, arity=1)
        expression = parse_expression("double(x) > 10")
        compiled = expression.compile(functions)
        assert compiled({"x": 6}) is True
        assert compiled({"x": 4}) is False

    def test_abs_override_disables_the_window_specialization(self):
        # A user-registered 'abs' must win over the builtin shortcut.
        functions = default_functions()
        functions.register("abs", lambda value: 0.0, arity=1)
        for text in ("abs(x - 400) < 50", "abs(x - 400) < 50 and abs(x + 7) < 1"):
            expression = parse_expression(text)
            compiled = expression.compile(functions)
            for record in ({"x": 0.0}, {"x": 1000.0}):
                assert compiled(record) == expression.evaluate(record, functions)
                assert compiled(record) is True  # overridden abs returns 0 < 50

    def test_base_class_fallback_interprets_custom_nodes(self):
        class Always7(Expression):
            def evaluate(self, record, functions=None):
                return 7

            def to_query(self):
                return "always7"

            def fields(self):
                return frozenset()

        comparison = Comparison("<", Always7(), Literal(10))
        assert comparison.compile()({}) is True


class TestCompiledPredicateCache:
    def test_identical_predicates_share_one_closure(self):
        cache = CompiledPredicateCache(default_functions())
        first = cache.compile(parse_expression("x > 100"))
        second = cache.compile(parse_expression("x > 100"))
        assert first is second
        assert cache.hits == 1
        assert cache.misses == 1
        assert len(cache) == 1

    def test_different_predicates_get_distinct_closures(self):
        cache = CompiledPredicateCache(default_functions())
        first = cache.compile(parse_expression("x > 100"))
        second = cache.compile(parse_expression("x > 200"))
        assert first is not second
        assert len(cache) == 2

    def test_clear_forgets_cached_closures(self):
        cache = CompiledPredicateCache(default_functions())
        closure = cache.compile(parse_expression("x > 100"))
        cache.clear()
        assert len(cache) == 0
        assert cache.compile(parse_expression("x > 100")) is not closure


class TestMatcherPathEquivalence:
    def test_compiled_and_interpreted_matchers_agree(self):
        # The interpreted matcher is the test oracle, ``ReferenceMatcher``.
        events = [
            EventPattern(stream="s", predicate=parse_expression(f"abs(x - {i * 100}) < 25"))
            for i in range(3)
        ]
        pattern = compile_pattern(sequence(events, within_seconds=1.0))
        compiled = NFAMatcher(pattern, output="g", config=MatcherConfig())
        interpreted = ReferenceMatcher(pattern, "g", MatcherConfig())
        values = [0, 310, 100, 90, 210, 0, 120, 95, 200, 205, 0, 100, 200]
        tuples = [{"x": float(v), "ts": i * 0.1} for i, v in enumerate(values)]
        expected = [d for record in tuples for d in interpreted.process(record, "s")]
        assert compiled.process_many(tuples, "s") == expected
        assert expected
        assert compiled.stats.runs_started == interpreted.started
        assert compiled.stats.runs_pruned == interpreted.pruned
