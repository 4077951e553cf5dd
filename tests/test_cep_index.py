"""The step index answers exactly what each step's compiled closure answers.

``repro.cep.index`` replaces closure calls with one bisect per field, so
every endpoint must sit where the closure's own float arithmetic flips —
including ``c == w``, ``c == 0``, negative centres, the subnormal range
(``abs(v - 273) < 273`` first holds near 2.8e-14, not at ``c - w == 0``),
``±0.0``, NaN, ``±inf`` and ints up to ``2**53``.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.cep.expressions import (
    BinaryOp,
    BooleanOp,
    Comparison,
    FieldRef,
    FunctionCall,
    Literal,
)
from repro.cep.index import EXACT_INT, StepIndex, _float, _ordinal, step_atoms
from repro.cep.parser import parse_expression
from repro.cep.udf import default_functions

OPERATORS = ["<", "<=", ">", ">=", "=="]

#: Window centres and widths: small, large, fractional, integral, negative.
numbers = st.one_of(
    st.sampled_from([0, 0.0, 1, 273, 273.0, -120, 0.1, 2.5, 1e-300, 5e-324, 1e15]),
    st.integers(-(2**40), 2**40),
    st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
)


def _window(center, operator, width, plus=False):
    inner = (
        BinaryOp("+", FieldRef("v"), Literal(-center))
        if plus
        else BinaryOp("-", FieldRef("v"), Literal(center))
    )
    return Comparison(operator, FunctionCall("abs", [inner]), Literal(width))


def _neighbours(value):
    """``value`` and two floats on either side of it, in float order."""
    out = [value]
    below = above = float(value)
    for _ in range(2):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def _probes(index, *anchors):
    values = [0.0, -0.0, math.nan, math.inf, -math.inf, EXACT_INT, -EXACT_INT, 1, -1]
    for anchor in anchors:
        if math.isfinite(anchor):
            values += _neighbours(anchor)
            values += [math.floor(anchor) - 1, math.floor(anchor), math.ceil(anchor) + 1]
    for _, endpoints, _ in index.fields:
        for endpoint in endpoints:
            values += _neighbours(endpoint)
    return [v for v in values if not isinstance(v, int) or abs(v) <= EXACT_INT]


def _assert_agrees(predicate, *anchors):
    closure = predicate.compile(default_functions())
    atoms = step_atoms(predicate, default_functions())
    assert atoms is not None, predicate.to_query()
    index = StepIndex([atoms])
    bit = index.bits[atoms]
    for value in _probes(index, *anchors):
        record = {"v": value}
        verdicts = index.lookup(record)
        assert verdicts is not None
        assert bool(verdicts & bit) == closure(record), (predicate.to_query(), value)


class TestOrdinals:
    @given(st.floats(allow_nan=False))
    def test_ordinals_round_trip_and_count_every_float(self, value):
        assert _float(_ordinal(value)) == value
        if value != math.inf:
            assert _ordinal(math.nextafter(value, math.inf)) == _ordinal(value) + 1

    def test_signed_zeros_share_one_ordinal(self):
        assert _ordinal(-0.0) == _ordinal(0.0) == 0


class TestIndexEqualsClosure:
    @settings(max_examples=300, deadline=None)
    @given(numbers, st.sampled_from(OPERATORS), numbers, st.booleans())
    def test_pose_window(self, center, operator, width, plus):
        predicate = _window(center, operator, width, plus)
        assume(step_atoms(predicate, default_functions()) is not None)
        _assert_agrees(predicate, center - width, center + width, center)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(OPERATORS), numbers)
    def test_field_against_literal(self, operator, bound):
        predicate = Comparison(operator, FieldRef("v"), Literal(bound))
        assume(step_atoms(predicate, default_functions()) is not None)
        _assert_agrees(predicate, bound)

    @pytest.mark.parametrize(
        "center, width", [(273, 273), (273.0, 273.0), (0, 5), (0.0, 5.0), (-120, 50), (7, 0)]
    )
    @pytest.mark.parametrize("operator", ["<", "<=", "=="])
    def test_edge_windows(self, center, width, operator):
        _assert_agrees(_window(center, operator, width), center - width, center + width)

    def test_the_circle_window_opens_above_zero(self):
        # c - w is 0.0, but abs(v - 273) < 273 first holds ~2**62 ordinals later.
        predicate = _window(273, "<", 273)
        atoms = step_atoms(predicate, default_functions())
        index = StepIndex([atoms])
        (_, endpoints, _), = index.fields
        assert 0.0 < endpoints[0] < 1e-13
        closure = predicate.compile(default_functions())
        assert closure({"v": endpoints[0]}) and not closure({"v": math.nextafter(endpoints[0], 0)})
        _assert_agrees(predicate, 0.0, 546.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(["v", "w"]), numbers, numbers), min_size=2, max_size=4),
        st.lists(st.floats(allow_nan=True) | st.integers(-(2**53), 2**53), min_size=8, max_size=8),
    )
    def test_conjunctions_over_shared_and_separate_fields(self, windows, values):
        predicate = BooleanOp(
            "and",
            [
                Comparison("<", FunctionCall("abs", [BinaryOp("-", FieldRef(f), Literal(c))]), Literal(w))
                for f, c, w in windows
            ],
        )
        atoms = step_atoms(predicate, default_functions())
        assume(atoms is not None)
        closure = predicate.compile(default_functions())
        index = StepIndex([atoms])
        bit = index.bits[atoms]
        probes = list(values)
        for _, endpoints, _ in index.fields:
            probes += [p for e in endpoints for p in _neighbours(e)]
        for first, second in zip(probes, probes[1:] + probes[:1]):
            record = {"v": first, "w": second}
            assert bool(index.lookup(record) & bit) == closure(record)


class TestWhatIsIndexed:
    @pytest.mark.parametrize(
        "text",
        [
            "abs(x - 5) < 3",
            "abs(x + 5) <= 3 and abs(y - 1) < 2",
            "x < 5",
            "x == 5 and abs(x - 5) < 1",
            "x > 5 and x < 9",  # the term is false at +inf, so NaN is too
        ],
    )
    def test_indexed(self, text):
        assert step_atoms(parse_expression(text), default_functions()) is not None

    @pytest.mark.parametrize(
        "text",
        [
            "abs(x - 5) != 3",  # true on NaN
            "x > 5",  # true at +inf, which shares NaN's region
            "abs(x - 5) > 3",
            "abs(x - 5) < 3 or abs(y - 1) < 2",
            "abs(x - y) < 3",
            "sqrt(x) < 3",
            "not (x < 5)",
            'x == "five"',
            "abs(x - 5) < 100000000000000000000",  # beyond 2**53: int and float disagree
            "true",
        ],
    )
    def test_left_to_the_closure(self, text):
        assert step_atoms(parse_expression(text), default_functions()) is None

    def test_an_overridden_abs_keeps_the_closure(self):
        functions = default_functions()
        functions.register("abs", lambda value: 0.0, arity=1)
        assert step_atoms(parse_expression("abs(x - 5) < 3"), functions) is None


class TestFallback:
    @pytest.mark.parametrize(
        "record",
        [{}, {"x": "5"}, {"x": None}, {"x": True}, {"x": EXACT_INT + 1}, {"x": -EXACT_INT - 1}],
        ids=["missing", "string", "none", "bool", "int-above-2**53", "int-below--2**53"],
    )
    def test_unreadable_values_get_no_verdicts(self, record):
        atoms = step_atoms(parse_expression("abs(x - 5) < 3"), default_functions())
        assert StepIndex([atoms]).lookup(record) is None

    def test_identical_steps_share_one_bit(self):
        functions = default_functions()
        first = step_atoms(parse_expression("abs(x - 5) < 3"), functions)
        again = step_atoms(parse_expression("abs(x - 5.0) < 3.0"), functions)
        other = step_atoms(parse_expression("abs(x - 6) < 3"), functions)
        index = StepIndex([first, again, other])
        assert index.bits[first] == index.bits[again] != index.bits[other]
