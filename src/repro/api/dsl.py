"""Fluent query-builder DSL for gesture queries.

The paper's artifact is a declarative CEP query (Fig. 1); this module lets
applications *write* one in Python instead of assembling
:class:`~repro.cep.query.Query` dataclasses or pasting query text:

>>> from repro.api import F, Q
>>> swipe = (
...     Q.stream("kinect_t")
...     .where(abs(F("rhand_x") + 300) < 150)
...     .then(abs(F("rhand_x") - 300) < 150)
...     .within(2.0)
...     .select("first")
...     .consume("all")
...     .named("swipe_right")
... )
>>> swipe.streams() == {"kinect_t"}
True

Two layers:

* :class:`Expr` — operator-overloaded wrapper around the existing
  :class:`~repro.cep.expressions.Expression` AST.  ``F("rhand_x")`` makes a
  field reference; arithmetic (``+ - * /``), comparisons (``< <= > >= ==
  !=``), ``abs()``, unary ``-``, and the boolean connectives ``&``, ``|``,
  ``~`` all build AST nodes.  ``udf("dist", a, b)`` calls a registered
  function.
* :class:`QueryBuilder` — an immutable fluent chain started by
  ``Q.stream(name)``.  ``where``/``then`` append event patterns, nested
  chains passed to ``then`` become parenthesised sub-sequences,
  ``within``/``select``/``consume`` set the sequence constraints, and
  ``named(output)`` terminates the chain with the existing frozen
  :class:`~repro.cep.query.Query`.

Round-trip guarantee
--------------------
Builders emit exactly the AST the parser produces for the rendered text:
``parse_query(builder.named(n).to_query())`` equals the built query, and
re-rendering is byte-identical.  Because predicates render to the same
canonical ``to_query()`` text either way, the engine's compiled-predicate
cache keys are stable across hand-written text, generated queries and
builder chains.  To preserve this, ``&``/``|`` flatten nested conjunctions
the way the parser does, and ``then`` inlines trivial single-event groups
the way the parser collapses them.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, Union

from repro.cep.expressions import (
    BinaryOp,
    BooleanOp,
    Comparison,
    Expression,
    FieldRef,
    FunctionCall,
    Literal,
    NotOp,
    UnaryMinus,
)
from repro.cep.query import (
    ConsumePolicy,
    EventPattern,
    PatternNode,
    Query,
    SelectPolicy,
    SequencePattern,
)
from repro.errors import QueryBuilderError

#: Anything an :class:`Expr` operator accepts on the other side.
ExprLike = Union["Expr", Expression, bool, int, float, str]


def _to_expression(value: ExprLike) -> Expression:
    """Lower a DSL operand to a raw :class:`Expression` node."""
    if isinstance(value, Expr):
        return value.node
    if isinstance(value, Expression):
        return value
    if isinstance(value, (bool, int, float, str)):
        return Literal(value)
    raise QueryBuilderError(
        f"cannot use a {type(value).__name__} in a query expression; "
        f"expected an Expr, an Expression, or a literal"
    )


def _bool_join(operator: str, left: Expression, right: Expression) -> Expression:
    """Combine two boolean operands, flattening same-operator chains.

    The parser produces n-ary ``BooleanOp`` nodes for ``a and b and c``;
    flattening here keeps ``(x & y) & z`` structurally identical to the
    reparse of its own text.
    """
    operands = []
    for node in (left, right):
        if isinstance(node, BooleanOp) and node.operator == operator:
            operands.extend(node.operands)
        else:
            operands.append(node)
    return BooleanOp(operator, operands)


class Expr:
    """Operator-overloaded handle on an :class:`Expression` AST node.

    Instances are cheap immutable wrappers; every operator returns a new
    :class:`Expr`.  ``==``/``!=`` build :class:`Comparison` nodes (so
    instances are deliberately unhashable), and ``&``/``|``/``~`` build the
    boolean connectives — Python's ``and``/``or``/``not`` cannot be
    overloaded.
    """

    __slots__ = ("node",)

    def __init__(self, node: Expression) -> None:
        self.node = node

    # -- rendering ---------------------------------------------------------------

    def build(self) -> Expression:
        """The wrapped raw AST node."""
        return self.node

    def to_query(self) -> str:
        """Canonical query-text rendering of the expression."""
        return self.node.to_query()

    def __repr__(self) -> str:
        return f"Expr({self.to_query()!r})"

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: ExprLike) -> "Expr":
        return Expr(BinaryOp("+", self.node, _to_expression(other)))

    def __radd__(self, other: ExprLike) -> "Expr":
        return Expr(BinaryOp("+", _to_expression(other), self.node))

    def __sub__(self, other: ExprLike) -> "Expr":
        return Expr(BinaryOp("-", self.node, _to_expression(other)))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return Expr(BinaryOp("-", _to_expression(other), self.node))

    def __mul__(self, other: ExprLike) -> "Expr":
        return Expr(BinaryOp("*", self.node, _to_expression(other)))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return Expr(BinaryOp("*", _to_expression(other), self.node))

    def __truediv__(self, other: ExprLike) -> "Expr":
        return Expr(BinaryOp("/", self.node, _to_expression(other)))

    def __rtruediv__(self, other: ExprLike) -> "Expr":
        return Expr(BinaryOp("/", _to_expression(other), self.node))

    def __neg__(self) -> "Expr":
        return Expr(UnaryMinus(self.node))

    def __pos__(self) -> "Expr":
        return self

    def __abs__(self) -> "Expr":
        return Expr(FunctionCall("abs", [self.node]))

    # -- comparisons -------------------------------------------------------------

    def __lt__(self, other: ExprLike) -> "Expr":
        return Expr(Comparison("<", self.node, _to_expression(other)))

    def __le__(self, other: ExprLike) -> "Expr":
        return Expr(Comparison("<=", self.node, _to_expression(other)))

    def __gt__(self, other: ExprLike) -> "Expr":
        return Expr(Comparison(">", self.node, _to_expression(other)))

    def __ge__(self, other: ExprLike) -> "Expr":
        return Expr(Comparison(">=", self.node, _to_expression(other)))

    def __eq__(self, other: object) -> "Expr":  # type: ignore[override]
        return Expr(Comparison("==", self.node, _to_expression(other)))

    def __ne__(self, other: object) -> "Expr":  # type: ignore[override]
        return Expr(Comparison("!=", self.node, _to_expression(other)))

    # ``==`` builds a Comparison instead of testing equality, so instances
    # must not silently fall back to identity hashing inside sets/dicts.
    __hash__ = None  # type: ignore[assignment]

    # -- boolean connectives -----------------------------------------------------

    def __and__(self, other: ExprLike) -> "Expr":
        return Expr(_bool_join("and", self.node, _to_expression(other)))

    def __rand__(self, other: ExprLike) -> "Expr":
        return Expr(_bool_join("and", _to_expression(other), self.node))

    def __or__(self, other: ExprLike) -> "Expr":
        return Expr(_bool_join("or", self.node, _to_expression(other)))

    def __ror__(self, other: ExprLike) -> "Expr":
        return Expr(_bool_join("or", _to_expression(other), self.node))

    def __invert__(self) -> "Expr":
        return Expr(NotOp(self.node))

    def __bool__(self) -> bool:
        raise QueryBuilderError(
            "a query expression has no truth value; use '&' / '|' / '~' "
            "instead of 'and' / 'or' / 'not'"
        )


class _FieldFactory:
    """``F("rhand_x")`` (or ``F.rhand_x``) — a field-reference expression."""

    def __call__(self, name: str) -> Expr:
        return Expr(FieldRef(name))

    def __getattr__(self, name: str) -> Expr:
        if name.startswith("__"):
            raise AttributeError(name)
        return Expr(FieldRef(name))

    def __repr__(self) -> str:
        return "F"


F = _FieldFactory()


def udf(name: str, *arguments: ExprLike) -> Expr:
    """Call a registered (or built-in) function, e.g. ``udf("dist", a, b)``."""
    return Expr(FunctionCall(name, [_to_expression(arg) for arg in arguments]))


# ---------------------------------------------------------------------------
# Query builder
# ---------------------------------------------------------------------------

#: Things ``then()`` accepts as a step.
StepLike = Union[Expr, Expression, bool, EventPattern, SequencePattern, "QueryBuilder"]


def _unwrap_trivial(node: PatternNode) -> PatternNode:
    """Collapse constraint-free single-element sequence wrappers.

    The parser collapses a parenthesised group holding exactly one term and
    carrying no constraints into that term; builders must emit the AST
    their own text reparses to, so the same collapse is applied when a
    chain is nested or built.
    """
    while (
        isinstance(node, SequencePattern)
        and len(node.elements) == 1
        and node.within_seconds is None
        and node.select is SelectPolicy.FIRST
        and node.consume is ConsumePolicy.ALL
    ):
        node = node.elements[0]
    return node


def _coerce_policy(value: Union[str, SelectPolicy, ConsumePolicy], enum_type: type) -> Any:
    if isinstance(value, enum_type):
        return value
    try:
        return enum_type(str(value).lower())
    except ValueError:
        options = [member.value for member in enum_type]
        raise QueryBuilderError(
            f"unknown {enum_type.__name__.replace('Policy', '').lower()} policy "
            f"{value!r}; expected one of {options}"
        ) from None


class QueryBuilder:
    """An immutable fluent chain producing a :class:`Query`.

    Every method returns a *new* builder, so partial chains can be shared
    and extended divergently — handy for building gesture-family variants::

        base = Q.stream("kinect_t").where(abs(F("rhand_y") - 450) < 100)
        fast = base.within(1.0).named("flick")
        slow = base.within(4.0).named("reach")

    ``named(output)`` terminates the chain and returns the frozen
    :class:`Query`; alternatively pass the builder itself anywhere a query
    is accepted (``CEPEngine.register_query``, ``GestureDetector.deploy``,
    ``GestureSession.deploy``) after calling :meth:`output`.
    """

    __slots__ = ("_stream", "_steps", "_within", "_select", "_consume", "_output", "_name")

    def __init__(
        self,
        stream: str,
        steps: Tuple[PatternNode, ...] = (),
        within: Optional[float] = None,
        select: SelectPolicy = SelectPolicy.FIRST,
        consume: ConsumePolicy = ConsumePolicy.ALL,
        output: Optional[str] = None,
        name: str = "",
    ) -> None:
        if not stream:
            raise QueryBuilderError("the builder needs a default stream name")
        self._stream = stream
        self._steps = steps
        self._within = within
        self._select = select
        self._consume = consume
        self._output = output
        self._name = name

    def _copy(self, **overrides: Any) -> "QueryBuilder":
        state = {
            "stream": self._stream,
            "steps": self._steps,
            "within": self._within,
            "select": self._select,
            "consume": self._consume,
            "output": self._output,
            "name": self._name,
        }
        state.update(overrides)
        return QueryBuilder(**state)

    # -- steps -------------------------------------------------------------------

    def where(self, predicate: StepLike, stream: Optional[str] = None,
              label: str = "") -> "QueryBuilder":
        """Append an event pattern (alias of :meth:`then`, reads better first)."""
        return self.then(predicate, stream=stream, label=label)

    def then(self, step: StepLike, stream: Optional[str] = None,
             label: str = "") -> "QueryBuilder":
        """Append the next step of the sequence (the ``->`` operator).

        ``step`` may be a predicate expression (an event on the builder's
        default stream — override per step with ``stream=``), a pre-built
        :class:`EventPattern` / :class:`SequencePattern`, or another
        :class:`QueryBuilder` chain, which becomes a parenthesised nested
        sequence exactly like the paper's left-nested generated queries.
        """
        node: PatternNode
        if isinstance(step, (QueryBuilder, EventPattern, SequencePattern)) and (
            stream is not None or label
        ):
            raise QueryBuilderError(
                "stream= and label= apply only to predicate steps; a "
                "pre-built event, sequence or chain already carries its own"
            )
        if isinstance(step, QueryBuilder):
            node = _unwrap_trivial(step.pattern())
        elif isinstance(step, (EventPattern, SequencePattern)):
            node = step
        else:
            node = EventPattern(
                stream=stream or self._stream,
                predicate=_to_expression(step),
                label=label,
            )
        return self._copy(steps=self._steps + (node,))

    # -- constraints -------------------------------------------------------------

    def within(self, seconds: float) -> "QueryBuilder":
        """Bound the time between the sequence's first and last event."""
        if seconds <= 0:
            raise QueryBuilderError("'within' must be positive")
        return self._copy(within=float(seconds))

    def select(self, policy: Union[str, SelectPolicy]) -> "QueryBuilder":
        """Reporting policy when several matches complete together."""
        return self._copy(select=_coerce_policy(policy, SelectPolicy))

    def consume(self, policy: Union[str, ConsumePolicy]) -> "QueryBuilder":
        """What happens to partial matches once a detection fires."""
        return self._copy(consume=_coerce_policy(policy, ConsumePolicy))

    # -- termination -------------------------------------------------------------

    @property
    def output_value(self) -> Optional[str]:
        """The output set via :meth:`output`, or ``None`` while unset."""
        return self._output

    def output(self, output: str, name: str = "") -> "QueryBuilder":
        """Set the detection output value (and optional registration name)
        without terminating the chain — makes the builder deployable as-is."""
        if not output:
            raise QueryBuilderError("the output value must be non-empty")
        return self._copy(output=output, name=name)

    def named(self, output: str, name: str = "") -> Query:
        """Terminate the chain: set the output value and build the query."""
        return self.output(output, name=name).build()

    def pattern(self) -> SequencePattern:
        """The chain's pattern as a :class:`SequencePattern`."""
        if not self._steps:
            raise QueryBuilderError(
                f"builder on stream '{self._stream}' has no event patterns; "
                f"add at least one with .where(...)"
            )
        return SequencePattern(
            elements=self._steps,
            within_seconds=self._within,
            select=self._select,
            consume=self._consume,
        )

    def build(self, output: Optional[str] = None) -> Query:
        """Build the frozen :class:`Query` (engine deployment accepts this
        implicitly for builders whose output was set via :meth:`output`)."""
        value = output or self._output
        if not value:
            raise QueryBuilderError(
                "the builder has no output value; terminate the chain with "
                ".named('gesture') or set it with .output('gesture')"
            )
        pattern = _unwrap_trivial(self.pattern())
        if isinstance(pattern, EventPattern):
            pattern = SequencePattern(elements=(pattern,))
        return Query(output=value, pattern=pattern, name=self._name)

    def to_query(self) -> str:
        """Render the built query as deployable text (Fig. 1 format)."""
        return self.build().to_query()

    def streams(self) -> set:
        """Stream names referenced by the chain so far."""
        return self.pattern().streams()

    def __repr__(self) -> str:
        return (
            f"QueryBuilder(stream={self._stream!r}, steps={len(self._steps)}, "
            f"within={self._within}, output={self._output!r})"
        )


class Q:
    """Entry point of the fluent query DSL: ``Q.stream("kinect_t")``."""

    def __init__(self) -> None:
        raise TypeError("Q is a namespace; start a chain with Q.stream(name)")

    @staticmethod
    def stream(name: str) -> QueryBuilder:
        """Start a builder chain whose events default to stream ``name``."""
        return QueryBuilder(stream=name)

    @staticmethod
    def event(stream: str, predicate: StepLike, label: str = "") -> EventPattern:
        """A standalone event pattern, for mixing streams inside one chain."""
        return EventPattern(stream=stream, predicate=_to_expression(predicate), label=label)

    @staticmethod
    def sequence(
        *steps: StepLike,
        stream: str,
        within: Optional[float] = None,
        select: Union[str, SelectPolicy] = SelectPolicy.FIRST,
        consume: Union[str, ConsumePolicy] = ConsumePolicy.ALL,
    ) -> QueryBuilder:
        """One-shot constructor: ``Q.sequence(p0, p1, stream="kinect_t", within=2)``."""
        builder = QueryBuilder(stream=stream)
        for step in steps:
            builder = builder.then(step)
        if within is not None:
            builder = builder.within(within)
        return builder.select(select).consume(consume)
