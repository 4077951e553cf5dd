"""Expression AST for event predicates.

Gesture queries are built from predicates over tuple fields, e.g.::

    abs(rhand_x - torso_x - 400) < 50 and abs(rhand_y - torso_y - 150) < 50

Expressions are represented as a small immutable AST that can be

* evaluated against a tuple (a mapping of field name to value),
* rendered back into query text (``to_query()``), which is how the query
  generator produces the textual queries shown in the paper's Fig. 1,
* introspected (``fields()`` returns the referenced fields, used by the
  optimiser to eliminate irrelevant coordinates),
* counted (``predicate_count()``), used by the optimisation benchmarks to
  report detection effort.

Function calls are resolved through a
:class:`~repro.cep.udf.FunctionRegistry`; the default registry provides
``abs``, ``dist`` (Euclidean distance) and the Roll-Pitch-Yaw operators the
paper implements as UDFs in AnduIN.

Besides the interpreted ``evaluate()`` walk, every node can be *compiled*
(``compile()``) into a plain Python closure that takes only the record.
Compilation resolves operators, field names and UDF callables once instead
of per tuple, which is what lets the NFA matcher keep up with a full
gesture vocabulary at sensor rate.  A :class:`CompiledPredicateCache`
(owned by the engine) shares compiled closures between structurally
identical predicates, keyed by their canonical ``to_query()`` text.
"""

from __future__ import annotations

import operator as _operator
from abc import ABC, abstractmethod
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ExpressionError, UnknownFunctionError

EvaluationContext = Mapping[str, Any]

#: A compiled expression: a closure over the record only.
CompiledExpression = Callable[[EvaluationContext], Any]


class Expression(ABC):
    """Base class of all expression nodes."""

    @abstractmethod
    def evaluate(self, record: EvaluationContext, functions: Optional["FunctionRegistry"] = None) -> Any:
        """Evaluate the expression against ``record``."""

    @abstractmethod
    def to_query(self) -> str:
        """Render the expression as query text."""

    @abstractmethod
    def fields(self) -> FrozenSet[str]:
        """Return the set of field names referenced by the expression."""

    def compile(self, functions: Optional["FunctionRegistry"] = None) -> CompiledExpression:
        """Lower the expression to a plain Python closure over the record.

        The closure returns exactly what :meth:`evaluate` would return for
        the same record, but operator dispatch, field names and UDF
        callables are resolved once at compile time instead of per call.
        Two semantic differences, both surfacing errors *earlier*: unknown
        functions and arity mismatches raise at compile time rather than at
        evaluation time.

        Subclasses override this; the base implementation falls back to
        interpreting the node, so third-party :class:`Expression`
        subclasses keep working inside compiled parents.
        """

        def interpret(record: EvaluationContext) -> Any:
            return self.evaluate(record, functions)

        return interpret

    def predicate_count(self) -> int:
        """Number of atomic comparisons in the expression (detection effort)."""
        return sum(child.predicate_count() for child in self.children())

    def children(self) -> Tuple["Expression", ...]:
        """Immediate sub-expressions (empty for leaves)."""
        return ()

    def walk(self) -> Iterator["Expression"]:
        """Yield this node and every descendant, pre-order.

        The traversal is iterative, so degenerate deeply-nested
        expressions cannot blow the recursion limit.
        """
        stack: List[Expression] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_query()!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expression) and self.to_query() == other.to_query()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.to_query()))


class Literal(Expression):
    """A numeric, string or boolean constant."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def evaluate(self, record: EvaluationContext, functions: Optional["FunctionRegistry"] = None) -> Any:
        return self.value

    def compile(self, functions: Optional["FunctionRegistry"] = None) -> CompiledExpression:
        value = self.value
        return lambda record: value

    def to_query(self) -> str:
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, str):
            return f'"{self.value}"'
        if isinstance(self.value, float):
            # Render integral floats without a trailing ".0" for readability,
            # matching the style of the paper's generated queries.
            if self.value == int(self.value) and abs(self.value) < 1e15:
                return str(int(self.value))
            return repr(self.value)
        return str(self.value)

    def fields(self) -> FrozenSet[str]:
        return frozenset()


class FieldRef(Expression):
    """A reference to a tuple field, e.g. ``rhand_x``."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ExpressionError("field reference must have a name")
        self.name = name

    def evaluate(self, record: EvaluationContext, functions: Optional["FunctionRegistry"] = None) -> Any:
        try:
            return record[self.name]
        except KeyError:
            raise ExpressionError(
                f"tuple has no field '{self.name}' "
                f"(available: {sorted(record)[:8]}…)"
            ) from None

    def compile(self, functions: Optional["FunctionRegistry"] = None) -> CompiledExpression:
        name = self.name

        def load(record: EvaluationContext) -> Any:
            try:
                return record[name]
            except KeyError:
                raise ExpressionError(
                    f"tuple has no field '{name}' "
                    f"(available: {sorted(record)[:8]}…)"
                ) from None

        return load

    def to_query(self) -> str:
        return self.name

    def fields(self) -> FrozenSet[str]:
        return frozenset({self.name})


class UnaryMinus(Expression):
    """Arithmetic negation."""

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def evaluate(self, record: EvaluationContext, functions: Optional["FunctionRegistry"] = None) -> Any:
        return -self.operand.evaluate(record, functions)

    def compile(self, functions: Optional["FunctionRegistry"] = None) -> CompiledExpression:
        operand = self.operand.compile(functions)
        return lambda record: -operand(record)

    def to_query(self) -> str:
        return f"-{self.operand.to_query()}"

    def fields(self) -> FrozenSet[str]:
        return self.operand.fields()

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)


_ARITHMETIC_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


class BinaryOp(Expression):
    """Arithmetic operation: ``+``, ``-``, ``*`` or ``/``."""

    def __init__(self, operator: str, left: Expression, right: Expression) -> None:
        if operator not in _ARITHMETIC_OPS:
            raise ExpressionError(f"unknown arithmetic operator '{operator}'")
        self.operator = operator
        self.left = left
        self.right = right

    def evaluate(self, record: EvaluationContext, functions: Optional["FunctionRegistry"] = None) -> Any:
        left = self.left.evaluate(record, functions)
        right = self.right.evaluate(record, functions)
        if self.operator == "/" and right == 0:
            raise ExpressionError("division by zero while evaluating expression")
        return _ARITHMETIC_OPS[self.operator](left, right)

    def compile(self, functions: Optional["FunctionRegistry"] = None) -> CompiledExpression:
        left = self.left.compile(functions)
        right = self.right.compile(functions)
        if self.operator == "/":

            def divide(record: EvaluationContext) -> Any:
                numerator = left(record)
                denominator = right(record)
                if denominator == 0:
                    raise ExpressionError("division by zero while evaluating expression")
                return numerator / denominator

            return divide
        operation = _ARITHMETIC_OPS[self.operator]
        return lambda record: operation(left(record), right(record))

    def to_query(self) -> str:
        return f"{self._render(self.left)} {self.operator} {self._render(self.right)}"

    def _render(self, child: Expression) -> str:
        # Parenthesise nested additive expressions under * or / for clarity.
        if isinstance(child, (BinaryOp, Comparison, BooleanOp)) and (
            self.operator in ("*", "/") or isinstance(child, (Comparison, BooleanOp))
        ):
            return f"({child.to_query()})"
        return child.to_query()

    def fields(self) -> FrozenSet[str]:
        return self.left.fields() | self.right.fields()

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)


_COMPARISON_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
    "==": _operator.eq,
    "!=": _operator.ne,
}

#: The learner's pose-window atom ``abs(field - centre) <op> bound``, taken
#: apart: (field, centre, comparison, bound).
_WindowAtom = Tuple[str, Any, Callable[[Any, Any], Any], Any]

#: A window atom, or ``field <op> literal`` with centre ``None``.
_IntervalAtom = Tuple[str, Optional[Any], Callable[[Any, Any], Any], Any]


def _compile_windows(atoms: Tuple[_WindowAtom, ...]) -> CompiledExpression:
    """One closure for a conjunction of pose-window atoms, tested in order."""

    def inside_windows(record: EvaluationContext) -> bool:
        try:
            for name, center, operation, bound in atoms:
                if not operation(abs(record[name] - center), bound):
                    return False
        except KeyError:
            raise ExpressionError(
                f"tuple has no field '{name}' "
                f"(available: {sorted(record)[:8]}…)"
            ) from None
        return True

    return inside_windows


class Comparison(Expression):
    """A comparison: the atomic predicate of gesture queries."""

    def __init__(self, operator: str, left: Expression, right: Expression) -> None:
        if operator == "=":
            operator = "=="
        if operator == "<>":
            operator = "!="
        if operator not in _COMPARISON_OPS:
            raise ExpressionError(f"unknown comparison operator '{operator}'")
        self.operator = operator
        self.left = left
        self.right = right

    def evaluate(self, record: EvaluationContext, functions: Optional["FunctionRegistry"] = None) -> bool:
        left = self.left.evaluate(record, functions)
        right = self.right.evaluate(record, functions)
        return bool(_COMPARISON_OPS[self.operator](left, right))

    def compile(self, functions: Optional["FunctionRegistry"] = None) -> CompiledExpression:
        specialized = self._compile_specialized(functions)
        if specialized is not None:
            return specialized
        left = self.left.compile(functions)
        right = self.right.compile(functions)
        operation = _COMPARISON_OPS[self.operator]
        return lambda record: bool(operation(left(record), right(record)))

    def _compile_specialized(self, functions: Optional["FunctionRegistry"]) -> Optional[CompiledExpression]:
        """Collapse the two predicate shapes that dominate generated queries.

        ``abs(field ± c) <op> w`` (the learner's pose-window template from
        Sec. 3.3.4, see :meth:`_window_atom`) and ``field <op> literal`` each
        become a single flat closure instead of a chain of nested calls.
        """
        if not isinstance(self.right, Literal):
            return None
        operation = _COMPARISON_OPS[self.operator]
        bound = self.right.value

        if isinstance(self.left, FieldRef):
            name = self.left.name

            def compare_field(record: EvaluationContext) -> bool:
                try:
                    return bool(operation(record[name], bound))
                except KeyError:
                    raise ExpressionError(
                        f"tuple has no field '{name}' "
                        f"(available: {sorted(record)[:8]}…)"
                    ) from None

            return compare_field

        atom = self._window_atom(functions)
        return None if atom is None else _compile_windows((atom,))

    def _window_atom(self, functions: Optional["FunctionRegistry"]) -> Optional[_WindowAtom]:
        """The parts of ``abs(field ± c) <op> w``, or ``None`` for any other shape.

        Also ``None`` when the registry resolves ``abs`` to anything but the
        Python builtin, so a user-supplied override keeps the generic path.
        """
        call = self.left
        inner: Optional[Expression] = None
        if isinstance(call, FunctionCall) and call.name == "abs" and len(call.arguments) == 1:
            inner = call.arguments[0]
        if not (
            isinstance(self.right, Literal)
            and isinstance(inner, BinaryOp)
            and inner.operator in ("+", "-")
            and isinstance(inner.left, FieldRef)
            and isinstance(inner.right, Literal)
        ):
            return None
        from repro.cep.udf import default_functions

        registry = functions
        if registry is None or not registry.has("abs"):
            registry = default_functions()
        if registry.resolve("abs", arity=1) is not abs:
            return None
        center = inner.right.value if inner.operator == "-" else -inner.right.value
        return inner.left.name, center, _COMPARISON_OPS[self.operator], self.right.value

    def interval_atom(self, functions: Optional["FunctionRegistry"]) -> Optional[_IntervalAtom]:
        """``(field, centre, comparison, bound)`` for the two shapes whose
        compiled closure is ``comparison(abs(record[field] - centre), bound)``
        (the pose window, :meth:`_window_atom`) or ``comparison(record[field],
        bound)`` (centre ``None``); ``None`` for every other shape.  These are
        the atoms :mod:`repro.cep.index` answers by bisection."""
        if isinstance(self.left, FieldRef) and isinstance(self.right, Literal):
            return self.left.name, None, _COMPARISON_OPS[self.operator], self.right.value
        return self._window_atom(functions)

    def to_query(self) -> str:
        return f"{self.left.to_query()} {self.operator} {self.right.to_query()}"

    def fields(self) -> FrozenSet[str]:
        return self.left.fields() | self.right.fields()

    def predicate_count(self) -> int:
        return 1

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)


class BooleanOp(Expression):
    """Conjunction or disjunction of boolean sub-expressions."""

    def __init__(self, operator: str, operands: Sequence[Expression]) -> None:
        if operator not in ("and", "or"):
            raise ExpressionError(f"unknown boolean operator '{operator}'")
        if not operands:
            raise ExpressionError(f"'{operator}' needs at least one operand")
        self.operator = operator
        self.operands = tuple(operands)

    def evaluate(self, record: EvaluationContext, functions: Optional["FunctionRegistry"] = None) -> bool:
        if self.operator == "and":
            return all(op.evaluate(record, functions) for op in self.operands)
        return any(op.evaluate(record, functions) for op in self.operands)

    def compile(self, functions: Optional["FunctionRegistry"] = None) -> CompiledExpression:
        if self.operator == "and":
            # A generated pose is a conjunction of window atoms only: test
            # them in one loop instead of one nested closure per atom.
            atoms: List[_WindowAtom] = []
            for operand in self.operands:
                atom = operand._window_atom(functions) if isinstance(operand, Comparison) else None
                if atom is None:
                    break
                atoms.append(atom)
            else:
                return _compile_windows(tuple(atoms))
        compiled = tuple(op.compile(functions) for op in self.operands)
        if self.operator == "and":

            def conjunction(record: EvaluationContext) -> bool:
                # Explicit loop, not all(...): this closure runs per tuple per
                # query and a generator frame per call is measurable.
                for predicate in compiled:  # noqa: SIM110
                    if not predicate(record):
                        return False
                return True

            return conjunction

        def disjunction(record: EvaluationContext) -> bool:
            for predicate in compiled:  # noqa: SIM110 — hot path, see conjunction
                if predicate(record):
                    return True
            return False

        return disjunction

    def to_query(self) -> str:
        parts = []
        for operand in self.operands:
            text = operand.to_query()
            if isinstance(operand, BooleanOp) and operand.operator != self.operator:
                text = f"({text})"
            parts.append(text)
        return f" {self.operator} ".join(parts)

    def fields(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for operand in self.operands:
            result |= operand.fields()
        return result

    def children(self) -> Tuple[Expression, ...]:
        return self.operands

    @staticmethod
    def conjunction(operands: Sequence[Expression]) -> Expression:
        """Build an ``and`` of ``operands``, flattening the trivial cases."""
        operands = [op for op in operands if op is not None]
        if not operands:
            return Literal(True)
        if len(operands) == 1:
            return operands[0]
        return BooleanOp("and", operands)


class NotOp(Expression):
    """Logical negation."""

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def evaluate(self, record: EvaluationContext, functions: Optional["FunctionRegistry"] = None) -> bool:
        return not self.operand.evaluate(record, functions)

    def compile(self, functions: Optional["FunctionRegistry"] = None) -> CompiledExpression:
        operand = self.operand.compile(functions)
        return lambda record: not operand(record)

    def to_query(self) -> str:
        return f"not ({self.operand.to_query()})"

    def fields(self) -> FrozenSet[str]:
        return self.operand.fields()

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)


class FunctionCall(Expression):
    """A call to a registered (or built-in) function, e.g. ``abs(...)``."""

    def __init__(self, name: str, arguments: Sequence[Expression]) -> None:
        if not name:
            raise ExpressionError("function call must have a name")
        self.name = name.lower()
        self.arguments = tuple(arguments)

    def evaluate(self, record: EvaluationContext, functions: Optional["FunctionRegistry"] = None) -> Any:
        values = [arg.evaluate(record, functions) for arg in self.arguments]
        if functions is not None and functions.has(self.name):
            return functions.call(self.name, values)
        # Fall back to the built-in minimum set so expressions remain usable
        # without an engine (e.g. in the learning pipeline's unit tests).
        from repro.cep.udf import default_functions

        registry = default_functions()
        if registry.has(self.name):
            return registry.call(self.name, values)
        raise UnknownFunctionError(f"unknown function '{self.name}'")

    def compile(self, functions: Optional["FunctionRegistry"] = None) -> CompiledExpression:
        arguments = tuple(arg.compile(functions) for arg in self.arguments)
        registry = functions
        if registry is None or not registry.has(self.name):
            # Same fallback chain as evaluate(), but resolved once.
            from repro.cep.udf import default_functions

            registry = default_functions()
            if not registry.has(self.name):
                raise UnknownFunctionError(f"unknown function '{self.name}'")
        function = registry.resolve(self.name, arity=len(arguments))
        if len(arguments) == 1:
            only = arguments[0]
            return lambda record: function(only(record))
        if len(arguments) == 2:
            first, second = arguments
            return lambda record: function(first(record), second(record))
        return lambda record: function(*[argument(record) for argument in arguments])

    def to_query(self) -> str:
        args = ", ".join(arg.to_query() for arg in self.arguments)
        return f"{self.name}({args})"

    def fields(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for argument in self.arguments:
            result |= argument.fields()
        return result

    def children(self) -> Tuple[Expression, ...]:
        return self.arguments


class CompiledPredicateCache:
    """Engine-wide cache of compiled predicate closures.

    Keyed by ``Expression.to_query()`` — the canonical text rendering — so
    structurally identical predicates (the learner emits the same pose
    window for many queries) are lowered once and share a single closure.
    One cache is owned by each :class:`~repro.cep.engine.CEPEngine` and
    handed to every matcher it deploys; ``hits``/``misses`` feed the
    throughput benchmarks.
    """

    def __init__(self, functions: Optional["FunctionRegistry"] = None) -> None:
        self.functions = functions
        self._compiled: Dict[str, Tuple[CompiledExpression, Optional[Tuple[Any, ...]]]] = {}
        self.hits = 0
        self.misses = 0

    def compile(self, expression: Expression) -> CompiledExpression:
        """Return the (possibly shared) compiled form of ``expression``."""
        return self.compile_step(expression)[0]

    def compile_step(
        self, expression: Expression
    ) -> Tuple[CompiledExpression, Optional[Tuple[Any, ...]]]:
        """The compiled closure of ``expression`` and the atoms a step index
        may answer it with (:func:`repro.cep.index.step_atoms`), resolved
        together, once per text, against the same registry."""
        key = expression.to_query()
        cached = self._compiled.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        from repro.cep.index import step_atoms

        self.misses += 1
        cached = self._compiled[key] = (
            expression.compile(self.functions),
            step_atoms(expression, self.functions),
        )
        return cached

    def clear(self) -> None:
        """Drop all cached closures (e.g. after a UDF was re-registered)."""
        self._compiled.clear()

    def __len__(self) -> int:
        return len(self._compiled)


def abs_diff_predicate(field: str, center: float, width: float) -> Expression:
    """Build the paper's range predicate ``abs(field - center) < width``.

    This is the predicate template of Sec. 3.3.4: for each joint coordinate
    constrained by a pose window, the generated query checks that the
    coordinate lies within ``width`` of the window ``center``.  Negative
    centres render as ``field + |center|`` exactly like the paper's example
    (``abs(rHand_z - torso_z + 120) < 50``).
    """
    if width <= 0:
        raise ExpressionError("window width must be positive")
    centered: Expression
    if center == 0:
        centered = BinaryOp("-", FieldRef(field), Literal(0))
    elif center > 0:
        centered = BinaryOp("-", FieldRef(field), Literal(float(center)))
    else:
        centered = BinaryOp("+", FieldRef(field), Literal(float(-center)))
    return Comparison("<", FunctionCall("abs", [centered]), Literal(float(width)))


# Imported late to avoid a circular import at module load time.
from repro.cep.udf import FunctionRegistry  # noqa: E402  (documented import cycle)
