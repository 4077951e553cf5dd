"""Per-query analysis rules: constraint lowering and diagnostics.

The heart of the analyzer.  :func:`summarize_predicate` lowers an
:class:`~repro.cep.expressions.Expression` into a
:class:`PredicateSummary` — per-field :class:`~repro.analysis.intervals.IntervalSet`
constraints plus a three-valued satisfiability verdict — handling exactly
the shapes the system generates: linear terms over one field, the
``abs(field - center) < width`` pose-window template, ``and`` / ``or`` /
``not`` combinations, and constant folding.  Anything else (multi-field
atoms, UDF calls) is treated as *opaque*: it contributes no constraints
and never produces a false positive.

:func:`analyze_query` runs every per-query rule and returns sorted
:class:`~repro.analysis.diagnostics.Diagnostic` findings; the code
reference lives in ``docs/analysis.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Mapping, Optional, Tuple, Union

from repro.analysis.diagnostics import Diagnostic, Severity, sort_diagnostics
from repro.analysis.intervals import Interval, IntervalSet
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
from repro.cep.nfa import CompiledPattern, compile_pattern
from repro.cep.query import ConsumePolicy, Query, SelectPolicy, SequencePattern
from repro.cep.tuples import DEFAULT_PARTITION_FIELD

if TYPE_CHECKING:
    from repro.cep.engine import Engine

__all__ = [
    "AnalysisContext",
    "PredicateSummary",
    "Satisfiability",
    "analyze_query",
    "summarize_predicate",
]


# ---------------------------------------------------------------------------
# Analysis context
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisContext:
    """Deployment facts the analyzer folds into its verdicts.

    Attributes
    ----------
    partition_field:
        The run-table partition key the query will be deployed under
        (``None`` disables partition-safety checks).
    run_ttl_seconds:
        The matcher's TTL for partial matches sitting at steps no
        ``within`` constraint covers; drives QA010 vs QA011.
    stream_fields:
        Declared schema fields per stream name; a stream mapped to
        ``None`` (or absent) has an unknown schema.  Drives the
        partition-safety rules for multi-stream patterns.
    """

    partition_field: Optional[str] = DEFAULT_PARTITION_FIELD
    run_ttl_seconds: Optional[float] = None
    stream_fields: Mapping[str, Optional[FrozenSet[str]]] = dataclass_field(
        default_factory=dict
    )

    @staticmethod
    def for_engine(engine: "Engine") -> "AnalysisContext":
        """The facts a deployment on ``engine`` runs under: every query runs
        under the engine's matcher configuration."""
        config = engine.matcher_config
        return AnalysisContext(
            partition_field=config.partition_field,
            run_ttl_seconds=config.run_ttl_seconds,
            stream_fields=engine.stream_fields(),
        )


# ---------------------------------------------------------------------------
# Predicate lowering
# ---------------------------------------------------------------------------


class Satisfiability(Enum):
    """Three-valued verdict of :func:`summarize_predicate`."""

    UNSATISFIABLE = "unsatisfiable"
    SATISFIABLE = "satisfiable"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class PredicateSummary:
    """Per-field constraints plus a satisfiability verdict.

    ``fields`` is a sound over-approximation: every record satisfying the
    predicate has each constrained field inside its set.  ``exact`` marks
    summaries whose field map fully characterises the predicate (pure
    single-field interval logic), which is when ``SATISFIABLE`` verdicts
    and vocabulary comparisons are trusted.
    """

    status: Satisfiability
    fields: Mapping[str, IntervalSet]
    exact: bool

    def field_sets(self) -> Dict[str, IntervalSet]:
        return dict(self.fields)


_OPAQUE = PredicateSummary(Satisfiability.UNKNOWN, {}, False)
_TRUE = PredicateSummary(Satisfiability.SATISFIABLE, {}, True)
_FALSE = PredicateSummary(Satisfiability.UNSATISFIABLE, {}, True)

_NEGATED_OP = {
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
    "==": "!=",
    "!=": "==",
}

#: A linear term ``coefficient * field + constant`` (``field`` may be None
#: for pure constants).
_Linear = Tuple[Optional[str], float, float]


def _linear(expr: Expression) -> Optional[_Linear]:
    """Lower an arithmetic expression to ``a*field + b``, or ``None``."""
    if isinstance(expr, Literal):
        if isinstance(expr.value, bool) or not isinstance(expr.value, (int, float)):
            return None
        return (None, 0.0, float(expr.value))
    if isinstance(expr, FieldRef):
        return (expr.name, 1.0, 0.0)
    if isinstance(expr, UnaryMinus):
        inner = _linear(expr.operand)
        if inner is None:
            return None
        return (inner[0], -inner[1], -inner[2])
    if isinstance(expr, BinaryOp):
        left = _linear(expr.left)
        right = _linear(expr.right)
        if left is None or right is None:
            return None
        field_l, coeff_l, const_l = left
        field_r, coeff_r, const_r = right
        if expr.operator in ("+", "-"):
            sign = 1.0 if expr.operator == "+" else -1.0
            if field_l is not None and field_r is not None and field_l != field_r:
                return None
            return (
                field_l if field_l is not None else field_r,
                coeff_l + sign * coeff_r,
                const_l + sign * const_r,
            )
        if expr.operator == "*":
            if field_l is not None and field_r is not None:
                return None  # quadratic
            if field_l is None:
                field_l, coeff_l, const_l, field_r, coeff_r, const_r = (
                    field_r,
                    coeff_r,
                    const_r,
                    field_l,
                    coeff_l,
                    const_l,
                )
            return (field_l, coeff_l * const_r, const_l * const_r)
        if expr.operator == "/":
            if field_r is not None or const_r == 0:
                return None
            return (field_l, coeff_l / const_r, const_l / const_r)
    return None


def _abs_argument(expr: Expression) -> Optional[Expression]:
    """The argument of a builtin-shaped ``abs(...)`` call, else ``None``."""
    if isinstance(expr, FunctionCall) and expr.name == "abs" and len(expr.arguments) == 1:
        return expr.arguments[0]
    return None


def _solution_on_term(operator: str, bound: float, absolute: bool) -> Optional[IntervalSet]:
    """Solution set of ``term OP bound`` (or ``abs(term) OP bound``)."""
    if not absolute:
        return IntervalSet.from_comparison(operator, bound)
    if operator == "==":
        if bound < 0:
            return IntervalSet.empty()
        return IntervalSet.of(Interval.point(bound)).union(
            IntervalSet.of(Interval.point(-bound))
        )
    if operator == "!=":
        if bound < 0:
            return IntervalSet.full()
        return (
            IntervalSet.of(Interval.point(bound))
            .union(IntervalSet.of(Interval.point(-bound)))
            .complement()
        )
    direct = IntervalSet.from_comparison(operator, bound)
    mirrored = IntervalSet.from_comparison(_mirror(operator), -bound)
    assert direct is not None and mirrored is not None
    if operator in ("<", "<="):
        # abs(t) <= b  <=>  t <= b and t >= -b (empty when b is negative).
        return direct.intersect(mirrored)
    # abs(t) >= b  <=>  t >= b or t <= -b (full when b is negative).
    return direct.union(mirrored)


def _mirror(operator: str) -> str:
    """Mirror a comparison across zero (``t < b`` → ``t > -b``)."""
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[operator]


def _flip(operator: str) -> str:
    """Swap comparison sides (``a < b`` → ``b > a``)."""
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}[operator]


def _atom_summary(atom: Comparison, negate: bool) -> PredicateSummary:
    """Summarise a single comparison (optionally under negation)."""
    operator = _NEGATED_OP[atom.operator] if negate else atom.operator
    left, right = atom.left, atom.right

    # Normalise so any abs() call sits on the left.
    if _abs_argument(right) is not None and _abs_argument(left) is None:
        left, right = right, left
        operator = _flip(operator)

    abs_inner = _abs_argument(left)
    if abs_inner is not None:
        term = _linear(abs_inner)
        bound = _linear(right)
        if term is None or bound is None or bound[0] is not None:
            return _OPAQUE
        term_field, term_coeff, term_const = term
        solution = _solution_on_term(operator, bound[2], absolute=True)
        if solution is None:
            return _OPAQUE
        if term_field is None or term_coeff == 0:
            # abs(constant) OP bound — fold.
            satisfied = solution.contains_value(term_coeff * 0.0 + term_const)
            return _TRUE if satisfied else _FALSE
        constrained = solution.affine(1.0 / term_coeff, -term_const / term_coeff)
        return _field_summary(term_field, constrained)

    lhs = _linear(left)
    rhs = _linear(right)
    if lhs is None or rhs is None:
        return _OPAQUE
    field_l, coeff_l, const_l = lhs
    field_r, coeff_r, const_r = rhs
    if field_l is not None and field_r is not None and field_l != field_r:
        return _OPAQUE  # relates two different fields
    name = field_l if field_l is not None else field_r
    coeff = coeff_l - coeff_r
    const = const_l - const_r
    if name is None or coeff == 0:
        # Constant comparison: coeff*0 + const OP 0.
        solution = IntervalSet.from_comparison(operator, 0.0)
        if solution is None:
            return _OPAQUE
        return _TRUE if solution.contains_value(const) else _FALSE
    solution = IntervalSet.from_comparison(operator, 0.0)
    if solution is None:
        return _OPAQUE
    # coeff*name + const OP 0  <=>  name in affine-image of OP-solution.
    constrained = solution.affine(1.0 / coeff, -const / coeff)
    return _field_summary(name, constrained)


def _field_summary(name: str, constrained: IntervalSet) -> PredicateSummary:
    if constrained.is_empty():
        return PredicateSummary(Satisfiability.UNSATISFIABLE, {name: constrained}, True)
    if constrained.is_full():
        return _TRUE
    return PredicateSummary(Satisfiability.SATISFIABLE, {name: constrained}, True)


def summarize_predicate(expr: Expression, negate: bool = False) -> PredicateSummary:
    """Lower ``expr`` to per-field interval constraints.

    Sound by construction: ``UNSATISFIABLE`` is only reported when the
    interval algebra *proves* no record can satisfy the predicate;
    constructs outside the supported fragment degrade to ``UNKNOWN``.
    """
    if isinstance(expr, Literal):
        truthy = bool(expr.value) != negate
        return _TRUE if truthy else _FALSE
    if isinstance(expr, NotOp):
        return summarize_predicate(expr.operand, not negate)
    if isinstance(expr, Comparison):
        return _atom_summary(expr, negate)
    if isinstance(expr, BooleanOp):
        operator = expr.operator
        if negate:  # De Morgan: push the negation into the operands.
            operator = "or" if operator == "and" else "and"
        children = [summarize_predicate(op, negate) for op in expr.operands]
        if operator == "and":
            return _conjoin(children)
        return _disjoin(children)
    return _OPAQUE


def _conjoin(children: List[PredicateSummary]) -> PredicateSummary:
    merged: Dict[str, IntervalSet] = {}
    exact = True
    unknown = False
    for child in children:
        if child.status is Satisfiability.UNSATISFIABLE:
            return _FALSE
        if child.status is Satisfiability.UNKNOWN:
            unknown = True
        exact = exact and child.exact
        for name, constraint in child.fields.items():
            existing = merged.get(name)
            merged[name] = constraint if existing is None else existing.intersect(constraint)
    # An empty per-field intersection proves the conjunction unsatisfiable
    # even when opaque conjuncts are present (they can only shrink the set).
    if any(constraint.is_empty() for constraint in merged.values()):
        return PredicateSummary(Satisfiability.UNSATISFIABLE, merged, exact and not unknown)
    status = Satisfiability.UNKNOWN if unknown else Satisfiability.SATISFIABLE
    return PredicateSummary(status, merged, exact and not unknown)


def _disjoin(children: List[PredicateSummary]) -> PredicateSummary:
    live = [c for c in children if c.status is not Satisfiability.UNSATISFIABLE]
    if not live:
        return _FALSE
    if any(c.status is Satisfiability.SATISFIABLE and not c.fields for c in live):
        return _TRUE  # one branch is constant-true
    merged: Dict[str, IntervalSet] = {}
    # Only fields constrained in *every* live branch survive the union.
    common = set(live[0].fields)
    for child in live[1:]:
        common &= set(child.fields)
    for name in common:
        union = IntervalSet.empty()
        for child in live:
            union = union.union(child.fields[name])
        merged[name] = union
    exact = (
        all(c.exact for c in live)
        and all(set(c.fields) == common for c in live)
        and len(common) <= 1
    )
    if any(c.status is Satisfiability.UNKNOWN for c in live):
        status = Satisfiability.UNKNOWN
    elif exact or all(c.status is Satisfiability.SATISFIABLE for c in live):
        status = Satisfiability.SATISFIABLE
    else:
        status = Satisfiability.UNKNOWN
    return PredicateSummary(status, merged, exact)


# ---------------------------------------------------------------------------
# Per-query rules
# ---------------------------------------------------------------------------


def _atom_diagnostics(
    predicate: Expression, query_name: str, step_index: int
) -> List[Diagnostic]:
    """QA003 / QA005: tautological and dead atomic constraints."""
    findings: List[Diagnostic] = []
    stack: List[Expression] = [predicate]
    while stack:
        node = stack.pop()
        if isinstance(node, Comparison):
            summary = _atom_summary(node, negate=False)
            if summary is _TRUE:
                findings.append(
                    Diagnostic(
                        code="QA003",
                        severity=Severity.WARNING,
                        message=(
                            f"constraint '{node.to_query()}' is tautological — "
                            f"it accepts every tuple and can be removed"
                        ),
                        query=query_name,
                        step=step_index,
                    )
                )
            elif summary.status is Satisfiability.UNSATISFIABLE:
                findings.append(
                    Diagnostic(
                        code="QA005",
                        severity=Severity.WARNING,
                        message=(
                            f"constraint '{node.to_query()}' can never hold; "
                            f"the enclosing branch is dead"
                        ),
                        query=query_name,
                        step=step_index,
                    )
                )
            continue
        stack.extend(node.children())
    return findings


def _within_diagnostics(
    compiled: CompiledPattern, query_name: str, context: AnalysisContext
) -> List[Diagnostic]:
    """QA010 / QA011: wait positions no ``within`` constraint covers."""
    if compiled.length < 2:
        return []
    uncovered = [
        index
        for index in range(compiled.length - 1)
        if not compiled.constraints_covering(index)
    ]
    if not uncovered:
        return []
    steps = ", ".join(str(index) for index in uncovered)
    if context.run_ttl_seconds is None:
        return [
            Diagnostic(
                code="QA010",
                severity=Severity.WARNING,
                message=(
                    f"partial matches waiting after step(s) {steps} are covered "
                    f"by no 'within' constraint and no run TTL is configured — "
                    f"they linger until consumed, holding memory and matching "
                    f"arbitrarily late continuations"
                ),
                query=query_name,
                detail={"uncovered_steps": uncovered},
            )
        ]
    return [
        Diagnostic(
            code="QA011",
            severity=Severity.INFO,
            message=(
                f"step(s) {steps} are covered by no 'within' constraint; the "
                f"run TTL of {context.run_ttl_seconds:g}s governs partial "
                f"matches waiting there"
            ),
            query=query_name,
            detail={
                "uncovered_steps": uncovered,
                "run_ttl_seconds": context.run_ttl_seconds,
            },
        )
    ]


def _policy_diagnostics(query: Query, query_name: str) -> List[Diagnostic]:
    """QA020 / QA021: select/consume sanity."""
    findings: List[Diagnostic] = []
    root = query.pattern

    def visit(node: SequencePattern, is_root: bool) -> None:
        if not is_root and (node.select is not root.select or node.consume is not root.consume):
            findings.append(
                Diagnostic(
                    code="QA020",
                    severity=Severity.WARNING,
                    message=(
                        f"nested group declares 'select {node.select.value} "
                        f"consume {node.consume.value}' but only the outermost "
                        f"policies ('select {root.select.value} consume "
                        f"{root.consume.value}') take effect at runtime"
                    ),
                    query=query_name,
                )
            )
        for element in node.elements:
            if isinstance(element, SequencePattern):
                visit(element, False)

    visit(root, True)
    if root.select is SelectPolicy.ALL and root.consume is ConsumePolicy.NONE:
        findings.append(
            Diagnostic(
                code="QA021",
                severity=Severity.INFO,
                message=(
                    "'select all consume none' reports every overlapping match "
                    "and keeps all partial matches alive — expect a detection "
                    "volume quadratic in how long the matching pose is held"
                ),
                query=query_name,
            )
        )
    return findings


def _partition_diagnostics(
    compiled: CompiledPattern, query_name: str, context: AnalysisContext
) -> List[Diagnostic]:
    """QA030 / QA031: partition-field safety for multi-stream patterns."""
    streams = sorted(compiled.streams())
    if len(streams) < 2 or context.partition_field is None:
        return []
    key = context.partition_field
    carrying = []
    missing = []
    unknown = []
    for stream in streams:
        declared = context.stream_fields.get(stream)
        if declared is None:
            unknown.append(stream)
        elif key in declared:
            carrying.append(stream)
        else:
            missing.append(stream)
    if carrying and missing:
        return [
            Diagnostic(
                code="QA030",
                severity=Severity.ERROR,
                message=(
                    f"pattern spans streams with mismatched partition field "
                    f"'{key}': {', '.join(carrying)} carry it but "
                    f"{', '.join(missing)} do not — runs started by a "
                    f"partitioned tuple can never be advanced by tuples of the "
                    "other streams; run it on an engine with "
                    "MatcherConfig(partition_field=None)"
                ),
                query=query_name,
                detail={"carrying": carrying, "missing": missing},
            )
        ]
    if unknown:
        return [
            Diagnostic(
                code="QA031",
                severity=Severity.WARNING,
                message=(
                    f"pattern spans {len(streams)} streams under partition "
                    f"field '{key}' but the schema of "
                    f"{', '.join(unknown)} is undeclared — if the streams "
                    f"disagree on the field, cross-stream runs will never "
                    "advance; declare schemas or run it on an engine with "
                    "MatcherConfig(partition_field=None)"
                ),
                query=query_name,
                detail={"unknown": unknown},
            )
        ]
    return []


def analyze_query(
    query: Union[Query, str, Any],
    context: Optional[AnalysisContext] = None,
    name: Optional[str] = None,
) -> List[Diagnostic]:
    """Run every per-query rule; returns findings most severe first.

    ``query`` may be a :class:`~repro.cep.query.Query`, query text in the
    paper's dialect, or a builder chain with ``build()``.  ``context``
    supplies deployment facts (partition field, TTL, stream schemas);
    omitted, a default context (partitioned, no TTL, unknown schemas) is
    assumed.  ``name`` overrides the diagnostic anchor name.
    """
    from repro.cep.engine import coerce_query  # local import; engine imports us lazily

    query = coerce_query(query)
    context = context or AnalysisContext()
    query_name = name or query.registration_name
    compiled = compile_pattern(query.pattern)

    findings: List[Diagnostic] = []
    unsatisfiable: List[int] = []
    for step in compiled.steps:
        summary = summarize_predicate(step.predicate)
        if summary.status is Satisfiability.UNSATISFIABLE:
            unsatisfiable.append(step.index)
            empty_fields = sorted(
                field_name
                for field_name, constraint in summary.fields.items()
                if constraint.is_empty()
            )
            description = (
                f" (empty constraint on {', '.join(empty_fields)})" if empty_fields else ""
            )
            findings.append(
                Diagnostic(
                    code="QA001",
                    severity=Severity.ERROR,
                    message=(
                        f"step {step.index} predicate "
                        f"'{step.predicate.to_query()}' is unsatisfiable — no "
                        f"tuple can ever match it{description}"
                    ),
                    query=query_name,
                    step=step.index,
                    detail={"fields": empty_fields},
                )
            )
        else:
            if isinstance(step.predicate, Literal) and bool(step.predicate.value):
                findings.append(
                    Diagnostic(
                        code="QA004",
                        severity=Severity.INFO,
                        message=(
                            f"step {step.index} matches every tuple of stream "
                            f"'{step.stream}' — intended for catch-all steps, "
                            f"otherwise add a predicate"
                        ),
                        query=query_name,
                        step=step.index,
                    )
                )
            findings.extend(_atom_diagnostics(step.predicate, query_name, step.index))

    if unsatisfiable:
        dead = [step.index for step in compiled.steps if step.index not in unsatisfiable]
        if dead:
            findings.append(
                Diagnostic(
                    code="QA002",
                    severity=Severity.ERROR,
                    message=(
                        f"pattern can never complete: step(s) "
                        f"{', '.join(str(i) for i in unsatisfiable)} are "
                        f"unsatisfiable, leaving step(s) "
                        f"{', '.join(str(i) for i in dead)} dead — the query "
                        f"will never fire but still pays matching cost"
                    ),
                    query=query_name,
                    detail={"unsatisfiable_steps": unsatisfiable, "dead_steps": dead},
                )
            )
    else:
        findings.extend(_within_diagnostics(compiled, query_name, context))

    findings.extend(_policy_diagnostics(query, query_name))
    findings.extend(_partition_diagnostics(compiled, query_name, context))
    return list(sort_diagnostics(findings))
