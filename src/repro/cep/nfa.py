"""Compilation of sequence patterns into a flat NFA description.

The paper's match operator "implements pattern matching using an NFA"
(Sec. 2).  This module turns the nested :class:`~repro.cep.query.SequencePattern`
tree into the flat structure the runtime matcher consumes:

* an ordered list of :class:`Step` objects — one NFA state transition per
  event pattern, in match order, and
* a list of :class:`TimeConstraint` objects — one per ``within`` clause,
  each recording which span of steps it covers.

Keeping time constraints as (first step, last step, seconds) triples instead
of attaching them to the tree makes the runtime check trivial: whenever a
run reaches step ``last``, the difference between the timestamps recorded at
``last`` and ``first`` must not exceed ``seconds``; and a partial run whose
constraint window has already elapsed can be pruned early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.cep.expressions import Expression
from repro.cep.query import (
    ConsumePolicy,
    EventPattern,
    PatternNode,
    SelectPolicy,
    SequencePattern,
)


@dataclass(frozen=True)
class Step:
    """One NFA transition: the next tuple must come from ``stream`` and
    satisfy ``predicate``."""

    index: int
    stream: str
    predicate: Expression
    label: str = ""

    def describe(self) -> str:
        label = self.label or f"step {self.index}"
        return f"{label}: {self.stream}({self.predicate.to_query()})"


@dataclass(frozen=True)
class TimeConstraint:
    """A ``within`` clause covering steps ``first`` … ``last`` (inclusive)."""

    first: int
    last: int
    seconds: float

    def __post_init__(self) -> None:
        if self.first > self.last:
            raise ValueError("constraint must cover a forward span of steps")
        if self.seconds <= 0:
            raise ValueError("'within' must be positive")


@dataclass(frozen=True)
class CompiledPattern:
    """The flat, runtime-ready form of a gesture pattern."""

    steps: Tuple[Step, ...]
    constraints: Tuple[TimeConstraint, ...]
    select: SelectPolicy = SelectPolicy.FIRST
    consume: ConsumePolicy = ConsumePolicy.ALL

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a compiled pattern needs at least one step")

    @property
    def length(self) -> int:
        return len(self.steps)

    def streams(self) -> Set[str]:
        return {step.stream for step in self.steps}

    def constraints_ending_at(self, step_index: int) -> List[TimeConstraint]:
        """Constraints that must be checked when a run reaches ``step_index``."""
        return [c for c in self.constraints if c.last == step_index]

    def constraints_covering(self, step_index: int) -> List[TimeConstraint]:
        """Constraints whose span includes ``step_index`` (for early pruning)."""
        return [c for c in self.constraints if c.first <= step_index < c.last]

    def describe(self) -> str:
        lines = [step.describe() for step in self.steps]
        for constraint in self.constraints:
            lines.append(
                f"within {constraint.seconds:g}s over steps "
                f"{constraint.first}..{constraint.last}"
            )
        lines.append(f"select {self.select.value} consume {self.consume.value}")
        return "\n".join(lines)


def compile_pattern(pattern: SequencePattern) -> CompiledPattern:
    """Flatten a (possibly nested) sequence pattern into a :class:`CompiledPattern`.

    The select/consume policies of the *outermost* sequence govern the
    matcher; nested policies only contribute their ``within`` constraints,
    which matches how the paper's generated queries use them (every nesting
    level repeats ``select first consume all``).
    """
    steps: List[Step] = []
    constraints: List[TimeConstraint] = []

    def visit(node: PatternNode) -> Tuple[int, int]:
        """Emit steps for ``node``; return (first, last) step indices."""
        if isinstance(node, EventPattern):
            index = len(steps)
            steps.append(
                Step(
                    index=index,
                    stream=node.stream,
                    predicate=node.predicate,
                    label=node.label,
                )
            )
            return index, index
        first_index: Optional[int] = None
        last_index = 0
        for element in node.elements:
            start, end = visit(element)
            if first_index is None:
                first_index = start
            last_index = end
        assert first_index is not None  # SequencePattern guarantees elements
        if node.within_seconds is not None:
            constraints.append(
                TimeConstraint(
                    first=first_index, last=last_index, seconds=node.within_seconds
                )
            )
        return first_index, last_index

    visit(pattern)
    return CompiledPattern(
        steps=tuple(steps),
        constraints=tuple(constraints),
        select=pattern.select,
        consume=pattern.consume,
    )
