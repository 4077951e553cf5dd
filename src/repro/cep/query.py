"""Query model: the AST of gesture detection queries.

A gesture query, as generated by the learner or written by hand, has the
shape shown in the paper's Fig. 1::

    SELECT "swipe_right"
    MATCHING (
      kinect_t( <pose 1 predicate> ) ->
      kinect_t( <pose 2 predicate> )
      within 1 seconds select first consume all
    ) ->
    kinect_t( <pose 3 predicate> )
    within 1 seconds select first consume all;

The model mirrors that structure:

* :class:`EventPattern` — a single event: a stream name plus a predicate
  over one tuple of that stream,
* :class:`SequencePattern` — an ordered list of sub-patterns combined with
  the ``->`` operator, with optional ``within`` time constraint and
  ``select`` / ``consume`` policies,
* :class:`Query` — the output value ( ``SELECT "swipe_right"`` ) plus the
  top-level pattern.

Every node renders itself back to query text, which is how the learning
pipeline produces deployable textual queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, Optional, Set, Tuple, Union

from repro.cep.expressions import Expression


class SelectPolicy(str, Enum):
    """Which completed matches are reported when several finish together."""

    FIRST = "first"
    LAST = "last"
    ALL = "all"


class ConsumePolicy(str, Enum):
    """What happens to partial matches once a detection fires.

    ``ALL`` (the paper's choice) clears every partial match so the tuples
    that produced a detection cannot contribute to another one; ``NONE``
    keeps them, allowing overlapping detections.
    """

    ALL = "all"
    NONE = "none"


PatternNode = Union["EventPattern", "SequencePattern"]


@dataclass(frozen=True)
class EventPattern:
    """A single event: one tuple of ``stream`` satisfying ``predicate``.

    ``label`` is cosmetic metadata (the generator stamps ``pose_<n>``); it
    does not survive the textual rendering, so it is excluded from equality
    — a parsed query compares equal to the query it was rendered from.
    """

    stream: str
    predicate: Expression
    label: str = field(default="", compare=False)

    def to_query(self, indent: int = 0) -> str:
        pad = "  " * indent
        return f"{pad}{self.stream}(\n{pad}  {self.predicate.to_query()}\n{pad})"

    def streams(self) -> Set[str]:
        return {self.stream}

    def event_count(self) -> int:
        return 1

    def predicate_count(self) -> int:
        return self.predicate.predicate_count()


@dataclass(frozen=True)
class SequencePattern:
    """Sub-patterns matched in order (the ``->`` operator).

    Attributes
    ----------
    elements:
        The ordered sub-patterns.
    within_seconds:
        Maximum time between the first and the last event of this sequence,
        or ``None`` for no constraint.
    select:
        Reporting policy when several matches complete on the same tuple.
    consume:
        Consumption policy once a match of this sequence completes.
    """

    elements: Tuple[PatternNode, ...]
    within_seconds: Optional[float] = None
    select: SelectPolicy = SelectPolicy.FIRST
    consume: ConsumePolicy = ConsumePolicy.ALL

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("a sequence pattern needs at least one element")
        if self.within_seconds is not None and self.within_seconds <= 0:
            raise ValueError("'within' must be positive")

    def to_query(self, indent: int = 0) -> str:
        pad = "  " * indent
        parts = []
        for element in self.elements:
            if isinstance(element, SequencePattern):
                parts.append(f"{pad}(\n{element.to_query(indent + 1)}\n{pad})")
            else:
                parts.append(element.to_query(indent))
        body = " ->\n".join(parts)
        suffix = ""
        if self.within_seconds is not None:
            suffix += f"\n{pad}within {_format_seconds(self.within_seconds)} seconds"
            suffix += f" select {self.select.value} consume {self.consume.value}"
        elif self.select is not SelectPolicy.FIRST or self.consume is not ConsumePolicy.ALL:
            # Policies differing from the parser's defaults must be rendered
            # even without a time constraint, or the text form would not
            # round-trip back to this pattern.
            suffix += f"\n{pad}select {self.select.value} consume {self.consume.value}"
        return body + suffix

    def streams(self) -> Set[str]:
        result: Set[str] = set()
        for element in self.elements:
            result |= element.streams()
        return result

    def event_count(self) -> int:
        return sum(element.event_count() for element in self.elements)

    def predicate_count(self) -> int:
        return sum(element.predicate_count() for element in self.elements)

    def flatten(self) -> List[EventPattern]:
        """Return the event patterns in match order (nested groups inlined)."""
        events: List[EventPattern] = []
        for element in self.elements:
            if isinstance(element, SequencePattern):
                events.extend(element.flatten())
            else:
                events.append(element)
        return events


def _format_seconds(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:g}"


@dataclass(frozen=True)
class Query:
    """A complete gesture detection query.

    Attributes
    ----------
    output:
        The value emitted on detection (the gesture name in the paper).
    pattern:
        The top-level pattern.
    name:
        Registration name; defaults to the output string.  Like
        :attr:`EventPattern.label` it does not survive the textual
        rendering, so it is excluded from equality — a parsed query
        compares equal to the query it was rendered from.
    """

    output: str
    pattern: SequencePattern
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.output:
            raise ValueError("a query must produce an output value")

    @property
    def registration_name(self) -> str:
        return self.name or self.output

    def to_query(self) -> str:
        """Render the query as deployable text (the paper's Fig. 1 format)."""
        body = self.pattern.to_query(indent=1)
        return f'SELECT "{self.output}"\nMATCHING (\n{body}\n);'

    def signature(self) -> str:
        """Canonical pattern text, excluding the output name.

        Two queries with equal signatures describe the same detection
        shape (streams, predicates, windows, policies) even if they emit
        different outputs; the vocabulary analyzer keys its duplicate
        detection (QA040) on this.
        """
        return self.pattern.to_query(indent=0)

    def streams(self) -> Set[str]:
        return self.pattern.streams()

    def event_count(self) -> int:
        return self.pattern.event_count()

    def predicate_count(self) -> int:
        return self.pattern.predicate_count()

    def events(self) -> List[EventPattern]:
        return self.pattern.flatten()


def sequence(
    elements: Iterable[PatternNode],
    within_seconds: Optional[float] = None,
    select: SelectPolicy = SelectPolicy.FIRST,
    consume: ConsumePolicy = ConsumePolicy.ALL,
) -> SequencePattern:
    """Convenience constructor for :class:`SequencePattern`."""
    return SequencePattern(
        elements=tuple(elements),
        within_seconds=within_seconds,
        select=select,
        consume=consume,
    )
