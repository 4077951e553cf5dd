"""Cross-query vocabulary analysis: duplicates, subsumption, factoring.

A deployed gesture vocabulary is a *set* of queries, and its cost is not
the sum of its parts: the generated abs-window shapes overlap heavily, so
duplicate, equivalent and subsumed queries waste matcher cycles for every
tuple of every user.  This module compares queries pairwise — first by
canonical ``to_query()`` text, then semantically via the per-step interval
summaries of :mod:`repro.analysis.rules` — and builds the
shared-predicate factoring report that the multi-query optimisation layer
(ROADMAP item 1) consumes: predicate → queries that evaluate it.

Entry points: :func:`analyze_vocabulary`, returning a
:class:`VocabularyReport`, and :func:`gate_deployment`, the ``analyze=``
gate :class:`~repro.api.GestureSession` runs before it deploys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    gate_diagnostics,
    sort_diagnostics,
    validate_analyze_mode,
)
from repro.analysis.intervals import IntervalSet
from repro.analysis.rules import (
    AnalysisContext,
    PredicateSummary,
    Satisfiability,
    analyze_query,
    summarize_predicate,
)
from repro.cep.expressions import BooleanOp, Expression
from repro.cep.nfa import CompiledPattern, compile_pattern
from repro.cep.query import Query

if TYPE_CHECKING:
    from repro.cep.engine import Engine

__all__ = ["VocabularyReport", "analyze_vocabulary", "gate_deployment"]


@dataclass(frozen=True)
class VocabularyReport:
    """The result of :func:`analyze_vocabulary`.

    Attributes
    ----------
    queries:
        Registration names in analysis order.
    diagnostics:
        All findings (per-query and cross-query), most severe first.
    shared_predicates:
        The factoring report: canonical predicate text → sorted names of
        the queries that evaluate it (only predicates shared by at least
        two queries).  This is the input of the multi-query optimisation
        layer: each entry is a predicate that should be evaluated once per
        tuple, not once per query.
    """

    queries: Tuple[str, ...]
    diagnostics: Tuple[Diagnostic, ...]
    shared_predicates: Mapping[str, Tuple[str, ...]]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def for_query(self, name: str) -> List[Diagnostic]:
        """Findings anchored to (or mentioning) query ``name``."""
        return [
            d
            for d in self.diagnostics
            if d.query == name or name in d.detail.get("queries", ())
        ]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable rendering (the CLI's ``--json`` payload)."""
        counts = {severity.value: 0 for severity in Severity}
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity.value] += 1
        return {
            "queries": list(self.queries),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "shared_predicates": {
                text: list(names) for text, names in self.shared_predicates.items()
            },
            "summary": counts,
        }


#: One analysed query: name, query, compiled pattern, per-step summaries.
_Entry = Tuple[str, Query, CompiledPattern, List[PredicateSummary]]


def _step_conjuncts(predicate: Expression) -> List[Expression]:
    """Top-level conjuncts of a step predicate (the factoring unit)."""
    if isinstance(predicate, BooleanOp) and predicate.operator == "and":
        return list(predicate.operands)
    return [predicate]


def _exactly_summarised(entry: _Entry) -> bool:
    """Whether every step of ``entry`` has an exact interval summary."""
    return all(
        summary.exact and summary.status is Satisfiability.SATISFIABLE
        for summary in entry[3]
    )


def _constraint_spans(compiled: CompiledPattern) -> Dict[Tuple[int, int], float]:
    """``within`` windows keyed by the (first, last) step span they cover."""
    spans: Dict[Tuple[int, int], float] = {}
    for constraint in compiled.constraints:
        span = (constraint.first, constraint.last)
        seconds = spans.get(span)
        # Several nested groups can cover the same span; the tightest wins.
        spans[span] = constraint.seconds if seconds is None else min(seconds, constraint.seconds)
    return spans


def _covers(wide: _Entry, narrow: _Entry) -> bool:
    """Whether every match of ``narrow`` is necessarily a match of ``wide``.

    Sound only for exactly-summarised entries: same step streams, each
    wide step's per-field constraints a superset of the narrow step's, and
    every time window of ``wide`` at least as permissive as what ``narrow``
    enforces on the same span.
    """
    _, wide_query, wide_compiled, wide_summaries = wide
    _, narrow_query, narrow_compiled, narrow_summaries = narrow
    if wide_compiled.length != narrow_compiled.length:
        return False
    if wide_query.pattern.select is not narrow_query.pattern.select:
        return False
    if wide_query.pattern.consume is not narrow_query.pattern.consume:
        return False
    if any(
        wide_step.stream != narrow_step.stream
        for wide_step, narrow_step in zip(wide_compiled.steps, narrow_compiled.steps)
    ):
        return False
    for wide_summary, narrow_summary in zip(wide_summaries, narrow_summaries):
        narrow_fields = narrow_summary.fields
        for field_name, wide_set in wide_summary.fields.items():
            narrow_set = narrow_fields.get(field_name, IntervalSet.full())
            if not wide_set.covers(narrow_set):
                return False
    narrow_spans = _constraint_spans(narrow_compiled)
    for span, wide_seconds in _constraint_spans(wide_compiled).items():
        narrow_seconds = narrow_spans.get(span)
        if narrow_seconds is None or narrow_seconds > wide_seconds:
            return False
    return True


def _pair_diagnostics(entries: Sequence[_Entry]) -> List[Diagnostic]:
    """QA040 / QA041 / QA042 over all query pairs."""
    findings: List[Diagnostic] = []

    # Textual duplicates first: group by canonical pattern text.
    by_signature: Dict[str, List[str]] = {}
    for name, query, _, _ in entries:
        by_signature.setdefault(query.signature(), []).append(name)
    duplicated: set = set()
    for names in by_signature.values():
        if len(names) < 2:
            continue
        duplicated.update(names)
        findings.append(
            Diagnostic(
                code="QA040",
                severity=Severity.WARNING,
                message=(
                    f"queries {', '.join(names)} share an identical pattern — "
                    f"every tuple is matched {len(names)} times for one "
                    f"detection shape; deploy one and alias the rest"
                ),
                query=names[0],
                detail={"queries": list(names)},
            )
        )

    comparable = [entry for entry in entries if _exactly_summarised(entry)]
    for index, first in enumerate(comparable):
        for second in comparable[index + 1 :]:
            name_a, query_a = first[0], first[1]
            name_b, query_b = second[0], second[1]
            if name_a in duplicated and name_b in duplicated and (
                query_a.signature() == query_b.signature()
            ):
                continue  # already reported as QA040
            a_covers_b = _covers(first, second)
            b_covers_a = _covers(second, first)
            if a_covers_b and b_covers_a:
                findings.append(
                    Diagnostic(
                        code="QA041",
                        severity=Severity.WARNING,
                        message=(
                            f"queries {name_a} and {name_b} are semantically "
                            f"equivalent (identical per-field intervals and "
                            f"time windows) despite differing text — one of "
                            f"them is redundant"
                        ),
                        query=name_a,
                        detail={"queries": [name_a, name_b]},
                    )
                )
            elif a_covers_b or b_covers_a:
                wide, narrow = (name_a, name_b) if a_covers_b else (name_b, name_a)
                findings.append(
                    Diagnostic(
                        code="QA042",
                        severity=Severity.WARNING,
                        message=(
                            f"query {wide} subsumes {narrow}: every match of "
                            f"{narrow} also completes {wide}, so both fire "
                            f"together on {narrow}'s movements — tighten "
                            f"{wide} or remove {narrow}"
                        ),
                        query=narrow,
                        detail={"queries": [wide, narrow], "wide": wide, "narrow": narrow},
                    )
                )
    return findings


def _factoring_report(
    entries: Sequence[_Entry],
) -> Tuple[Dict[str, Tuple[str, ...]], List[Diagnostic]]:
    """QA050 and the shared-predicate map (predicate → queries)."""
    users: Dict[str, List[str]] = {}
    for name, _, compiled, _ in entries:
        for step in compiled.steps:
            for conjunct in _step_conjuncts(step.predicate):
                text = conjunct.to_query()
                names = users.setdefault(text, [])
                if name not in names:
                    names.append(name)
    shared = {
        text: tuple(sorted(names))
        for text, names in sorted(users.items())
        if len(names) > 1
    }
    findings = [
        Diagnostic(
            code="QA050",
            severity=Severity.INFO,
            message=(
                f"predicate '{text}' is evaluated by {len(names)} queries "
                f"({', '.join(names)}) — a multi-query plan can evaluate it "
                f"once per tuple and fan the result out"
            ),
            detail={"predicate": text, "queries": list(names)},
        )
        for text, names in shared.items()
    ]
    return shared, findings


def _coerce_entries(
    source: Union[Mapping[str, Any], Sequence[Any], Any],
) -> List[Tuple[str, Query]]:
    """Normalise a vocabulary source into named queries.

    Accepts a mapping of name → query-like (text, :class:`Query`, builder
    chain, or :class:`~repro.core.description.GestureDescription`), a
    plain sequence of query-likes, or a
    :class:`~repro.storage.database.GestureDatabase`.
    """
    from repro.cep.engine import coerce_query  # late: engine imports us lazily
    from repro.storage.database import GestureDatabase

    if isinstance(source, GestureDatabase):
        from repro.core.querygen import QueryGenerator

        generator = QueryGenerator()
        named: List[Tuple[str, Query]] = []
        for record in source.all_gestures():
            if record.query_text:
                named.append((record.name, coerce_query(record.query_text)))
            else:
                named.append((record.name, generator.generate(record.description)))
        return named

    def to_query(value: Any) -> Query:
        from repro.core.description import GestureDescription

        if isinstance(value, GestureDescription):
            from repro.core.querygen import QueryGenerator

            return QueryGenerator().generate(value)
        return coerce_query(value)

    if isinstance(source, Mapping):
        return [(str(name), to_query(value)) for name, value in source.items()]
    named = []
    for value in source:
        query = to_query(value)
        named.append((query.registration_name, query))
    return named


def analyze_vocabulary(
    source: Union[Mapping[str, Any], Sequence[Any], Any],
    context: Optional[AnalysisContext] = None,
    names: Optional[Iterable[str]] = None,
) -> VocabularyReport:
    """Analyse a whole vocabulary: per-query rules plus cross-query rules.

    ``source`` may be a mapping of name → query-like, a sequence of
    query-likes, or a :class:`~repro.storage.database.GestureDatabase`.
    ``names`` optionally overrides the registration names (zipped against
    the source order).
    """
    context = context or AnalysisContext()
    named = _coerce_entries(source)
    if names is not None:
        overrides = list(names)
        if len(overrides) != len(named):
            raise ValueError(
                f"got {len(overrides)} name overrides for {len(named)} queries"
            )
        named = [(override, query) for override, (_, query) in zip(overrides, named)]

    findings: List[Diagnostic] = []
    entries: List[_Entry] = []
    for name, query in named:
        findings.extend(analyze_query(query, context=context, name=name))
        compiled = compile_pattern(query.pattern)
        summaries = [summarize_predicate(step.predicate) for step in compiled.steps]
        entries.append((name, query, compiled, summaries))

    findings.extend(_pair_diagnostics(entries))
    shared, factoring = _factoring_report(entries)
    findings.extend(factoring)
    return VocabularyReport(
        queries=tuple(name for name, _ in named),
        diagnostics=sort_diagnostics(findings),
        shared_predicates=shared,
    )


def gate_deployment(
    engine: "Engine",
    queries: Mapping[str, Query],
    mode: str,
    subject: str = "vocabulary",
) -> Tuple[Diagnostic, ...]:
    """The deploy-time ``analyze=`` gate, which the session runs.

    Analyses ``queries`` (registration name → the :class:`Query` about to
    be deployed) as one vocabulary under :meth:`AnalysisContext.for_engine`,
    gates the findings and returns them; the caller deploys those very
    queries only after it returned.
    """
    validate_analyze_mode(mode)
    report = analyze_vocabulary(queries, context=AnalysisContext.for_engine(engine))
    gate_diagnostics(report.diagnostics, mode, subject=subject)
    return report.diagnostics
