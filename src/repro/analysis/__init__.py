"""Static analysis of gesture queries and deployed vocabularies.

The learning loop of the paper generates CEP queries and deploys them
blind: nothing proves a generated query is satisfiable, non-redundant or
correctly windowed before it burns matcher cycles.  This package lowers
:class:`~repro.cep.expressions.Expression` / :class:`~repro.cep.query.Query`
ASTs into per-field interval constraints and emits typed
:class:`~repro.analysis.diagnostics.Diagnostic` objects with stable codes:

* per-query rules — unsatisfiable predicates and dead pattern steps
  (``QA001`` / ``QA002``), tautological constraints (``QA003`` /
  ``QA004``), ``within``-uncovered steps interacting with
  ``run_ttl_seconds`` (``QA010`` / ``QA011``), consume/select sanity
  (``QA020`` / ``QA021``) and partition safety across streams
  (``QA030`` / ``QA031``);
* cross-query vocabulary rules — duplicate and semantically equivalent
  queries (``QA040`` / ``QA041``), subsumption (``QA042``) and the
  shared-predicate factoring report (``QA050``) that feeds the multi-query
  optimisation layer of ROADMAP item 1.

Entry points:

* :func:`analyze_query` — diagnostics for one query,
* :func:`analyze_vocabulary` — a :class:`VocabularyReport` over many,
* deploy-time gating via ``analyze="off" | "warn" | "strict"`` on
  :meth:`repro.api.GestureSession.deploy` and
  :meth:`~repro.api.GestureSession.deploy_vocabulary` — the session runs
  :func:`gate_deployment` on the very queries it then deploys, on either
  engine; engines and the detector do not analyse,
* ``python -m repro.analysis`` — lint vocabulary manifests or gesture
  databases from the command line.

See ``docs/analysis.md`` for the full code reference.
"""

from repro.analysis.diagnostics import (
    ANALYZE_MODES,
    Diagnostic,
    QueryAnalysisWarning,
    Severity,
    gate_diagnostics,
    validate_analyze_mode,
)
from repro.analysis.intervals import Interval, IntervalSet
from repro.analysis.rules import AnalysisContext, analyze_query
from repro.analysis.vocabulary import VocabularyReport, analyze_vocabulary, gate_deployment
from repro.errors import QueryAnalysisError

__all__ = [
    "ANALYZE_MODES",
    "AnalysisContext",
    "Diagnostic",
    "Interval",
    "IntervalSet",
    "QueryAnalysisError",
    "QueryAnalysisWarning",
    "Severity",
    "VocabularyReport",
    "analyze_query",
    "analyze_vocabulary",
    "gate_deployment",
    "gate_diagnostics",
    "validate_analyze_mode",
]
