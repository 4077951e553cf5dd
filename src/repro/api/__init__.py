"""Public application API: the fluent query DSL and the session façade.

This package is the one import an application needs:

* :mod:`repro.api.dsl` — ``F`` (field expressions), ``Q`` (fluent query
  builder), the ``udf`` helper.  Builder chains produce the same
  frozen :class:`~repro.cep.query.Query` objects the parser and the
  learning pipeline produce, and round-trip byte-identically through
  ``to_query()`` / :func:`~repro.cep.parser.parse_query`.
* :mod:`repro.api.session` — :class:`GestureSession`, a context-managed
  façade owning the CEP engine, the ``kinect_t`` view, the detector, the
  learning pipeline and the gesture database behind one
  :class:`SessionConfig`.

>>> from repro.api import GestureSession, F, Q
>>> hands_up = Q.stream("kinect_t").where(F("rhand_y") > 400).named("hands_up")
>>> with GestureSession() as session:
...     _ = session.deploy(hands_up)
...     session.feed([{"ts": 0.0, "rhand_y": 500.0}], stream="kinect_t")
...     [event.gesture for event in session.events]
1
['hands_up']
"""

from repro.api.dsl import Expr, F, Q, QueryBuilder, udf
from repro.api.session import (
    GestureSession,
    HandlerFailure,
    SessionConfig,
)
from repro.persistence import DurabilityConfig, RecoveryResult, ReplayController

__all__ = [
    "Expr",
    "F",
    "Q",
    "QueryBuilder",
    "udf",
    "GestureSession",
    "HandlerFailure",
    "SessionConfig",
    "DurabilityConfig",
    "RecoveryResult",
    "ReplayController",
]
