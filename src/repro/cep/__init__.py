"""A complex event processing (CEP) engine for sensor streams.

This package is the reproduction's stand-in for *AnduIN*, the data stream
management system the paper deploys its generated gesture queries on.  It
provides everything those queries need:

* the partition key of sensor streams (:mod:`repro.cep.tuples`),
* an expression language with user-defined functions
  (:mod:`repro.cep.expressions`, :mod:`repro.cep.udf`),
* a parser for the paper's query dialect —
  ``SELECT "name" MATCHING ( kinect_t(…) -> kinect_t(…) within 1 seconds
  select first consume all )`` (:mod:`repro.cep.parser`),
* NFA-based sequence pattern matching with time windows and consumption
  policies (:mod:`repro.cep.nfa`, :mod:`repro.cep.matcher`),
* derived streams / views such as ``kinect_t`` (:mod:`repro.cep.views`),
* an engine that owns streams, views, deployed queries and sinks
  (:mod:`repro.cep.engine`), and keeps each detection once, in a
  :class:`~repro.cep.sinks.DetectionLog`.
"""

from repro.cep.tuples import DEFAULT_PARTITION_FIELD
from repro.cep.expressions import (
    BinaryOp,
    BooleanOp,
    Comparison,
    CompiledPredicateCache,
    Expression,
    FieldRef,
    FunctionCall,
    Literal,
    NotOp,
    UnaryMinus,
    abs_diff_predicate,
)
from repro.cep.udf import FunctionRegistry, default_functions
from repro.cep.parser import parse_query, parse_expression
from repro.cep.query import (
    EventPattern,
    Query,
    SequencePattern,
    ConsumePolicy,
    SelectPolicy,
)
from repro.cep.nfa import CompiledPattern, compile_pattern
from repro.cep.matcher import Detection, NFAMatcher, MatcherConfig
from repro.cep.sinks import (
    CallbackSink,
    FanOutSink,
    Sink,
    SinkFailure,
)
from repro.cep.views import install_kinect_view
from repro.cep.engine import CEPEngine, DeployedQuery, Engine, QueryHandle

__all__ = [
    "DEFAULT_PARTITION_FIELD",
    "Expression",
    "Literal",
    "FieldRef",
    "BinaryOp",
    "UnaryMinus",
    "Comparison",
    "BooleanOp",
    "NotOp",
    "FunctionCall",
    "CompiledPredicateCache",
    "abs_diff_predicate",
    "FunctionRegistry",
    "default_functions",
    "parse_query",
    "parse_expression",
    "Query",
    "EventPattern",
    "SequencePattern",
    "SelectPolicy",
    "ConsumePolicy",
    "CompiledPattern",
    "compile_pattern",
    "NFAMatcher",
    "MatcherConfig",
    "Detection",
    "Sink",
    "SinkFailure",
    "CallbackSink",
    "FanOutSink",
    "install_kinect_view",
    "CEPEngine",
    "DeployedQuery",
    "Engine",
    "QueryHandle",
]
