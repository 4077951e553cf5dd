"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so that
applications embedding the gesture-detection stack can catch a single base
class.  Sub-hierarchies mirror the library's subsystems: the CEP engine,
the learning pipeline, storage, and the interactive workflow controller.
"""

from __future__ import annotations

from typing import Any, Sequence


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# CEP engine errors
# ---------------------------------------------------------------------------


class CEPError(ReproError):
    """Base class for errors raised by the CEP engine (``repro.cep``)."""


class SchemaError(CEPError):
    """A tuple lacks a field that the stream it was pushed to declares
    (:attr:`repro.streams.Stream.fields`)."""


class ExpressionError(CEPError):
    """An expression references unknown fields, applies an operator to
    incompatible operands, or calls an unregistered function."""


class QuerySyntaxError(CEPError):
    """The query text could not be parsed.

    Attributes
    ----------
    line, column:
        1-based position of the offending token in the query text.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class QueryRegistrationError(CEPError):
    """A query could not be registered with the engine (duplicate name,
    unknown source stream, or the engine is already closed)."""


class UnknownStreamError(CEPError):
    """A query or view references a stream that is not registered."""


class UnknownViewError(UnknownStreamError):
    """A view name is not installed on the engine.

    Subclasses :class:`UnknownStreamError` because views *are* derived
    streams; existing ``except UnknownStreamError`` handlers keep working.
    """


class UnknownQueryError(QueryRegistrationError):
    """No deployed query has the requested name.

    Subclasses :class:`QueryRegistrationError` for backwards compatibility
    with callers that catch the broader class.
    """


class QueryBuilderError(CEPError):
    """A fluent query-builder chain is incomplete or inconsistent
    (no event patterns, missing output name, unknown policy …)."""


class QueryAnalysisError(QueryRegistrationError):
    """A strict-mode deployment was rejected by the static query analyzer.

    Raised by ``analyze="strict"`` deployments when the analyzer reports
    error-severity findings.  Subclasses :class:`QueryRegistrationError`
    so existing deployment error handlers keep working.

    Attributes
    ----------
    diagnostics:
        The error-severity :class:`repro.analysis.Diagnostic` findings
        that caused the rejection, most severe first.
    codes:
        The distinct diagnostic codes involved, sorted.
    """

    def __init__(
        self,
        subject: str = "query",
        diagnostics: "Sequence[Any]" = (),
        message: str = "",
    ) -> None:
        self.diagnostics = tuple(diagnostics)
        self.codes = sorted({d.code for d in self.diagnostics})
        if not message:
            lines = [
                f"static analysis rejected {subject}: "
                f"{len(self.diagnostics)} error-severity finding(s) "
                f"[{', '.join(self.codes)}]"
            ]
            lines.extend(f"  {d.describe()}" for d in self.diagnostics)
            message = "\n".join(lines)
        super().__init__(message)


class UnknownFunctionError(ExpressionError):
    """An expression calls a function that is not registered as a UDF."""


# ---------------------------------------------------------------------------
# Learning pipeline errors
# ---------------------------------------------------------------------------


class LearningError(ReproError):
    """Base class for errors raised by the gesture learning pipeline."""


class EmptySampleError(LearningError):
    """A gesture sample contains no usable measurements."""


class IncompatibleSampleError(LearningError):
    """A new sample cannot be merged into an existing gesture description,
    e.g. because it tracks different joints than previous samples."""


class SampleDeviationWarning(UserWarning):
    """Issued when a newly added sample deviates strongly from the windows
    mined from previous samples (paper, Sec. 3.3.2)."""


class ValidationError(LearningError):
    """Gesture validation failed (e.g. an unresolvable overlap between two
    gesture patterns was detected and strict mode is enabled)."""


class QueryGenerationError(LearningError):
    """A CEP query could not be generated from a gesture description."""


# ---------------------------------------------------------------------------
# Storage errors
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for gesture database errors."""


class GestureNotFoundError(StorageError):
    """The requested gesture does not exist in the gesture database."""


class DuplicateGestureError(StorageError):
    """A gesture with the same name already exists and overwrite is off."""


class SerializationError(StorageError):
    """A gesture description could not be (de)serialised."""


# ---------------------------------------------------------------------------
# Workflow / controller errors
# ---------------------------------------------------------------------------


class WorkflowError(ReproError):
    """Base class for errors raised by the interactive learning workflow."""


class InvalidWorkflowStateError(WorkflowError):
    """An operation was requested that is not legal in the current state of
    the learning workflow (e.g. finalising before any sample was recorded)."""


class RecordingError(WorkflowError):
    """Recording a gesture sample failed (e.g. the user never became
    stationary, or the recording contained no movement)."""


# ---------------------------------------------------------------------------
# Session façade errors
# ---------------------------------------------------------------------------


class SessionError(ReproError):
    """Base class for errors raised by the :class:`repro.api.GestureSession`
    façade."""


class SessionStateError(SessionError):
    """An operation is not legal in the session's current lifecycle state
    (e.g. calling ``start()`` twice)."""


class SessionClosedError(SessionStateError):
    """The session has been closed; no further data can be fed through it."""


# ---------------------------------------------------------------------------
# Sharded runtime errors
# ---------------------------------------------------------------------------


class ShardedRuntimeError(ReproError):
    """Base class for errors raised by the sharded concurrent runtime
    (:mod:`repro.runtime`)."""


class RuntimeStateError(ShardedRuntimeError):
    """An operation is not legal in the runtime's current lifecycle state
    (e.g. feeding before ``start()`` or after ``stop()``)."""


class BackpressureError(ShardedRuntimeError):
    """A bounded shard queue is full and its backpressure policy is
    ``"error"``: the producer must slow down or drop data itself."""


class ShardFailedError(ShardedRuntimeError):
    """A worker shard died on an exception.

    The failing shard's original exception is chained as ``__cause__`` and
    also available as :attr:`cause`; ``shard_id`` names the shard.
    """

    def __init__(self, shard_id: int, cause: BaseException, detail: str = "") -> None:
        message = f"shard {shard_id} failed: {cause!r}"
        if detail:
            message = f"{message}\n{detail}"
        super().__init__(message)
        self.shard_id = shard_id
        self.cause = cause


# ---------------------------------------------------------------------------
# Durability / persistence errors
# ---------------------------------------------------------------------------


class PersistenceError(ReproError):
    """Base class for errors raised by the durability subsystem
    (:mod:`repro.persistence`): event log, snapshots, recovery, replay."""


class EventLogError(PersistenceError):
    """The append-only event log could not be written, rotated or read
    (I/O failure, corrupt segment, manifest/segment disagreement)."""


class SnapshotError(PersistenceError):
    """A state snapshot could not be captured, written or restored —
    including a component refusing a state blob of the wrong kind or an
    incompatible topology (shard count / partition field mismatch)."""


class RecoveryError(PersistenceError):
    """Recovery from a durability directory failed (no usable snapshot or
    log, or the replayed tail is inconsistent with the snapshot)."""


class ReplayStateError(PersistenceError):
    """A replay operation is not legal in the controller's current state
    (seeking behind the cursor without a snapshot, advancing a finished
    replay, …)."""


# ---------------------------------------------------------------------------
# Gateway errors
# ---------------------------------------------------------------------------


class GatewayError(ReproError):
    """Base class for errors raised by the network-facing ingestion gateway
    (:mod:`repro.gateway`)."""


class WebSocketError(GatewayError):
    """A websocket frame or handshake violated RFC 6455 (bad opcode,
    unmasked client frame, fragmented control frame, truncated stream)."""


class HandshakeError(WebSocketError):
    """The HTTP request could not be upgraded to a websocket connection
    (missing ``Sec-WebSocket-Key``, wrong method, unsupported version)."""


class MessageTooBigError(WebSocketError):
    """An incoming frame or reassembled message exceeded the configured
    size limit; the connection is closed with status 1009."""


class ConnectionClosedError(WebSocketError):
    """The peer closed (or dropped) the connection; ``code`` carries the
    close status when one was received (``None`` on an abrupt drop)."""

    def __init__(self, message: str = "connection closed", code: "Any" = None) -> None:
        super().__init__(message)
        self.code = code


class GatewayProtocolError(GatewayError):
    """A client message violated the gateway's application protocol.

    ``code`` is the stable, typed error code sent back to the client in
    the error frame (see ``repro.gateway.protocol.ErrorCode``); ``fatal``
    says whether the server closes the connection after sending it.
    """

    def __init__(self, code: str, message: str, fatal: bool = False, **extra: "Any") -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.detail = message
        self.fatal = fatal
        #: Extra fields copied onto the error frame (e.g. the analyzer's
        #: diagnostic ``codes`` on an ``analysis_rejected`` rejection).
        self.extra = extra


class AdmissionError(GatewayError):
    """Edge admission control rejected the work under the tenant's
    ``error`` backpressure policy (or a hard limit such as the per-tenant
    connection cap was hit)."""


# ---------------------------------------------------------------------------
# Application-layer errors
# ---------------------------------------------------------------------------


class ApplicationError(ReproError):
    """Base class for errors raised by the demo applications."""


class NavigationError(ApplicationError):
    """An OLAP or graph navigation operation could not be applied."""


class BindingError(ApplicationError):
    """A gesture could not be bound to an application action."""
