"""The gateway's application protocol: JSON messages over websocket text frames.

Every message is one JSON object with a ``"type"`` field.  Client
requests may carry an ``"id"``; the direct response echoes it, which is
how a client correlates replies on a channel that also carries
server-initiated pushes.

Client → server
---------------
``hello``
    ``{"type": "hello", "tenant": str, "token"?: str, "protocol"?: 1,
    "subscribe"?: bool}`` — must be the first message; attaches the
    connection to a tenant (authenticating when the tenant has a
    configured token).  Answered by ``welcome``.
``deploy``
    ``{"type": "deploy", "query": str, "name"?: str}`` — deploy one query
    (the paper's query dialect) through the tenant's session, gated by
    the static analyzer per tenant configuration.  Answered by
    ``deployed``.
``deploy_vocabulary``
    ``{"type": "deploy_vocabulary", "manifest": {name: query_text}}`` or
    ``{"type": "deploy_vocabulary", "vocabulary": str}`` (a vocabulary
    name registered on the gateway — a JSON manifest or gesture-DB
    file).  Answered by ``deployed``.
``tuples``
    ``{"type": "tuples", "records": [{...}], "stream"?: str,
    "batch"?: int, "seq"?: int, "ack"?: bool}`` — framed tuple
    ingestion; ``records`` is a non-empty list of flat JSON objects.
    Admission control applies *before* the records are queued; the
    ``ack`` answer (suppressed by ``"ack": false``) reports
    ``accepted``/``dropped`` and echoes ``seq``.
``drain``
    ``{"type": "drain"}`` — barrier: answered by ``drained`` only after
    every tuple this tenant queued so far has been fully processed.
``detections``
    ``{"type": "detections", "name"?: str, "partition"?: any}`` —
    request-response read of the tenant's engine detections (drains
    first, like the in-process API).  Answered by ``detections``.
``ping`` / ``bye``
    Application-level liveness and graceful goodbye (answered by
    ``pong`` / ``bye`` + close).

Server → client
---------------
``welcome``, ``deployed``, ``ack``, ``drained``, ``detections``,
``pong``, ``bye`` — direct responses, echoing ``id``.
``event``
    ``{"type": "event", "gesture": str, "timestamp": float, "duration":
    float, "player": any, "pose_timestamps": [...], "measures": {...}}``
    — the server-push detections channel (every subscribed connection of
    the tenant receives every detection, in detection order).
``error``
    ``{"type": "error", "code": str, "message": str, "fatal": bool}`` —
    typed errors (see :class:`ErrorCode`); ``fatal`` errors are followed
    by a websocket close.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional

from repro.cep.matcher import Detection
from repro.detection.events import GestureEvent
from repro.errors import GatewayProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "ErrorCode",
    "decode_message",
    "decode_server_message",
    "detection_to_wire",
    "encode_message",
    "event_to_wire",
    "make_error",
]

PROTOCOL_VERSION = 1

#: Client message types the server understands.
CLIENT_TYPES = (
    "hello",
    "deploy",
    "deploy_vocabulary",
    "tuples",
    "drain",
    "detections",
    "ping",
    "bye",
)


class ErrorCode:
    """Stable error codes carried by ``error`` frames."""

    #: The message was not valid JSON, not an object, or missing fields.
    BAD_MESSAGE = "bad_message"
    #: ``type`` is not one of the protocol's client message types.
    UNSUPPORTED_TYPE = "unsupported_type"
    #: The negotiated ``protocol`` version is not supported.
    UNSUPPORTED_PROTOCOL = "unsupported_protocol"
    #: A non-``hello`` message arrived before ``hello``.
    HELLO_REQUIRED = "hello_required"
    #: A second ``hello`` arrived on an attached connection.
    ALREADY_ATTACHED = "already_attached"
    #: The tenant requires a token and the offered one did not match.
    AUTH_FAILED = "auth_failed"
    #: The tenant is not configured and dynamic tenants are disabled.
    UNKNOWN_TENANT = "unknown_tenant"
    #: The tenant's connection cap is reached.
    TOO_MANY_CONNECTIONS = "too_many_connections"
    #: The tenant's rate limit rejected the frame (``error`` policy).
    RATE_LIMITED = "rate_limited"
    #: The tenant's pending-tuple bound rejected the frame (``error``
    #: policy).
    BACKPRESSURE = "backpressure"
    #: The static query analyzer rejected the deployment (strict gate);
    #: the frame carries the diagnostic ``codes``.
    ANALYSIS_REJECTED = "analysis_rejected"
    #: The deployment failed for a non-analyzer reason (syntax error,
    #: duplicate name, unknown stream ...).
    DEPLOY_FAILED = "deploy_failed"
    #: ``deploy_vocabulary`` named a vocabulary the gateway doesn't have.
    UNKNOWN_VOCABULARY = "unknown_vocabulary"
    #: The tenant's session is gone (gateway shutting down).
    SESSION_CLOSED = "session_closed"
    #: Unexpected server-side failure; the connection survives.
    INTERNAL_ERROR = "internal_error"


def decode_message(text: str) -> Dict[str, Any]:
    """Parse one client text frame into a message dictionary.

    Raises :class:`~repro.errors.GatewayProtocolError` (non-fatal,
    ``bad_message`` / ``unsupported_type``) on anything malformed — one
    bad frame never costs the connection, let alone the server.
    """
    try:
        message = json.loads(text)
    except json.JSONDecodeError as error:
        raise GatewayProtocolError(
            ErrorCode.BAD_MESSAGE, f"frame is not valid JSON: {error}"
        ) from error
    if not isinstance(message, dict):
        raise GatewayProtocolError(
            ErrorCode.BAD_MESSAGE, "frame must be a JSON object"
        )
    message_type = message.get("type")
    if not isinstance(message_type, str):
        raise GatewayProtocolError(
            ErrorCode.BAD_MESSAGE, "frame is missing its 'type' field"
        )
    if message_type not in CLIENT_TYPES:
        raise GatewayProtocolError(
            ErrorCode.UNSUPPORTED_TYPE,
            f"unknown message type {message_type!r}; expected one of {CLIENT_TYPES}",
        )
    return message


def decode_server_message(text: str) -> Dict[str, Any]:
    """Parse one server frame (clients accept any typed JSON object)."""
    try:
        message = json.loads(text)
    except json.JSONDecodeError as error:
        raise GatewayProtocolError(
            ErrorCode.BAD_MESSAGE, f"server frame is not valid JSON: {error}"
        ) from error
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise GatewayProtocolError(
            ErrorCode.BAD_MESSAGE, "server frame must be a typed JSON object"
        )
    return message


def encode_message(message: Mapping[str, Any]) -> str:
    """Serialise one server message (compact separators, stable keys)."""
    return json.dumps(message, separators=(",", ":"), sort_keys=True, default=str)


def make_error(
    code: str,
    message: str,
    fatal: bool = False,
    request_id: Any = None,
    **extra: Any,
) -> Dict[str, Any]:
    """Build one ``error`` frame payload."""
    frame: Dict[str, Any] = {
        "type": "error",
        "code": code,
        "message": message,
        "fatal": fatal,
    }
    if request_id is not None:
        frame["id"] = request_id
    frame.update(extra)
    return frame


def require_records(message: Mapping[str, Any]) -> List[Mapping[str, Any]]:
    """Validate the ``records`` payload of a ``tuples`` frame."""
    records = message.get("records")
    if not isinstance(records, list) or not records:
        raise GatewayProtocolError(
            ErrorCode.BAD_MESSAGE, "'tuples' needs a non-empty 'records' list"
        )
    for record in records:
        if not isinstance(record, dict):
            raise GatewayProtocolError(
                ErrorCode.BAD_MESSAGE, "every record must be a JSON object"
            )
    batch = message.get("batch")
    if batch is not None and (not isinstance(batch, int) or batch < 1):
        raise GatewayProtocolError(
            ErrorCode.BAD_MESSAGE, "'batch' must be a positive integer when given"
        )
    return records


def detection_to_wire(detection: Detection) -> Dict[str, Any]:
    """One engine detection as a JSON-serialisable wire object.

    Uses the snapshot format (:meth:`Detection.to_state`) so gateway
    reads are byte-compatible with snapshots, replay and the in-process
    API — ``tests/test_gateway_server.py`` asserts exactly this.
    """
    return detection.to_state()


def event_to_wire(event: GestureEvent) -> Dict[str, Any]:
    """One application-level gesture event as an ``event`` push frame."""
    return {
        "type": "event",
        "gesture": event.gesture,
        "timestamp": event.timestamp,
        "duration": event.duration,
        "pose_timestamps": list(event.pose_timestamps),
        "measures": dict(event.measures),
        "player": event.partition,
    }


def validate_hello(message: Mapping[str, Any]) -> str:
    """Validate a ``hello`` and return the tenant id."""
    tenant = message.get("tenant")
    if not isinstance(tenant, str) or not tenant:
        raise GatewayProtocolError(
            ErrorCode.BAD_MESSAGE, "'hello' needs a non-empty 'tenant' string"
        )
    protocol: Optional[int] = message.get("protocol", PROTOCOL_VERSION)
    if protocol != PROTOCOL_VERSION:
        raise GatewayProtocolError(
            ErrorCode.UNSUPPORTED_PROTOCOL,
            f"protocol {protocol!r} is not supported (server speaks "
            f"{PROTOCOL_VERSION})",
            fatal=True,
        )
    return tenant
