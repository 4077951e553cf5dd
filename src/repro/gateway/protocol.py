"""The gateway's application protocol: JSON messages over websocket text frames.

Every message is one JSON object with a ``"type"`` field.  Client
requests may carry an ``"id"``; the direct response echoes it, which is
how a client correlates replies on a channel that also carries
server-initiated pushes.  One message has a second spelling: a ``tuples``
message whose records are uniform rows of numbers may travel as a packed
websocket *binary* message (see `Packed tuples frames`_); it decodes to
the very same dictionary, and the JSON spelling stays valid.

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
    ``accepted``/``dropped`` and echoes ``seq``.  The tuples of one
    frame are fed to the engine in batches of ``batch`` — by default the
    tenant's configured ``session.batch_size``, else the whole frame.
``drain``
    ``{"type": "drain"}`` — barrier: answered by ``drained`` (``{"type":
    "drained", "id"?: …}``, nothing else) only after every tuple this
    tenant queued so far has been fully processed.
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

Packed tuples frames
--------------------
A websocket **binary** message is a ``tuples`` message with its records
packed::

    +----------------+---------------------------+----------------------+
    | header length  | header                    | rows                 |
    | 4 bytes, u32,  | UTF-8 JSON: the message   | count x one row,     |
    | big-endian     | without "records", plus   | struct "<" + formats |
    |                | "fields" and "formats"    | (little-endian,      |
    |                |                           | no padding)          |
    +----------------+---------------------------+----------------------+

``fields`` lists the records' keys in order (1 to
:data:`MAX_PACKED_FIELDS` distinct strings) and ``formats`` is a string
with one :mod:`struct` code per field: ``d`` (a ``float``, IEEE 754
binary64, bit-exact including NaN payloads, infinities and ``-0.0``) or
``q`` (an ``int``, signed 64 bit).  The rest of the message is ``count``
rows — ``count`` is the remaining length over the row size and must be
whole.  :func:`decode_message` turns the frame back into ``{"type":
"tuples", "records": [{field: value, ...}, ...], ...}``, so nothing
downstream can tell the spellings apart.  :func:`pack_tuples` states
which record lists a client may pack; every other list is sent as JSON
text.  Responses, events and every other request are always JSON text.
"""

from __future__ import annotations

import functools
import json
import struct
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.detection.events import GestureEvent
from repro.errors import GatewayProtocolError

__all__ = [
    "MAX_PACKED_FIELDS",
    "PROTOCOL_VERSION",
    "ErrorCode",
    "decode_message",
    "decode_server_message",
    "encode_message",
    "event_to_wire",
    "make_error",
    "pack_tuples",
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


def _bad_message(detail: str) -> GatewayProtocolError:
    return GatewayProtocolError(ErrorCode.BAD_MESSAGE, detail)


def _parse_json(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as error:
        raise _bad_message(f"{what} is not valid JSON: {error}") from error


#: Most fields a packed record may have.  Far above any sensor tuple (a
#: ``kinect`` frame has 47); it bounds the row codecs a hostile client can
#: make the server build and cache.
MAX_PACKED_FIELDS = 1024

_HEADER_LENGTH = struct.Struct(">I")

#: ``struct`` code of a packable value, by its exact type (``bool`` is not ``int`` here).
_FORMAT_OF = {float: "d", int: "q"}


@functools.lru_cache(maxsize=64)
def _row_codec(formats: str) -> struct.Struct:
    """The codec of one packed row; ``formats`` holds 1 to 1024 of ``d`` / ``q``."""
    return struct.Struct("<" + formats)


def _unpack_tuples(frame: bytes) -> Dict[str, Any]:
    """The message a packed binary frame stands for (see the module docstring)."""
    if len(frame) < _HEADER_LENGTH.size:
        raise _bad_message("binary frame is shorter than its header length")
    (header_length,) = _HEADER_LENGTH.unpack_from(frame)
    rows_start = _HEADER_LENGTH.size + header_length
    if rows_start > len(frame):
        raise _bad_message("binary frame's header length runs past its end")
    try:
        header = frame[_HEADER_LENGTH.size : rows_start].decode("utf-8")
    except UnicodeDecodeError as error:
        raise _bad_message(f"binary frame's header is not UTF-8: {error}") from error
    message = _parse_json(header, "binary frame's header")
    if not isinstance(message, dict) or message.get("type") != "tuples":
        raise _bad_message("a binary frame must carry a 'tuples' message")
    fields, formats = message.pop("fields", None), message.pop("formats", None)
    if (
        not isinstance(fields, list)
        or not isinstance(formats, str)
        or len(fields) != len(formats)
        or not 0 < len(fields) <= MAX_PACKED_FIELDS
    ):
        raise _bad_message(
            "a packed frame needs 'fields' (a list) and 'formats' (a string) of "
            f"one length between 1 and {MAX_PACKED_FIELDS}"
        )
    if not all(isinstance(name, str) for name in fields) or len(set(fields)) != len(fields):
        raise _bad_message("'fields' must be distinct strings")
    if formats.strip("".join(_FORMAT_OF.values())):
        raise _bad_message("'formats' may hold only 'd' (float) and 'q' (int) codes")
    codec = _row_codec(formats)
    rows = memoryview(frame)[rows_start:]
    if len(rows) % codec.size:
        raise _bad_message(
            f"packed rows are {codec.size} bytes each; {len(rows)} bytes is not whole rows"
        )
    message["records"] = [dict(zip(fields, row)) for row in codec.iter_unpack(rows)]
    return message


def _decode(frame: Union[str, bytes], what: str) -> Any:
    """A text message's JSON value, or the message of a packed binary one."""
    if isinstance(frame, bytes):
        return _unpack_tuples(frame)
    return _parse_json(frame, what)


def decode_message(frame: Union[str, bytes]) -> Dict[str, Any]:
    """Parse one client message into a message dictionary.

    ``frame`` is a text message (``str``, JSON) or a binary one (``bytes``,
    a packed ``tuples`` frame); both give the same dictionary.

    Raises :class:`~repro.errors.GatewayProtocolError` (non-fatal,
    ``bad_message`` / ``unsupported_type``) on anything malformed — one
    bad frame never costs the connection, let alone the server.
    """
    message = _decode(frame, "frame")
    if not isinstance(message, dict):
        raise _bad_message("frame must be a JSON object")
    message_type = message.get("type")
    if not isinstance(message_type, str):
        raise _bad_message("frame is missing its 'type' field")
    if message_type not in CLIENT_TYPES:
        raise GatewayProtocolError(
            ErrorCode.UNSUPPORTED_TYPE,
            f"unknown message type {message_type!r}; expected one of {CLIENT_TYPES}",
        )
    return message


def decode_server_message(frame: Union[str, bytes]) -> Dict[str, Any]:
    """Parse one server message (clients accept any typed JSON object)."""
    message = _decode(frame, "server frame")
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise _bad_message("server frame must be a typed JSON object")
    return message


def encode_message(message: Mapping[str, Any]) -> str:
    """Serialise one server message (compact separators, stable keys)."""
    return json.dumps(message, separators=(",", ":"), sort_keys=True, default=str)


def pack_tuples(
    message: Mapping[str, Any], records: Sequence[Mapping[str, Any]]
) -> Optional[bytes]:
    """``message`` (a ``tuples`` message without its records) and ``records`` as
    one packed binary frame, or ``None`` when these records need JSON.

    Records can be packed when every one is a ``dict`` with the first
    record's keys in the first record's order (1 to
    :data:`MAX_PACKED_FIELDS` strings), every value is exactly a ``float``
    or exactly an ``int`` (a ``bool`` is neither), a field has one of the
    two in all records, and every ``int`` fits 64 signed bits.
    """
    if not records or not isinstance(records[0], dict):
        return None
    fields = tuple(records[0])
    types = [type(value) for value in records[0].values()]
    if not 0 < len(fields) <= MAX_PACKED_FIELDS or not all(
        isinstance(name, str) for name in fields
    ):
        return None
    try:
        formats = "".join(_FORMAT_OF[kind] for kind in types)
    except KeyError:  # a value that is neither float nor int
        return None
    pack = _row_codec(formats).pack
    rows = []
    try:
        for record in records:
            if (
                not isinstance(record, dict)
                or tuple(record) != fields
                or list(map(type, record.values())) != types
            ):
                return None
            rows.append(pack(*record.values()))
    except struct.error:  # an int beyond 64 bits
        return None
    header = encode_message({**message, "fields": fields, "formats": formats}).encode("utf-8")
    return b"".join((_HEADER_LENGTH.pack(len(header)), header, *rows))


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
