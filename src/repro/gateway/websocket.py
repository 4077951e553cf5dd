"""A minimal RFC 6455 websocket implementation on asyncio streams.

Stdlib-only by design (the repo's optional-dependency rule): the gateway
needs exactly the subset of the protocol a framed JSON message channel
uses — text/binary data frames with the three length encodings, client
masking, ping/pong keepalive, close handshake, and message fragmentation
reassembly.  No extensions (``permessage-deflate`` is not negotiated) and
no subprotocols.

The same :class:`WebSocketConnection` serves both ends: the server wraps
an accepted connection with ``role="server"`` (incoming frames *must* be
masked, outgoing frames are not), the client with ``role="client"`` (the
mirror image).  Violations close the connection with status 1002 and
raise :class:`~repro.errors.WebSocketError` — the gateway maps that to a
dead connection, never to a dead server.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import os
import struct
from typing import Optional, Tuple, Union

from repro.errors import (
    ConnectionClosedError,
    MessageTooBigError,
    WebSocketError,
)

__all__ = [
    "CLOSE_GOING_AWAY",
    "CLOSE_INTERNAL_ERROR",
    "CLOSE_MESSAGE_TOO_BIG",
    "CLOSE_NORMAL",
    "CLOSE_POLICY_VIOLATION",
    "CLOSE_PROTOCOL_ERROR",
    "CLOSE_TRY_AGAIN_LATER",
    "OP_BINARY",
    "OP_CLOSE",
    "OP_CONTINUATION",
    "OP_PING",
    "OP_PONG",
    "OP_TEXT",
    "WebSocketConnection",
    "accept_key",
    "encode_frame",
]

#: RFC 6455 §1.3 — the fixed GUID appended to the client key.
_HANDSHAKE_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONTINUATION = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

_DATA_OPCODES = (OP_TEXT, OP_BINARY)
_CONTROL_OPCODES = (OP_CLOSE, OP_PING, OP_PONG)

CLOSE_NORMAL = 1000
CLOSE_GOING_AWAY = 1001
CLOSE_PROTOCOL_ERROR = 1002
CLOSE_POLICY_VIOLATION = 1008
CLOSE_MESSAGE_TOO_BIG = 1009
CLOSE_INTERNAL_ERROR = 1011
CLOSE_TRY_AGAIN_LATER = 1013


def accept_key(key: str) -> str:
    """``Sec-WebSocket-Accept`` for a client's ``Sec-WebSocket-Key``."""
    digest = hashlib.sha1((key + _HANDSHAKE_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def _apply_mask(payload: bytes, mask: bytes) -> bytes:
    """XOR ``payload`` with the repeating 4-byte ``mask`` (involutory)."""
    if not payload:
        return payload
    repeated = (mask * (len(payload) // 4 + 1))[: len(payload)]
    return (
        int.from_bytes(payload, "big") ^ int.from_bytes(repeated, "big")
    ).to_bytes(len(payload), "big")


def encode_frame(
    opcode: int,
    payload: bytes,
    masked: bool = False,
    fin: bool = True,
) -> bytes:
    """Serialise one frame (FIN/opcode, length encoding, optional mask)."""
    header = bytearray()
    header.append((0x80 if fin else 0) | opcode)
    mask_bit = 0x80 if masked else 0
    length = len(payload)
    if length < 126:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header.extend(struct.pack(">H", length))
    else:
        header.append(mask_bit | 127)
        header.extend(struct.pack(">Q", length))
    if masked:
        mask = os.urandom(4)
        header.extend(mask)
        payload = _apply_mask(payload, mask)
    return bytes(header) + payload


class WebSocketConnection:
    """One established websocket over an asyncio stream pair.

    ``receive_message()`` returns reassembled data messages as
    ``(opcode, payload)`` and transparently answers pings; a clean or
    abrupt close raises :class:`~repro.errors.ConnectionClosedError`
    (the received close code, if any, is on the exception).  All sends
    are serialised by an internal lock, so the detections push channel
    and request replies can interleave safely.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        role: str = "server",
        max_message_bytes: int = 1 << 20,
    ) -> None:
        if role not in ("server", "client"):
            raise ValueError("role must be 'server' or 'client'")
        self._reader = reader
        self._writer = writer
        self._role = role
        self.max_message_bytes = max_message_bytes
        self.close_code: Optional[int] = None
        self.close_reason: str = ""
        self._closed = False
        self._send_lock = asyncio.Lock()

    # -- sending -----------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    async def _send_frame(self, opcode: int, payload: bytes, fin: bool = True) -> None:
        frame = encode_frame(
            opcode, payload, masked=self._role == "client", fin=fin
        )
        async with self._send_lock:
            if self._closed:
                raise ConnectionClosedError("cannot send on a closed websocket")
            self._writer.write(frame)
            try:
                await self._writer.drain()
            except (ConnectionError, OSError) as error:
                self._closed = True
                raise ConnectionClosedError(f"peer dropped: {error}") from error

    async def send_text(self, text: str) -> None:
        await self._send_frame(OP_TEXT, text.encode("utf-8"))

    async def send_binary(self, payload: bytes) -> None:
        await self._send_frame(OP_BINARY, payload)

    async def ping(self, payload: bytes = b"") -> None:
        await self._send_frame(OP_PING, payload)

    async def close(self, code: int = CLOSE_NORMAL, reason: str = "") -> None:
        """Send a close frame (idempotent) and close the transport."""
        if not self._closed:
            payload = struct.pack(">H", code) + reason.encode("utf-8")[:123]
            try:
                await self._send_frame(OP_CLOSE, payload)
            except ConnectionClosedError:
                pass
            self._closed = True
        self._writer.close()

    # -- receiving ---------------------------------------------------------------------

    async def _read_exact(self, count: int) -> bytes:
        try:
            return await self._reader.readexactly(count)
        except (asyncio.IncompleteReadError, ConnectionError, OSError) as error:
            self._closed = True
            raise ConnectionClosedError(f"peer dropped mid-frame: {error}") from error

    async def _read_frame(self) -> Tuple[int, bool, bytes]:
        """Read one raw frame; returns ``(opcode, fin, unmasked payload)``."""
        head = await self._read_exact(2)
        fin = bool(head[0] & 0x80)
        if head[0] & 0x70:
            await self._fail(CLOSE_PROTOCOL_ERROR, "reserved bits set")
        opcode = head[0] & 0x0F
        masked = bool(head[1] & 0x80)
        length = head[1] & 0x7F
        if opcode in _CONTROL_OPCODES and (not fin or length > 125):
            await self._fail(
                CLOSE_PROTOCOL_ERROR, "control frames must be short and unfragmented"
            )
        if length == 126:
            (length,) = struct.unpack(">H", await self._read_exact(2))
        elif length == 127:
            (length,) = struct.unpack(">Q", await self._read_exact(8))
        if length > self.max_message_bytes:
            await self._fail(
                CLOSE_MESSAGE_TOO_BIG,
                f"frame of {length} bytes exceeds the {self.max_message_bytes} limit",
                MessageTooBigError,
            )
        if self._role == "server" and not masked:
            # RFC 6455 §5.1: a server MUST fail unmasked client frames.
            await self._fail(CLOSE_PROTOCOL_ERROR, "client frames must be masked")
        if self._role == "client" and masked:
            await self._fail(CLOSE_PROTOCOL_ERROR, "server frames must not be masked")
        mask = await self._read_exact(4) if masked else b""
        payload = await self._read_exact(length)
        if masked:
            payload = _apply_mask(payload, mask)
        return opcode, fin, payload

    async def _fail(
        self,
        code: int,
        reason: str,
        error_type: type = WebSocketError,
    ) -> None:
        """Close with ``code`` and raise: the RFC's 'Fail the Connection'."""
        await self.close(code, reason)
        raise error_type(reason)

    async def receive_message(self) -> Tuple[int, bytes]:
        """The next data message, reassembled: ``(OP_TEXT|OP_BINARY, bytes)``.

        Ping frames are answered inline, pong frames are ignored, and a
        close frame is acknowledged and raised as
        :class:`~repro.errors.ConnectionClosedError`.
        """
        message_opcode: Optional[int] = None
        parts: list = []
        total = 0
        while True:
            opcode, fin, payload = await self._read_frame()
            if opcode == OP_PING:
                await self._send_frame(OP_PONG, payload)
                continue
            if opcode == OP_PONG:
                continue
            if opcode == OP_CLOSE:
                if len(payload) >= 2:
                    (self.close_code,) = struct.unpack(">H", payload[:2])
                    self.close_reason = payload[2:].decode("utf-8", "replace")
                if not self._closed:
                    # Acknowledge the peer's close per RFC 6455 §5.5.1.
                    await self.close(self.close_code or CLOSE_NORMAL)
                raise ConnectionClosedError(
                    f"peer closed ({self.close_code})", code=self.close_code
                )
            if opcode in _DATA_OPCODES:
                if message_opcode is not None:
                    await self._fail(
                        CLOSE_PROTOCOL_ERROR, "data frame inside a fragmented message"
                    )
                message_opcode = opcode
            elif opcode == OP_CONTINUATION:
                if message_opcode is None:
                    await self._fail(
                        CLOSE_PROTOCOL_ERROR, "continuation frame without a message"
                    )
            else:
                await self._fail(CLOSE_PROTOCOL_ERROR, f"unknown opcode {opcode:#x}")
            total += len(payload)
            if total > self.max_message_bytes:
                await self._fail(
                    CLOSE_MESSAGE_TOO_BIG,
                    f"message exceeds the {self.max_message_bytes} byte limit",
                    MessageTooBigError,
                )
            parts.append(payload)
            if fin:
                assert message_opcode is not None
                return message_opcode, b"".join(parts)

    async def receive(self) -> Union[str, bytes]:
        """The next data message, typed by its opcode: a text message as
        ``str`` (UTF-8, 1007 on invalid bytes), a binary one as ``bytes``."""
        opcode, payload = await self.receive_message()
        if opcode == OP_BINARY:
            return payload
        try:
            return payload.decode("utf-8")
        except UnicodeDecodeError:
            await self._fail(1007, "text message is not valid UTF-8")
            raise  # unreachable; _fail always raises

    def __repr__(self) -> str:
        return (
            f"WebSocketConnection(role={self._role!r}, closed={self._closed}, "
            f"close_code={self.close_code})"
        )
