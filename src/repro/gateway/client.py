"""An asyncio client for the gateway protocol.

Used by the gateway test-suites, the ``benchmarks/e2e`` load generator and
the example script — and small enough to crib for a real integration.  One
:class:`GatewayClient` owns one websocket connection and a background
reader task that demultiplexes the channel: direct responses resolve the
pending request future matching their ``id``, ``event`` pushes land in
:attr:`events`, and unsolicited ``error`` frames are collected on
:attr:`errors` (a fatal one also fails all in-flight requests).
"""

from __future__ import annotations

import asyncio
import base64
import itertools
import os
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import (
    ConnectionClosedError,
    GatewayProtocolError,
    HandshakeError,
    WebSocketError,
)
from repro.gateway import protocol
from repro.gateway.websocket import WebSocketConnection, accept_key

__all__ = ["GatewayClient"]


class GatewayClient:
    """One gateway connection with request/response correlation."""

    def __init__(self, ws: WebSocketConnection) -> None:
        self.ws = ws
        #: Server-push ``event`` frames, in arrival (= detection) order.
        self.events: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        #: Unsolicited ``error`` frames (ones carrying no request ``id``).
        self.errors: List[Dict[str, Any]] = []
        self._pending: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._ids = itertools.count(1)
        self._reader: Optional[asyncio.Task] = None
        self.tenant: Optional[str] = None

    # -- connection --------------------------------------------------------------------

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        path: str = "/ws",
        max_message_bytes: int = 1 << 20,
    ) -> "GatewayClient":
        """Open the TCP connection and complete the websocket handshake."""
        reader, writer = await asyncio.open_connection(host, port)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        request = (
            f"GET {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Upgrade: websocket\r\n"
            f"Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            f"Sec-WebSocket-Version: 13\r\n"
            f"\r\n"
        )
        writer.write(request.encode("ascii"))
        await writer.drain()
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionError) as error:
            writer.close()
            raise HandshakeError(f"server closed during the handshake: {error}") from error
        lines = head.decode("iso-8859-1").split("\r\n")
        if " 101 " not in lines[0] + " ":
            writer.close()
            raise HandshakeError(f"expected 101, got {lines[0]!r}")
        headers = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        if headers.get("sec-websocket-accept") != accept_key(key):
            writer.close()
            raise HandshakeError("Sec-WebSocket-Accept mismatch")
        ws = WebSocketConnection(
            reader, writer, role="client", max_message_bytes=max_message_bytes
        )
        client = cls(ws)
        client._reader = asyncio.get_running_loop().create_task(
            client._read_loop(), name="repro-gateway-client-reader"
        )
        return client

    async def close(self) -> None:
        """Close the websocket and stop the reader task."""
        try:
            await self.ws.close()
        except WebSocketError:
            pass
        if self._reader is not None:
            self._reader.cancel()
            try:
                await self._reader
            except (asyncio.CancelledError, WebSocketError):
                pass

    async def __aenter__(self) -> "GatewayClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- channel demultiplexing --------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                self._on_frame(protocol.decode_server_message(await self.ws.receive()))
        except (ConnectionClosedError, WebSocketError) as error:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionClosedError(f"connection ended: {error}")
                    )
            self._pending.clear()

    def _on_frame(self, message: Dict[str, Any]) -> None:
        request_id = message.get("id")
        if request_id is not None and str(request_id) in self._pending:
            future = self._pending.pop(str(request_id))
            if not future.done():
                future.set_result(message)
            return
        if message.get("type") == "event":
            self.events.put_nowait(message)
            return
        if message.get("type") == "error":
            self.errors.append(message)
            if message.get("fatal"):
                for future in self._pending.values():
                    if not future.done():
                        future.set_exception(
                            GatewayProtocolError(
                                message.get("code", "internal_error"),
                                message.get("message", "fatal gateway error"),
                                fatal=True,
                            )
                        )
                self._pending.clear()

    def _expect_response(self, message: Dict[str, Any]) -> "asyncio.Future[Dict[str, Any]]":
        """Give ``message`` a fresh ``id``; the future its response resolves."""
        request_id = message["id"] = str(next(self._ids))
        future: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[request_id] = future
        return future

    @staticmethod
    async def _response(future: "asyncio.Future[Dict[str, Any]]") -> Dict[str, Any]:
        response = await future
        if response.get("type") == "error":
            raise GatewayProtocolError(
                response.get("code", "internal_error"),
                response.get("message", "gateway error"),
                fatal=bool(response.get("fatal")),
                **{
                    key: value
                    for key, value in response.items()
                    if key not in ("type", "code", "message", "fatal", "id")
                },
            )
        return response

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request as JSON text and await its id-correlated response.

        An ``error`` response raises
        :class:`~repro.errors.GatewayProtocolError` carrying the typed
        code; every other response is returned as a dictionary.
        """
        message = dict(message)
        future = self._expect_response(message)
        await self.ws.send_text(protocol.encode_message(message))
        return await self._response(future)

    # -- protocol verbs ----------------------------------------------------------------

    async def hello(
        self,
        tenant: str,
        token: Optional[str] = None,
        subscribe: bool = False,
    ) -> Dict[str, Any]:
        message: Dict[str, Any] = {
            "type": "hello",
            "tenant": tenant,
            "protocol": protocol.PROTOCOL_VERSION,
            "subscribe": subscribe,
        }
        if token is not None:
            message["token"] = token
        welcome = await self.request(message)
        self.tenant = tenant
        return welcome

    async def deploy(self, query: str, name: Optional[str] = None) -> List[str]:
        message: Dict[str, Any] = {"type": "deploy", "query": query}
        if name is not None:
            message["name"] = name
        response = await self.request(message)
        return list(response.get("gestures", []))

    async def deploy_vocabulary(
        self,
        manifest: Optional[Mapping[str, str]] = None,
        vocabulary: Optional[str] = None,
    ) -> List[str]:
        message: Dict[str, Any] = {"type": "deploy_vocabulary"}
        if manifest is not None:
            message["manifest"] = dict(manifest)
        if vocabulary is not None:
            message["vocabulary"] = vocabulary
        response = await self.request(message)
        return list(response.get("gestures", []))

    async def send_tuples(
        self,
        records: Sequence[Mapping[str, Any]],
        stream: Optional[str] = None,
        batch: Optional[int] = None,
        seq: Optional[int] = None,
        ack: bool = True,
    ) -> Optional[Dict[str, Any]]:
        """Send one tuples frame; returns the ``ack`` (or ``None``).

        Records that :func:`~repro.gateway.protocol.pack_tuples` can pack —
        uniform rows of ``float`` / ``int`` values, which is what a sensor
        produces — travel as a packed binary frame, any others as JSON
        text; the server sees the same message either way.
        """
        message: Dict[str, Any] = {"type": "tuples"}
        if stream is not None:
            message["stream"] = stream
        if batch is not None:
            message["batch"] = batch
        if seq is not None:
            message["seq"] = seq
        future = None
        if ack:
            future = self._expect_response(message)
        else:
            message["ack"] = False
        records = list(records)
        packed = protocol.pack_tuples(message, records)
        if packed is not None:
            await self.ws.send_binary(packed)
        else:
            message["records"] = records
            await self.ws.send_text(protocol.encode_message(message))
        return await self._response(future) if future is not None else None

    async def drain(self) -> Dict[str, Any]:
        return await self.request({"type": "drain"})

    async def detections(
        self, name: Optional[str] = None, partition: Any = None
    ) -> List[Dict[str, Any]]:
        message: Dict[str, Any] = {"type": "detections"}
        if name is not None:
            message["name"] = name
        if partition is not None:
            message["partition"] = partition
        response = await self.request(message)
        return list(response.get("detections", []))

    async def ping(self) -> Dict[str, Any]:
        return await self.request({"type": "ping"})

    async def bye(self) -> None:
        try:
            await self.request({"type": "bye"})
        except (ConnectionClosedError, GatewayProtocolError):
            pass
        await self.close()

    async def next_event(self, timeout: float = 5.0) -> Dict[str, Any]:
        """The next pushed detection ``event`` (raises on timeout)."""
        return await asyncio.wait_for(self.events.get(), timeout)
