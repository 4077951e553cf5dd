"""The asyncio gateway server: HTTP front door, websocket tenancy, dispatch.

One :class:`GatewayServer` listens on a single port and speaks two
dialects over it:

* plain HTTP for ``GET /healthz`` (every tenant's health rules,
  evaluated on the read), ``GET /debug/vars`` and ``GET /metrics``
  (Prometheus text exposition by default, the JSON document with
  ``?format=json``), and
* the websocket application protocol of :mod:`repro.gateway.protocol`
  for everything stateful — tenant attachment, vocabulary deployment,
  framed tuple ingestion, the drain barrier and the server-push
  detections channel.

The threading model in one paragraph: the event loop owns every socket
and every piece of admission state; matching never runs on it.  Each
tenant's worker task hands feeds and control operations to that tenant's
own single-thread executor (a sharded tenant session then fans out
further to its own shard workers), so a tenant with an expensive
vocabulary slows only its own queue.  Admission
control runs *on the loop, before queueing*: a ``block`` tenant's reader
coroutine suspends inside :meth:`Tenant.ingest`, which stops reading
that client's socket and lets TCP flow control push the stall all the
way back to the producer.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set

from repro.detection.events import GestureEvent
from repro.errors import (
    AdmissionError,
    BackpressureError,
    ConnectionClosedError,
    GatewayError,
    GatewayProtocolError,
    QueryAnalysisError,
    SessionClosedError,
    WebSocketError,
)
from repro.gateway import http, protocol, websocket
from repro.gateway.metrics import GatewayMetrics, LoopLagMonitor
from repro.gateway.protocol import ErrorCode
from repro.gateway.tenants import Tenant, TenantConfig
from repro.observability.clock import perf_clock
from repro.observability.health import HealthReason
from repro.observability.registry import Family, Sample, build_info_sample, exposition
from repro.observability.tracing import TraceContext

__all__ = ["GATEWAY_SCRAPE_DURATION", "GatewayConfig", "GatewayServer"]

GATEWAY_SCRAPE_DURATION = Family("scrape_duration", "repro_gateway_scrape_duration_seconds", "gauge", "Seconds this scrape spent collecting and rendering every tenant body.")


@dataclass(frozen=True)
class GatewayConfig:
    """Listener, tenancy and protocol limits of one gateway.

    Attributes
    ----------
    host / port:
        Bind address; port ``0`` picks an ephemeral port (tests, the
        benchmark) readable from :attr:`GatewayServer.port` after
        :meth:`GatewayServer.start`.
    tenants:
        Statically configured tenants (name → :class:`TenantConfig`).
    allow_dynamic_tenants:
        When true, a ``hello`` for an unconfigured tenant creates it
        from ``default_tenant``; when false it is refused
        (``unknown_tenant``).
    default_tenant:
        Template for dynamically created tenants.
    vocabularies:
        Named vocabularies deployable by ``deploy_vocabulary`` frames:
        name → path of a JSON manifest or a gesture SQLite database.
    max_message_bytes:
        Websocket message bound (1009 beyond it).
    loop_lag_interval:
        Sampling period of the loop-lag monitor, seconds.
    """

    host: str = "127.0.0.1"
    port: int = 8876
    tenants: Mapping[str, TenantConfig] = field(default_factory=dict)
    allow_dynamic_tenants: bool = True
    default_tenant: TenantConfig = field(default_factory=TenantConfig)
    vocabularies: Mapping[str, str] = field(default_factory=dict)
    max_message_bytes: int = 1 << 20
    loop_lag_interval: float = 0.05


class _Connection:
    """Per-websocket state: the tenant attachment and the push channel."""

    def __init__(self, ws: websocket.WebSocketConnection, server: "GatewayServer") -> None:
        self.ws = ws
        self.server = server
        self.tenant: Optional[Tenant] = None
        self.subscribed = False

    async def send(self, message: Mapping[str, Any]) -> None:
        await self.ws.send_text(protocol.encode_message(message))
        self.server.metrics.add(frames_out=1)

    async def push_events(self, events: List[GestureEvent]) -> None:
        """Deliver detections; a dead subscriber unsubscribes itself."""
        try:
            for event in events:
                await self.send(protocol.event_to_wire(event))
            self.server.metrics.add(detections_pushed=len(events))
        except (ConnectionClosedError, WebSocketError):
            if self.tenant is not None:
                self.tenant.subscribers.discard(self)


class GatewayServer:
    """The multi-tenant ingestion gateway (see the module docstring)."""

    def __init__(self, config: Optional[GatewayConfig] = None) -> None:
        self.config = config or GatewayConfig()
        self.metrics = GatewayMetrics()
        self.tenants: Dict[str, Tenant] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._lag_monitor = LoopLagMonitor(self.metrics, self.config.loop_lag_interval)
        self._connections: Set[_Connection] = set()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------------

    async def start(self) -> "GatewayServer":
        """Bind and start accepting; returns ``self`` for chaining."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            # A burst of clients connecting at once (1000 was measured)
            # overflows the default backlog of 100.
            backlog=1024,
        )
        self._lag_monitor.start()
        return self

    @property
    def port(self) -> int:
        """The bound port (meaningful once started; supports port 0)."""
        if self._server is None or not self._server.sockets:
            raise GatewayError("the gateway is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise GatewayError("call start() before serve_forever()")
        await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, close every connection and tenant session."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for connection in list(self._connections):
            try:
                await connection.ws.close(websocket.CLOSE_GOING_AWAY, "gateway shutdown")
            except (WebSocketError, OSError):
                pass
        await self._lag_monitor.stop()
        for tenant in self.tenants.values():
            await tenant.close()

    async def __aenter__(self) -> "GatewayServer":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- connection handling -----------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await http.read_request(reader)
            except GatewayError as error:
                writer.write(http.render_response(400, f"{error}\n".encode("utf-8")))
                await writer.drain()
                return
            if request is None:
                return
            if request.wants_upgrade():
                await self._serve_websocket(request, reader, writer)
            else:
                await self._serve_http(request, writer)
        except (ConnectionError, OSError):
            pass  # the peer vanished; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- plain HTTP --------------------------------------------------------------------

    async def _serve_http(self, request: http.HttpRequest, writer: asyncio.StreamWriter) -> None:
        if request.method != "GET":
            response = http.render_response(405, b"only GET is served\n")
        elif request.path == "/healthz":
            document = self._health_document()
            body = json.dumps(document, sort_keys=True).encode("utf-8")
            status = 503 if document["status"] == "unhealthy" else 200
            response = http.render_response(status, body + b"\n", "application/json")
        elif request.path == "/debug/vars":
            # session.profile() may broadcast a telemetry collection to
            # process shards; keep that off the event loop.
            document = await asyncio.to_thread(self._debug_vars_document)
            body = json.dumps(document, sort_keys=True).encode("utf-8")
            response = http.render_response(200, body + b"\n", "application/json")
        elif request.path == "/metrics":
            accept = request.header("accept")
            as_json = request.query.get("format") == "json" or "application/json" in accept
            if as_json:
                body = json.dumps(self._metrics_document(), sort_keys=True).encode("utf-8")
                response = http.render_response(200, body + b"\n", "application/json")
            else:
                body = self._metrics_exposition().encode("utf-8")
                response = http.render_response(
                    200, body, "text/plain; version=0.0.4; charset=utf-8"
                )
        else:
            response = http.render_response(
                404, b"try /healthz, /metrics or /debug/vars\n"
            )
        writer.write(response)
        await writer.drain()

    def _health_document(self) -> Dict[str, Any]:
        """The ``/healthz`` body: gateway liveness + every tenant's health.

        Each started tenant's session evaluates its health rules on this
        read; a tenant whose feed failed (and so refuses every ingest) is
        ``unhealthy`` whatever its shards say.  The overall status is the
        worst across tenants, with each contributing reason tagged by
        tenant — machine-readable input for load balancers.
        """
        rank = {"ok": 0, "degraded": 1, "unhealthy": 2}
        status = "ok"
        reasons: List[Dict[str, Any]] = []
        for name, tenant in sorted(self.tenants.items()):
            if tenant.session is None:
                continue
            found = list(tenant.session.health().reasons)
            if tenant.failure is not None:
                found.append(
                    HealthReason(
                        code="tenant-failed",
                        severity="unhealthy",
                        subject=name,
                        detail=f"tenant '{name}' failed and refuses ingest: {tenant.failure!r}",
                    )
                )
            for reason in found:
                status = max(status, reason.severity, key=rank.__getitem__)
                reasons.append({"tenant": name, **reason.to_dict()})
        return {
            "status": status,
            "reasons": reasons,
            "tenants": len(self.tenants),
            "connections": self.metrics.values()["connections_active"],
        }

    def _debug_vars_document(self) -> Dict[str, Any]:
        """The ``/debug/vars`` body: live internals for humans and the
        ``python -m repro.observability top`` dashboard.  Runs off-loop."""
        tenants: Dict[str, Any] = {}
        for name, tenant in sorted(self.tenants.items()):
            session = tenant.session
            if session is None:
                continue
            tenants[name] = {
                "profile": session.profile(),
                "health": session.health().to_dict(),
            }
        return {"gateway": self.metrics.snapshot(), "tenants": tenants}

    def _metrics_document(self) -> Dict[str, Any]:
        return {
            "gateway": self.metrics.snapshot(),
            "tenants": {name: tenant.snapshot() for name, tenant in self.tenants.items()},
        }

    def _metrics_exposition(self) -> str:
        """Gateway counters + per-tenant admission and session metrics, as one
        body: every family's header once, whatever the number of tenants."""
        return exposition(self._metrics_samples())

    def _metrics_samples(self) -> Iterator[Sample]:
        scrape_started = perf_clock()
        yield build_info_sample({})
        yield from self.metrics.samples()
        tenants = sorted(self.tenants.items())
        for _name, tenant in tenants:
            yield from tenant.samples()
        for name, tenant in tenants:
            session = tenant.session
            registry = session.metrics if session is not None else None
            if registry is not None:
                yield from registry.samples({"tenant": name})
        yield GATEWAY_SCRAPE_DURATION, {}, perf_clock() - scrape_started

    # -- websocket ---------------------------------------------------------------------

    async def _serve_websocket(
        self,
        request: http.HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        key = request.header("sec-websocket-key")
        version = request.header("sec-websocket-version")
        if request.method != "GET" or not key:
            writer.write(http.render_response(400, b"malformed websocket upgrade\n"))
            await writer.drain()
            return
        if version != "13":
            writer.write(
                http.render_response(
                    426, b"unsupported websocket version\n",
                    extra_headers={"Sec-WebSocket-Version": "13"},
                )
            )
            await writer.drain()
            return
        status, headers = http.upgrade_response_headers(websocket.accept_key(key))
        writer.write(http.render_response(status, extra_headers=headers))
        await writer.drain()

        ws = websocket.WebSocketConnection(
            reader, writer, role="server", max_message_bytes=self.config.max_message_bytes
        )
        connection = _Connection(ws, self)
        self._connections.add(connection)
        self.metrics.add(connections_opened=1, connections_active=1)
        try:
            await self._run_protocol(connection)
        finally:
            self._connections.discard(connection)
            self.metrics.add(connections_closed=1, connections_active=-1)
            tenant = connection.tenant
            if tenant is not None:
                tenant.connections.discard(connection)
                tenant.subscribers.discard(connection)

    async def _run_protocol(self, connection: _Connection) -> None:
        """The per-connection message loop.  Nothing a client sends may
        escape this loop as an exception other than a closed channel."""
        ws = connection.ws
        while True:
            try:
                frame = await ws.receive()
            except (ConnectionClosedError, WebSocketError):
                return  # close already handled at the websocket layer
            self.metrics.add(frames_in=1)
            request_id: Any = None
            try:
                message = protocol.decode_message(frame)
                request_id = message.get("id")
                done = await self._dispatch(connection, message, request_id)
                if done:
                    return
            except GatewayProtocolError as error:
                await self._send_error(
                    connection,
                    protocol.make_error(
                        error.code, error.detail, fatal=error.fatal,
                        request_id=request_id, **error.extra,
                    ),
                )
                if error.fatal:
                    await ws.close(websocket.CLOSE_POLICY_VIOLATION, error.code)
                    return
            except (ConnectionClosedError, WebSocketError):
                return
            except Exception as error:  # noqa: BLE001 — never let a client kill the loop
                await self._send_error(
                    connection,
                    protocol.make_error(
                        ErrorCode.INTERNAL_ERROR,
                        f"{type(error).__name__}: {error}",
                        request_id=request_id,
                    ),
                )

    async def _send_error(self, connection: _Connection, frame: Mapping[str, Any]) -> None:
        self.metrics.add(errors_sent=1)
        try:
            await connection.send(frame)
        except (ConnectionClosedError, WebSocketError):
            pass

    async def _dispatch(
        self, connection: _Connection, message: Dict[str, Any], request_id: Any
    ) -> bool:
        """Handle one decoded message; returns True to end the connection."""
        message_type = message["type"]
        if message_type == "ping":
            await connection.send({"type": "pong", "id": request_id})
            return False
        if message_type == "bye":
            await connection.send({"type": "bye", "id": request_id})
            await connection.ws.close(websocket.CLOSE_NORMAL, "bye")
            return True
        if message_type == "hello":
            await self._handle_hello(connection, message, request_id)
            return False
        tenant = connection.tenant
        if tenant is None:
            raise GatewayProtocolError(
                ErrorCode.HELLO_REQUIRED,
                f"'{message_type}' requires a prior 'hello'",
            )
        if message_type == "tuples":
            await self._handle_tuples(connection, tenant, message, request_id)
        elif message_type == "deploy":
            await self._handle_deploy(connection, tenant, message, request_id)
        elif message_type == "deploy_vocabulary":
            await self._handle_deploy_vocabulary(connection, tenant, message, request_id)
        elif message_type == "drain":
            await self._tenant_control(tenant, "drain")
            await connection.send({"type": "drained", "id": request_id})
        elif message_type == "detections":
            detections = await self._tenant_control(
                tenant,
                "detections",
                {"name": message.get("name"), "partition": message.get("partition")},
            )
            await connection.send(
                {"type": "detections", "id": request_id, "detections": detections}
            )
        return False

    async def _handle_hello(
        self, connection: _Connection, message: Dict[str, Any], request_id: Any
    ) -> None:
        if connection.tenant is not None:
            raise GatewayProtocolError(
                ErrorCode.ALREADY_ATTACHED,
                f"this connection already belongs to tenant "
                f"'{connection.tenant.name}'",
            )
        name = protocol.validate_hello(message)
        tenant = self.tenants.get(name)
        if tenant is None:
            template = self.config.tenants.get(name)
            if template is None and not self.config.allow_dynamic_tenants:
                self.metrics.add(connections_rejected=1)
                raise GatewayProtocolError(
                    ErrorCode.UNKNOWN_TENANT,
                    f"tenant '{name}' is not configured",
                    fatal=True,
                )
            tenant = Tenant(name, template or self.config.default_tenant)
            self.tenants[name] = tenant
        if not tenant.authenticate(message.get("token")):
            self.metrics.add(connections_rejected=1)
            raise GatewayProtocolError(
                ErrorCode.AUTH_FAILED,
                f"authentication failed for tenant '{name}'",
                fatal=True,
            )
        try:
            tenant.check_connection_limit()
        except AdmissionError as error:
            self.metrics.add(connections_rejected=1)
            raise GatewayProtocolError(
                ErrorCode.TOO_MANY_CONNECTIONS, str(error), fatal=True
            ) from error
        session = await tenant.ensure_started()
        connection.tenant = tenant
        tenant.connections.add(connection)
        connection.subscribed = bool(message.get("subscribe", False))
        if connection.subscribed:
            tenant.subscribers.add(connection)
        await connection.send(
            {
                "type": "welcome",
                "id": request_id,
                "tenant": name,
                "protocol": protocol.PROTOCOL_VERSION,
                "policy": tenant.config.policy,
                "deployed": session.deployed_gestures(),
            }
        )

    async def _handle_tuples(
        self,
        connection: _Connection,
        tenant: Tenant,
        message: Dict[str, Any],
        request_id: Any,
    ) -> None:
        started = perf_clock()
        records = protocol.require_records(message)
        offered = len(records)
        span = self._request_span(tenant, message, offered)
        try:
            try:
                accepted, dropped = await tenant.ingest(
                    records,
                    message.get("stream"),
                    message.get("batch"),
                    trace=span.context if span is not None else None,
                )
            except AdmissionError as error:
                self.metrics.add(tuples_in=offered, tuples_dropped=offered)
                raise GatewayProtocolError(
                    ErrorCode.RATE_LIMITED, str(error), fatal=True
                ) from error
            except BackpressureError as error:
                self.metrics.add(tuples_in=offered, tuples_dropped=offered)
                raise GatewayProtocolError(
                    ErrorCode.BACKPRESSURE, str(error), fatal=True
                ) from error
            self.metrics.add(tuples_in=offered, tuples_accepted=accepted, tuples_dropped=dropped)
            if message.get("ack", True):
                ack: Dict[str, Any] = {
                    "type": "ack",
                    "id": request_id,
                    "accepted": accepted,
                    "dropped": dropped,
                    "pending": tenant.queue.depth,
                }
                if message.get("seq") is not None:
                    ack["seq"] = message["seq"]
                await connection.send(ack)
        finally:
            # Receipt to ack, admission wait included — a block-policy
            # stall shows up here, exactly where the client feels it.
            self.metrics.observe("request_latency", perf_clock() - started)
            if span is not None:
                span.close()

    def _request_span(
        self, tenant: Tenant, message: Dict[str, Any], offered: int
    ) -> Optional[Any]:
        """Open the ``gateway.request`` root span for one tuples frame.

        Uses the tenant session's tracer (the decision and the buffer
        belong to the tenant).  A client-supplied ``trace`` object on the
        frame is adopted — the caller keeps the head decision — otherwise
        the tracer head-samples.  Returns ``None`` (no cost) whenever
        tracing is off.
        """
        session = tenant.session
        tracer = session.tracer if session is not None else None
        if tracer is None or not tracer.active:
            return None
        supplied = message.get("trace")
        trace: Optional[TraceContext]
        if isinstance(supplied, Mapping):
            try:
                trace = tracer.adopt(supplied)
            except ValueError:
                trace = tracer.sample("gateway")
        else:
            trace = tracer.sample("gateway")
        return tracer.span(
            "gateway.request", "gateway", trace, tenant=tenant.name, tuples=offered
        )

    async def _handle_deploy(
        self,
        connection: _Connection,
        tenant: Tenant,
        message: Dict[str, Any],
        request_id: Any,
    ) -> None:
        query = message.get("query")
        if not isinstance(query, str) or not query.strip():
            raise GatewayProtocolError(
                ErrorCode.BAD_MESSAGE, "'deploy' needs a non-empty 'query' string"
            )
        names = await self._tenant_control(
            tenant, "deploy", {"query": query, "name": message.get("name")}
        )
        await connection.send({"type": "deployed", "id": request_id, "gestures": names})

    async def _handle_deploy_vocabulary(
        self,
        connection: _Connection,
        tenant: Tenant,
        message: Dict[str, Any],
        request_id: Any,
    ) -> None:
        manifest = message.get("manifest")
        vocabulary = message.get("vocabulary")
        if manifest is not None:
            if not isinstance(manifest, dict) or not manifest:
                raise GatewayProtocolError(
                    ErrorCode.BAD_MESSAGE,
                    "'manifest' must be a non-empty object of name -> query text",
                )
            names = await self._tenant_control(tenant, "deploy_manifest", manifest)
        elif isinstance(vocabulary, str):
            path = self.config.vocabularies.get(vocabulary)
            if path is None:
                raise GatewayProtocolError(
                    ErrorCode.UNKNOWN_VOCABULARY,
                    f"vocabulary {vocabulary!r} is not registered on this "
                    f"gateway (have: {sorted(self.config.vocabularies) or 'none'})",
                )
            if Path(path).suffix in (".db", ".sqlite", ".sqlite3"):
                names = await self._tenant_control(tenant, "deploy_database", path)
            else:
                from repro.analysis.cli import _load_manifest

                names = await self._tenant_control(
                    tenant, "deploy_manifest", dict(_load_manifest(Path(path)))
                )
        else:
            raise GatewayProtocolError(
                ErrorCode.BAD_MESSAGE,
                "'deploy_vocabulary' needs a 'manifest' object or a "
                "'vocabulary' name",
            )
        await connection.send({"type": "deployed", "id": request_id, "gestures": names})

    async def _tenant_control(self, tenant: Tenant, op: str, payload: Any = None) -> Any:
        """Run one control op behind the tenant's queue; map failures to
        typed protocol errors."""
        try:
            return await tenant.control(op, payload)
        except QueryAnalysisError as error:
            raise GatewayProtocolError(
                ErrorCode.ANALYSIS_REJECTED,
                str(error),
                codes=sorted({d.code for d in error.diagnostics}),
            ) from error
        except SessionClosedError as error:
            raise GatewayProtocolError(
                ErrorCode.SESSION_CLOSED, str(error), fatal=True
            ) from error
        except GatewayError:
            raise
        except Exception as error:
            if op in ("deploy", "deploy_manifest", "deploy_database"):
                raise GatewayProtocolError(
                    ErrorCode.DEPLOY_FAILED, f"{type(error).__name__}: {error}"
                ) from error
            raise
