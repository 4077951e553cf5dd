"""repro.gateway — the network front door of the gesture runtime.

A stdlib-only asyncio gateway that exposes the in-process
:class:`~repro.api.session.GestureSession` API over websockets: tenants
attach with ``hello``, deploy vocabularies through the static-analyzer
gate, stream framed tuples under edge admission control (per-tenant
backpressure policies, the one place the pipeline drops tuples), and receive
detections pushed in order.  ``GET /healthz`` and ``GET /metrics``
(Prometheus text exposition) ride on the same port.

See ``docs/gateway.md`` for the wire protocol and the tenancy model,
``repro.gateway.cli`` for the server entry point, and
``benchmarks/e2e/gateway.py`` for the load generator.
"""

from repro.gateway.client import GatewayClient
from repro.gateway.metrics import GatewayMetrics, LoopLagMonitor
from repro.gateway.protocol import PROTOCOL_VERSION, ErrorCode
from repro.gateway.server import GatewayConfig, GatewayServer
from repro.gateway.tenants import Tenant, TenantConfig
from repro.gateway.websocket import WebSocketConnection, accept_key

__all__ = [
    "ErrorCode",
    "GatewayClient",
    "GatewayConfig",
    "GatewayMetrics",
    "GatewayServer",
    "LoopLagMonitor",
    "PROTOCOL_VERSION",
    "Tenant",
    "TenantConfig",
    "WebSocketConnection",
    "accept_key",
]
