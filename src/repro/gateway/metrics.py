"""Gateway edge counters and the asyncio loop-lag monitor.

:class:`GatewayMetrics` is the edge-side sibling of the runtime's shard
sets: one :class:`~repro.observability.registry.MetricSet` of
:data:`GATEWAY_FAMILIES`.  Everything snapshots to plain numbers (the
``/metrics`` JSON document) and renders through the one exposition writer.

Loop lag — the time between when a timer *should* fire and when the loop
actually ran it — is the single most honest saturation signal an asyncio
server has: blocking the loop (an unexecutored feed, a huge JSON dump)
shows up here before it shows up anywhere else.  :class:`LoopLagMonitor`
samples it on a fixed interval with an EWMA and a high-water mark.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

from repro.observability.registry import Family, MetricSet, exposition

__all__ = ["GATEWAY_FAMILIES", "GatewayMetrics", "LoopLagMonitor"]

#: What the gateway edge counts.  ``request_latency`` is the wall time of
#: one ``tuples`` frame from receipt to ack — admission wait included, so
#: backpressure stalls are visible; the event loop is its single writer.
GATEWAY_FAMILIES = (
    Family("connections_opened", "repro_gateway_connections_opened_total", "counter", "Websocket connections accepted."),
    Family("connections_closed", "repro_gateway_connections_closed_total", "counter", "Websocket connections ended."),
    Family("connections_active", "repro_gateway_connections_active", "gauge", "Currently open websocket connections."),
    Family("connections_rejected", "repro_gateway_connections_rejected_total", "counter", "Connections refused by admission control."),
    Family("frames_in", "repro_gateway_frames_in_total", "counter", "Protocol frames received."),
    Family("frames_out", "repro_gateway_frames_out_total", "counter", "Protocol frames sent."),
    Family("tuples_in", "repro_gateway_tuples_in_total", "counter", "Tuples offered by clients."),
    Family("tuples_accepted", "repro_gateway_tuples_accepted_total", "counter", "Tuples admitted past edge admission control."),
    Family("tuples_dropped", "repro_gateway_tuples_dropped_total", "counter", "Tuples dropped at the edge (admission policies)."),
    Family("detections_pushed", "repro_gateway_detections_pushed_total", "counter", "Detection events pushed to subscribers."),
    Family("errors_sent", "repro_gateway_errors_sent_total", "counter", "Typed error frames sent."),
    Family("loop_lag_ewma_seconds", "repro_gateway_loop_lag_ewma_seconds", "gauge", "Exponentially weighted mean asyncio loop lag.", 0.0),
    Family("loop_lag_max_seconds", "repro_gateway_loop_lag_max_seconds", "gauge", "High-water mark of the asyncio loop lag.", 0.0),
    Family("request_latency", "repro_gateway_request_seconds", "histogram", "Wall time of one tuples frame from receipt to ack."),
)


class GatewayMetrics(MetricSet):
    """Edge counters of one gateway server.  Thread-safe (feeds run on
    executor threads; everything else on the loop)."""

    def __init__(self) -> None:
        super().__init__(GATEWAY_FAMILIES)

    def record_loop_lag(self, lag_seconds: float) -> None:
        with self._lock:
            values = self._values
            # EWMA with a ~20-sample horizon; plus the all-time high-water.
            values["loop_lag_ewma_seconds"] += 0.05 * (lag_seconds - values["loop_lag_ewma_seconds"])
            if lag_seconds > values["loop_lag_max_seconds"]:
                values["loop_lag_max_seconds"] = lag_seconds

    def observe(self, key: str, seconds: float) -> None:
        # Under the lock: executor threads digest this histogram in
        # ``snapshot()`` (``/metrics``, ``/debug/vars``) while the loop records.
        with self._lock:
            super().observe(key, seconds)

    def snapshot(self) -> Dict[str, object]:
        """Every counter, plus the ``request_latency`` digest."""
        digest = self.histograms()["request_latency"].summary()
        return {**super().snapshot(), "request_latency": digest}

    def to_prometheus(self) -> str:
        """Every counter in the Prometheus text exposition format."""
        return exposition(self.samples())


class LoopLagMonitor:
    """Periodically measures how late the event loop runs its timers."""

    def __init__(self, metrics: GatewayMetrics, interval: float = 0.05) -> None:
        self.metrics = metrics
        self.interval = interval
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-gateway-loop-lag"
            )

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(self.interval)
            lag = loop.time() - before - self.interval
            self.metrics.record_loop_lag(max(0.0, lag))
