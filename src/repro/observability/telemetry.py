"""The telemetry bundle one pipeline instance carries.

:class:`TelemetryConfig` is a frozen, picklable dataclass of primitives —
it rides inside ``ShardEngineSpec`` into process-shard children, so every
process builds an identical :class:`Telemetry` from the same knobs.
:class:`Telemetry` owns the :class:`~repro.observability.tracing.Tracer`
and the slow-batch logger; histograms live in the
:class:`~repro.observability.registry.MetricSet` that records them (one
per shard, one for durability, one at the gateway edge) because their
lifecycle follows the metrics registry, not the tracer.

The defaults are the ≤5 %-overhead contract: histograms on (a bisect per
*batch*, not per tuple), tracing off (``sample_rate=0.0`` → the hot path
pays one ``is None`` check), slow-batch logging off.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Optional

from repro.observability.tracing import TraceContext, Tracer

__all__ = ["Telemetry", "TelemetryConfig", "SLOW_BATCH_LOGGER"]

#: Logger slow batches are reported on (JSON-formatted when configured).
SLOW_BATCH_LOGGER = "repro.observability.slowlog"


@dataclass(frozen=True)
class TelemetryConfig:
    """Every telemetry knob, picklable across the process-shard boundary.

    Attributes
    ----------
    trace_sample_rate:
        Head-sampling fraction in ``[0, 1]``; 0.0 (default) disables
        tracing entirely.
    trace_buffer_size:
        Ring-buffer capacity of each tracer, in spans.
    slow_batch_seconds:
        Log a structured warning whenever one batch takes longer than
        this many seconds (``None`` disables the check).
    """

    trace_sample_rate: float = 0.0
    trace_buffer_size: int = 4096
    slow_batch_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError(
                f"trace_sample_rate must be in [0, 1], got {self.trace_sample_rate!r}"
            )
        if self.trace_buffer_size < 1:
            raise ValueError("trace_buffer_size must be positive")
        if self.slow_batch_seconds is not None and self.slow_batch_seconds <= 0:
            raise ValueError("slow_batch_seconds must be positive when given")


class Telemetry:
    """One process's live telemetry: the tracer plus the slow-batch log."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self.tracer = Tracer(
            sample_rate=self.config.trace_sample_rate,
            buffer_size=self.config.trace_buffer_size,
        )
        self._slow_logger = logging.getLogger(SLOW_BATCH_LOGGER)

    @property
    def tracing_active(self) -> bool:
        return self.tracer.active

    def maybe_log_slow_batch(
        self,
        duration_seconds: float,
        stream: str,
        tuples: int,
        shard_id: Optional[int] = None,
        context: Optional[TraceContext] = None,
        **extra: Any,
    ) -> bool:
        """Emit the slow-batch warning when over threshold; returns whether."""
        threshold = self.config.slow_batch_seconds
        if threshold is None or duration_seconds <= threshold:
            return False
        self._slow_logger.warning(
            "slow batch: %d tuples on %r took %.6fs (threshold %.6fs)",
            tuples,
            stream,
            duration_seconds,
            threshold,
            extra={
                "trace_id": context.trace_id if context is not None else None,
                "data": {
                    "stream": stream,
                    "tuples": tuples,
                    "duration_seconds": round(duration_seconds, 6),
                    "threshold_seconds": threshold,
                    **({"shard_id": shard_id} if shard_id is not None else {}),
                    **extra,
                },
            },
        )
        return True

    def __repr__(self) -> str:
        return f"Telemetry(config={self.config!r}, tracer={self.tracer!r})"
