"""Structured JSON logging on the stdlib ``logging`` machinery.

One JSON object per line: timestamp, level, logger, message, and — the
part that makes logs joinable with traces — a ``trace_id`` field filled
from either an explicit ``extra={"trace_id": ...}`` on the log call or
the thread's ambient :func:`~repro.observability.tracing.current_context`
(the shard worker installs it around each sampled batch, so a line
logged mid-batch correlates with its trace for free).

Arbitrary structured payloads ride in ``extra={"data": {...}}`` and are
merged into the object; values that don't survive ``json.dumps`` are
stringified rather than dropped, because a log line that raises is worse
than a log line with a lossy field.
"""

from __future__ import annotations

import io
import json
import logging
from typing import Any, Dict, Optional

from repro.observability.tracing import current_context

__all__ = ["JsonFormatter", "configure_json_logging"]


class JsonFormatter(logging.Formatter):
    """Format every record as one JSON object per line."""

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        trace_id = getattr(record, "trace_id", None)
        if trace_id is None:
            ambient = current_context()
            if ambient is not None:
                trace_id = ambient.trace_id
        if trace_id is not None:
            payload["trace_id"] = trace_id
        data = getattr(record, "data", None)
        if isinstance(data, dict):
            for key, value in data.items():
                payload.setdefault(key, value)
        if record.exc_info and record.exc_info[0] is not None:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=str, separators=(",", ":"))


def configure_json_logging(
    logger_name: str = "repro",
    level: int = logging.INFO,
    stream: Optional[io.TextIOBase] = None,
) -> logging.Logger:
    """Attach a JSON stream handler to ``logger_name`` (idempotent-ish).

    Returns the configured logger.  An existing JSON handler installed by
    a previous call is replaced rather than duplicated, so tests and
    long-lived sessions can reconfigure freely.
    """
    logger = logging.getLogger(logger_name)
    logger.setLevel(level)
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_json_handler", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream) if stream is not None else logging.StreamHandler()
    handler.setFormatter(JsonFormatter())
    handler._repro_json_handler = True  # type: ignore[attr-defined]
    logger.addHandler(handler)
    return logger
