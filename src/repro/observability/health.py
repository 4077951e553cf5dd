"""Health rules on the sampler's beat: stall, saturation and fsync stalls.

The counters say what the pipeline *has done*; the health rules answer
the harder operational question — is it *still making progress*?  Three
failure shapes dominate long-running streaming deployments and all three
are invisible to cumulative counters:

* a **stalled worker** — a wedged UDF, a deadlocked matcher — leaves the
  backlog positive while ``tuples_processed`` freezes;
* a **saturated queue** sits at capacity for a sustained window, meaning
  producers are blocking (or dropping) and latency is compounding;
* a **stalled fsync** (a dying disk, an NFS hiccup) leaves the durability
  log owing an fsync that its ``fsyncs`` counter never records.

:class:`HealthWatchdog` is an evaluator on the
:class:`~repro.observability.timeseries.MetricsSampler` tick, beside the
SLO evaluator: it owns no thread and no sources.  Each tick it reads the
sampler's fresh reading — the runtime's per-shard liveness rows (a
sampler source under :data:`LIVENESS_PREFIX`, see :func:`liveness_reading`)
and the registry's ``durability.*`` counters — moves its per-subject
progress marks, and publishes a :class:`HealthReport`: ``ok`` /
``degraded`` / ``unhealthy`` plus machine-readable :class:`HealthReason`
rows naming the misbehaving shard.  The gateway maps the report straight
onto ``/healthz`` (503 when unhealthy).

**No false positives on idle:** a stall requires *backlog with no
progress*.  A paused replay (``ReplayController.pause()``) stops feeding,
the queues drain to zero backlog, and an idle pipeline reports ``ok`` —
quiet is not stuck.  Likewise an fsync stall requires an fsync the log
*owes* under its policy, not merely appends without one.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.observability.clock import monotonic_time

__all__ = [
    "LIVENESS_PREFIX",
    "WatchdogConfig",
    "HealthReason",
    "HealthReport",
    "HealthWatchdog",
    "liveness_reading",
]

_logger = logging.getLogger("repro.observability.health")

#: Ranking used to pick the overall status from individual reasons.
_STATUS_RANK = {"ok": 0, "degraded": 1, "unhealthy": 2}

#: Sampler prefix of the per-shard liveness series the shard rules read.
LIVENESS_PREFIX = "liveness."

#: The registry series (``MetricsSampler.add_registry``) the fsync rule reads.
_APPENDED = "durability.entries_appended"
_FSYNCS = "durability.fsyncs"


def liveness_reading(rows: Iterable[Mapping[str, object]]) -> Dict[str, float]:
    """Flatten liveness rows into one sampler reading.

    ``rows`` has the shape ``ShardedRuntime.shard_liveness()`` produces:
    one mapping per shard with ``shard_id``, ``alive``, ``backlog``,
    ``tuples_processed`` and optionally ``queue_depth`` /
    ``queue_capacity``.  The result maps ``"<shard_id>.<field>"`` to a
    float; register it with ``sampler.add_source(LIVENESS_PREFIX, ...)``.
    """
    return {
        f"{row['shard_id']}.{key}": float(value)  # type: ignore[arg-type]
        for row in rows
        for key, value in row.items()
        if key != "shard_id"
    }


def _shard_rows(reading: Mapping[str, float]) -> Dict[str, Dict[str, float]]:
    """Regroup a tick's liveness series into one row per shard id."""
    rows: Dict[str, Dict[str, float]] = {}
    for name, value in reading.items():
        if name.startswith(LIVENESS_PREFIX):
            shard_id, _, key = name[len(LIVENESS_PREFIX) :].partition(".")
            rows.setdefault(shard_id, {})[key] = value
    return rows


@dataclass(frozen=True)
class WatchdogConfig:
    """Thresholds of the health rules.  Frozen and picklable like the
    other observability configs; the beat is the sampler's interval."""

    #: A shard with backlog whose processed count has not advanced for
    #: this long is stalled (degraded; 3x this is unhealthy).
    stall_after_seconds: float = 5.0
    #: Queue occupancy (depth / capacity) at or above this fraction…
    saturation_ratio: float = 0.9
    #: …sustained for this long marks the queue saturated.
    saturation_after_seconds: float = 5.0
    #: An fsync owed under the log's policy but not issued for this long
    #: is an fsync stall.
    fsync_stall_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.stall_after_seconds <= 0 or self.fsync_stall_seconds <= 0:
            raise ValueError("stall windows must be positive")
        if not 0.0 < self.saturation_ratio <= 1.0:
            raise ValueError("saturation_ratio must be in (0, 1]")
        if self.saturation_after_seconds <= 0:
            raise ValueError("saturation_after_seconds must be positive")


@dataclass(frozen=True)
class HealthReason:
    """One machine-readable cause for a non-``ok`` report."""

    code: str  # "shard-stalled" | "shard-dead" | "queue-saturated" | "fsync-stalled"
    severity: str  # "degraded" | "unhealthy"
    subject: str  # e.g. "shard-0", "durability"
    detail: str
    data: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity,
            "subject": self.subject,
            "detail": self.detail,
            "data": dict(self.data),
        }


@dataclass(frozen=True)
class HealthReport:
    """The rules' verdict at one tick."""

    status: str  # "ok" | "degraded" | "unhealthy"
    reasons: Tuple[HealthReason, ...]
    checked_at: float
    checks: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, object]:
        return {
            "status": self.status,
            "reasons": [reason.to_dict() for reason in self.reasons],
            "checked_at": round(self.checked_at, 6),
            "checks": self.checks,
        }


class HealthWatchdog:
    """Turns each sampler tick into a health report.

    Install it as one of ``MetricsSampler(evaluators=...)``; every
    :meth:`MetricsSampler.sample_once` then calls :meth:`evaluate`, which
    reads ``sampler.reading`` — so tests drive the rules through the one
    clock, ``sampler.sample_once(now=...)``.  The progress marks (when
    each subject last advanced) are evaluator state, so a stall is timed
    exactly however long it outlives the sampler's series capacity.

    ``fsync_owed_after`` is how many appends past its last fsync the event
    log may go before it owes one (``FSYNC_OWED_AFTER[policy]`` in
    :mod:`repro.persistence.log`); ``None`` — no durable log, or a policy
    whose owed fsync the counters cannot show — turns the fsync rule off.
    """

    def __init__(
        self,
        config: Optional[WatchdogConfig] = None,
        fsync_owed_after: Optional[int] = None,
    ) -> None:
        self.config = config or WatchdogConfig()
        self.fsync_owed_after = fsync_owed_after
        self._lock = threading.Lock()
        # Heartbeats: subject -> (last value that counted as progress,
        # monotonic time that value was first seen).
        self._progress: Dict[str, Tuple[float, float]] = {}
        self._saturated_since: Dict[str, float] = {}
        # (appended, fsyncs) when fsyncs last advanced; when the debt fell due.
        self._fsync_mark: Optional[Tuple[float, float]] = None
        self._fsync_owed_since: Optional[float] = None
        self._report = HealthReport(status="ok", reasons=(), checked_at=monotonic_time())
        self._checks = 0

    # -- the rules -----------------------------------------------------------------------

    def evaluate(self, sampler, now: Optional[float] = None) -> HealthReport:
        """Apply every rule to the sampler's latest reading; publish the report."""
        stamp = monotonic_time() if now is None else now
        reading: Mapping[str, float] = sampler.reading
        reasons: List[HealthReason] = []
        for shard_id, row in _shard_rows(reading).items():
            reasons.extend(self._check_shard(f"shard-{shard_id}", row, stamp))
        reason = self._check_fsync(reading, stamp)
        if reason is not None:
            reasons.append(reason)

        status = max((r.severity for r in reasons), key=_STATUS_RANK.__getitem__, default="ok")
        with self._lock:
            self._checks += 1
            previous = self._report.status
            self._report = HealthReport(
                status=status,
                reasons=tuple(reasons),
                checked_at=stamp,
                checks=self._checks,
            )
        if status != previous:
            _logger.warning(
                "health transition %s -> %s: %s",
                previous,
                status,
                "; ".join(f"{r.code}({r.subject})" for r in reasons) or "recovered",
                extra={"data": self._report.to_dict()},
            )
        return self._report

    def _check_shard(
        self, subject: str, row: Mapping[str, float], stamp: float
    ) -> List[HealthReason]:
        config = self.config
        alive = bool(row.get("alive", True))
        backlog = row.get("backlog", 0.0)
        processed = row.get("tuples_processed", 0.0)
        reasons: List[HealthReason] = []

        if not alive and backlog > 0:
            reasons.append(
                HealthReason(
                    code="shard-dead",
                    severity="unhealthy",
                    subject=subject,
                    detail=f"{subject} worker is not alive with {backlog:.0f} tuples of backlog",
                    data={"backlog": backlog},
                )
            )
            return reasons  # a dead shard is not additionally "stalled"

        # Progress heartbeat: the mark moves whenever processed advances
        # OR the backlog clears (idle is progress — see module docstring).
        mark = self._progress.get(subject)
        if mark is None or processed > mark[0] or backlog <= 0:
            self._progress[subject] = (processed, stamp)
        else:
            stuck_for = stamp - mark[1]
            if stuck_for >= config.stall_after_seconds:
                severity = (
                    "unhealthy" if stuck_for >= 3 * config.stall_after_seconds else "degraded"
                )
                reasons.append(
                    HealthReason(
                        code="shard-stalled",
                        severity=severity,
                        subject=subject,
                        detail=(
                            f"{subject} has {backlog:.0f} tuples of backlog but no "
                            f"progress for {stuck_for:.1f}s"
                        ),
                        data={"backlog": backlog, "stuck_seconds": round(stuck_for, 3)},
                    )
                )

        depth = row.get("queue_depth")
        capacity = row.get("queue_capacity")
        if depth is not None and capacity:
            occupancy = depth / capacity
            if occupancy >= config.saturation_ratio:
                since = self._saturated_since.setdefault(subject, stamp)
                saturated_for = stamp - since
                if saturated_for >= config.saturation_after_seconds:
                    reasons.append(
                        HealthReason(
                            code="queue-saturated",
                            severity="degraded",
                            subject=subject,
                            detail=(
                                f"{subject} queue at {occupancy:.0%} of capacity "
                                f"for {saturated_for:.1f}s"
                            ),
                            data={
                                "occupancy": round(occupancy, 4),
                                "saturated_seconds": round(saturated_for, 3),
                            },
                        )
                    )
            else:
                self._saturated_since.pop(subject, None)
        return reasons

    def _check_fsync(
        self, reading: Mapping[str, float], stamp: float
    ) -> Optional[HealthReason]:
        owed_after = self.fsync_owed_after
        appended = reading.get(_APPENDED)
        fsyncs = reading.get(_FSYNCS)
        if owed_after is None or appended is None or fsyncs is None:
            return None
        mark = self._fsync_mark
        if mark is None or fsyncs != mark[1]:
            # An fsync landed: nothing is owed.
            self._fsync_mark = (appended, fsyncs)
            self._fsync_owed_since = None
            return None
        # Appends counted since the tick that saw the last fsync: a lower
        # bound on the log's debt, so a healthy log never trips it.
        pending = appended - mark[0]
        if pending < owed_after:
            return None
        if self._fsync_owed_since is None:
            self._fsync_owed_since = stamp
        stuck_for = stamp - self._fsync_owed_since
        if stuck_for < self.config.fsync_stall_seconds:
            return None
        return HealthReason(
            code="fsync-stalled",
            severity="degraded",
            subject="durability",
            detail=(
                f"durability has owed an fsync for {stuck_for:.1f}s "
                f"({pending:.0f} appends since the last one)"
            ),
            data={"stuck_seconds": round(stuck_for, 3), "appends_pending": pending},
        )

    # -- readers -------------------------------------------------------------------------

    def report(self) -> HealthReport:
        """The latest published report (never waits on a tick)."""
        with self._lock:
            return self._report

    def __repr__(self) -> str:
        report = self.report()
        return (
            f"HealthWatchdog(status={report.status!r}, reasons={len(report.reasons)}, "
            f"checks={report.checks})"
        )
