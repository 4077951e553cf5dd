"""Health rules, evaluated on read: stall, saturation and fsync stalls.

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

A shard the runtime has already marked failed, or whose worker died with
backlog, is unhealthy at once.

:class:`HealthWatchdog` owns no thread and polls nothing.  Each
:meth:`HealthWatchdog.evaluate` is handed one plain reading — the
runtime's per-shard liveness rows (``ShardedRuntime.shard_liveness()``)
and the registry's durability counters — moves its per-subject progress
marks, and returns a :class:`HealthReport`: ``ok`` / ``degraded`` /
``unhealthy`` plus machine-readable :class:`HealthReason` rows naming the
misbehaving shard.  ``GestureSession.health()`` builds the reading from
live state on every call; the gateway maps the report straight onto
``/healthz`` (503 when unhealthy).  The marks are the only history the
rules need: a stall is timed from the last read that saw progress.

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
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.observability.clock import monotonic_time

__all__ = [
    "HealthReason",
    "HealthReport",
    "HealthWatchdog",
]

_logger = logging.getLogger("repro.observability.health")

#: Ranking used to pick the overall status from individual reasons.
_STATUS_RANK = {"ok": 0, "degraded": 1, "unhealthy": 2}

#: A shard with backlog whose processed count has not advanced for this
#: long is stalled (degraded; 3x this is unhealthy).
STALL_AFTER_SECONDS = 5.0
#: Queue occupancy (depth / capacity) at or above this fraction…
SATURATION_RATIO = 0.9
#: …sustained for this long marks the queue saturated.
SATURATION_AFTER_SECONDS = 5.0
#: An fsync owed under the log's policy but not issued for this long is an
#: fsync stall.
FSYNC_STALL_SECONDS = 5.0


@dataclass(frozen=True)
class HealthReason:
    """One machine-readable cause for a non-``ok`` report."""

    # "shard-failed" | "shard-dead" | "shard-stalled" | "queue-saturated" |
    # "fsync-stalled"; the gateway adds "tenant-failed".
    code: str
    severity: str  # "degraded" | "unhealthy"
    subject: str  # e.g. "shard-0", "durability", a tenant name
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
    """The rules' verdict at one read."""

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
    """Turns each reading of live state into a health report.

    A reading is a plain mapping: ``"shards"``, the liveness rows
    ``ShardedRuntime.shard_liveness()`` produces (one mapping per shard
    with ``shard_id``, ``alive``, ``failed``, ``backlog``,
    ``tuples_processed`` and optionally ``queue_depth`` /
    ``queue_capacity``), and ``"durability"``, the event log's counters
    (``entries_appended``, ``fsyncs``).  Either may be absent.  Tests pass
    ``now=`` to drive the rules on their own clock.

    The progress marks (when each subject last advanced) are the only
    state carried between reads.  Readers on several threads — the
    gateway's event loop, ``/debug/vars`` off-loop, user code — move them,
    so one lock covers the whole rule pass.

    ``fsync_owed_after`` is how many appends past its last fsync the event
    log may go before it owes one (``FSYNC_OWED_AFTER[policy]`` in
    :mod:`repro.persistence.log`); ``None`` — no durable log, or a policy
    whose owed fsync the counters cannot show — turns the fsync rule off.
    """

    def __init__(self, fsync_owed_after: Optional[int] = None) -> None:
        self.fsync_owed_after = fsync_owed_after
        self._lock = threading.Lock()
        # Heartbeats: subject -> (last value that counted as progress,
        # monotonic time that value was first seen).
        self._progress: Dict[str, Tuple[float, float]] = {}
        self._saturated_since: Dict[str, float] = {}
        # (appended, fsyncs) when fsyncs last advanced; when the debt fell due.
        self._fsync_mark: Optional[Tuple[float, float]] = None
        self._fsync_owed_since: Optional[float] = None
        self._status = "ok"
        self._checks = 0

    # -- the rules -----------------------------------------------------------------------

    def evaluate(self, reading: Mapping[str, Any], now: Optional[float] = None) -> HealthReport:
        """Apply every rule to one reading of live state."""
        with self._lock:
            stamp = monotonic_time() if now is None else now
            reasons: List[HealthReason] = []
            for row in reading.get("shards", ()):
                reasons.extend(self._check_shard(f"shard-{row['shard_id']}", row, stamp))
            reason = self._check_fsync(reading.get("durability", {}), stamp)
            if reason is not None:
                reasons.append(reason)
            status = max(
                (r.severity for r in reasons), key=_STATUS_RANK.__getitem__, default="ok"
            )
            self._checks += 1
            previous, self._status = self._status, status
            report = HealthReport(
                status=status, reasons=tuple(reasons), checked_at=stamp, checks=self._checks
            )
        if status != previous:
            _logger.warning(
                "health transition %s -> %s: %s",
                previous,
                status,
                "; ".join(f"{r.code}({r.subject})" for r in reasons) or "recovered",
                extra={"data": report.to_dict()},
            )
        return report

    def _check_shard(
        self, subject: str, row: Mapping[str, float], stamp: float
    ) -> List[HealthReason]:
        backlog = float(row.get("backlog", 0.0))
        processed = float(row.get("tuples_processed", 0.0))
        # A failed or dead shard is not additionally "stalled".
        if row.get("failed"):
            return [
                HealthReason(
                    code="shard-failed",
                    severity="unhealthy",
                    subject=subject,
                    detail=f"{subject} failed with {backlog:.0f} tuples of backlog; "
                    "the runtime refuses further ingest",
                    data={"backlog": backlog},
                )
            ]
        if not row.get("alive", True) and backlog > 0:
            return [
                HealthReason(
                    code="shard-dead",
                    severity="unhealthy",
                    subject=subject,
                    detail=f"{subject} worker is not alive with {backlog:.0f} tuples of backlog",
                    data={"backlog": backlog},
                )
            ]

        reasons: List[HealthReason] = []

        # Progress heartbeat: the mark moves whenever processed advances
        # OR the backlog clears (idle is progress — see module docstring).
        mark = self._progress.get(subject)
        if mark is None or processed > mark[0] or backlog <= 0:
            self._progress[subject] = (processed, stamp)
        else:
            stuck_for = stamp - mark[1]
            if stuck_for >= STALL_AFTER_SECONDS:
                severity = "unhealthy" if stuck_for >= 3 * STALL_AFTER_SECONDS else "degraded"
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
            if occupancy >= SATURATION_RATIO:
                since = self._saturated_since.setdefault(subject, stamp)
                saturated_for = stamp - since
                if saturated_for >= SATURATION_AFTER_SECONDS:
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
        self, counters: Mapping[str, float], stamp: float
    ) -> Optional[HealthReason]:
        owed_after = self.fsync_owed_after
        appended = counters.get("entries_appended")
        fsyncs = counters.get("fsyncs")
        if owed_after is None or appended is None or fsyncs is None:
            return None
        mark = self._fsync_mark
        if mark is None or fsyncs != mark[1]:
            # An fsync landed: nothing is owed.
            self._fsync_mark = (appended, fsyncs)
            self._fsync_owed_since = None
            return None
        # Appends counted since the read that saw the last fsync: a lower
        # bound on the log's debt, so a healthy log never trips it.
        pending = appended - mark[0]
        if pending < owed_after:
            return None
        if self._fsync_owed_since is None:
            self._fsync_owed_since = stamp
        stuck_for = stamp - self._fsync_owed_since
        if stuck_for < FSYNC_STALL_SECONDS:
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

    def __repr__(self) -> str:
        return f"HealthWatchdog(status={self._status!r}, checks={self._checks})"
