"""Liveness watchdog: progress heartbeats, stall and saturation detection.

The counters say what the pipeline *has done*; the watchdog answers the
harder operational question — is it *still making progress*?  Three
failure shapes dominate long-running streaming deployments and all three
are invisible to cumulative counters:

* a **stalled worker** — a wedged UDF, a deadlocked matcher — leaves the
  backlog positive while ``tuples_processed`` freezes;
* a **saturated queue** sits at capacity for a sustained window, meaning
  producers are blocking (or dropping) and latency is compounding;
* a **stalled fsync** (a dying disk, an NFS hiccup) lets the durability
  log accept appends whose ``fsyncs`` counter stops advancing.

:class:`HealthWatchdog` polls cheap parent-visible liveness snapshots on
a named background thread, tracks per-shard progress heartbeats, and
condenses what it sees into a :class:`HealthReport` — ``ok`` /
``degraded`` / ``unhealthy`` plus machine-readable :class:`HealthReason`
rows naming the misbehaving shard.  The gateway maps the report straight
onto ``/healthz`` (503 when unhealthy), and the admission controller and
the future autoscaler (ROADMAP item 3) read the same reasons.

**No false positives on idle:** a stall requires *backlog with no
progress*.  A paused replay (``ReplayController.pause()``) stops feeding,
the queues drain to zero backlog, and an idle pipeline reports ``ok`` —
quiet is not stuck.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.observability.clock import monotonic_time

__all__ = ["WatchdogConfig", "HealthReason", "HealthReport", "HealthWatchdog"]

_logger = logging.getLogger("repro.observability.health")

#: Ranking used to pick the overall status from individual reasons.
_STATUS_RANK = {"ok": 0, "degraded": 1, "unhealthy": 2}


@dataclass(frozen=True)
class WatchdogConfig:
    """Thresholds for the watchdog.  Frozen and picklable like the other
    observability configs."""

    #: Seconds between background checks.
    interval_seconds: float = 0.5
    #: A shard with backlog whose processed count has not advanced for
    #: this long is stalled (degraded; 3x this is unhealthy).
    stall_after_seconds: float = 5.0
    #: Queue occupancy (depth / capacity) at or above this fraction…
    saturation_ratio: float = 0.9
    #: …sustained for this long marks the queue saturated.
    saturation_after_seconds: float = 5.0
    #: Appends advancing while fsyncs do not for this long is an fsync stall.
    fsync_stall_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        if self.stall_after_seconds <= 0 or self.fsync_stall_seconds <= 0:
            raise ValueError("stall windows must be positive")
        if not 0.0 < self.saturation_ratio <= 1.0:
            raise ValueError("saturation_ratio must be in (0, 1]")
        if self.saturation_after_seconds <= 0:
            raise ValueError("saturation_after_seconds must be positive")


@dataclass(frozen=True)
class HealthReason:
    """One machine-readable cause for a non-``ok`` report."""

    code: str  # "shard-stalled" | "shard-dead" | "queue-saturated" | "fsync-stalled" | ...
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
    """The watchdog's verdict at one instant."""

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
    """Tracks progress heartbeats from liveness snapshots; reports health.

    Sources are callables returning rows of parent-visible state:

    * a *liveness* source yields one mapping per shard with at least
      ``shard_id``, ``alive``, ``backlog``, ``tuples_processed`` and
      (optionally) ``queue_depth`` / ``queue_capacity`` — the shape
      ``ShardedRuntime.shard_liveness()`` produces;
    * a *durability* source yields one mapping with the
      ``entries_appended`` and ``fsyncs`` counters — the shape
      ``session.metrics.durability.snapshot()`` produces;
    * a *probe* yields ready-made :class:`HealthReason` rows for
      conditions only the caller can see (e.g. a gateway counting slow
      detection consumers).

    :meth:`check` is public and takes an explicit ``now`` so tests drive
    the clock; :meth:`start` runs it on a named daemon thread.
    """

    def __init__(self, config: Optional[WatchdogConfig] = None) -> None:
        self.config = config or WatchdogConfig()
        self._liveness_sources: List[Callable[[], Iterable[Mapping[str, object]]]] = []
        self._durability_sources: List[Tuple[str, Callable[[], Mapping[str, float]]]] = []
        self._probes: List[Callable[[], Iterable[HealthReason]]] = []
        self._lock = threading.Lock()
        # Heartbeats: subject -> (last value that counted as progress,
        # monotonic time that value was first seen).
        self._progress: Dict[str, Tuple[float, float]] = {}
        self._saturated_since: Dict[str, float] = {}
        self._fsync_marks: Dict[str, Tuple[float, float, float]] = {}  # appended, fsyncs, since
        self._report = HealthReport(status="ok", reasons=(), checked_at=monotonic_time())
        self._checks = 0
        self.source_errors = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- sources -------------------------------------------------------------------------

    def add_liveness_source(
        self, reader: Callable[[], Iterable[Mapping[str, object]]]
    ) -> None:
        with self._lock:
            self._liveness_sources.append(reader)

    def add_durability_source(
        self, reader: Callable[[], Mapping[str, float]], subject: str = "durability"
    ) -> None:
        with self._lock:
            self._durability_sources.append((subject, reader))

    def add_probe(self, probe: Callable[[], Iterable[HealthReason]]) -> None:
        with self._lock:
            self._probes.append(probe)

    # -- the check -----------------------------------------------------------------------

    def check(self, now: Optional[float] = None) -> HealthReport:
        """Run every source once and publish a fresh report."""
        stamp = monotonic_time() if now is None else now
        reasons: List[HealthReason] = []
        with self._lock:
            liveness = list(self._liveness_sources)
            durability = list(self._durability_sources)
            probes = list(self._probes)

        for reader in liveness:
            try:
                rows = list(reader())
            except Exception:  # noqa: BLE001 — a winding-down runtime must not kill the beat
                self.source_errors += 1
                continue
            for row in rows:
                reasons.extend(self._check_shard(row, stamp))

        for subject, reader in durability:
            try:
                counters = dict(reader())
            except Exception:  # noqa: BLE001
                self.source_errors += 1
                continue
            reason = self._check_fsync(subject, counters, stamp)
            if reason is not None:
                reasons.append(reason)

        for probe in probes:
            try:
                reasons.extend(probe())
            except Exception:  # noqa: BLE001
                self.source_errors += 1

        status = "ok"
        for reason in reasons:
            if _STATUS_RANK.get(reason.severity, 1) > _STATUS_RANK[status]:
                status = reason.severity
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
        self, row: Mapping[str, object], stamp: float
    ) -> List[HealthReason]:
        config = self.config
        shard_id = row.get("shard_id", "?")
        subject = f"shard-{shard_id}"
        alive = bool(row.get("alive", True))
        backlog = float(row.get("backlog", 0) or 0)
        processed = float(row.get("tuples_processed", 0) or 0)
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
            occupancy = float(depth) / float(capacity)  # type: ignore[arg-type]
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
        self, subject: str, counters: Mapping[str, float], stamp: float
    ) -> Optional[HealthReason]:
        appended = float(counters.get("entries_appended", 0) or 0)
        fsyncs = float(counters.get("fsyncs", 0) or 0)
        mark = self._fsync_marks.get(subject)
        # The mark moves whenever fsyncs advance or appends stop arriving.
        if mark is None or fsyncs > mark[1] or appended <= mark[0]:
            self._fsync_marks[subject] = (appended, fsyncs, stamp)
            return None
        stuck_for = stamp - mark[2]
        if stuck_for < self.config.fsync_stall_seconds:
            return None
        return HealthReason(
            code="fsync-stalled",
            severity="degraded",
            subject=subject,
            detail=(
                f"{subject} appended {appended - mark[0]:.0f} records with no fsync "
                f"for {stuck_for:.1f}s"
            ),
            data={"stuck_seconds": round(stuck_for, 3), "appends_pending": appended - mark[0]},
        )

    # -- readers -------------------------------------------------------------------------

    def report(self) -> HealthReport:
        """The latest published report (never blocks on sources)."""
        with self._lock:
            return self._report

    @property
    def status(self) -> str:
        return self.report().status

    # -- lifecycle -----------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "HealthWatchdog":
        """Start the background beat (idempotent)."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-health-watchdog", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        thread = self._thread
        self._stop.set()
        if thread is not None:
            thread.join(timeout=timeout)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.config.interval_seconds):
            self.check()

    def __repr__(self) -> str:
        report = self.report()
        return (
            f"HealthWatchdog(status={report.status!r}, reasons={len(report.reasons)}, "
            f"checks={report.checks}, running={self.running})"
        )
