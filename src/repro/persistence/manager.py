"""Durability orchestration: one manager owning the log and the snapshots.

:class:`DurabilityManager` is the glue between a live stack (any
:class:`~repro.cep.engine.Engine`: inline or sharded) and the on-disk formats of
:mod:`repro.persistence.log` / :mod:`repro.persistence.snapshots`:

* :meth:`attach` installs the write-ahead ingest tap, so every externally
  fed tuple is logged *before* delivery, and the control tap, so every
  deploy / undeploy / enable / clear is logged in the same ordered log
  *after* the engine accepted it — whichever caller made it;
* :meth:`snapshot` captures the target's state at a quiesced point and
  anchors it to the current log offset; :meth:`maybe_snapshot` does so
  automatically every ``snapshot_every_tuples`` ingested tuples;
* :meth:`recover_into` drives recovery: restore the newest snapshot into
  the target, then replay the log tail through
  :func:`~repro.persistence.replay.apply_log_entry` — with logging
  *suspended*, so replayed work is not re-appended.

The target is the only state there is: a snapshot is its
``capture_state()`` in a ``{"kind": "session", "engine": …}`` envelope,
and recovery loads it back with ``restore_state``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Union

from repro.errors import RecoveryError
from repro.observability.clock import perf_clock
from repro.observability.registry import MetricSet
from repro.persistence.log import DURABILITY_FAMILIES, FSYNC_POLICIES, EventLog, read_log
from repro.persistence.replay import apply_log_entry, restore_engine_state
from repro.persistence.snapshots import SnapshotStore

if TYPE_CHECKING:
    from repro.cep.engine import Engine

__all__ = ["DurabilityConfig", "DurabilityManager", "RecoveryResult"]


@dataclass(frozen=True)
class DurabilityConfig:
    """Configuration of the durability subsystem.

    Attributes
    ----------
    directory:
        Where the event log segments and snapshot files live.  Created on
        first use; pointing a fresh session at an existing directory
        *appends* (recovery is explicit, via ``GestureSession.recover``).
    fsync:
        Disk-sync policy of the event log: ``"always"`` (sync every
        append), ``"batch"`` (every few appends) or ``"rotate"``
        (default; on segment rotation and close).  Any policy survives a
        killed process — fsync buys power-loss durability.
    segment_max_bytes / segment_max_entries:
        Segment rotation thresholds (see :class:`~repro.persistence.log.EventLog`).
    snapshot_every_tuples:
        Take a snapshot automatically once this many tuples were logged
        since the last one (``None`` disables automatic snapshots; manual
        ``session.snapshot()`` always works).
    keep_snapshots:
        Retain at most this many snapshot files (``None`` keeps all).
    """

    directory: Union[str, Path]
    fsync: str = "rotate"
    segment_max_bytes: Optional[int] = 4 * 1024 * 1024
    segment_max_entries: Optional[int] = None
    snapshot_every_tuples: Optional[int] = None
    keep_snapshots: Optional[int] = 4

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {self.fsync!r}; expected one of "
                f"{FSYNC_POLICIES}"
            )
        if self.snapshot_every_tuples is not None and self.snapshot_every_tuples < 1:
            raise ValueError("snapshot_every_tuples must be positive when given")


@dataclass(frozen=True)
class RecoveryResult:
    """What :meth:`DurabilityManager.recover_into` did."""

    snapshot_offset: Optional[int]
    replayed_entries: int
    replayed_tuples: int


class DurabilityManager:
    """Owns one durability directory: event log + snapshot store.

    Parameters
    ----------
    target:
        The live :class:`~repro.cep.engine.Engine` whose ingest and controls
        are journalled, whose state is snapshotted, and which recovery
        rebuilds.
    config:
        The :class:`DurabilityConfig`.
    metrics:
        The :class:`~repro.observability.registry.MetricSet` of
        :data:`~repro.persistence.log.DURABILITY_FAMILIES` to record on; a
        private one is created when omitted.
    """

    def __init__(
        self,
        target: "Engine",
        config: DurabilityConfig,
        metrics: Optional[MetricSet] = None,
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else MetricSet(DURABILITY_FAMILIES)
        self.log = EventLog(
            config.directory,
            segment_max_bytes=config.segment_max_bytes,
            segment_max_entries=config.segment_max_entries,
            fsync=config.fsync,
            metrics=self.metrics,
        )
        self.snapshots = SnapshotStore(config.directory, keep_last=config.keep_snapshots)
        self._target = target
        self._suspended = 0
        self._tuples_since_snapshot = 0
        self._attached = False
        self._closed = False

    # -- wiring ------------------------------------------------------------------------

    def attach(self) -> None:
        """Install the ingest and control taps on the target."""
        if not self._attached:
            self._target.add_ingest_tap(self._tap)
            self._target.add_control_tap(self._control_tap)
            self._attached = True

    def detach(self) -> None:
        if self._attached:
            self._target.remove_ingest_tap(self._tap)
            self._target.remove_control_tap(self._control_tap)
            self._attached = False

    def _tap(self, stream: str, records: Any, batch_size: Optional[int]) -> None:
        if self._suspended or self._closed:
            return
        self.log.append_tuples(stream, records, batch_size)
        self._tuples_since_snapshot += len(records)

    def _control_tap(self, op: str, payload: Dict[str, Any]) -> None:
        # ``restore`` only reseeds the workflow; the snapshot is the record of it.
        if op != "restore" and not (self._suspended or self._closed):
            self.log.append_control(op, payload)

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Temporarily stop logging (used while *replaying* logged work)."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    # -- snapshot ----------------------------------------------------------------------

    def snapshot(self) -> int:
        """Capture and persist the target's state; returns the anchor offset.

        Must be called at a quiesced point — for the session façade that is
        after a synchronous ``feed`` returned (sharded captures drain their
        queues themselves).  The snapshot is anchored at the log's current
        last offset: recovery replays strictly after it.
        """
        started = perf_clock()
        state = {"kind": "session", "engine": self._target.capture_state()}
        offset = self.log.last_offset
        self.snapshots.save(state, offset)
        self.log.append_snapshot_marker({"log_offset": offset})
        self.metrics.add(snapshots_taken=1, snapshot_seconds=perf_clock() - started)
        self._tuples_since_snapshot = 0
        return offset

    def maybe_snapshot(self) -> Optional[int]:
        """Snapshot if the automatic threshold has been crossed."""
        every = self.config.snapshot_every_tuples
        if every is None or self._suspended or self._closed:
            return None
        if self._tuples_since_snapshot >= every:
            return self.snapshot()
        return None

    # -- recovery ----------------------------------------------------------------------

    def recover_into(self) -> RecoveryResult:
        """Restore the newest snapshot into the target, then replay the log tail.

        Without a snapshot the whole log is replayed from offset 0.  Every
        tuple/control entry after the snapshot anchor goes through
        :func:`~repro.persistence.replay.apply_log_entry`, in order; a
        raising ``drain`` of the target ends the replay.  Logging is
        suspended throughout, so replayed work is not appended again.

        Raises
        ------
        repro.errors.RecoveryError
            If restoring, replaying or the final drain fails (chained).
        """
        record = self.snapshots.latest()
        start_offset = 0
        snapshot_offset: Optional[int] = None
        replayed = 0
        tuples = 0
        with self.suspended():
            if record is not None:
                try:
                    restore_engine_state(self._target, record.state)
                except Exception as exc:
                    raise RecoveryError(
                        f"cannot restore snapshot {record.path.name}: {exc}"
                    ) from exc
                snapshot_offset = record.log_offset
                start_offset = record.log_offset + 1
            for entry in read_log(self.config.directory, start_offset):
                if entry.op == "snapshot":
                    continue
                try:
                    apply_log_entry(self._target, entry)
                except Exception as exc:
                    raise RecoveryError(
                        f"cannot replay log entry {entry.offset} "
                        f"({entry.op}): {exc}"
                    ) from exc
                replayed += 1
                if entry.op == "tuples" and entry.records:
                    tuples += len(entry.records)
            try:
                # Replayed tuples a shard died on fail here, not on a later read.
                self._target.drain()
            except Exception as exc:
                raise RecoveryError(f"replaying the log tail failed: {exc}") from exc
        self.metrics.add(entries_replayed=replayed, recoveries=1)
        return RecoveryResult(
            snapshot_offset=snapshot_offset,
            replayed_entries=replayed,
            replayed_tuples=tuples,
        )

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Detach the tap and seal the log (flush + fsync).  Idempotent."""
        if self._closed:
            return
        self.detach()
        self.log.close()
        self._closed = True

    def __repr__(self) -> str:
        return (
            f"DurabilityManager(directory={str(self.config.directory)!r}, "
            f"last_offset={self.log.last_offset}, "
            f"snapshots={len(self.snapshots)})"
        )
