"""Durability: write-ahead event log, snapshots, recovery and replay.

The subsystem splits into four layers, each usable on its own:

* :mod:`repro.persistence.log` — the append-only segmented event log
  (:class:`EventLog`, :func:`read_log`);
* :mod:`repro.persistence.snapshots` — atomic snapshot files anchored to
  log offsets (:class:`SnapshotStore`);
* :mod:`repro.persistence.manager` — the orchestration glue installed on
  a live engine or sharded runtime (:class:`DurabilityManager`,
  configured by :class:`DurabilityConfig`);
* :mod:`repro.persistence.replay` — deterministic, seekable re-execution
  of a recorded directory (:class:`ReplayController`).

The session façade wires everything together::

    from repro import DurabilityConfig, GestureSession

    with GestureSession(durability=DurabilityConfig("./run1")) as session:
        session.deploy("PATTERN SEQ(up u, down d) ...")
        session.feed(frames)

    recovered = GestureSession.recover(DurabilityConfig("./run1"))
"""

from repro.persistence.log import (
    BATCH_FSYNC_EVERY,
    FSYNC_OWED_AFTER,
    FSYNC_POLICIES,
    EventLog,
    LogEntry,
    read_log,
)
from repro.persistence.manager import (
    DurabilityConfig,
    DurabilityManager,
    RecoveryResult,
)
from repro.persistence.replay import (
    ReplayController,
    apply_engine_control,
    restore_engine_state,
)
from repro.persistence.snapshots import SnapshotRecord, SnapshotStore

__all__ = [
    "BATCH_FSYNC_EVERY",
    "FSYNC_OWED_AFTER",
    "FSYNC_POLICIES",
    "EventLog",
    "LogEntry",
    "read_log",
    "DurabilityConfig",
    "DurabilityManager",
    "RecoveryResult",
    "ReplayController",
    "apply_engine_control",
    "restore_engine_state",
    "SnapshotRecord",
    "SnapshotStore",
]
