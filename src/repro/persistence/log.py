"""The append-only, segmented event log (write-ahead side of durability).

Every tuple fed into the stack — and every state-changing control
operation (deploy / undeploy / clear / …) — is appended here *before* any
matcher sees it, so a crash at an arbitrary point can always be repaired
by replaying the tail (:mod:`repro.persistence.replay`).  The log is a
directory of JSONL segments plus a manifest::

    events-00000001.jsonl     one JSON entry per line, header line first
    events-00000002.jsonl
    manifest.json             segment list, rewritten atomically

Entries carry monotonically increasing integer **offsets** — the
coordinate system snapshots and replay seeking use.  Every line (header,
manifest, entry) is a versioned envelope
(:func:`repro.storage.serialization.dump_envelope`), so the log shares the
library-wide format-evolution scheme.

Durability model
----------------
Each append is ``write()`` + ``flush()``: the bytes reach the OS page
cache, which survives a killed *process* (the SIGKILL crash test relies on
it) though not a powered-off machine.  The ``fsync`` policy adds disk
durability: ``"always"`` syncs every append, ``"batch"`` every
:data:`BATCH_FSYNC_EVERY` appends, ``"rotate"`` (default) only on segment
rotation and close.  Segments rotate by size and/or entry count; a new
writer always starts a fresh segment, so a segment whose final line was
cut off mid-write is never appended to (readers tolerate exactly one
truncated line, at the very end of the last segment).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Union

from repro.errors import EventLogError
from repro.observability.clock import perf_clock
from repro.observability.registry import Family, MetricSet
from repro.storage.serialization import FORMAT_VERSION, dump_envelope, load_envelope

__all__ = [
    "DURABILITY_FAMILIES",
    "FSYNC_POLICIES",
    "BATCH_FSYNC_EVERY",
    "FSYNC_OWED_AFTER",
    "LogEntry",
    "EventLog",
    "read_log",
]

#: Accepted values of the ``fsync`` policy.
FSYNC_POLICIES = ("always", "batch", "rotate")

#: With ``fsync="batch"``: sync after this many appends (and on rotate/close).
BATCH_FSYNC_EVERY = 64

#: Per policy, the appends past its last fsync after which the log owes
#: one: the debt the health rules' fsync-stall check looks for.
#: ``"rotate"`` owes none that the counters can show.  It syncs when a
#: segment fills, and that fsync blocks the appender, so appends cannot
#: advance past a hung one.
FSYNC_OWED_AFTER: Dict[str, Optional[int]] = {
    "always": 1,
    "batch": BATCH_FSYNC_EVERY,
    "rotate": None,
}

#: What the durability subsystem counts: the event log writes the first four
#: and the ``fsync`` histogram (it is single-writer), the
#: :class:`~repro.persistence.manager.DurabilityManager` the rest.  A
#: session's registry holds the set (``session.metrics.durability``), so one
#: snapshot covers the whole stack.
DURABILITY_FAMILIES = (
    Family("entries_appended", "repro_durability_entries_appended_total", "counter", "Entries appended to the event log."),
    Family("bytes_appended", "repro_durability_bytes_appended_total", "counter", "Bytes appended to the event log."),
    Family("fsyncs", "repro_durability_fsyncs_total", "counter", "fsync calls issued by the event log."),
    Family("segments_rotated", "repro_durability_segments_rotated_total", "counter", "Event-log segment rotations."),
    Family("snapshots_taken", "repro_durability_snapshots_total", "counter", "State snapshots persisted."),
    Family("snapshot_seconds", "repro_durability_snapshot_seconds_total", "counter", "Seconds spent capturing snapshots.", 0.0),
    Family("entries_replayed", "repro_durability_entries_replayed_total", "counter", "Log entries replayed during recovery."),
    Family("recoveries", "repro_durability_recoveries_total", "counter", "Completed recoveries."),
    Family("fsync", "repro_fsync_seconds", "histogram", "Seconds spent in event-log fsync calls."),
)

_SEGMENT_PREFIX = "events-"
_SEGMENT_SUFFIX = ".jsonl"
_MANIFEST_NAME = "manifest.json"

_ENTRY_KIND = "log-entry"
_HEADER_KIND = "event-log-segment"
_MANIFEST_KIND = "event-log-manifest"

#: Operations an entry can record.
_ENTRY_OPS = ("tuples", "control", "snapshot")


@dataclass(frozen=True)
class LogEntry:
    """One replayable record of the event log.

    ``op`` is ``"tuples"`` (a chunk of ingested tuples), ``"control"`` (a
    state-changing operation such as a deploy) or ``"snapshot"`` (a barrier
    marker noting that a snapshot was taken at this point).
    """

    offset: int
    op: str
    stream: Optional[str] = None
    records: Optional[List[Dict[str, Any]]] = None
    batch_size: Optional[int] = None
    control: Optional[str] = None
    payload: Any = None

    def to_line(self) -> str:
        body: Dict[str, Any] = {"offset": self.offset, "op": self.op}
        if self.op == "tuples":
            body["stream"] = self.stream
            body["records"] = self.records
            body["batch_size"] = self.batch_size
        elif self.op == "control":
            body["control"] = self.control
            body["payload"] = self.payload
        else:
            body["payload"] = self.payload
        return dump_envelope(_ENTRY_KIND, body)

    @staticmethod
    def from_payload(payload: Mapping[str, Any]) -> "LogEntry":
        op = payload.get("op")
        if op not in _ENTRY_OPS:
            raise EventLogError(f"log entry has unknown op {op!r}")
        return LogEntry(
            offset=int(payload["offset"]),
            op=op,
            stream=payload.get("stream"),
            records=payload.get("records"),
            batch_size=payload.get("batch_size"),
            control=payload.get("control"),
            payload=payload.get("payload"),
        )


def _segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"


def _segment_index(name: str) -> int:
    return int(name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)])


def _list_segments(directory: Path) -> List[Path]:
    """All segment files on disk, in segment order (manifest-independent:
    a crash can leave a segment the manifest never recorded)."""
    segments = [
        path
        for path in directory.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")
        if path.is_file()
    ]
    return sorted(segments, key=lambda path: _segment_index(path.name))


class EventLog:
    """Appending side of the segmented event log.

    Parameters
    ----------
    directory:
        Log directory; created if missing.  A fresh segment is started on
        every open — an old segment is never appended to, so a torn final
        line from a crash stays isolated at a segment end.
    segment_max_bytes / segment_max_entries:
        Rotate the active segment once it holds this many bytes / entries
        (whichever triggers first; ``None`` disables that trigger).
    fsync:
        Disk-durability policy: ``"always"``, ``"batch"`` or ``"rotate"``
        (see the module docstring).
    metrics:
        Optional :class:`~repro.observability.registry.MetricSet` of
        :data:`DURABILITY_FAMILIES` to record appended bytes, fsyncs and
        rotations on.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        segment_max_bytes: Optional[int] = 4 * 1024 * 1024,
        segment_max_entries: Optional[int] = None,
        fsync: str = "rotate",
        metrics: Optional[MetricSet] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_POLICIES}"
            )
        if segment_max_bytes is not None and segment_max_bytes < 1:
            raise ValueError("segment_max_bytes must be positive when given")
        if segment_max_entries is not None and segment_max_entries < 1:
            raise ValueError("segment_max_entries must be positive when given")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = segment_max_bytes
        self.segment_max_entries = segment_max_entries
        self.fsync_policy = fsync
        self.metrics = metrics
        self._closed = False
        self._appends_since_fsync = 0

        existing = _list_segments(self.directory)
        last_offset = -1
        if existing:
            for entry in read_log(self.directory):
                last_offset = entry.offset
        self._next_offset = last_offset + 1
        self._segment_index = (
            _segment_index(existing[-1].name) + 1 if existing else 1
        )
        self._open_segment()
        self._write_manifest()

    # -- appending ---------------------------------------------------------------------

    @property
    def last_offset(self) -> int:
        """Offset of the most recently appended entry (``-1`` when empty)."""
        return self._next_offset - 1

    @property
    def closed(self) -> bool:
        return self._closed

    def append_tuples(
        self,
        stream: str,
        records: Sequence[Mapping[str, Any]],
        batch_size: Optional[int] = None,
    ) -> int:
        """Record one ingest chunk; returns its offset.

        The chunk boundary (and ``batch_size``) is preserved so replay
        reproduces the exact delivery the live run saw — chunk granularity
        matters for multi-stream patterns and batched matchers.

        ``records`` is serialised before this call returns, so the caller
        may mutate or reuse the sequence afterwards; no copy is taken.
        """
        entry = LogEntry(
            offset=self._next_offset,
            op="tuples",
            stream=stream,
            records=list(records),
            batch_size=batch_size,
        )
        return self._append(entry)

    def append_control(self, control: str, payload: Any = None) -> int:
        """Record one state-changing control operation; returns its offset."""
        entry = LogEntry(
            offset=self._next_offset, op="control", control=control, payload=payload
        )
        return self._append(entry)

    def append_snapshot_marker(self, payload: Any = None) -> int:
        """Record a snapshot barrier (bookkeeping aid; replay skips it)."""
        entry = LogEntry(offset=self._next_offset, op="snapshot", payload=payload)
        return self._append(entry)

    def _append(self, entry: LogEntry) -> int:
        if self._closed:
            raise EventLogError("the event log has been closed")
        line = entry.to_line() + "\n"
        data = line.encode("utf-8")
        try:
            self._file.write(data)
            # User-space buffers die with the process; the page cache does
            # not.  flush() is what makes a SIGKILL survivable.
            self._file.flush()
        except OSError as exc:
            raise EventLogError(f"cannot append to event log: {exc}") from exc
        self._next_offset += 1
        self._segment_entries += 1
        self._segment_bytes += len(data)
        if self.metrics is not None:
            self.metrics.add(entries_appended=1, bytes_appended=len(data))
        self._appends_since_fsync += 1
        if self.fsync_policy == "always":
            self._fsync()
        elif (
            self.fsync_policy == "batch"
            and self._appends_since_fsync >= BATCH_FSYNC_EVERY
        ):
            self._fsync()
        if self._should_rotate():
            self.rotate()
        return entry.offset

    def _should_rotate(self) -> bool:
        if (
            self.segment_max_bytes is not None
            and self._segment_bytes >= self.segment_max_bytes
        ):
            return True
        if (
            self.segment_max_entries is not None
            and self._segment_entries >= self.segment_max_entries
        ):
            return True
        return False

    def rotate(self) -> None:
        """Seal the active segment and start a new one."""
        if self._closed:
            raise EventLogError("the event log has been closed")
        self._fsync()
        self._file.close()
        self._segment_index += 1
        self._open_segment()
        self._write_manifest()
        if self.metrics is not None:
            self.metrics.add(segments_rotated=1)

    def flush(self, sync: bool = True) -> None:
        """Flush buffered data; with ``sync`` also fsync to disk."""
        if self._closed:
            return
        self._file.flush()
        if sync:
            self._fsync()

    def close(self) -> None:
        """Seal the log: flush, fsync, rewrite the manifest.  Idempotent."""
        if self._closed:
            return
        try:
            self._fsync()
            self._file.close()
            self._write_manifest()
        finally:
            self._closed = True

    # -- internals ---------------------------------------------------------------------

    def _open_segment(self) -> None:
        path = self.directory / _segment_name(self._segment_index)
        try:
            # Long-lived segment handle; closed by rotate()/close(), so a
            # context manager cannot own it.
            self._file = open(path, "xb")  # noqa: SIM115
        except OSError as exc:
            raise EventLogError(f"cannot create log segment {path}: {exc}") from exc
        header = dump_envelope(
            _HEADER_KIND,
            {"segment": self._segment_index, "first_offset": self._next_offset},
        )
        data = (header + "\n").encode("utf-8")
        self._file.write(data)
        self._file.flush()
        self._segment_entries = 0
        self._segment_bytes = len(data)

    def _fsync(self) -> None:
        started = perf_clock()
        try:
            os.fsync(self._file.fileno())
        except (OSError, ValueError) as exc:
            raise EventLogError(f"cannot fsync event log: {exc}") from exc
        self._appends_since_fsync = 0
        if self.metrics is not None:
            self.metrics.add(fsyncs=1)
            self.metrics.observe("fsync", perf_clock() - started)

    def _write_manifest(self) -> None:
        segments = []
        for path in _list_segments(self.directory):
            segments.append({"name": path.name})
        text = dump_envelope(
            _MANIFEST_KIND,
            {"segments": segments, "next_offset": self._next_offset},
        )
        tmp = self.directory / (_MANIFEST_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.directory / _MANIFEST_NAME)

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"EventLog(directory={str(self.directory)!r}, "
            f"last_offset={self.last_offset}, segment={self._segment_index})"
        )


def read_log(
    directory: Union[str, Path],
    start_offset: int = 0,
    migrations: Optional[Mapping[int, Any]] = None,
) -> Iterator[LogEntry]:
    """Yield the log's entries with ``offset >= start_offset``, in order.

    Reads straight from the segment files (discovered on disk, so a
    segment the manifest never recorded before a crash is still found).  A
    truncated final line of the *last* segment — the signature of a crash
    mid-append — is silently dropped; a malformed line anywhere else
    raises :class:`~repro.errors.EventLogError`.
    """
    directory = Path(directory)
    segments = _list_segments(directory)
    expected: Optional[int] = None
    for segment_number, path in enumerate(segments):
        is_last_segment = segment_number == len(segments) - 1
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError as exc:
            raise EventLogError(f"cannot read log segment {path}: {exc}") from exc
        for line_number, line in enumerate(lines):
            is_last_line = is_last_segment and line_number == len(lines) - 1
            stripped = line.strip()
            if not stripped:
                continue
            try:
                if line_number == 0:
                    load_envelope(stripped, _HEADER_KIND, version=FORMAT_VERSION)
                    continue
                payload = load_envelope(
                    stripped,
                    _ENTRY_KIND,
                    version=FORMAT_VERSION,
                    migrations=migrations,
                )
                entry = LogEntry.from_payload(payload)
            except Exception as exc:  # noqa: BLE001 — classify below
                if is_last_line and not line.endswith("\n"):
                    # Torn final write: the crash interrupted this append,
                    # so nothing after it exists either.  Drop it.
                    return
                raise EventLogError(
                    f"corrupt log entry in {path.name} line {line_number + 1}: {exc}"
                ) from exc
            if expected is not None and entry.offset != expected:
                raise EventLogError(
                    f"log offset gap in {path.name}: expected offset "
                    f"{expected}, found {entry.offset}"
                )
            expected = entry.offset + 1
            if entry.offset >= start_offset:
                yield entry
