"""Merging per-shard detections into one consistent view.

Each shard completes matches independently, so detections arrive at the
runtime in *per-shard* order but interleaved arbitrarily *across* shards
(worker scheduling is non-deterministic).  The :class:`DetectionLog`
restores a deterministic global view:

* every recorded detection keeps an arrival sequence number, so the
  per-shard (and therefore per-partition — one partition never spans
  shards) order is preserved exactly;
* reads sort by ``(timestamp, partition key, arrival)`` — event time first,
  then a canonical encoding of the partition value so that two players
  gesturing in the very same frame order deterministically, with arrival
  order as the final stable tie-break within one partition.

Restricted to a single partition the merged view is byte-for-byte the
sequence a single inline engine would have produced, which is the
equivalence ``tests/test_execution_modes.py`` asserts.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, List, Optional, Tuple

from repro.cep.engine import _UNSET
from repro.cep.matcher import Detection

__all__ = ["DetectionLog", "merge_detections", "partition_sort_key"]


def partition_sort_key(partition: Any) -> Tuple[str, str]:
    """A total order over arbitrary partition values.

    Partition values are usually small ints, but the field is untyped;
    ordering by ``(type name, repr)`` is deterministic across runs and
    never raises on mixed types.
    """
    return (type(partition).__name__, repr(partition))


def merge_detections(detections: Iterable[Detection]) -> List[Detection]:
    """Timestamp-ordered merge of detections from several shards.

    Stable: equal keys keep their input order, so passing per-shard
    sequences concatenated in arrival order preserves each shard's
    internal order exactly.
    """
    return sorted(
        detections,
        key=lambda d: (d.timestamp, partition_sort_key(d.partition)),
    )


class DetectionLog:
    """A thread-safe, append-only log of detections with merged reads.

    Workers append concurrently via :meth:`extend`; readers always get
    snapshot copies, never live references.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: List[Detection] = []

    def extend(self, detections: Iterable[Detection]) -> None:
        """Append one batch's detections in their arrival order."""
        with self._lock:
            self._entries.extend(detections)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def entries(self) -> List[Detection]:
        """Arrival-ordered copy (what snapshots persist; reads merge instead)."""
        with self._lock:
            return list(self._entries)

    def restore(self, detections: Iterable[Detection]) -> None:
        """Replace the log contents (snapshot recovery path)."""
        with self._lock:
            self._entries = list(detections)

    def clear_query(self, query_name: str) -> None:
        """Drop one query's detections, keeping every other query's."""
        with self._lock:
            self._entries = [d for d in self._entries if d.query_name != query_name]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(
        self,
        query_name: Optional[str] = None,
        partition: Any = _UNSET,
    ) -> List[Detection]:
        """Merged, timestamp-ordered copy; optionally filtered.

        ``query_name`` restricts to one deployed query's detections;
        ``partition`` to one player (pass ``None`` explicitly for the
        unpartitioned bucket).
        """
        with self._lock:
            entries = list(self._entries)
        if query_name is not None:
            entries = [d for d in entries if d.query_name == query_name]
        if partition is not _UNSET:
            entries = [d for d in entries if d.partition == partition]
        return merge_detections(entries)

    def __repr__(self) -> str:
        return f"DetectionLog(entries={len(self)})"
