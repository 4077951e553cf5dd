"""Deterministic replay of a recorded event log.

:class:`ReplayController` re-drives a fresh target (an engine, a sharded
runtime, or a whole ``GestureSession`` — whatever ``target_factory``
builds) from a durability directory, entry by entry, with VCR-style
controls:

* **faster than real time** — ``speed=None`` (default) applies entries as
  fast as possible; ``speed=2.0`` paces tuple entries at twice the
  recorded event-time rate (``1.0`` is real time);
* **pause / resume** — :meth:`pause` stops an in-progress :meth:`play`
  between entries (callable from a detection handler or another thread);
* **seek** — :meth:`seek` jumps to any log offset.  Seeking backward
  rebuilds the target from the newest snapshot at or before the requested
  offset (or from scratch) and replays forward, so the state at any offset
  is exactly the state the live run had there — determinism is what makes
  seeking *meaningful*.

A target is an :class:`~repro.cep.engine.Engine` (an inline engine or a
sharded runtime) or a session running on one (``session.replay()``).
Either way the controller drives the engine, through the same
:func:`apply_log_entry` recovery uses; a session's detector keeps its
events in step on its own.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Union

from repro.errors import RecoveryError, ReplayStateError
from repro.persistence.log import LogEntry, read_log
from repro.persistence.snapshots import SnapshotStore

if TYPE_CHECKING:
    from repro.cep.engine import Engine

__all__ = ["ReplayController", "apply_engine_control", "apply_log_entry", "restore_engine_state"]

#: Sentinel distinguishing "parameter not given" from an explicit ``None``.
_UNSET: Any = object()


def apply_engine_control(target: "Engine", control: str, payload: Any) -> None:
    """Apply one logged control to an engine: the inverse of its control tap
    (:data:`repro.cep.engine.ControlTap`), and the only control replay.

    :func:`apply_log_entry` maps every journalled ``deploy`` / ``undeploy`` /
    ``enable`` / ``clear`` back through here.
    """
    if control == "deploy":
        if payload["name"] not in target.queries:
            target.register_query(payload["text"], name=payload["name"])
    elif control == "undeploy":
        target.unregister_query(payload["name"])
    elif control == "enable":
        target.enable_query(payload["name"], payload["enabled"])
    elif control == "clear":
        target.reset_scene()
    else:
        raise RecoveryError(f"unknown logged control operation {control!r}")


def apply_log_entry(target: "Engine", entry: LogEntry) -> None:
    """Re-apply one journalled tuple or control entry to an engine, as it was
    delivered live: the only replay, for recovery and :class:`ReplayController`."""
    if entry.op == "tuples":
        target.push_many(entry.stream, entry.records or [], batch_size=entry.batch_size)
    elif entry.op == "control":
        apply_engine_control(target, entry.control, entry.payload)
    else:
        raise RecoveryError(f"unknown logged operation {entry.op!r}")


def restore_engine_state(target: "Engine", state: Dict[str, Any]) -> None:
    """Load a snapshot into an engine: ``target.restore_state(state)``, with
    the ``{"kind": "session", "engine": …}`` envelope of a snapshot file
    unwrapped."""
    if state.get("kind") == "session":
        state = state["engine"]
    target.restore_state(state)


def _engine_of(target: Any) -> "Engine":
    """The engine a replay target runs on: a session's (its detector's,
    inline or sharded), or the target itself."""
    detector = getattr(target, "detector", None)
    return target if detector is None else detector.engine


def _close(target: Any) -> None:
    """Release a replaced target: a session closes, a sharded runtime stops
    its workers; an inline engine holds nothing."""
    close = getattr(target, "close", None) or getattr(target, "stop", None)
    if close is not None:
        close()


class ReplayController:
    """Replays one durability directory into targets built on demand.

    Parameters
    ----------
    directory:
        A durability directory (event-log segments + snapshots).
    target_factory:
        Builds a fresh, empty target: an engine, or a session.  Called once
        up front and again on every backward :meth:`seek`, which closes the
        target it replaces.
    speed:
        Default pacing of :meth:`play`: ``None`` replays as fast as
        possible, a positive float paces tuple entries at that multiple of
        the recorded event-time rate (``1.0`` = real time).
    timestamp_field:
        Tuple field carrying event time, used only for pacing.
    """

    def __init__(
        self,
        directory: Union[str, Any],
        target_factory: Callable[[], Any],
        speed: Optional[float] = None,
        timestamp_field: str = "ts",
    ) -> None:
        if speed is not None and speed <= 0:
            raise ValueError("speed must be positive when given (None = unpaced)")
        self.directory = directory
        self.speed = speed
        self.timestamp_field = timestamp_field
        self._factory = target_factory
        self._snapshots = SnapshotStore(directory)
        self._entries: List[LogEntry] = [
            entry for entry in read_log(directory) if entry.op != "snapshot"
        ]
        self._paused = False
        self._last_event_time: Optional[float] = None
        self.target = target_factory()
        #: Offset of the last applied entry (``-1`` before any).
        self.position = -1

    # -- introspection -----------------------------------------------------------------

    @property
    def last_offset(self) -> int:
        """Offset of the final replayable entry (``-1`` for an empty log)."""
        return self._entries[-1].offset if self._entries else -1

    @property
    def finished(self) -> bool:
        return self.position >= self.last_offset

    @property
    def paused(self) -> bool:
        return self._paused

    def __len__(self) -> int:
        return len(self._entries)

    # -- controls ----------------------------------------------------------------------

    def pause(self) -> None:
        """Stop an in-progress :meth:`play` after the current entry."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False

    def step(self, entries: int = 1) -> int:
        """Apply up to ``entries`` next entries (no pacing); returns applied."""
        applied = 0
        for entry in self._pending():
            if applied >= entries:
                break
            self._apply(entry)
            applied += 1
        return applied

    def play(
        self,
        until_offset: Optional[int] = None,
        speed: Any = _UNSET,
    ) -> int:
        """Apply entries until the end, ``until_offset`` (inclusive) or
        :meth:`pause`; returns the number applied.

        ``speed`` overrides the controller default for this call.
        """
        pace = self.speed if speed is _UNSET else speed
        if pace is not None and pace <= 0:
            raise ValueError("speed must be positive when given (None = unpaced)")
        self._paused = False
        applied = 0
        for entry in self._pending():
            if until_offset is not None and entry.offset > until_offset:
                break
            if self._paused:
                break
            if pace is not None:
                self._pace(entry, pace)
            self._apply(entry)
            applied += 1
        return applied

    def seek(self, offset: int) -> None:
        """Jump so the target holds exactly the state the live run had
        after log offset ``offset`` (``-1`` = pristine).

        Forward seeks replay the gap; backward seeks rebuild the target
        from the newest snapshot at or before ``offset`` (or from scratch)
        and replay forward — deterministically identical either way.
        """
        if offset < -1 or offset > self.last_offset:
            raise ReplayStateError(
                f"cannot seek to offset {offset}; the log spans -1..{self.last_offset}"
            )
        if offset < self.position:
            record = self._snapshots.best_for(offset)
            _close(self.target)
            self.target = self._factory()
            self._last_event_time = None
            if record is not None:
                restore_engine_state(_engine_of(self.target), record.state)
                self.position = record.log_offset
            else:
                self.position = -1
        for entry in self._pending():
            if entry.offset > offset:
                break
            self._apply(entry)

    # -- internals ---------------------------------------------------------------------

    def _pending(self):
        for entry in self._entries:
            if entry.offset > self.position:
                yield entry

    def _apply(self, entry: LogEntry) -> None:
        apply_log_entry(_engine_of(self.target), entry)
        self.position = entry.offset

    def _pace(self, entry: LogEntry, speed: float) -> None:
        """Sleep so tuple entries arrive at ``speed`` × the recorded rate."""
        if entry.op != "tuples" or not entry.records:
            return
        stamp = entry.records[0].get(self.timestamp_field)
        if stamp is None:
            return
        stamp = float(stamp)
        if self._last_event_time is not None and stamp > self._last_event_time:
            time.sleep((stamp - self._last_event_time) / speed)
        last = entry.records[-1].get(self.timestamp_field)
        self._last_event_time = float(last) if last is not None else stamp

    def __repr__(self) -> str:
        return (
            f"ReplayController(position={self.position}, "
            f"last_offset={self.last_offset}, entries={len(self._entries)}, "
            f"speed={self.speed})"
        )
