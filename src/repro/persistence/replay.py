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

The controller is policy-free about target semantics: ``restore`` maps a
snapshot state into a fresh target and ``apply_control`` applies one
logged control operation; the session façade supplies both
(``session.replay()``), and the defaults work for any
:class:`~repro.cep.engine.Engine` — an inline engine or a sharded runtime.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Union

from repro.errors import RecoveryError, ReplayStateError
from repro.persistence.log import LogEntry, read_log
from repro.persistence.snapshots import SnapshotStore

if TYPE_CHECKING:
    from repro.cep.engine import Engine

__all__ = ["ReplayController", "apply_engine_control", "restore_engine_state"]

#: Sentinel distinguishing "parameter not given" from an explicit ``None``.
_UNSET: Any = object()


def apply_engine_control(target: "Engine", control: str, payload: Any) -> None:
    """Apply one logged control to an engine: the inverse of its control tap
    (:data:`repro.cep.engine.ControlTap`), and the only control replay.

    Recovery, :class:`ReplayController` and ``session.replay()`` all map
    ``deploy`` / ``undeploy`` / ``enable`` / ``clear`` back through here.
    """
    if control == "deploy":
        if payload["name"] not in target.queries:
            target.register_query(
                payload["text"], name=payload["name"], create_missing_streams=True
            )
    elif control == "undeploy":
        target.unregister_query(payload["name"])
    elif control == "enable":
        target.enable_query(payload["name"], payload["enabled"])
    elif control == "clear":
        target.reset_scene()
    else:
        raise RecoveryError(f"unknown logged control operation {control!r}")


def restore_engine_state(target: "Engine", state: Dict[str, Any]) -> None:
    """Default snapshot restorer: ``target.restore_state(state)``, with the
    session façade's ``{"kind": "session", "engine": …}`` wrapper unwrapped
    so a bare engine target can replay a session-recorded directory."""
    if state.get("kind") == "session":
        state = state["engine"]
    target.restore_state(state)


class ReplayController:
    """Replays one durability directory into targets built on demand.

    Parameters
    ----------
    directory:
        A durability directory (event-log segments + snapshots).
    target_factory:
        Builds a fresh, empty target.  Called once up front and again on
        every backward :meth:`seek`.
    restore:
        ``(target, snapshot_state) -> None`` — map a snapshot into a fresh
        target (default :func:`restore_engine_state`).
    apply_control:
        ``(target, control, payload) -> None`` — apply one logged control
        (default :func:`apply_engine_control`).
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
        restore: Callable[[Any, Dict[str, Any]], None] = restore_engine_state,
        apply_control: Callable[[Any, str, Any], None] = apply_engine_control,
        speed: Optional[float] = None,
        timestamp_field: str = "ts",
    ) -> None:
        if speed is not None and speed <= 0:
            raise ValueError("speed must be positive when given (None = unpaced)")
        self.directory = directory
        self.speed = speed
        self.timestamp_field = timestamp_field
        self._factory = target_factory
        self._restore = restore
        self._apply_control = apply_control
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
            self.target = self._factory()
            self._last_event_time = None
            if record is not None:
                self._restore(self.target, record.state)
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
        if entry.op == "tuples":
            self.target.push_many(
                entry.stream, entry.records or [], batch_size=entry.batch_size
            )
        elif entry.op == "control":
            self._apply_control(self.target, entry.control, entry.payload)
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
