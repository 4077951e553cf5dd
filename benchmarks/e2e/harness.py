"""The per-run context every workload measures through.

:class:`Bench` owns the reference clock, the CPU clock, the optional tracer,
the phases recorded so far and the scratch directory; :meth:`Bench.slice`
is the one place a stretch of work gets bracketed, timed, traced and folded.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import shutil
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from .measure import CpuClock, Phase, RefClock, perf
from .tracing import Tracer

HERE = Path(__file__).resolve().parent

#: Everything the benchmark writes goes here (git-ignored).
OUT_DIR = HERE / "out"

#: Sensitivity of a phase that is pure-Python work on one core (inline feed
#: 0.94, per-frame 0.92, learn 0.85-0.9, set-up 0.9 against the warm kernel).
DEFAULT_SENSITIVITY = 0.9

#: Segments per phase under ``--quick`` (the smoke test): enough to exercise
#: every code path, far too few to time anything.
QUICK_SEGMENTS = 3


class SliceHandle:
    """What the body of a slice reports back: units done and latency samples."""

    def __init__(self) -> None:
        self.units = 0
        self.samples: Dict[str, List[float]] = {}


class Bench:
    def __init__(self, seconds: float, quick: bool, tracer: Optional[Tracer]) -> None:
        self.seconds = seconds
        self.quick = quick
        self.tracer = tracer
        self.ref = RefClock()
        self.cpu = CpuClock()
        self.phases: Dict[str, Phase] = {}
        #: Phase name -> sensitivity (see ``measure.py``); set by the workload.
        self.sensitivity: Dict[str, float] = {}
        self.scratch = OUT_DIR / f"run-{os.getpid()}"
        self._directories = itertools.count()
        #: Operations attempted / failed, summed over the whole run.
        self.attempted = 0
        self.failed = 0
        #: Why the run is incorrect (empty = correct).
        self.errors: List[str] = []

    # -- phases ------------------------------------------------------------------------

    def phase(self, name: str) -> Phase:
        phase = self.phases.get(name)
        if phase is None:
            sensitivity = self.sensitivity.get(name.split(".")[0], DEFAULT_SENSITIVITY)
            phase = self.phases[name] = Phase(name, self.ref, self.cpu, sensitivity)
        return phase

    def repeats(self, share: float, minimum: int = QUICK_SEGMENTS) -> Iterator[int]:
        """Segment indices until ``share`` of ``--seconds`` has gone by.

        At least ``minimum`` however slow the box is; exactly
        :data:`QUICK_SEGMENTS` under ``--quick``, so counts repeat exactly.
        """
        deadline = perf() + self.seconds * share
        for index in itertools.count():
            if self.quick:
                if index >= QUICK_SEGMENTS:
                    return
            elif index >= minimum and perf() >= deadline:
                return
            yield index

    def segment(self, phase: Phase) -> int:
        """Open the next segment of ``phase`` (garbage collected first)."""
        segment = phase.begin_segment()
        if self.tracer is not None:
            self.tracer.segment(phase.name, segment.index)
        return segment.index

    @contextlib.contextmanager
    def slice(self, phase: Phase, position: Optional[int] = None) -> Iterator[SliceHandle]:
        """Bracket, time and trace one slice.

        The body does the work *and* quiesces the system (drains shards,
        awaits acks) before it returns, so the closing reference reading
        competes with nothing.
        """
        handle = SliceHandle()
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_slice()
        phase.begin_slice()
        root = tracer.open("root") if tracer is not None else None
        try:
            yield handle
        finally:
            if tracer is not None and root is not None:
                tracer.close(*root)
            piece = phase.end_slice(handle.units, handle.samples, position)
            if tracer is not None:
                tracer.fold(phase.name, piece.units, piece.speed, piece.torn)

    # -- bookkeeping -------------------------------------------------------------------

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def error(self, message: str) -> None:
        self.errors.append(message)

    def directory(self, label: str) -> Path:
        """A fresh scratch directory under ``out/``, removed by :meth:`cleanup`."""
        path = self.scratch / f"{label}-{next(self._directories)}"
        path.mkdir(parents=True)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def write_json(self, name: str, document: Any) -> Path:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / name
        path.write_text(json.dumps(document, indent=1, sort_keys=True))
        return path
