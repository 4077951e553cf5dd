"""Continuous sampling profiler with per-query CPU attribution.

A wall-clock sampling profiler built on :func:`sys._current_frames`: a
named daemon thread wakes at a configurable Hz, walks every live
thread's stack, and folds each into a *collapsed stack* line
(``thread;outer;...;inner``) with a sample count — the flamegraph input
format, mergeable across processes by summing counts.  There is no
per-call instrumentation and therefore **zero cost on the hot path when
the profiler is off**; at the default 0 Hz nothing is even constructed.

Per-query attribution rides thread tags: the matcher dispatch in
:mod:`repro.cep.engine` marks its thread with the deployed query's name
(:func:`tag_query` / :func:`untag_query`) for exactly the duration of
matcher work.  Tagging is a single dict store gated on a module-level
counter of active profilers, so with no profiler running a tag call is
one integer truth-test.  Samples landing on a tagged thread are charged
to that query; the resulting share joins ``session.query_stats()`` in
``session.profile()`` to answer *"which query is eating the CPU"*.

Process shards run their own :class:`SamplingProfiler` in the child
(configured by ``TelemetryConfig.profile_hz`` riding the shard spec) and
the parent folds child states in over the existing telemetry control,
exactly like histograms and spans.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from typing import Dict, List, Mapping, Optional

__all__ = [
    "SamplingProfiler",
    "tag_query",
    "untag_query",
    "render_top",
    "UNTAGGED",
]

#: Attribution bucket for samples on threads doing non-matcher work.
UNTAGGED = "(untagged)"

#: Stack frames deeper than this are truncated (keeps lines bounded).
_MAX_DEPTH = 64

# -- thread tagging (module-level so the engine never holds a profiler ref) -------------

#: thread ident -> deployed query name.  Single-key dict operations are
#: atomic under the GIL; no lock needed on the hot path.
_TAGS: Dict[int, str] = {}

#: Number of running profilers.  ``tag_query`` is a no-op while zero,
#: making the engine's tag calls one integer test when profiling is off.
_ACTIVE_PROFILERS = 0
_active_lock = threading.Lock()


def tag_query(name: str) -> None:
    """Mark the calling thread as doing matcher work for ``name``."""
    if _ACTIVE_PROFILERS:
        _TAGS[threading.get_ident()] = name


def untag_query() -> None:
    """Clear the calling thread's query tag."""
    if _ACTIVE_PROFILERS:
        _TAGS.pop(threading.get_ident(), None)


def _collapse(frame, thread_name: str) -> str:
    """Fold one thread's stack into ``thread;outer;...;inner``."""
    parts: List[str] = []
    depth = 0
    while frame is not None and depth < _MAX_DEPTH:
        code = frame.f_code
        parts.append(f"{code.co_name} ({code.co_filename.rsplit('/', 1)[-1]})")
        frame = frame.f_back
        depth += 1
    parts.append(thread_name)
    return ";".join(reversed(parts))


class SamplingProfiler:
    """Samples every live thread's stack at ``hz``; attributes by tag.

    State is two counters — collapsed-stack line → samples, and query
    name → samples — plus a total, all mergeable across pids with
    :meth:`absorb`.  The sampler thread is named (repo-lint RL004) and
    skips itself.
    """

    def __init__(self, hz: float = 67.0) -> None:
        if hz <= 0:
            raise ValueError("profiler hz must be positive (omit the profiler to disable)")
        self.hz = hz
        self._lock = threading.Lock()
        self._stacks: Counter = Counter()
        self._query_samples: Counter = Counter()
        self.samples = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- sampling ------------------------------------------------------------------------

    def sample_once(self) -> None:
        """Take one sample of every live thread (public for tests)."""
        me = threading.get_ident()
        names = {thread.ident: thread.name for thread in threading.enumerate()}
        frames = sys._current_frames()
        tags = dict(_TAGS)  # snapshot; worker threads mutate concurrently
        with self._lock:
            for ident, frame in frames.items():
                if ident == me:
                    continue
                thread_name = names.get(ident, f"thread-{ident}")
                self._stacks[_collapse(frame, thread_name)] += 1
                query = tags.get(ident)
                if query is not None:
                    self._query_samples[query] += 1
                else:
                    self._query_samples[UNTAGGED] += 1
                self.samples += 1

    # -- readers -------------------------------------------------------------------------

    def collapsed(self) -> List[str]:
        """Folded-stack lines (``stack count``), hottest first — the
        flamegraph/``flamegraph.pl`` input format."""
        with self._lock:
            entries = self._stacks.most_common()
        return [f"{stack} {count}" for stack, count in entries]

    def query_samples(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._query_samples)

    def query_share(self) -> Dict[str, float]:
        """Fraction of *tagged* (matcher) samples per query."""
        with self._lock:
            tagged = {
                name: count
                for name, count in self._query_samples.items()
                if name != UNTAGGED
            }
        total = sum(tagged.values())
        if not total:
            return {}
        return {name: count / total for name, count in sorted(tagged.items())}

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe summary (the ``/debug/vars`` profiler block)."""
        with self._lock:
            samples = self.samples
            queries = dict(self._query_samples)
            top = self._stacks.most_common(20)
        return {
            "hz": self.hz,
            "running": self.running,
            "samples": samples,
            "query_samples": queries,
            "query_share": self.query_share(),
            "top_stacks": [{"stack": stack, "count": count} for stack, count in top],
        }

    # -- merge / serialisation -----------------------------------------------------------

    def to_state(self) -> Dict[str, object]:
        with self._lock:
            return {
                "hz": self.hz,
                "samples": self.samples,
                "stacks": dict(self._stacks),
                "query_samples": dict(self._query_samples),
            }

    def absorb(self, state: Mapping[str, object]) -> None:
        """Fold another profiler's state in (child pid → parent)."""
        stacks = state.get("stacks") or {}
        query_samples = state.get("query_samples") or {}
        with self._lock:
            self.samples += int(state.get("samples", 0) or 0)
            for stack, count in stacks.items():  # type: ignore[union-attr]
                self._stacks[str(stack)] += int(count)
            for name, count in query_samples.items():  # type: ignore[union-attr]
                self._query_samples[str(name)] += int(count)

    def clear(self) -> None:
        with self._lock:
            self._stacks.clear()
            self._query_samples.clear()
            self.samples = 0

    # -- lifecycle -----------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Start sampling (idempotent); activates hot-path tagging."""
        global _ACTIVE_PROFILERS
        if self.running:
            return self
        with _active_lock:
            _ACTIVE_PROFILERS += 1
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name="repro-profiler", daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        """Stop and join; deactivates tagging when the last profiler stops."""
        global _ACTIVE_PROFILERS
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=timeout)
        self._thread = None
        with _active_lock:
            _ACTIVE_PROFILERS = max(0, _ACTIVE_PROFILERS - 1)
            if _ACTIVE_PROFILERS == 0:
                _TAGS.clear()

    def _run(self) -> None:
        interval = 1.0 / self.hz
        while not self._stop.wait(interval):
            self.sample_once()

    def __repr__(self) -> str:
        return (
            f"SamplingProfiler(hz={self.hz}, samples={self.samples}, "
            f"queries={len(self._query_samples)}, running={self.running})"
        )


def render_top(snapshot: Mapping[str, object], width: int = 72) -> str:
    """Render a profiler snapshot as the ``top``-style terminal table
    used by ``python -m repro.observability top``."""
    lines = [
        f"samples: {snapshot.get('samples', 0)}   "
        f"hz: {snapshot.get('hz', 0)}   running: {snapshot.get('running', False)}",
        "",
        f"{'QUERY':<32} {'SAMPLES':>9} {'CPU%':>7}",
    ]
    query_samples = snapshot.get("query_samples") or {}
    share = snapshot.get("query_share") or {}
    for name, count in sorted(
        query_samples.items(), key=lambda item: item[1], reverse=True  # type: ignore[union-attr]
    ):
        pct = float(share.get(name, 0.0)) * 100.0 if name != UNTAGGED else 0.0
        pct_text = f"{pct:6.1f}%" if name != UNTAGGED else "      -"
        lines.append(f"{str(name)[:32]:<32} {count:>9} {pct_text}")
    top_stacks = snapshot.get("top_stacks") or []
    if top_stacks:
        lines += ["", "HOTTEST STACKS"]
        for entry in top_stacks[:10]:  # type: ignore[index]
            stack = str(entry.get("stack", ""))  # type: ignore[union-attr]
            count = entry.get("count", 0)  # type: ignore[union-attr]
            tail = stack.split(";")[-1]
            lines.append(f"  {count:>7}  {tail[: width - 11]}")
    return "\n".join(lines)
