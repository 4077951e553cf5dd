#!/usr/bin/env python
"""Repository-specific lint rules that generic linters do not cover.

Fifteen rules, all born from real failure modes of this codebase:

``RL001`` — no builtin ``hash()`` on routing/persistence code paths or in benchmarks
    CPython salts ``hash()`` per process (PYTHONHASHSEED), so a shard
    router or a persisted artifact keyed on it changes meaning across
    restarts and across processes — precisely the places that must be
    deterministic.  Those paths use the CRC-32 based
    ``stable_partition_hash`` instead.  A benchmark that derives a random
    seed from it (F5 did) trains on different samples every run.  Scoped
    to ``src/repro/runtime``, ``src/repro/persistence``,
    ``src/repro/storage`` and ``benchmarks``; ``__hash__`` *method
    definitions* (in-process identity) are fine, *calling* the builtin is
    not.

``RL002`` — no silently-swallowed broad exceptions in ``src/repro``
    An ``except Exception:`` (or bare ``except:``) whose body is only
    ``pass`` hides real defects with no trace.  Intentional best-effort
    suppression must be spelled ``contextlib.suppress(...)`` — greppable,
    explicit about the exception types, and reviewed as such.

``RL003`` — no ``time.time()`` on latency-measurement paths
    Wall-clock time jumps under NTP slew and DST, so a latency computed
    from two ``time.time()`` readings can be negative or wildly wrong —
    and every histogram it feeds is silently corrupted.  Latency paths
    (``src/repro/runtime``, ``src/repro/gateway``,
    ``src/repro/persistence``, ``src/repro/observability``) must take
    their readings from :mod:`repro.observability.clock`
    (``perf_clock`` for durations, ``monotonic_time`` for
    cross-process span timestamps); ``observability/clock.py`` itself is
    the one sanctioned caller of ``time.time()``.

``RL004`` — every background thread is constructed with ``name=``
    A span's ``tid`` and a health report's subject are read back to a
    thread by its name, tests count a session's control-plane threads by
    name, and ``threading.enumerate()`` dumps are how stalls get
    debugged — an anonymous ``Thread-7`` is unattributable in all three.
    Every ``threading.Thread(...)`` constructed under ``src/repro`` must
    pass a ``name=`` keyword (``repro-<role>`` by convention).

``RL005`` — one exposition writer, and nothing below the runtime imports it
    Three hand-written Prometheus renderers once repeated every family's
    ``# HELP`` / ``# TYPE`` header per tenant (a body no parser accepts)
    and left four families without one.  A string literal containing
    either header marker — plain or inside an f-string — may appear only
    in ``src/repro/observability/registry.py``, whose ``exposition()``
    writes each header once.  The same refactor took the counter classes
    out of ``repro.runtime``; to keep them out, ``repro.persistence``,
    ``repro.observability``, ``repro.cep`` and ``repro.storage`` — the
    layers the runtime is built on — may not import ``repro.runtime``.

``RL006`` — byte layouts are written in the gateway's two codec modules only
    A tuple crossing the socket has exactly two spellings, JSON text and
    the packed binary frame of ``repro/gateway/protocol.py``; the decoder
    of the second is fuzzed as one unit and a client, the server and the
    docs agree on one layout.  A ``struct`` format built anywhere else in
    ``src/repro`` is a second packed codec growing beside it.  Importing
    :mod:`struct` is allowed in ``src/repro/gateway/protocol.py`` (the
    packed ``tuples`` frame) and ``src/repro/gateway/websocket.py`` (RFC
    6455 framing) and nowhere else under ``src/repro``.

``RL007`` — controls are journalled at the engine, by the durability manager
    Deploys once reached the journal from three hand-placed calls in the
    session, so a deploy through any other door (a gesture database, the
    interactive workflow, ``set_enabled``) was lost on recovery.  The
    journal now subscribes to the engine's control taps; a call to
    ``append_control(`` anywhere but ``src/repro/persistence/manager.py``
    is a second, front-door journal growing back.

``RL008`` — journalled controls are replayed by the one log applier
    The reader-side twin of RL007.  Recovery and replay once each re-applied
    journal entries through their own session hooks, so a control could
    replay one way on recovery and another on ``seek``.  Both now drive the
    engine through ``apply_log_entry`` in ``src/repro/persistence/replay.py``;
    a call to ``apply_engine_control(`` anywhere else under ``src/repro`` is
    a second replay path growing back.

``RL009`` — no public name only tests reach
    Operators, stream sources, schemas, a second corpus generator and a
    second throughput instrument once sat in ``src/repro`` with tests of
    their own and no caller, so they were maintained, documented and
    re-exported for nothing.  A top-level public function or class under
    ``src/repro`` must be referenced outside its own definition — by name,
    attribute or import — in its own module, in another product module (an
    ``__init__`` re-export does not count), or in ``benchmarks/``,
    ``examples/`` or ``tools/``.  The few names kept for the paper's sake
    sit in ``ORPHAN_KEEP``, one reason each.  Unlike the other rules this
    one reads the whole tree, so it runs in :func:`lint_repository`.

``RL010`` — a transport carries messages
    The thread transport once handed the parent its worker's live engine
    (progress was read off the matchers) and shared the parent's
    telemetry bundle (spans skipped the ``telemetry`` control), so
    ``feedback()`` read zero on process shards only and traces reached
    the parent two ways.  A transport now starts a worker, carries
    messages both ways, closes and joins; admission, progress and
    telemetry are the shard protocol's.  ``src/repro/runtime/transport.py``
    may not import ``repro.cep`` or ``repro.observability``.

``RL011`` — the control plane stays threadless; only a transport starts threads
    A metrics-sampler thread once polled every session that asked for SLOs
    or health rules, so a verdict depended on the beat of a second clock
    and every test had to stop that thread before ticking by hand.  Health
    is now evaluated when it is read.  Shard workers (and the process
    transport's listener) are the only threads the package needs, and
    ``src/repro/runtime/transport.py`` starts them; a ``threading.Thread(``
    (or a bare ``Thread(``) anywhere else under ``src/repro`` is a
    background poller growing back.

``RL012`` — load is shed at the gateway's edge only
    A gateway tenant once had two drop points: its edge queue, and the
    admission policy of the sharded session behind it.  The inner one
    dropped tuples the edge had already acknowledged as accepted, or
    failed the tenant after the ack.  Shards now always wait for credits.
    Under ``src/repro``, ``raise BackpressureError`` and a string literal
    containing ``"drop_newest"`` or ``"drop_oldest"`` (docstrings and
    other bare string statements excluded) may appear only in
    ``src/repro/gateway/``: a second drop policy growing back below the
    edge.

``RL013`` — the analyzer gates at the session only
    Three deploy routes once gated the analyzer each their own way: the
    engines analysed under a per-query configuration the journal never
    recorded, and the manifest route analysed a query built by a default
    generator, not the one it deployed.  ``GestureSession`` now turns
    everything into ``Query`` objects, gates exactly those, then deploys
    them.  Under ``src/repro``, ``gate_deployment(`` may be called only in
    ``src/repro/api/session.py``, and nothing under ``src/repro/cep``,
    ``src/repro/runtime`` or ``src/repro/detection`` may import
    ``repro.analysis``.

``RL014`` — one door to the matcher's counters
    The engine's per-tuple path once bumped four ``MatcherStats`` counters
    of every deployed query on every tuple, through a matcher method that
    did nothing else.  It now calls a matcher only when a tuple can change
    it and hands it the rest in bulk (``NFAMatcher.settle``), and the
    counters stay exact for every reader because ``NFAMatcher.stats``
    settles first.  Under ``src/repro``, outside
    ``src/repro/cep/matcher.py``, nothing may assign or augment-assign an
    attribute named after a ``MatcherStats`` field on a ``.stats`` object
    (``Stream.stats.pushed`` and ``.dropped`` are not such fields): a
    counter written from outside is a second count growing beside the
    matcher's own.

``RL015`` — one door to the run tables
    A partition whose time runs forward prunes by cutting an expired
    prefix off each bucket, and the engine's wake state trusts each run
    table's ``oldest`` and ``occupied``.  Both are exact only while the
    matcher is the one writer of its tables.  Under ``src/repro``, outside
    ``src/repro/cep/matcher.py``, nothing may assign, augment-assign or
    delete an attribute named ``oldest``, ``occupied``, ``waiting``,
    ``latest`` or ``ordered``, and nothing may mutate a ``.waiting[...]``
    bucket (item assignment or deletion, or a list method that changes it).
    ``count``, which the engine's wake state also keeps, is left out.

Run as a script (CI) or through ``tests/test_repo_lint.py``::

    python tools/repo_lint.py            # lint the repository, exit 0/1
    python tools/repo_lint.py --list     # print the rule catalogue
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from functools import lru_cache
from typing import FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Directories where builtin ``hash()`` is forbidden (RL001).
HASH_FORBIDDEN_PATHS = (
    "src/repro/runtime",
    "src/repro/persistence",
    "src/repro/storage",
    "benchmarks",
)

#: Trees :func:`lint_repository` walks: every prefix above lies under one.
LINTED_ROOTS = ("src/repro", "benchmarks")

#: Directory tree where silent broad excepts are forbidden (RL002).
SWALLOW_FORBIDDEN_PATH = "src/repro"

#: Latency-measurement trees where ``time.time()`` is forbidden (RL003).
WALL_CLOCK_FORBIDDEN_PATHS = (
    "src/repro/runtime",
    "src/repro/gateway",
    "src/repro/persistence",
    "src/repro/observability",
)

#: The one module allowed to call ``time.time()``: the clock itself.
WALL_CLOCK_SANCTIONED = "src/repro/observability/clock.py"

#: Directory tree where anonymous threads are forbidden (RL004).
THREAD_NAME_REQUIRED_PATH = "src/repro"

#: The one module allowed to spell exposition header markers (RL005).
EXPOSITION_WRITER = "src/repro/observability/registry.py"

#: Header markers of the Prometheus text format; written by one module only.
EXPOSITION_HEADERS = ("# HELP", "# TYPE")

#: Packages below the runtime: they may not import ``repro.runtime`` (RL005).
BELOW_RUNTIME_PATHS = (
    "src/repro/persistence",
    "src/repro/observability",
    "src/repro/cep",
    "src/repro/storage",
)


#: The modules allowed to import ``struct`` (RL006); the tree it guards.
STRUCT_CODEC_MODULES = (
    "src/repro/gateway/protocol.py",
    "src/repro/gateway/websocket.py",
)
STRUCT_FORBIDDEN_PATH = "src/repro"

#: The one module allowed to call ``append_control`` (RL007).
CONTROL_JOURNAL_WRITER = "src/repro/persistence/manager.py"

#: The one module allowed to call ``apply_engine_control`` (RL008); the tree it guards.
CONTROL_JOURNAL_READER = "src/repro/persistence/replay.py"
CONTROL_REPLAY_GUARDED_PATH = "src/repro"

#: The module that only carries shard messages, and the packages it may not
#: import (RL010).
MESSAGE_CARRIER = "src/repro/runtime/transport.py"
CARRIER_FORBIDDEN_IMPORTS = ("repro.cep", "repro.observability")

#: The one module allowed to construct a thread (RL011); the tree it guards.
THREAD_STARTER = MESSAGE_CARRIER
THREAD_FORBIDDEN_PATH = "src/repro"

#: The only package that may drop tuples or refuse them with
#: ``BackpressureError`` (RL012); the tree it guards; the policy names.
LOAD_SHEDDER = "src/repro/gateway/"
LOAD_SHED_GUARDED_PATH = "src/repro"
DROP_POLICY_NAMES = ("drop_newest", "drop_oldest")

#: The one module allowed to call ``gate_deployment`` (RL013); the tree it
#: guards; the packages below the session that may not import the analyzer.
ANALYZER_GATE = "src/repro/api/session.py"
ANALYZER_GATE_GUARDED_PATH = "src/repro"
UNANALYSED_PATHS = ("src/repro/cep", "src/repro/runtime", "src/repro/detection")

#: The one module that writes the matcher's counters (RL014), the tree it
#: guards, and the class whose fields name the counters.
COUNTER_OWNER = "src/repro/cep/matcher.py"
COUNTER_GUARDED_PATH = "src/repro"
COUNTER_CLASS = "MatcherStats"

#: The one module that writes run tables (RL015), the tree it guards, the
#: table fields, and the list methods that change a bucket in place.
RUN_TABLE_OWNER = COUNTER_OWNER
RUN_TABLE_GUARDED_PATH = "src/repro"
RUN_TABLE_FIELDS = ("oldest", "occupied", "waiting", "latest", "ordered")
LIST_MUTATORS = ("append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse")

#: The tree whose public names must have a caller (RL009); the trees outside
#: it whose references count as callers.
ORPHAN_GUARDED_PATH = "src/repro"
ORPHAN_CONSUMER_ROOTS = ("benchmarks", "examples", "tools")

#: Public names that only tests reach and stay on purpose (RL009), one reason
#: each.  A key is a module (every top-level name in it) or ``<module>::<name>``.
ORPHAN_KEEP = {
    "src/repro/core/distance.py": "the distance measures of paper Sec. 3.3.1",
    "src/repro/transform/angles.py": "the joint-angle view of the paper's Sec. 3.2 outlook",
    "src/repro/transform/rotation.py::joint_roll_pitch_yaw": (
        "per-limb Roll-Pitch-Yaw of the paper's Sec. 3.2 outlook"
    ),
    "src/repro/transform/coordinate.py::shift_to_torso": (
        "reference step the fused kinect_t kernel is tested against"
    ),
    "src/repro/transform/coordinate.py::scale_coordinates": (
        "reference step the fused kinect_t kernel is tested against"
    ),
    "src/repro/transform/rotation.py::estimate_yaw_deg": (
        "reference step the fused kinect_t kernel is tested against"
    ),
    "src/repro/transform/rotation.py::rotate_about_y": (
        "reference step the fused kinect_t kernel is tested against"
    ),
    "src/repro/detection/visualization.py": (
        "the attempt report a near-miss explain of missed detections will render through"
    ),
    "src/repro/api/dsl.py::udf": "the DSL's spelling of the paper's user-defined operators",
    "src/repro/kinect/noise.py::NoNoise": "the exact-geometry noise model for simulator users",
    "src/repro/cep/query.py::sequence": "the documented constructor of a hand-written pattern",
    "src/repro/observability/jsonlog.py::configure_json_logging": (
        "the opt-in switch an application calls; the library never configures logging"
    ),
    "src/repro/observability/clock.py::wall_clock": (
        "the civil-time reader RL003 sends latency-path code to instead of time.time()"
    ),
}


class Violation(NamedTuple):
    """One finding: file, line, rule code and explanation."""

    path: str
    line: int
    code: str
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _is_builtin_hash_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "hash"
    )


def _is_broad_silent_except(node: ast.AST) -> bool:
    if not isinstance(node, ast.ExceptHandler):
        return False
    if not (len(node.body) == 1 and isinstance(node.body[0], ast.Pass)):
        return False
    if node.type is None:  # bare except:
        return True
    names = []
    if isinstance(node.type, ast.Name):
        names = [node.type.id]
    elif isinstance(node.type, ast.Tuple):
        names = [e.id for e in node.type.elts if isinstance(e, ast.Name)]
    return any(name in ("Exception", "BaseException") for name in names)


def _lint_hash_calls(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):
        if _is_builtin_hash_call(node):
            yield Violation(
                relative,
                node.lineno,
                "RL001",
                "builtin hash() is process-salted and must not pick a route, "
                "a persisted key or a benchmark seed; use "
                "repro.runtime.router.stable_partition_hash (or another "
                "explicit, stable hash, or a literal seed)",
            )


def _is_wall_clock_call(node: ast.AST) -> bool:
    """Match ``time.time()`` and ``from time import time; time()`` calls."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "time"
        and isinstance(func.value, ast.Name)
        and func.value.id == "time"
    ):
        return True
    return isinstance(func, ast.Name) and func.id == "time"


def _lint_wall_clock_calls(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):
        if _is_wall_clock_call(node):
            yield Violation(
                relative,
                node.lineno,
                "RL003",
                "time.time() is wall-clock and jumps under NTP/DST; latency "
                "paths must use repro.observability.clock (perf_clock for "
                "durations, monotonic_time for span timestamps, wall_clock "
                "where civil time is genuinely meant)",
            )


def _is_thread_ctor(node: ast.AST) -> bool:
    """Match ``threading.Thread(...)`` / ``Thread(...)``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "Thread"
        and isinstance(func.value, ast.Name)
        and func.value.id == "threading"
    ) or (isinstance(func, ast.Name) and func.id == "Thread")


def _is_unnamed_thread_ctor(node: ast.AST) -> bool:
    """Match ``threading.Thread(...)`` / ``Thread(...)`` without ``name=``."""
    if not _is_thread_ctor(node):
        return False
    if any(keyword.arg is None for keyword in node.keywords):  # **kwargs: assume named
        return False
    return not any(keyword.arg == "name" for keyword in node.keywords)


def _lint_unnamed_threads(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):
        if _is_unnamed_thread_ctor(node):
            yield Violation(
                relative,
                node.lineno,
                "RL004",
                "threading.Thread(...) without name=; anonymous threads are "
                "unattributable in span tids, health reports and "
                "threading.enumerate() dumps — pass name='repro-<role>'",
            )


def _lint_thread_ctors(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):
        if _is_thread_ctor(node):
            yield Violation(
                relative,
                node.lineno,
                "RL011",
                "threading.Thread(...) outside the transport; the control plane "
                "is evaluated on read and only repro.runtime.transport starts "
                "(shard worker) threads",
            )


def _lint_silent_excepts(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):
        if _is_broad_silent_except(node):
            yield Violation(
                relative,
                node.lineno,
                "RL002",
                "'except Exception: pass' silently swallows defects; use "
                "contextlib.suppress(<specific errors>) or handle/log the "
                "exception",
            )


def _lint_exposition_headers(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):  # f-string parts are Constant nodes too
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and any(marker in node.value for marker in EXPOSITION_HEADERS)
        ):
            yield Violation(
                relative,
                node.lineno,
                "RL005",
                "exposition header text outside the one writer; declare a "
                "Family row and hand its samples to "
                "repro.observability.registry.exposition()",
            )


def _imports_package(node: ast.AST, packages: Sequence[str]) -> bool:
    """Match an absolute import of any of ``packages`` or their submodules."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        modules = [node.module or ""]
        if node.module == "repro":
            modules += [f"repro.{alias.name}" for alias in node.names]
    else:
        return False
    return any(m == p or m.startswith(p + ".") for m in modules for p in packages)


def _lint_runtime_imports(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):
        if _imports_package(node, ("repro.runtime",)):
            yield Violation(
                relative,
                node.lineno,
                "RL005",
                "this package sits below repro.runtime and may not import it; "
                "metric families and sets live in repro.observability.registry",
            )


def _imports_struct(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "struct" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "struct"


def _lint_struct_imports(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):
        if _imports_struct(node):
            yield Violation(
                relative,
                node.lineno,
                "RL006",
                "struct imported outside the gateway's codec modules; the one "
                "packed record layout is repro.gateway.protocol's (pack_tuples / "
                "decode_message) — use it, or move it, rather than writing a "
                "second byte layout",
            )


def _is_call_to(node: ast.AST, name: str) -> bool:
    """Match ``name(...)`` and ``<anything>.name(...)`` calls."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return called == name


def _lint_append_control_calls(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):
        if _is_call_to(node, "append_control"):
            yield Violation(
                relative,
                node.lineno,
                "RL007",
                "append_control() called outside the durability manager; "
                "controls reach the journal through the engine's control tap "
                "(DurabilityManager.attach), whichever caller made them",
            )


def _lint_apply_control_calls(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):
        if _is_call_to(node, "apply_engine_control"):
            yield Violation(
                relative,
                node.lineno,
                "RL008",
                "apply_engine_control() called outside the replay module; "
                "recovery and replay re-apply journal entries through "
                "repro.persistence.replay.apply_log_entry, the one log applier",
            )


def _lint_carrier_imports(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):
        if _imports_package(node, CARRIER_FORBIDDEN_IMPORTS):
            yield Violation(
                relative,
                node.lineno,
                "RL010",
                "a transport carries messages and may not import repro.cep or "
                "repro.observability; engine state, progress and telemetry are "
                "read through the shard protocol (repro.runtime.shard)",
            )


def _is_backpressure_raise(node: ast.AST) -> bool:
    """Match ``raise BackpressureError`` with or without a call or a module."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    name = raised.attr if isinstance(raised, ast.Attribute) else getattr(raised, "id", None)
    return name == "BackpressureError"


def _lint_load_shedding(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    # A string that is a whole statement documents; it cannot select a policy.
    documentation = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    for node in ast.walk(tree):
        if _is_backpressure_raise(node):
            found = "raise BackpressureError"
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in documentation
            and any(name in node.value for name in DROP_POLICY_NAMES)
        ):
            found = f"drop policy literal {node.value!r}"
        else:
            continue
        yield Violation(
            relative,
            node.lineno,
            "RL012",
            f"{found} outside {LOAD_SHEDDER}; tuples are dropped or refused at "
            "the gateway's edge only (TenantConfig.policy) — below it a producer "
            "waits for its shards",
        )


def _lint_gate_calls(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):
        if _is_call_to(node, "gate_deployment"):
            yield Violation(
                relative,
                node.lineno,
                "RL013",
                f"gate_deployment() called outside {ANALYZER_GATE}; the session "
                "gates the very Query objects it then deploys, and engines and "
                "the detector deploy without analysing",
            )


def _lint_analyzer_imports(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):
        if _imports_package(node, ("repro.analysis",)):
            yield Violation(
                relative,
                node.lineno,
                "RL013",
                "this package deploys without analysing and may not import "
                f"repro.analysis; the deploy-time gate is {ANALYZER_GATE}'s",
            )


@lru_cache(maxsize=None)
def counter_fields() -> FrozenSet[str]:
    """The field names of ``MatcherStats``, read from the repository (RL014)."""
    tree = ast.parse((REPO_ROOT / COUNTER_OWNER).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == COUNTER_CLASS:
            return frozenset(
                statement.target.id
                for statement in node.body
                if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
            )
    return frozenset()


def _assignment_targets(node: ast.AST) -> Iterable[ast.AST]:
    """Every expression ``node`` assigns to, unpacking tuples and lists."""
    if isinstance(node, ast.Assign):
        pending = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        pending = [node.target]
    else:
        return
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending.extend(target.elts)
        elif isinstance(target, ast.Starred):
            pending.append(target.value)
        else:
            yield target


def _lint_counter_writes(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    fields = counter_fields()
    for node in ast.walk(tree):
        for target in _assignment_targets(node):
            if (
                isinstance(target, ast.Attribute)
                and target.attr in fields
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "stats"
            ):
                yield Violation(
                    relative,
                    target.lineno,
                    "RL014",
                    f"matcher counter '{target.attr}' written outside {COUNTER_OWNER}; "
                    "a matcher counts its own tuples (NFAMatcher.process), and what an "
                    "engine counts in bulk goes through NFAMatcher.settle",
                )


def _is_waiting(node: ast.AST) -> bool:
    """Whether ``node`` is ``<x>.waiting`` or an item of it, at any depth."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "waiting"


def _lint_run_table_writes(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Delete) else _assignment_targets(node)
        written = [
            target
            for target in targets
            if (isinstance(target, ast.Attribute) and target.attr in RUN_TABLE_FIELDS)
            or (isinstance(target, ast.Subscript) and _is_waiting(target.value))
        ]
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in LIST_MUTATORS
            and _is_waiting(node.func.value)
        ):
            written.append(node)
        for target in written:
            yield Violation(
                relative,
                target.lineno,
                "RL015",
                f"run table written outside {RUN_TABLE_OWNER}; read a table's "
                "'occupied' and 'oldest' (NFAMatcher.runs), and change runs only "
                "through the matcher",
            )


def lint_file(path: Path, root: Optional[Path] = None) -> List[Violation]:
    """Lint one Python file; returns its violations."""
    root = root or REPO_ROOT
    relative = str(path.relative_to(root)) if path.is_relative_to(root) else str(path)
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    violations: List[Violation] = []
    posix = Path(relative).as_posix()
    if any(posix.startswith(prefix) for prefix in HASH_FORBIDDEN_PATHS):
        violations.extend(_lint_hash_calls(path, tree, relative))
    if posix.startswith(SWALLOW_FORBIDDEN_PATH):
        violations.extend(_lint_silent_excepts(path, tree, relative))
    if posix.startswith(THREAD_NAME_REQUIRED_PATH):
        violations.extend(_lint_unnamed_threads(path, tree, relative))
    if (
        any(posix.startswith(prefix) for prefix in WALL_CLOCK_FORBIDDEN_PATHS)
        and posix != WALL_CLOCK_SANCTIONED
    ):
        violations.extend(_lint_wall_clock_calls(path, tree, relative))
    if posix.startswith("src/repro") and posix != EXPOSITION_WRITER:
        violations.extend(_lint_exposition_headers(path, tree, relative))
    if any(posix.startswith(prefix) for prefix in BELOW_RUNTIME_PATHS):
        violations.extend(_lint_runtime_imports(path, tree, relative))
    if posix.startswith(STRUCT_FORBIDDEN_PATH) and posix not in STRUCT_CODEC_MODULES:
        violations.extend(_lint_struct_imports(path, tree, relative))
    if posix != CONTROL_JOURNAL_WRITER:
        violations.extend(_lint_append_control_calls(path, tree, relative))
    if posix.startswith(CONTROL_REPLAY_GUARDED_PATH) and posix != CONTROL_JOURNAL_READER:
        violations.extend(_lint_apply_control_calls(path, tree, relative))
    if posix == MESSAGE_CARRIER:
        violations.extend(_lint_carrier_imports(path, tree, relative))
    if posix.startswith(THREAD_FORBIDDEN_PATH) and posix != THREAD_STARTER:
        violations.extend(_lint_thread_ctors(path, tree, relative))
    if posix.startswith(LOAD_SHED_GUARDED_PATH) and not posix.startswith(LOAD_SHEDDER):
        violations.extend(_lint_load_shedding(path, tree, relative))
    if posix.startswith(ANALYZER_GATE_GUARDED_PATH) and posix != ANALYZER_GATE:
        violations.extend(_lint_gate_calls(path, tree, relative))
    if any(posix.startswith(prefix + "/") for prefix in UNANALYSED_PATHS):
        violations.extend(_lint_analyzer_imports(path, tree, relative))
    if posix.startswith(COUNTER_GUARDED_PATH) and posix != COUNTER_OWNER:
        violations.extend(_lint_counter_writes(path, tree, relative))
    if posix.startswith(RUN_TABLE_GUARDED_PATH) and posix != RUN_TABLE_OWNER:
        violations.extend(_lint_run_table_writes(path, tree, relative))
    return violations


def _referenced_names(tree: ast.AST, imports: bool = True) -> Set[str]:
    """Every name ``tree`` reads: bare names, attribute names and (unless
    ``imports`` is false) the last component of every imported name."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif imports and isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def lint_orphans(root: Optional[Path] = None) -> List[Violation]:
    """RL009: public top-level names under ``src/repro`` that nothing but
    tests references."""
    root = root or REPO_ROOT
    modules = {
        path.relative_to(root).as_posix(): ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted((root / ORPHAN_GUARDED_PATH).rglob("*.py"))
    }
    consumers: Set[str] = set()
    for tree in ORPHAN_CONSUMER_ROOTS:
        for path in sorted((root / tree).rglob("*.py")):
            consumers |= _referenced_names(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    # An ``__init__`` import is a re-export, not a use.
    reads = {
        relative: _referenced_names(tree, imports=not relative.endswith("/__init__.py"))
        for relative, tree in modules.items()
    }
    violations: List[Violation] = []
    for relative, tree in modules.items():
        elsewhere = consumers.union(*(names for other, names in reads.items() if other != relative))
        statement_reads = [_referenced_names(statement) for statement in tree.body]
        for index, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in elsewhere:
                continue
            if relative in ORPHAN_KEEP or f"{relative}::{name}" in ORPHAN_KEEP:
                continue
            # Its own module counts, but not the definition's own body.
            if any(name in names for i, names in enumerate(statement_reads) if i != index):
                continue
            violations.append(
                Violation(
                    relative,
                    node.lineno,
                    "RL009",
                    f"public name {name!r} is reached only by tests; delete it with its "
                    "tests, or list it in ORPHAN_KEEP with a reason",
                )
            )
    return violations


def lint_repository(root: Optional[Path] = None) -> List[Violation]:
    """Lint every Python file under ``LINTED_ROOTS``, then the cross-module
    RL009; returns all violations."""
    root = root or REPO_ROOT
    violations: List[Violation] = []
    for tree in LINTED_ROOTS:
        for path in sorted((root / tree).rglob("*.py")):
            violations.extend(lint_file(path, root=root))
    violations.extend(lint_orphans(root))
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--list", action="store_true", help="print the rule catalogue and exit"
    )
    args = parser.parse_args(argv)
    if args.list:
        print("RL001  no builtin hash() under", ", ".join(HASH_FORBIDDEN_PATHS))
        print("RL002  no silent broad 'except: pass' under", SWALLOW_FORBIDDEN_PATH)
        print(
            "RL003  no time.time() under",
            ", ".join(WALL_CLOCK_FORBIDDEN_PATHS),
            f"(except {WALL_CLOCK_SANCTIONED})",
        )
        print(
            "RL004  every threading.Thread under",
            THREAD_NAME_REQUIRED_PATH,
            "must pass name=",
        )
        print(
            "RL005  '# HELP' / '# TYPE' literals only in",
            EXPOSITION_WRITER + ";",
            "no 'import repro.runtime' under",
            ", ".join(BELOW_RUNTIME_PATHS),
        )
        print(
            "RL006  'import struct' under",
            STRUCT_FORBIDDEN_PATH,
            "only in",
            ", ".join(STRUCT_CODEC_MODULES),
        )
        print("RL007  append_control( called only in", CONTROL_JOURNAL_WRITER)
        print(
            "RL008  apply_engine_control( under",
            CONTROL_REPLAY_GUARDED_PATH,
            "called only in",
            CONTROL_JOURNAL_READER,
        )
        print(
            "RL009  every public top-level name under",
            ORPHAN_GUARDED_PATH,
            "is referenced outside tests, or listed in ORPHAN_KEEP",
        )
        print(
            "RL010 ",
            MESSAGE_CARRIER,
            "imports nothing from",
            ", ".join(CARRIER_FORBIDDEN_IMPORTS),
        )
        print("RL011  threading.Thread( under", THREAD_FORBIDDEN_PATH, "only in", THREAD_STARTER)
        print(
            "RL012  raise BackpressureError and",
            " / ".join(repr(name) for name in DROP_POLICY_NAMES),
            "literals under",
            LOAD_SHED_GUARDED_PATH,
            "only in",
            LOAD_SHEDDER,
        )
        print(
            "RL013  gate_deployment( under",
            ANALYZER_GATE_GUARDED_PATH,
            "called only in",
            ANALYZER_GATE + ";",
            "no 'import repro.analysis' under",
            ", ".join(UNANALYSED_PATHS),
        )
        print(
            f"RL014  no assignment to <x>.stats.<{COUNTER_CLASS} field> under",
            COUNTER_GUARDED_PATH,
            "outside",
            COUNTER_OWNER,
        )
        print(
            "RL015  no write to",
            " / ".join(RUN_TABLE_FIELDS),
            "and no change to a .waiting[...] bucket under",
            RUN_TABLE_GUARDED_PATH,
            "outside",
            RUN_TABLE_OWNER,
        )
        return 0
    violations = lint_repository()
    for violation in violations:
        print(violation.describe())
    if violations:
        print(f"{len(violations)} repo-lint violation(s)", file=sys.stderr)
        return 1
    print("repo lint clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
