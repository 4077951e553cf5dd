#!/usr/bin/env python
"""Repository-specific lint rules that generic linters do not cover.

Nine rules, all born from real failure modes of this codebase:

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

Run as a script (CI) or through ``tests/test_repo_lint.py``::

    python tools/repo_lint.py            # lint the repository, exit 0/1
    python tools/repo_lint.py --list     # print the rule catalogue
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterable, List, NamedTuple, Optional, Sequence, Set

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


def _is_unnamed_thread_ctor(node: ast.AST) -> bool:
    """Match ``threading.Thread(...)`` / ``Thread(...)`` without ``name=``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    is_thread = (
        isinstance(func, ast.Attribute)
        and func.attr == "Thread"
        and isinstance(func.value, ast.Name)
        and func.value.id == "threading"
    ) or (isinstance(func, ast.Name) and func.id == "Thread")
    if not is_thread:
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


def _imports_runtime(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        modules = [node.module or ""]
        if node.module == "repro":
            modules += [f"repro.{alias.name}" for alias in node.names]
    else:
        return False
    return any(m == "repro.runtime" or m.startswith("repro.runtime.") for m in modules)


def _lint_runtime_imports(path: Path, tree: ast.AST, relative: str) -> Iterable[Violation]:
    for node in ast.walk(tree):
        if _imports_runtime(node):
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
