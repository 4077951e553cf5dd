"""The repo-specific lint (``tools/repo_lint.py``) and its rules.

Asserts both directions: the repository itself is clean, and the rules
actually fire on synthetic violations (so the clean result is not
vacuous).
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

from repo_lint import (  # noqa: E402 — path set up above
    ANALYZER_GATE,
    BELOW_RUNTIME_PATHS,
    CARRIER_FORBIDDEN_IMPORTS,
    CONTROL_JOURNAL_READER,
    CONTROL_JOURNAL_WRITER,
    COUNTER_OWNER,
    EXPOSITION_WRITER,
    HASH_FORBIDDEN_PATHS,
    LOAD_SHEDDER,
    MATCHER_DOORS,
    MESSAGE_CARRIER,
    ORPHAN_CONSUMER_ROOTS,
    ORPHAN_KEEP,
    REPO_ROOT,
    RUN_TABLE_OWNER,
    STRUCT_CODEC_MODULES,
    THREAD_FORBIDDEN_PATH,
    THREAD_STARTER,
    UNANALYSED_PATHS,
    WALL_CLOCK_FORBIDDEN_PATHS,
    counter_fields,
    lint_file,
    lint_orphans,
    lint_repository,
    main,
)


#: Every package of the tree RL011 guards, read from the repository.
GUARDED_PACKAGES = sorted(
    path.name
    for path in (REPO_ROOT / THREAD_FORBIDDEN_PATH).iterdir()
    if (path / "__init__.py").is_file()
)


def write_module(root: Path, relative: str, source: str) -> Path:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


class TestRepositoryIsClean:
    def test_lint_repository_clean(self):
        violations = lint_repository()
        assert violations == [], [v.describe() for v in violations]

    def test_cli_exit_zero(self, capsys):
        assert main([]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_list_catalogue(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for code in (
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007", "RL008", "RL009",
            "RL010", "RL011", "RL012", "RL013", "RL014", "RL015", "RL016",
        ):
            assert code in out

    def test_script_runs_standalone(self):
        result = subprocess.run(
            [sys.executable, str(TOOLS / "repo_lint.py")],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestRL001BuiltinHash:
    def test_hash_call_on_routing_path_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/runtime/bad_router.py",
            "def route(key, shards):\n    return hash(key) % shards\n",
        )
        violations = lint_file(path, root=tmp_path)
        assert [v.code for v in violations] == ["RL001"]
        assert violations[0].line == 2
        assert "stable_partition_hash" in violations[0].message

    @pytest.mark.parametrize("prefix", HASH_FORBIDDEN_PATHS)
    def test_every_forbidden_tree_is_covered(self, tmp_path, prefix):
        path = write_module(
            tmp_path, f"{prefix}/bad.py", "value = hash('x')\n"
        )
        assert [v.code for v in lint_file(path, root=tmp_path)] == ["RL001"]

    def test_repository_walk_reaches_benchmarks(self, tmp_path):
        # F5 once seeded its training data with hash(name) % 1000.
        write_module(
            tmp_path,
            "benchmarks/bench_bad.py",
            "def seed_for(name):\n    return hash(name) % 1000\n",
        )
        violations = lint_repository(root=tmp_path)
        assert [(v.path, v.line, v.code) for v in violations] == [
            ("benchmarks/bench_bad.py", 2, "RL001")
        ]

    def test_hash_call_elsewhere_allowed(self, tmp_path):
        path = write_module(
            tmp_path, "src/repro/core/ok.py", "value = hash('x')\n"
        )
        assert lint_file(path, root=tmp_path) == []

    def test_dunder_hash_definition_allowed(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/runtime/ok.py",
            "class Key:\n    def __hash__(self):\n        return 7\n",
        )
        assert lint_file(path, root=tmp_path) == []

    def test_attribute_hash_call_allowed(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/runtime/ok2.py",
            "import zlib\nvalue = zlib.crc32(b'x')\n",
        )
        assert lint_file(path, root=tmp_path) == []


class TestRL002SilentExcept:
    def test_bare_except_pass_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/util.py",
            "try:\n    work()\nexcept:\n    pass\n",
        )
        assert [v.code for v in lint_file(path, root=tmp_path)] == ["RL002"]

    def test_broad_except_exception_pass_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/util.py",
            "try:\n    work()\nexcept Exception:\n    pass\n",
        )
        assert [v.code for v in lint_file(path, root=tmp_path)] == ["RL002"]

    def test_tuple_with_base_exception_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/util.py",
            "try:\n    work()\nexcept (ValueError, BaseException):\n    pass\n",
        )
        assert [v.code for v in lint_file(path, root=tmp_path)] == ["RL002"]

    def test_specific_exception_pass_allowed(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/util.py",
            "try:\n    work()\nexcept OSError:\n    pass\n",
        )
        assert lint_file(path, root=tmp_path) == []

    def test_broad_except_with_handling_allowed(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/util.py",
            "try:\n    work()\nexcept Exception as exc:\n    log(exc)\n",
        )
        assert lint_file(path, root=tmp_path) == []

    def test_outside_src_repro_allowed(self, tmp_path):
        path = write_module(
            tmp_path,
            "benchmarks/bench.py",
            "try:\n    work()\nexcept Exception:\n    pass\n",
        )
        assert lint_file(path, root=tmp_path) == []


class TestRL003WallClock:
    def test_time_time_on_latency_path_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/runtime/bad_timer.py",
            "import time\nstarted = time.time()\n",
        )
        violations = lint_file(path, root=tmp_path)
        assert [v.code for v in violations] == ["RL003"]
        assert violations[0].line == 2
        assert "perf_clock" in violations[0].message

    def test_bare_time_import_call_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/gateway/bad_timer.py",
            "from time import time\nstarted = time()\n",
        )
        assert [v.code for v in lint_file(path, root=tmp_path)] == ["RL003"]

    @pytest.mark.parametrize("prefix", WALL_CLOCK_FORBIDDEN_PATHS)
    def test_every_forbidden_tree_is_covered(self, tmp_path, prefix):
        path = write_module(
            tmp_path, f"{prefix}/bad.py", "import time\nnow = time.time()\n"
        )
        assert [v.code for v in lint_file(path, root=tmp_path)] == ["RL003"]

    def test_clock_module_is_sanctioned(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/observability/clock.py",
            "import time\ndef wall_clock():\n    return time.time()\n",
        )
        assert lint_file(path, root=tmp_path) == []

    def test_monotonic_and_perf_counter_allowed(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/runtime/ok_timer.py",
            "import time\ndeadline = time.monotonic() + 5\n",
        )
        assert lint_file(path, root=tmp_path) == []

    def test_time_time_outside_latency_paths_allowed(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/detection/ok.py",
            "import time\nstamp = time.time()\n",
        )
        assert lint_file(path, root=tmp_path) == []


class TestRL004UnnamedThreads:
    # Threads are constructed in the transport only (RL011), so the naming
    # rule is exercised there.
    def test_unnamed_thread_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            THREAD_STARTER,
            "import threading\nworker = threading.Thread(target=print, daemon=True)\n",
        )
        violations = lint_file(path, root=tmp_path)
        assert [v.code for v in violations] == ["RL004"]
        assert violations[0].line == 2
        assert "name=" in violations[0].message

    def test_bare_thread_import_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            THREAD_STARTER,
            "from threading import Thread\nworker = Thread(target=print)\n",
        )
        assert [v.code for v in lint_file(path, root=tmp_path)] == ["RL004"]

    def test_named_thread_allowed(self, tmp_path):
        path = write_module(
            tmp_path,
            THREAD_STARTER,
            "import threading\n"
            "worker = threading.Thread(target=print, name='repro-worker', daemon=True)\n",
        )
        assert lint_file(path, root=tmp_path) == []

    def test_kwargs_splat_assumed_named(self, tmp_path):
        path = write_module(
            tmp_path,
            THREAD_STARTER,
            "import threading\n"
            "def spawn(**kwargs):\n"
            "    return threading.Thread(target=print, **kwargs)\n",
        )
        assert lint_file(path, root=tmp_path) == []

    def test_outside_src_repro_allowed(self, tmp_path):
        path = write_module(
            tmp_path,
            "tools/helper.py",
            "import threading\nworker = threading.Thread(target=print)\n",
        )
        assert lint_file(path, root=tmp_path) == []


class TestRL005OneExpositionWriter:
    def test_plain_header_literal_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/gateway/bad_render.py",
            "lines = []\nlines.append('# TYPE repro_x_total counter')\n",
        )
        violations = lint_file(path, root=tmp_path)
        assert [v.code for v in violations] == ["RL005"]
        assert violations[0].line == 2
        assert "exposition()" in violations[0].message

    def test_header_inside_f_string_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/runtime/bad_render.py",
            "def header(name, text):\n    return f'# HELP {name} {text}'\n",
        )
        assert [v.code for v in lint_file(path, root=tmp_path)] == ["RL005"]

    def test_registry_module_is_the_sanctioned_writer(self, tmp_path):
        path = write_module(
            tmp_path,
            EXPOSITION_WRITER,
            "def header(name, kind):\n    return f'# TYPE {name} {kind}'\n",
        )
        assert lint_file(path, root=tmp_path) == []

    def test_other_comment_like_strings_and_other_trees_allowed(self, tmp_path):
        inside = write_module(
            tmp_path, "src/repro/gateway/ok.py", "banner = '# help wanted; # types vary'\n"
        )
        outside = write_module(
            tmp_path, "benchmarks/parse.py", "wanted = line.startswith('# TYPE')\n"
        )
        assert lint_file(inside, root=tmp_path) == []
        assert lint_file(outside, root=tmp_path) == []

    @pytest.mark.parametrize("prefix", BELOW_RUNTIME_PATHS)
    @pytest.mark.parametrize(
        "statement",
        [
            "from repro.runtime.metrics import MetricsRegistry",
            "import repro.runtime.queues",
            "from repro import runtime",
            "def late():\n    from repro.runtime import ShardedRuntime",
        ],
    )
    def test_runtime_import_below_the_runtime_flagged(self, tmp_path, prefix, statement):
        path = write_module(tmp_path, f"{prefix}/bad.py", statement + "\n")
        violations = lint_file(path, root=tmp_path)
        assert [v.code for v in violations] == ["RL005"]
        assert "below repro.runtime" in violations[0].message

    def test_runtime_import_above_and_lookalikes_allowed(self, tmp_path):
        above = write_module(
            tmp_path,
            "src/repro/gateway/ok.py",
            "from repro.runtime.queues import BackpressurePolicy\n",
        )
        lookalike = write_module(
            tmp_path,
            "src/repro/persistence/ok.py",
            "from repro.observability.registry import MetricSet\n"
            "from repro import runtime_notes\n"
            "from . import runtime\n",
        )
        assert lint_file(above, root=tmp_path) == []
        assert lint_file(lookalike, root=tmp_path) == []


class TestRL006OnePackedCodec:
    @pytest.mark.parametrize(
        "statement",
        [
            "import struct",
            "import json, struct as s",
            "from struct import Struct",
            "def late():\n    import struct",
        ],
    )
    @pytest.mark.parametrize(
        "relative", ["src/repro/gateway/client.py", "src/repro/runtime/transport.py"]
    )
    def test_struct_import_outside_the_codec_modules_flagged(self, tmp_path, relative, statement):
        path = write_module(tmp_path, relative, statement + "\n")
        violations = lint_file(path, root=tmp_path)
        assert [v.code for v in violations] == ["RL006"]
        assert "repro.gateway.protocol" in violations[0].message

    @pytest.mark.parametrize("relative", STRUCT_CODEC_MODULES)
    def test_codec_modules_may_import_struct(self, tmp_path, relative):
        path = write_module(tmp_path, relative, "import struct\nHEAD = struct.Struct('>I')\n")
        assert lint_file(path, root=tmp_path) == []

    def test_lookalikes_and_other_trees_allowed(self, tmp_path):
        lookalike = write_module(
            tmp_path,
            "src/repro/gateway/ok.py",
            "import structlog\nfrom . import struct\nfrom repro.struct import Layout\n",
        )
        outside = write_module(tmp_path, "benchmarks/wire.py", "import struct\n")
        assert lint_file(lookalike, root=tmp_path) == []
        assert lint_file(outside, root=tmp_path) == []


class TestRL007ControlsJournalledAtTheEngine:
    @pytest.mark.parametrize(
        "relative",
        ["src/repro/api/session.py", "src/repro/detection/detector.py", "benchmarks/e2e/x.py"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            "self._durability.log.append_control('deploy', {})",
            "append_control('clear', {})",
        ],
    )
    def test_append_control_outside_the_manager_flagged(self, tmp_path, relative, call):
        path = write_module(tmp_path, relative, f"def f(self):\n    {call}\n")
        violations = lint_file(path, root=tmp_path)
        assert [v.code for v in violations] == ["RL007"]
        assert "control tap" in violations[0].message

    def test_the_manager_and_the_definition_allowed(self, tmp_path):
        manager = write_module(
            tmp_path,
            CONTROL_JOURNAL_WRITER,
            "def tap(self, op, p):\n    self.log.append_control(op, p)\n",
        )
        definition = write_module(
            tmp_path,
            "src/repro/persistence/log.py",
            "def append_control(self, op, p):\n    return 0\n",
        )
        assert lint_file(manager, root=tmp_path) == []
        assert lint_file(definition, root=tmp_path) == []


class TestRL008OneLogApplier:
    @pytest.mark.parametrize(
        "relative",
        [
            "src/repro/api/session.py",
            "src/repro/persistence/manager.py",
            "src/repro/gateway/tenants.py",
        ],
    )
    @pytest.mark.parametrize(
        "call",
        [
            "apply_engine_control(self._engine, control, payload)",
            "replay.apply_engine_control(engine, 'clear', {})",
        ],
    )
    def test_apply_engine_control_outside_the_replay_module_flagged(self, tmp_path, relative, call):
        path = write_module(tmp_path, relative, f"def f(self, engine, control, payload):\n    {call}\n")
        violations = lint_file(path, root=tmp_path)
        assert [v.code for v in violations] == ["RL008"]
        assert "apply_log_entry" in violations[0].message

    def test_the_replay_module_tests_and_imports_allowed(self, tmp_path):
        reader = write_module(
            tmp_path,
            CONTROL_JOURNAL_READER,
            "def apply_engine_control(target, control, payload):\n    return None\n\n"
            "def apply_log_entry(target, entry):\n"
            "    apply_engine_control(target, entry.control, entry.payload)\n",
        )
        test = write_module(
            tmp_path,
            "tests/test_x.py",
            "from repro.persistence import apply_engine_control\n"
            "def test(engine):\n    apply_engine_control(engine, 'clear', {})\n",
        )
        reexport = write_module(
            tmp_path,
            "src/repro/persistence/__init__.py",
            "from repro.persistence.replay import apply_engine_control\n",
        )
        assert lint_file(reader, root=tmp_path) == []
        assert lint_file(test, root=tmp_path) == []
        assert lint_file(reexport, root=tmp_path) == []


class TestRL009NoPublicNameOnlyTestsReach:
    WIDGETS = (
        "def used():\n    return 1\n\n"
        "def orphan():\n    return orphan\n\n"
        "class Helper:\n    pass\n\n"
        "def caller():\n    return Helper()\n\n"
        "def _private():\n    return 0\n"
    )

    def plant(self, root: Path) -> None:
        write_module(root, "src/repro/widgets.py", self.WIDGETS)
        write_module(root, "src/repro/app.py", "from repro.widgets import caller, used\nused()\n")
        write_module(
            root, "tests/test_widgets.py", "from repro.widgets import orphan\nassert orphan()\n"
        )

    def test_a_name_only_tests_reach_is_flagged(self, tmp_path):
        self.plant(tmp_path)
        violations = lint_orphans(root=tmp_path)
        assert [(v.path, v.line, v.code) for v in violations] == [
            ("src/repro/widgets.py", 4, "RL009")
        ]
        assert "'orphan'" in violations[0].message
        assert "ORPHAN_KEEP" in violations[0].message

    def test_lint_repository_runs_the_rule(self, tmp_path):
        self.plant(tmp_path)
        assert [v.code for v in lint_repository(root=tmp_path)] == ["RL009"]

    def test_an_init_re_export_is_not_a_use(self, tmp_path):
        self.plant(tmp_path)
        write_module(tmp_path, "src/repro/__init__.py", "from repro.widgets import orphan\n")
        assert [v.path for v in lint_orphans(root=tmp_path)] == ["src/repro/widgets.py"]

    @pytest.mark.parametrize("tree", ORPHAN_CONSUMER_ROOTS)
    def test_a_consumer_tree_keeps_a_name(self, tmp_path, tree):
        self.plant(tmp_path)
        write_module(tmp_path, f"{tree}/uses.py", "import repro.widgets\nrepro.widgets.orphan()\n")
        assert lint_orphans(root=tmp_path) == []

    def test_another_product_module_keeps_a_name(self, tmp_path):
        self.plant(tmp_path)
        write_module(tmp_path, "src/repro/more.py", "from repro.widgets import orphan as o\n")
        assert lint_orphans(root=tmp_path) == []

    def test_a_mention_in_a_string_is_not_a_use(self, tmp_path):
        self.plant(tmp_path)
        write_module(tmp_path, "tools/report.py", 'print("orphan")\n# orphan()\n')
        assert [v.message.split("'")[1] for v in lint_orphans(root=tmp_path)] == ["orphan"]

    def test_an_async_function_is_checked(self, tmp_path):
        self.plant(tmp_path)
        write_module(tmp_path, "src/repro/jobs.py", "async def lonely():\n    return 1\n")
        assert [(v.path, v.line) for v in lint_orphans(root=tmp_path)] == [
            ("src/repro/jobs.py", 1),
            ("src/repro/widgets.py", 4),
        ]

    def test_methods_and_nested_functions_are_not_checked(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/widgets.py",
            "class Used:\n    def unused_method(self):\n        def inner():\n"
            "            return 1\n        return inner\n",
        )
        write_module(tmp_path, "examples/demo.py", "from repro.widgets import Used\nUsed()\n")
        assert lint_orphans(root=tmp_path) == []

    def test_keep_listed_names_are_not_flagged(self, tmp_path):
        named = next(key for key in ORPHAN_KEEP if "::" in key)
        module, name = named.split("::")
        whole = next(key for key in ORPHAN_KEEP if "::" not in key)
        write_module(tmp_path, module, f"def {name}():\n    return 1\n")
        write_module(tmp_path, whole, "def anything():\n    return 1\n")
        assert lint_orphans(root=tmp_path) == []
        write_module(tmp_path, module, f"def {name}():\n    return 1\n\ndef unlisted():\n    pass\n")
        assert [v.message.split("'")[1] for v in lint_orphans(root=tmp_path)] == ["unlisted"]

    def test_every_keep_entry_names_code_that_exists(self):
        root = Path(__file__).resolve().parent.parent
        for key, reason in ORPHAN_KEEP.items():
            module, _, name = key.partition("::")
            assert (root / module).is_file(), key
            assert reason.strip(), key
            if name:
                tree = ast.parse((root / module).read_text(encoding="utf-8"))
                assert name in {getattr(node, "name", None) for node in tree.body}, key


class TestRL010ATransportCarriesMessages:
    REAL = Path(__file__).resolve().parent.parent / MESSAGE_CARRIER

    def test_the_real_transport_module_is_clean(self):
        assert lint_file(self.REAL) == []

    def test_a_planted_engine_import_is_flagged(self, tmp_path):
        source = self.REAL.read_text(encoding="utf-8").replace(
            "from repro.errors import SerializationError\n",
            "from repro.cep.engine import CEPEngine\nfrom repro.errors import SerializationError\n",
        )
        path = write_module(tmp_path, MESSAGE_CARRIER, source)
        violations = lint_file(path, root=tmp_path)
        assert [v.code for v in violations] == ["RL010"]
        assert "shard protocol" in violations[0].message

    @pytest.mark.parametrize("package", CARRIER_FORBIDDEN_IMPORTS)
    @pytest.mark.parametrize(
        "statement",
        ["import {p}", "from {p}.x import Y", "def late():\n    import {p}.x"],
    )
    def test_every_spelling_of_a_forbidden_import_is_flagged(self, tmp_path, package, statement):
        path = write_module(tmp_path, MESSAGE_CARRIER, statement.format(p=package) + "\n")
        assert [v.code for v in lint_file(path, root=tmp_path)] == ["RL010"]

    def test_other_modules_and_lookalikes_allowed(self, tmp_path):
        shard = write_module(
            tmp_path, "src/repro/runtime/shard.py", "from repro.cep.engine import CEPEngine\n"
        )
        lookalike = write_module(
            tmp_path,
            MESSAGE_CARRIER,
            "from repro.errors import SerializationError\nfrom repro.runtime.shard import worker_loop\n"
            "import repro.cepx\n",
        )
        assert lint_file(shard, root=tmp_path) == []
        assert lint_file(lookalike, root=tmp_path) == []


class TestRL011ThreadsStartInTheTransportOnly:
    @pytest.mark.parametrize(
        "relative, source",
        [
            (
                "src/repro/observability/sampler.py",
                "import threading\n"
                "beat = threading.Thread(target=print, name='repro-metrics-sampler')\n",
            ),
            (
                "src/repro/api/session.py",
                "from threading import Thread\nbeat = Thread(target=print, name='repro-beat')\n",
            ),
            (
                "src/repro/runtime/shard.py",
                "import threading\n"
                "def spawn(**kwargs):\n"
                "    return threading.Thread(target=print, **kwargs)\n",
            ),
        ],
    )
    def test_a_thread_outside_the_transport_is_flagged(self, tmp_path, relative, source):
        path = write_module(tmp_path, relative, source)
        violations = lint_file(path, root=tmp_path)
        assert [v.code for v in violations] == ["RL011"]
        assert "transport" in violations[0].message

    def test_an_unnamed_thread_outside_the_transport_breaks_both_rules(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/gateway/poller.py",
            "import threading\nworker = threading.Thread(target=print)\n",
        )
        assert sorted(v.code for v in lint_file(path, root=tmp_path)) == ["RL004", "RL011"]

    def test_the_transport_and_other_trees_may_start_threads(self, tmp_path):
        source = "import threading\nworker = threading.Thread(target=print, name='repro-x')\n"
        transport = write_module(tmp_path, THREAD_STARTER, source)
        tool = write_module(tmp_path, "tools/helper.py", source)
        bench = write_module(tmp_path, "benchmarks/e2e/load.py", source)
        lookalike = write_module(
            tmp_path,
            "src/repro/runtime/timer.py",
            "import threading\ntimer = threading.Timer(1.0, print)\nlock = threading.Lock()\n",
        )
        for path in (transport, tool, bench, lookalike):
            assert lint_file(path, root=tmp_path) == []

    @pytest.mark.parametrize("package", GUARDED_PACKAGES)
    def test_every_package_is_covered(self, tmp_path, package):
        path = write_module(
            tmp_path,
            f"{THREAD_FORBIDDEN_PATH}/{package}/poller.py",
            "import threading\n"
            "class Poller:\n"
            "    def start(self):\n"
            "        threading.Thread(target=print, name='repro-poller').start()\n",
        )
        violations = lint_file(path, root=tmp_path)
        assert [(v.code, v.line) for v in violations] == [("RL011", 4)]

    def test_the_real_transport_would_be_flagged_anywhere_else(self, tmp_path):
        # The exemption is not vacuous: the transport does start threads.
        source = (REPO_ROOT / THREAD_STARTER).read_text(encoding="utf-8")
        moved = write_module(tmp_path, f"{THREAD_FORBIDDEN_PATH}/runtime/workers.py", source)
        codes = [v.code for v in lint_file(moved, root=tmp_path)]
        assert codes and set(codes) == {"RL011"}


class TestRL012LoadIsShedAtTheEdgeOnly:
    @pytest.mark.parametrize(
        "relative, source, line",
        [
            (
                "src/repro/runtime/shard.py",
                "from repro.errors import BackpressureError\n"
                "def admit(full):\n"
                "    if full:\n"
                "        raise BackpressureError('shard is full')\n",
                4,
            ),
            (
                "src/repro/runtime/sharded.py",
                "from repro import errors\nraise errors.BackpressureError\n",
                2,
            ),
            (
                "src/repro/api/session.py",
                "class Config:\n    backpressure: str = 'drop_newest'\n",
                2,
            ),
            (
                "src/repro/runtime/queues.py",
                "SHARD = ('block', 'drop_newest', 'error')\n",
                1,
            ),
            (
                "src/repro/api/session.py",
                "def check(policy):\n"
                "    raise ValueError(f\"{policy!r}: 'drop_oldest' is an edge policy\")\n",
                2,
            ),
        ],
    )
    def test_a_drop_point_below_the_edge_is_flagged(self, tmp_path, relative, source, line):
        path = write_module(tmp_path, relative, source)
        violations = lint_file(path, root=tmp_path)
        assert [(v.code, v.line) for v in violations] == [("RL012", line)]
        assert "gateway's edge" in violations[0].message

    def test_the_gateway_docstrings_and_other_trees_may_name_drops(self, tmp_path):
        source = (
            "from repro.errors import BackpressureError\n"
            "POLICIES = ('block', 'drop_oldest', 'drop_newest', 'error')\n"
            "def admit(full):\n"
            "    if full:\n"
            "        raise BackpressureError('full')\n"
        )
        edge = write_module(tmp_path, f"{LOAD_SHEDDER}tenants.py", source)
        tool = write_module(tmp_path, "tools/drops.py", source)
        bench = write_module(tmp_path, "benchmarks/e2e/drops.py", source)
        documented = write_module(
            tmp_path,
            "src/repro/runtime/shard.py",
            '"""Shards never ``drop_newest``: only the edge drops."""\n'
            "from repro.errors import BackpressureError\n"
            "def admit():\n"
            '    """No ``drop_oldest`` here either."""\n'
            "    try:\n"
            "        pass\n"
            "    except BackpressureError:\n"
            "        raise\n"
            "DROPPED = 'dropped'\n",
        )
        for path in (edge, tool, bench, documented):
            assert lint_file(path, root=tmp_path) == []


class TestRL013TheAnalyzerGatesAtTheSessionOnly:
    @pytest.mark.parametrize(
        "relative, source, lines",
        [
            (
                "src/repro/cep/engine.py",
                "def register_query(self, query, analyze='off'):\n"
                "    if analyze != 'off':\n"
                "        from repro.analysis import gate_deployment\n"
                "        gate_deployment(self, {'q': query}, analyze)\n",
                [3, 4],
            ),
            (
                "src/repro/runtime/sharded.py",
                "import repro.analysis.vocabulary as vocabulary\n",
                [1],
            ),
            (
                "src/repro/detection/detector.py",
                "from repro import analysis\n",
                [1],
            ),
            (
                "src/repro/gateway/tenants.py",
                "def deploy(session, queries):\n"
                "    session.analysis.gate_deployment(session.engine, queries, 'strict')\n",
                [2],
            ),
        ],
        ids=["engine-lazy-gate", "runtime-import", "detector-import", "gateway-call"],
    )
    def test_a_second_gate_is_flagged(self, tmp_path, relative, source, lines):
        path = write_module(tmp_path, relative, source)
        violations = lint_file(path, root=tmp_path)
        assert sorted((v.code, v.line) for v in violations) == [("RL013", n) for n in lines]
        assert ANALYZER_GATE in violations[0].message

    def test_the_session_gates_and_other_layers_may_read_the_analyzer(self, tmp_path):
        gate = write_module(
            tmp_path,
            ANALYZER_GATE,
            "from repro.analysis import gate_deployment\n"
            "def deploy(session, queries, mode):\n"
            "    gate_deployment(session.engine, queries, mode)\n",
        )
        definition = write_module(
            tmp_path,
            "src/repro/analysis/vocabulary.py",
            "def gate_deployment(engine, queries, mode, subject='vocabulary'):\n"
            "    return ()\n",
        )
        reader = write_module(
            tmp_path,
            "src/repro/gateway/cli.py",
            "from repro.analysis import ANALYZE_MODES\n",
        )
        tool = write_module(
            tmp_path,
            "tools/lint_vocabulary.py",
            "from repro.analysis import gate_deployment\ngate_deployment(None, {}, 'warn')\n",
        )
        for path in (gate, definition, reader, tool):
            assert lint_file(path, root=tmp_path) == []

    def test_the_guarded_packages_exist(self):
        for prefix in UNANALYSED_PATHS:
            assert (REPO_ROOT / prefix / "__init__.py").is_file()
        assert (REPO_ROOT / ANALYZER_GATE).is_file()


class TestRL014OneDoorToTheMatcherCounters:
    def test_the_fields_are_read_from_the_matcher(self):
        assert {"tuples_processed", "predicate_evaluations", "gate_rejections"} <= counter_fields()
        assert not {"pushed", "dropped"} & counter_fields()

    @pytest.mark.parametrize(
        "source, lines",
        [
            (
                "def skip(matcher, cost):\n"
                "    matcher.stats.tuples_processed += 1\n"
                "    matcher.stats.predicate_evaluations += cost\n",
                [2, 3],
            ),
            ("def zero(deployed):\n    deployed.matcher.stats.detections = 0\n", [2]),
            ("def both(a, b):\n    a.stats.runs_pruned, b.stats.runs_evicted = 1, 2\n", [2, 2]),
            ("def typed(matcher):\n    matcher.stats.gate_rejections: int = 0\n", [2]),
        ],
        ids=["augmented", "assigned", "unpacked", "annotated"],
    )
    def test_a_counter_written_outside_the_matcher_is_flagged(self, tmp_path, source, lines):
        path = write_module(tmp_path, "src/repro/cep/engine.py", source)
        violations = lint_file(path, root=tmp_path)
        assert sorted((v.code, v.line) for v in violations) == [("RL014", n) for n in lines]
        assert COUNTER_OWNER in violations[0].message

    def test_other_stats_reads_and_the_matcher_itself_are_allowed(self, tmp_path):
        stream = write_module(
            tmp_path,
            "src/repro/streams/stream.py",
            "def push(self, item):\n"
            "    self.stats.pushed += 1\n"
            "    self.stats.dropped = 0\n",
        )
        reader = write_module(
            tmp_path,
            "src/repro/evaluation/harness.py",
            "def evaluations(deployed):\n"
            "    total = deployed.matcher.stats.predicate_evaluations\n"
            "    deployed.stats = None\n"
            "    return total\n",
        )
        owner = write_module(
            tmp_path,
            COUNTER_OWNER,
            "def settle(self, tuples):\n    self.stats.tuples_processed += tuples\n",
        )
        outside = write_module(
            tmp_path, "benchmarks/bench_x.py", "def f(m):\n    m.stats.detections = 0\n"
        )
        for path in (stream, reader, owner, outside):
            assert lint_file(path, root=tmp_path) == []


class TestRL015OneDoorToTheRunTables:
    @pytest.mark.parametrize(
        "source, lines",
        [
            ("def tighten(part, now):\n    part.oldest = now\n", [2]),
            ("def mark(part, step):\n    part.occupied |= 1 << step\n", [2]),
            ("def reorder(a, b):\n    a.latest, b.ordered = 0.0, True\n", [2, 2]),
            ("def drop(part):\n    del part.waiting\n", [2]),
            ("def swap(part, runs):\n    part.waiting[1] = runs\n", [2]),
            ("def cut(part):\n    del part.waiting[1][:3]\n", [2]),
            (
                "def grow(matcher, run):\n"
                "    matcher.runs[7].waiting[1].append(run)\n"
                "    matcher.runs[7].waiting[2].sort(key=len)\n",
                [2, 3],
            ),
        ],
        ids=[
            "assigned", "augmented", "unpacked", "deleted", "bucket-set", "bucket-del", "bucket-method"
        ],
    )
    def test_a_run_table_written_outside_the_matcher_is_flagged(self, tmp_path, source, lines):
        path = write_module(tmp_path, "src/repro/cep/engine.py", source)
        violations = lint_file(path, root=tmp_path)
        assert sorted((v.code, v.line) for v in violations) == [("RL015", n) for n in lines]
        assert RUN_TABLE_OWNER in violations[0].message

    def test_reads_counts_the_matcher_itself_and_other_trees_are_allowed(self, tmp_path):
        reader = write_module(
            tmp_path,
            "src/repro/cep/engine.py",
            "def enter(self, part):\n"
            "    self.count += 1\n"
            "    expiry = part.oldest + part.occupied\n"
            "    waiting = [len(bucket) for bucket in part.waiting]\n"
            "    first = part.waiting[1][0]\n"
            "    return expiry, waiting, first, sorted(part.waiting[1], key=id)\n",
        )
        owner = write_module(
            tmp_path,
            RUN_TABLE_OWNER,
            "def prune(part, cut):\n    del part.waiting[1][:cut]\n    part.oldest = 0.0\n",
        )
        outside = write_module(
            tmp_path, "benchmarks/e2e/tracing.py", "def f(self):\n    self.waiting = set()\n"
        )
        for path in (reader, owner, outside):
            assert lint_file(path, root=tmp_path) == []


class TestRL016OneDoorToTheMatcherEntryPoints:
    @pytest.mark.parametrize(
        "source, lines",
        [
            ("def feed(matcher, record):\n    return matcher.process(record, 's')\n", [2]),
            (
                "def chunk(deployed, records):\n"
                "    return deployed.matcher.process_batch(records, 's')\n",
                [2],
            ),
            ("def skip(matcher):\n    matcher.settle('s', 3, 0)\n", [2]),
            ("def reclaim(queries, now):\n    [q.matcher.sweep(now) for q in queries]\n", [2]),
            ("def hook(matcher, state):\n    matcher.release = state.release\n", [2]),
            ("def unhook(a, b):\n    a.release, b.release = None, None\n", [2, 2]),
        ],
        ids=["process", "process_batch", "settle", "sweep", "hook", "unpacked-hook"],
    )
    def test_a_matcher_entered_outside_the_fanout_is_flagged(self, tmp_path, source, lines):
        path = write_module(tmp_path, "src/repro/cep/engine.py", source)
        violations = lint_file(path, root=tmp_path)
        assert sorted((v.code, v.line) for v in violations) == [("RL016", n) for n in lines]
        assert all(door in violations[0].message for door in MATCHER_DOORS)

    def test_the_doors_reads_and_other_trees_are_allowed(self, tmp_path):
        reader = write_module(
            tmp_path,
            "src/repro/api/session.py",
            "def look(matcher, state):\n"
            "    state.released = matcher.release\n"
            "    return matcher.process, matcher.stats, state.release()\n",
        )
        doors = [
            write_module(
                tmp_path,
                door,
                "def deliver(member, record, now):\n"
                "    member.matcher.release = None\n"
                "    member.matcher.settle('s', 1, 0)\n"
                "    member.matcher.sweep(now)\n"
                "    return member.matcher.process(record, 's')\n",
            )
            for door in MATCHER_DOORS
        ]
        outside = write_module(
            tmp_path,
            "benchmarks/e2e/tracing.py",
            "def f(matcher, records):\n    return matcher.process_batch(records, 's')\n",
        )
        for path in (reader, *doors, outside):
            assert lint_file(path, root=tmp_path) == []
