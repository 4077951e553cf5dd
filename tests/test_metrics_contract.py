"""The metrics contract: what readers of ``snapshot()`` and ``/metrics`` see.

* **Golden output.**  A fixed write script against a registry (three
  shards, durability, a registry histogram, a query-stats provider) and a
  :class:`GatewayMetrics` must produce exactly the ``snapshot()`` JSON and
  exposition text captured from the commit before the metrics modules
  were rebuilt on family rows (``tests/data/metrics_golden``).  Those
  files are the telemetry schema: the e2e harness, the health rules'
  durability counters and ``/metrics?format=json`` consumers read these
  keys by name.
* **One declaration per metric.**  Every family table is well formed,
  names are unique across tables, and ``docs/observability.md`` lists each.
* **Property.**  Concurrent ``add`` / ``raise_to`` / ``observe`` from 1–4
  threads lose nothing, and an exposition of N sets has one header per
  family.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import tomllib
from pathlib import Path

from hypothesis import given, settings, strategies as st

import repro
from repro.gateway.metrics import GATEWAY_FAMILIES, GatewayMetrics
from repro.gateway.server import GATEWAY_SCRAPE_DURATION
from repro.gateway.tenants import TENANT_FAMILIES
from repro.observability.registry import BUILD_INFO, Family, MetricSet, exposition
from repro.persistence.log import DURABILITY_FAMILIES
from repro.runtime.metrics import (
    INGEST_TO_DETECTION,
    QUERY_FAMILIES,
    SCRAPE_DURATION,
    SHARD_FAMILIES,
    MetricsRegistry,
)

GOLDEN = Path(__file__).parent / "data" / "metrics_golden"
DOCS = Path(__file__).parent.parent / "docs" / "observability.md"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

TABLES = {
    "SHARD_FAMILIES": SHARD_FAMILIES,
    "DURABILITY_FAMILIES": DURABILITY_FAMILIES,
    "QUERY_FAMILIES": QUERY_FAMILIES,
    "GATEWAY_FAMILIES": GATEWAY_FAMILIES,
    "TENANT_FAMILIES": TENANT_FAMILIES,
    "singles": (BUILD_INFO, INGEST_TO_DETECTION, SCRAPE_DURATION, GATEWAY_SCRAPE_DURATION),
}


def mask(text: str) -> str:
    """Blank what legitimately differs between runs: the self-timed scrape
    duration and the build identity labels."""
    text = re.sub(r"^(repro_scrape_duration_seconds\S*) \S+$", r"\1 MASKED", text, flags=re.M)
    return re.sub(r'(python|version)="[^"]*"', r'\1="MASKED"', text)


def scripted_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    shard0 = registry.shard(0)
    shard0.add(tuples_enqueued=40)
    shard0.raise_to("queue_depth_hwm", 7)
    shard0.raise_to("queue_depth_hwm", 5)
    shard0.observe("queue_wait", 0.002)
    shard0.observe("batch_processing", 0.004)
    shard0.add(tuples_processed=16, batches_processed=1, busy_seconds=0.004)
    shard0.add(tuples_processed=21, batches_processed=1, busy_seconds=0.0061234567)
    shard0.add(detections=1)
    shard0.add(detections=1)
    shard1 = registry.shard(1)
    shard1.add(tuples_enqueued=10)
    shard1.raise_to("queue_depth_hwm", 10)
    shard1.observe("queue_wait", 0.00003)
    shard1.observe("batch_processing", 0.5)
    shard1.add(tuples_processed=10, batches_processed=1, busy_seconds=0.5)
    shard1.add(errors=1)
    shard1.add(detections=1)
    registry.shard(2)  # idle: ``busy_seconds`` must stay the float 0.0
    durability = registry.durability
    durability.add(entries_appended=1, bytes_appended=1341)
    durability.add(entries_appended=1, bytes_appended=2000)
    for seconds in (0.001, 0.0123):
        durability.add(fsyncs=1)
        durability.observe("fsync", seconds)
    durability.add(segments_rotated=1)
    durability.add(snapshots_taken=1, snapshot_seconds=0.0123456789)
    durability.add(entries_replayed=12, recoveries=1)
    registry.histogram("ingest_to_detection").record(0.006)
    registry.histogram("ingest_to_detection").record(0.3)
    registry.set_query_stats_provider(
        lambda: {
            "swipe_right": {
                "tuples_processed": 50,
                "predicate_evaluations": 120,
                "runs_started": 4,
                "detections": 3,
                "not_a_family": 9,
            },
            'odd "name"\\\n': {"tuples_processed": 7},
        }
    )
    return registry


def scripted_gateway() -> GatewayMetrics:
    edge = GatewayMetrics()
    for _ in range(3):
        edge.add(connections_opened=1, connections_active=1)
    edge.add(connections_closed=1, connections_active=-1)
    edge.add(connections_rejected=1)
    edge.add(connections_rejected=1)
    for _ in range(5):
        edge.add(frames_in=1)
    for _ in range(4):
        edge.add(frames_out=1)
    edge.add(tuples_in=16, tuples_accepted=14, tuples_dropped=2)
    edge.add(tuples_in=8, tuples_dropped=8)
    edge.add(detections_pushed=3)
    edge.add(errors_sent=1)
    edge.observe("request_latency", 0.002)
    edge.observe("request_latency", 0.129)
    for lag in (0.001, 0.02, 0.004):
        edge.record_loop_lag(lag)
    return edge


class TestGoldenOutput:
    def test_registry_snapshot_is_byte_identical(self):
        document = json.dumps(scripted_registry().snapshot(), indent=1) + "\n"
        assert document == (GOLDEN / "registry_snapshot.json").read_text()

    def test_registry_exposition_is_byte_identical(self):
        registry = scripted_registry()
        assert mask(registry.to_prometheus()) == (GOLDEN / "registry.prom").read_text()
        assert mask(registry.to_prometheus({"tenant": "arcade"})) == (
            GOLDEN / "registry_tenant.prom"
        ).read_text()

    def test_gateway_snapshot_and_exposition_are_byte_identical(self):
        edge = scripted_gateway()
        document = json.dumps(edge.snapshot(), indent=1) + "\n"
        assert document == (GOLDEN / "gateway_snapshot.json").read_text()
        assert edge.to_prometheus() == (GOLDEN / "gateway.prom").read_text()

    def test_build_info_reports_the_pyproject_version(self):
        # The suite imports the package from src/ without installing it, so
        # there is no distribution metadata: ``__version__`` is a literal that
        # must follow the project version by hand.
        declared = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["version"]
        assert repro.__version__ == declared
        assert f'version="{declared}"' in scripted_registry().to_prometheus()


class TestDeclaredOnce:
    def test_every_row_is_well_formed(self):
        for table in TABLES.values():
            for family in table:
                assert isinstance(family, Family)
                assert family.kind in ("counter", "gauge", "histogram")
                assert family.name.startswith("repro_") and family.help.endswith(".")
                if family.kind == "counter":
                    assert family.name.endswith("_total")

    def test_names_are_unique_across_tables_and_keys_within(self):
        names = [family.name for table in TABLES.values() for family in table]
        assert len(names) == len(set(names))
        for name, table in TABLES.items():
            if name != "singles":
                keys = [family.key for family in table]
                assert len(keys) == len(set(keys))

    def test_docs_list_every_declared_family(self):
        reference = DOCS.read_text()
        for table in TABLES.values():
            for family in table:
                assert f"`{family.name}`" in reference, family.name


AMOUNTS = st.lists(
    st.tuples(
        st.sampled_from(["add", "raise_to", "observe"]),
        st.integers(min_value=0, max_value=1000),
    ),
    max_size=40,
)


class TestConcurrentWritesProperty:
    FAMILIES = (
        Family("count", "repro_test_count_total", "counter", "Things."),
        Family("seconds", "repro_test_seconds_total", "counter", "Seconds.", 0.0),
        Family("level", "repro_test_level", "gauge", "High water."),
        Family("wait", "repro_test_wait_seconds", "histogram", "Waits."),
    )

    @settings(max_examples=40, deadline=None)
    @given(scripts=st.lists(AMOUNTS, min_size=1, max_size=4), sets=st.integers(1, 3))
    def test_nothing_is_lost_and_headers_are_written_once(self, scripts, sets):
        targets = [MetricSet(self.FAMILIES, {"part": index}) for index in range(sets)]
        # One histogram per (writer thread, set): ``observe`` is single-writer.
        waits = [MetricSet(self.FAMILIES[3:], {"writer": index}) for index in range(len(scripts))]

        def run(script, wait):
            for step, (op, amount) in enumerate(script):
                target = targets[step % sets]
                if op == "add":
                    target.add(count=amount, seconds=amount / 8)
                elif op == "raise_to":
                    target.raise_to("level", amount)
                else:
                    wait.observe("wait", amount / 1000)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=(script, wait), name=f"repro-test-writer-{index}")
                for index, (script, wait) in enumerate(zip(scripts, waits))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)

        written = [(op, amount) for script in scripts for op, amount in script]
        adds = [amount for op, amount in written if op == "add"]
        levels = [amount for op, amount in written if op == "raise_to"]
        snapshots = [target.snapshot() for target in targets]
        assert sum(snap["count"] for snap in snapshots) == sum(adds)
        assert sum(snap["seconds"] for snap in snapshots) == sum(adds) / 8
        assert max(snap["level"] for snap in snapshots) == max(levels, default=0)
        observed = sum(wait.histograms()["wait"].count for wait in waits)
        assert observed == sum(1 for op, _ in written if op == "observe")

        text = exposition(sample for part in (*targets, *waits) for sample in part.samples())
        for family in self.FAMILIES:
            assert text.count(f"# HELP {family.name} ") == 1
            assert text.count(f"# TYPE {family.name} {family.kind}\n") == 1
        assert text.count("repro_test_count_total{") == sets
        assert text.endswith("\n")
