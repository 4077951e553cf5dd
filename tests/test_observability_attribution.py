"""Per-query attribution from the tracer's ``matcher:<name>`` spans.

``session.profile()`` sums the durations of the traced matcher spans per
query and joins the share with ``query_stats()``.  A skewed two-query
workload — ~100x more tuples for one query — must charge >= 80 % of the
traced matcher time to the heavy query inline, on thread shards and on
process shards, whose spans reach the parent over the telemetry control.
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.api.session import GestureSession, SessionConfig
from repro.observability.__main__ import _render_top_frame

HEAVY = 'SELECT "heavy" MATCHING busy_t(rhand_y > 450);'
LIGHT = 'SELECT "light" MATCHING quiet_t(rhand_y > 450);'


def skewed_workload(heavy_tuples=30000, light_tuples=300):
    """Frames for two streams: ~100x more work for the heavy query."""
    heavy = [
        {"ts": index * 0.001, "player": 1 + index % 4, "rhand_y": 500.0}
        for index in range(heavy_tuples)
    ]
    return heavy, heavy[:light_tuples]


def run_skewed(config):
    heavy, light = skewed_workload()
    # A collection of earlier tests' garbage is charged to whichever span
    # triggers it; start from a clean heap so the light query's one short
    # batch measures its own work.
    gc.collect()
    with GestureSession(config) as session:
        session.deploy(HEAVY)
        session.deploy(LIGHT)
        session.feed(light, stream="quiet_t")
        session.feed(heavy, stream="busy_t")
        session.drain()
        return session.profile()


@pytest.mark.parametrize(
    "placement",
    [{}, {"shards": 2}, {"shards": 4, "shard_executor": "process"}],
    ids=["inline", "thread2", "process4"],
)
def test_heavy_query_gets_the_traced_matcher_time(placement):
    profile = run_skewed(SessionConfig(trace_sample_rate=1.0, batch_size=512, **placement))
    assert profile["enabled"]
    queries = profile["queries"]
    assert set(queries) == {"heavy", "light"}
    assert queries["light"]["spans"] >= 1  # the light query is measured, not evicted
    assert profile["spans"] == queries["heavy"]["spans"] + queries["light"]["spans"]
    assert queries["heavy"]["cpu_share"] >= 0.8, profile
    assert queries["heavy"]["cpu_share"] + queries["light"]["cpu_share"] == pytest.approx(1.0)
    # The join carries the engine's per-query stats alongside.
    assert queries["heavy"]["stats"]["tuples_processed"] == 30000
    assert queries["light"]["stats"]["tuples_processed"] == 300


def test_untraced_session_reports_attribution_off():
    with GestureSession(SessionConfig()) as session:
        session.deploy(HEAVY)
        session.feed(skewed_workload(heavy_tuples=10)[0], stream="busy_t")
        assert session.profile() == {"enabled": False, "spans": 0, "queries": {}}


def test_untraced_feed_records_no_matcher_spans():
    # Head sampling at 1/2: every other feed call is traced, so the
    # share is of traced work only and untraced calls cost no span.
    heavy, _ = skewed_workload(heavy_tuples=64)
    with GestureSession(SessionConfig(trace_sample_rate=0.5)) as session:
        session.deploy(HEAVY)
        for _ in range(4):
            session.feed(heavy, stream="busy_t", batch_size=64)
        profile = session.profile()
    assert profile["queries"]["heavy"]["spans"] == 2
    assert profile["queries"]["heavy"]["stats"]["tuples_processed"] == 4 * 64


@pytest.mark.parametrize(
    "placement",
    [{}, {"shards": 2, "shard_executor": "process"}],
    ids=["inline", "process2"],
)
def test_repeated_reads_count_each_span_once(placement):
    # Process shards' spans are drained worker-side on the first read and
    # kept parent-side, so a second read neither loses nor doubles them.
    heavy, light = skewed_workload(heavy_tuples=2000, light_tuples=200)
    with GestureSession(SessionConfig(trace_sample_rate=1.0, batch_size=100, **placement)) as session:
        session.deploy(HEAVY)
        session.deploy(LIGHT)
        session.feed(light, stream="quiet_t")
        session.feed(heavy, stream="busy_t")
        session.drain()
        first = session.profile()
        second = session.profile()
    assert first == second
    assert first["spans"] >= 2


def test_queries_on_one_stream_share_every_traced_batch():
    other = 'SELECT "other" MATCHING busy_t(rhand_y < 0);'
    heavy, _ = skewed_workload(heavy_tuples=256)
    with GestureSession(SessionConfig(trace_sample_rate=1.0)) as session:
        session.deploy(HEAVY)
        session.deploy(other)
        for _ in range(3):
            session.feed(heavy, stream="busy_t", batch_size=64)
        profile = session.profile()
    queries = profile["queries"]
    assert queries["heavy"]["spans"] == queries["other"]["spans"] == 3 * 4
    assert profile["spans"] == 2 * 3 * 4
    assert queries["heavy"]["cpu_share"] > 0.0 and queries["other"]["cpu_share"] > 0.0
    assert queries["heavy"]["cpu_share"] + queries["other"]["cpu_share"] == pytest.approx(1.0)


def test_deployed_query_without_traced_work_has_a_zero_row():
    heavy, _ = skewed_workload(heavy_tuples=64)
    with GestureSession(SessionConfig(trace_sample_rate=1.0)) as session:
        session.deploy(HEAVY)
        session.deploy(LIGHT)
        session.feed(heavy, stream="busy_t", batch_size=64)
        profile = session.profile()
    light = profile["queries"]["light"]
    assert (light["spans"], light["seconds"], light["cpu_share"]) == (0, 0.0, 0.0)
    assert light["stats"]["tuples_processed"] == 0
    assert profile["queries"]["heavy"]["cpu_share"] == 1.0


def test_profile_is_json_shaped():
    heavy, light = skewed_workload(heavy_tuples=64, light_tuples=8)
    with GestureSession(SessionConfig(trace_sample_rate=1.0)) as session:
        session.deploy(HEAVY)
        session.deploy(LIGHT)
        session.feed(light, stream="quiet_t")
        session.feed(heavy, stream="busy_t")
        profile = session.profile()
    assert json.loads(json.dumps(profile)) == profile


class TestTopFrame:
    """``python -m repro.observability top`` renders the profile rows as sent."""

    @staticmethod
    def document(**entry):
        return {"tenants": {"t1": entry}}

    def test_rows_are_ordered_by_share(self):
        profile = {
            "enabled": True,
            "spans": 5,
            "queries": {
                "aa_light": {"cpu_share": 0.1, "seconds": 0.001, "spans": 2},
                "zz_heavy": {"cpu_share": 0.9, "seconds": 0.009, "spans": 3},
            },
        }
        frame = _render_top_frame(self.document(profile=profile))
        rows = [line.split() for line in frame.splitlines() if line.rstrip().endswith("%")]
        assert [row[0] for row in rows] == ["zz_heavy", "aa_light"]
        assert rows[0][1:] == ["3", "0.0090", "90.0%"]
        assert "  matcher spans: 5" in frame

    def test_no_tenants_says_so(self):
        assert _render_top_frame({"tenants": {}}) == "no tenant sessions attached yet"
        assert _render_top_frame({}) == "no tenant sessions attached yet"

    def test_health_is_listed(self):
        frame = _render_top_frame(
            self.document(profile={"enabled": False}, health={"status": "degraded"})
        )
        assert frame.splitlines() == [
            "tenant: t1",
            "  attribution off (SessionConfig.trace_sample_rate = 0)",
            "  health: degraded",
        ]
