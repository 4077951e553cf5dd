"""Tests of the static query analyzer (``repro.analysis``).

Covers the interval algebra, every diagnostic rule family, the
deploy-time gate (the session's, on an inline and a sharded engine, over
the very queries it deploys), the vocabulary report, and the
``python -m repro.analysis`` CLI.
"""

from __future__ import annotations

import json
import math
import warnings

import pytest

from repro.analysis import (
    ANALYZE_MODES,
    AnalysisContext,
    Diagnostic,
    Interval,
    IntervalSet,
    QueryAnalysisError,
    QueryAnalysisWarning,
    Severity,
    analyze_query,
    analyze_vocabulary,
    gate_diagnostics,
    validate_analyze_mode,
)
from repro.analysis import vocabulary as vocabulary_module
from repro.analysis.cli import main as analysis_cli
from repro.api import F, GestureSession, Q, SessionConfig
from repro.cep import ConsumePolicy, SelectPolicy
from repro.cep.engine import coerce_query
from repro.core import GestureDescription, PoseWindow, QueryGenConfig, Window
from repro.detection.workflow import WorkflowConfig
from repro.storage.database import GestureDatabase

GOOD = (
    'SELECT "wave" MATCHING (kinect_t(abs(rhand_x - 400) < 50) -> '
    "kinect_t(abs(rhand_x - 500) < 50) within 2 seconds select first consume all);"
)
UNSAT_ABS = 'SELECT "never" MATCHING (kinect_t(abs(rhand_x - 400) < -5));'
UNSAT_CONJ = (
    'SELECT "never" MATCHING (kinect_t(abs(rhand_x - 400) < 50 and '
    "abs(rhand_x - 600) < 50));"
)


def codes(diagnostics):
    return sorted({d.code for d in diagnostics})


#: Shard count of the session each engine-kind test runs on.
SHARDS = {"inline": 1, "sharded": 2}


def session_on(engine):
    return GestureSession(SessionConfig(shards=SHARDS[engine]))


# ---------------------------------------------------------------------------
# Interval algebra
# ---------------------------------------------------------------------------


class TestIntervals:
    def test_empty_and_point(self):
        assert Interval(3.0, 2.0).is_empty()
        assert Interval(1.0, 1.0, low_open=True).is_empty()
        assert not Interval.point(1.0).is_empty()
        assert Interval.point(1.0).contains_value(1.0)

    def test_infinite_bounds_forced_open(self):
        full = Interval.full()
        assert full.low_open and full.high_open
        assert Interval(-math.inf, 0.0).low_open

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)

    def test_normalisation_merges_touching(self):
        merged = IntervalSet([Interval(0.0, 1.0), Interval(1.0, 2.0), Interval(5.0, 6.0)])
        assert len(merged.intervals) == 2
        assert merged.contains_value(1.0)
        assert not merged.contains_value(3.0)

    def test_open_endpoints_do_not_merge(self):
        gap = IntervalSet(
            [Interval(0.0, 1.0, high_open=True), Interval(1.0, 2.0, low_open=True)]
        )
        assert len(gap.intervals) == 2
        assert not gap.contains_value(1.0)

    def test_intersection_union_complement(self):
        a = IntervalSet.of(Interval(0.0, 10.0))
        b = IntervalSet.of(Interval(5.0, 15.0))
        assert a.intersect(b) == IntervalSet.of(Interval(5.0, 10.0))
        assert a.union(b) == IntervalSet.of(Interval(0.0, 15.0))
        outside = a.complement()
        assert outside.contains_value(-1.0)
        assert outside.contains_value(11.0)
        assert not outside.contains_value(5.0)
        assert a.complement().complement() == a

    def test_affine_negative_scale_swaps_bounds(self):
        image = IntervalSet.of(Interval(1.0, 2.0)).affine(-1.0, 0.0)
        assert image == IntervalSet.of(Interval(-2.0, -1.0))
        with pytest.raises(ValueError):
            IntervalSet.full().affine(0.0, 1.0)

    def test_covers(self):
        wide = IntervalSet.of(Interval(0.0, 10.0))
        narrow = IntervalSet.of(Interval(2.0, 3.0))
        assert wide.covers(narrow)
        assert not narrow.covers(wide)
        assert IntervalSet.full().covers(wide)
        assert wide.covers(IntervalSet.empty())

    def test_from_comparison(self):
        assert IntervalSet.from_comparison("<", 5.0).contains_value(4.9)
        assert not IntervalSet.from_comparison("<", 5.0).contains_value(5.0)
        assert IntervalSet.from_comparison("<=", 5.0).contains_value(5.0)
        ne = IntervalSet.from_comparison("!=", 5.0)
        assert ne.contains_value(4.0) and not ne.contains_value(5.0)
        assert IntervalSet.from_comparison("~", 5.0) is None


# ---------------------------------------------------------------------------
# Per-query rules
# ---------------------------------------------------------------------------


class TestQueryRules:
    def test_clean_query_has_no_findings(self):
        assert analyze_query(GOOD) == []

    def test_unsat_negative_abs_window(self):
        found = analyze_query(UNSAT_ABS)
        assert codes(found) == ["QA001"]
        assert found[0].severity is Severity.ERROR
        assert found[0].step == 0

    def test_unsat_empty_conjunction_of_abs_windows(self):
        found = analyze_query(UNSAT_CONJ)
        assert "QA001" in codes(found)

    def test_dead_step_reported_query_level(self):
        query = (
            'SELECT "g" MATCHING (kinect_t(rhand_x > 0) -> '
            "kinect_t(rhand_y > 10 and rhand_y < 5) within 1 seconds);"
        )
        found = analyze_query(query)
        assert codes(found) == ["QA001", "QA002"]
        by_code = {d.code: d for d in found}
        assert by_code["QA001"].step == 1
        assert by_code["QA002"].detail["unsatisfiable_steps"] == [1]
        assert by_code["QA002"].detail["dead_steps"] == [0]

    def test_contradictory_plain_comparisons(self):
        found = analyze_query('SELECT "g" MATCHING (kinect_t(rhand_x < 5 and rhand_x > 10));')
        assert "QA001" in codes(found)

    def test_tautological_atom_warning(self):
        found = analyze_query('SELECT "g" MATCHING (kinect_t(abs(rhand_x - 1) >= 0));')
        assert codes(found) == ["QA003"]
        assert found[0].severity is Severity.WARNING

    def test_always_false_atom_in_disjunction(self):
        found = analyze_query(
            'SELECT "g" MATCHING (kinect_t(rhand_x > 5 or abs(rhand_y - 1) < -1));'
        )
        assert "QA005" in codes(found)

    def test_match_all_step_is_info(self):
        found = analyze_query('SELECT "g" MATCHING (kinect_t(true) -> kinect_t(rhand_x > 1) within 1 seconds);')
        assert "QA004" in codes(found)
        by_code = {d.code: d for d in found}
        assert by_code["QA004"].severity is Severity.INFO

    def test_opaque_udf_predicate_not_flagged(self):
        found = analyze_query('SELECT "g" MATCHING (kinect_t(dist(rhand_x, rhand_y) < -1));')
        assert "QA001" not in codes(found)
        assert "QA005" not in codes(found)

    def test_multi_field_atom_not_flagged(self):
        found = analyze_query('SELECT "g" MATCHING (kinect_t(rhand_x - lhand_x < -10000));')
        assert "QA001" not in codes(found)

    def test_uncovered_within_warns_without_ttl(self):
        query = (
            'SELECT "g" MATCHING ((kinect_t(rhand_x > 1) -> kinect_t(rhand_x > 2) '
            "within 1 seconds) -> kinect_t(rhand_x > 3));"
        )
        found = analyze_query(query, context=AnalysisContext(run_ttl_seconds=None))
        assert "QA010" in codes(found)
        by_code = {d.code: d for d in found}
        assert by_code["QA010"].detail["uncovered_steps"] == [1]

    def test_uncovered_within_info_with_ttl(self):
        query = (
            'SELECT "g" MATCHING ((kinect_t(rhand_x > 1) -> kinect_t(rhand_x > 2) '
            "within 1 seconds) -> kinect_t(rhand_x > 3));"
        )
        found = analyze_query(query, context=AnalysisContext(run_ttl_seconds=10.0))
        assert "QA011" in codes(found)
        assert "QA010" not in codes(found)

    def test_fully_covered_within_is_silent(self):
        found = analyze_query(GOOD, context=AnalysisContext(run_ttl_seconds=None))
        assert found == []

    def test_nested_policies_warn(self):
        query = (
            'SELECT "g" MATCHING ((kinect_t(rhand_x > 1) -> kinect_t(rhand_x > 2) '
            "within 1 seconds select last consume none) -> kinect_t(rhand_x > 3) "
            "within 5 seconds select first consume all);"
        )
        found = analyze_query(query)
        assert "QA020" in codes(found)

    def test_select_all_consume_none_info(self):
        query = (
            'SELECT "g" MATCHING (kinect_t(rhand_x > 1) -> kinect_t(rhand_x > 2) '
            "within 1 seconds select all consume none);"
        )
        found = analyze_query(query)
        assert "QA021" in codes(found)

    def test_partition_mismatch_is_error(self):
        context = AnalysisContext(
            partition_field="player",
            stream_fields={
                "kinect_t": frozenset({"ts", "player", "rhand_x"}),
                "buttons": frozenset({"ts", "pressed"}),
            },
        )
        query = (
            'SELECT "g" MATCHING (kinect_t(rhand_x > 1) -> buttons(pressed > 0) '
            "within 1 seconds);"
        )
        found = analyze_query(query, context=context)
        assert "QA030" in codes(found)
        by_code = {d.code: d for d in found}
        assert by_code["QA030"].severity is Severity.ERROR

    def test_partition_unknown_schema_is_warning(self):
        context = AnalysisContext(partition_field="player", stream_fields={})
        query = (
            'SELECT "g" MATCHING (kinect_t(rhand_x > 1) -> buttons(pressed > 0) '
            "within 1 seconds);"
        )
        found = analyze_query(query, context=context)
        assert "QA031" in codes(found)
        assert "QA030" not in codes(found)

    def test_accepts_query_objects_and_builders(self):
        assert analyze_query(coerce_query(GOOD)) == []
        chain = Q.stream("kinect_t").where(F("rhand_y") > 400)
        assert analyze_query(chain.build("hands_up")) == []


# ---------------------------------------------------------------------------
# Vocabulary analysis
# ---------------------------------------------------------------------------


class TestVocabulary:
    def test_duplicate_text_flagged(self):
        report = analyze_vocabulary({"a": GOOD, "b": GOOD})
        assert "QA040" in codes(report.diagnostics)
        dup = next(d for d in report.diagnostics if d.code == "QA040")
        assert sorted(dup.detail["queries"]) == ["a", "b"]

    def test_semantic_equivalence_flagged(self):
        left = 'SELECT "a" MATCHING (kinect_t(abs(rhand_x - 400) < 50));'
        # The same interval (350, 450) spelled as two comparisons.
        right = 'SELECT "b" MATCHING (kinect_t(rhand_x > 350 and rhand_x < 450));'
        report = analyze_vocabulary({"a": left, "b": right})
        assert "QA041" in codes(report.diagnostics)

    def test_subsumption_flagged_with_direction(self):
        wide = 'SELECT "wide" MATCHING (kinect_t(abs(rhand_x - 400) < 100));'
        narrow = 'SELECT "narrow" MATCHING (kinect_t(abs(rhand_x - 400) < 10));'
        report = analyze_vocabulary({"wide": wide, "narrow": narrow})
        sub = next(d for d in report.diagnostics if d.code == "QA042")
        assert sub.detail["wide"] == "wide"
        assert sub.detail["narrow"] == "narrow"

    def test_wider_within_window_needed_for_subsumption(self):
        fast = (
            'SELECT "fast" MATCHING (kinect_t(rhand_x > 1) -> kinect_t(rhand_x > 2) '
            "within 1 seconds);"
        )
        slow = (
            'SELECT "slow" MATCHING (kinect_t(rhand_x > 1) -> kinect_t(rhand_x > 2) '
            "within 9 seconds);"
        )
        report = analyze_vocabulary({"fast": fast, "slow": slow})
        sub = next(d for d in report.diagnostics if d.code == "QA042")
        assert sub.detail["wide"] == "slow"

    def test_shared_predicate_factoring_report(self):
        a = 'SELECT "a" MATCHING (kinect_t(rhand_y > 400 and rhand_x > 100));'
        b = 'SELECT "b" MATCHING (kinect_t(rhand_y > 400) -> kinect_t(rhand_y < 100) within 2 seconds);'
        report = analyze_vocabulary({"a": a, "b": b})
        assert report.shared_predicates == {"rhand_y > 400": ("a", "b")}
        assert "QA050" in codes(report.diagnostics)

    def test_distinct_queries_clean(self):
        report = analyze_vocabulary(
            {
                "up": 'SELECT "up" MATCHING (kinect_t(rhand_y > 400));',
                "down": 'SELECT "down" MATCHING (kinect_t(lhand_y < 100));',
            }
        )
        assert report.diagnostics == ()
        assert not report.has_errors
        assert report.queries == ("up", "down")

    def test_for_query_filter_and_to_dict(self):
        report = analyze_vocabulary({"a": GOOD, "b": GOOD})
        assert report.for_query("b")
        payload = report.to_dict()
        assert payload["summary"]["warning"] >= 1
        json.dumps(payload)  # must be JSON-serialisable

    def test_sequence_source_uses_registration_names(self):
        report = analyze_vocabulary([GOOD, UNSAT_ABS])
        assert report.queries == ("wave", "never")
        assert report.has_errors

    def test_database_source(self, tmp_path):

        db = GestureDatabase(str(tmp_path / "gestures.db"))
        description = GestureDescription(
            name="stored",
            poses=[
                PoseWindow(0, Window({"rhand_x": 100.0}, {"rhand_x": 25.0})),
                PoseWindow(1, Window({"rhand_x": 300.0}, {"rhand_x": 25.0})),
            ],
            joints=["rhand"],
            max_duration_s=1.0,
        )
        db.save_gesture(description)
        report = analyze_vocabulary(db)
        assert report.queries == ("stored",)
        assert not report.has_errors
        db.close()


# ---------------------------------------------------------------------------
# Gating
# ---------------------------------------------------------------------------


class TestGating:
    def test_modes_catalogue(self):
        assert ANALYZE_MODES == ("off", "warn", "strict")
        assert validate_analyze_mode("warn") == "warn"
        with pytest.raises(ValueError):
            validate_analyze_mode("loud")

    def test_gate_off_is_inert(self):
        found = analyze_query(UNSAT_ABS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gate_diagnostics(found, "off") == found

    def test_gate_warn_emits_warnings(self):
        found = analyze_query(UNSAT_ABS)
        with pytest.warns(QueryAnalysisWarning, match="QA001"):
            gate_diagnostics(found, "warn")

    def test_gate_strict_raises_typed_error(self):
        found = analyze_query(UNSAT_ABS)
        with pytest.raises(QueryAnalysisError) as excinfo:
            gate_diagnostics(found, "strict", subject="query 'never'")
        assert excinfo.value.codes == ["QA001"]
        assert excinfo.value.diagnostics
        assert "never" in str(excinfo.value)

    def test_gate_strict_warns_when_only_warnings(self):
        found = [
            Diagnostic(code="QA003", severity=Severity.WARNING, message="tautology")
        ]
        with pytest.warns(QueryAnalysisWarning):
            gate_diagnostics(found, "strict")

    @pytest.mark.parametrize("engine", sorted(SHARDS))
    def test_session_strict_rejects_and_leaves_the_engine_clean(self, engine):
        with session_on(engine) as session:
            with pytest.raises(QueryAnalysisError):
                session.deploy(UNSAT_ABS, analyze="strict")
            assert (session.runtime or session.engine).queries == {}
            assert session.deployed_gestures() == []
            session.deploy(GOOD, analyze="strict")
            assert session.deployed_gestures() == ["wave"]

    @pytest.mark.parametrize("engine", sorted(SHARDS))
    def test_session_warn_still_deploys(self, engine):
        with session_on(engine) as session:
            with pytest.warns(QueryAnalysisWarning):
                session.deploy(UNSAT_ABS, analyze="warn")
            assert session.deployed_gestures() == ["never"]

    @pytest.mark.parametrize("engine", sorted(SHARDS))
    def test_session_off_stays_silent(self, engine):
        with session_on(engine) as session:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                session.deploy(UNSAT_ABS)

    @pytest.mark.parametrize("engine", sorted(SHARDS))
    def test_session_rejects_unknown_mode(self, engine):
        with session_on(engine) as session:
            with pytest.raises(ValueError, match="analyze mode"):
                session.deploy(GOOD, analyze="loud")
            assert session.deployed_gestures() == []

    def test_session_deploy_strict(self):
        with GestureSession() as session:
            with pytest.raises(QueryAnalysisError):
                session.deploy(UNSAT_ABS, analyze="strict")
            session.deploy(GOOD, analyze="strict")
            assert "wave" in session.deployed_gestures()

    def test_session_config_default_mode(self):
        config = SessionConfig(analyze="strict")
        with GestureSession(config=config) as session:
            with pytest.raises(QueryAnalysisError):
                session.deploy(UNSAT_ABS)
            # An explicit argument overrides the configured default.
            session.deploy(UNSAT_ABS, analyze="off")

    def test_session_config_validates_mode(self):
        with pytest.raises(ValueError, match="analyze"):
            SessionConfig(analyze="sometimes")

    def test_session_vocabulary_strict_rejects_all_or_nothing(self):
        with GestureSession() as session:
            with pytest.raises(QueryAnalysisError) as excinfo:
                session.deploy_vocabulary(
                    {"wave": GOOD, "never": UNSAT_ABS}, analyze="strict"
                )
            assert "vocabulary" in str(excinfo.value)
            assert session.deployed_gestures() == []

    def test_session_vocabulary_warn_deploys_everything(self):
        with GestureSession() as session:
            with pytest.warns(QueryAnalysisWarning):
                deployed = session.deploy_vocabulary(
                    {"a": GOOD, "never": UNSAT_ABS}, analyze="warn"
                )
            assert deployed == ["a", "never"]

    @pytest.mark.parametrize("engine", sorted(SHARDS))
    def test_detections_identical_with_analysis_enabled(self, engine):
        """Enabling analysis must not change what the matcher produces."""

        def run(analyze: str):
            with session_on(engine) as session:
                session.deploy(GOOD, analyze=analyze)
                session.feed(
                    [
                        {"ts": float(ts), "player": 1, "rhand_x": x}
                        for ts, x in enumerate([400.0, 500.0, 410.0, 505.0])
                    ],
                    stream="kinect_t",
                )
                return [
                    (d.query_name, d.output, d.timestamp, d.partition)
                    for d in session.detections()
                ]

        assert run("off") == run("strict")
        assert run("off")


def two_pose(name):
    return GestureDescription(
        name=name,
        poses=[
            PoseWindow(0, Window({"rhand_x": 100.0}, {"rhand_x": 25.0})),
            PoseWindow(1, Window({"rhand_x": 300.0}, {"rhand_x": 25.0})),
        ],
        joints=["rhand"],
        max_duration_s=1.0,
    )


class TestTheGateAnalysesWhatItDeploys:
    """A session whose generator writes ``select all consume none``: every
    deploy route must analyse the very query text it then deploys."""

    @pytest.mark.parametrize("engine", sorted(SHARDS))
    @pytest.mark.parametrize("route", ["deploy", "manifest", "database"])
    def test_the_analysed_query_is_the_deployed_query(self, monkeypatch, route, engine):
        analysed = {}
        found = []

        def spy(source, context=None, names=None):
            # What the analyzer reads: its own coercion of the source.
            for name, query in vocabulary_module._coerce_entries(source):
                analysed[name] = query.to_query()
            report = analyze_vocabulary(source, context=context, names=names)
            found.extend(report.diagnostics)
            return report

        monkeypatch.setattr(vocabulary_module, "analyze_vocabulary", spy)
        querygen = QueryGenConfig(select=SelectPolicy.ALL, consume=ConsumePolicy.NONE)
        config = SessionConfig(shards=SHARDS[engine], workflow=WorkflowConfig(querygen=querygen))
        with GestureSession(config) as session:
            description = two_pose("g")
            if route == "deploy":
                session.deploy(description, analyze="warn")
            elif route == "manifest":
                session.deploy_vocabulary({"g": description}, analyze="warn")
            else:
                database = GestureDatabase(":memory:")
                database.save_gesture(description)
                session.deploy_vocabulary(database, analyze="warn")
                database.close()
            deployed = (session.runtime or session.engine).get_query("g").query.to_query()
        assert analysed == {"g": deployed}
        assert "select all consume none" in deployed
        assert "QA021" in codes(found)

    def test_finalize_is_gated_once_as_learn_is(self, monkeypatch, simulator, swipe):
        """The workflow deploys through the session, so the interactive
        route analyses the query it generated once, as ``learn`` does."""
        analysed = []

        def spy(source, context=None, names=None):
            entries = vocabulary_module._coerce_entries(source)
            analysed.extend((name, query.to_query()) for name, query in entries)
            return analyze_vocabulary(source, context=context, names=names)

        monkeypatch.setattr(vocabulary_module, "analyze_vocabulary", spy)
        samples = [simulator.perform_variation(swipe) for _ in range(3)]
        with GestureSession(SessionConfig(analyze="warn")) as session, warnings.catch_warnings():
            warnings.simplefilter("ignore", QueryAnalysisWarning)
            session.learn("learned", samples, deploy=True)
            session.begin_gesture("finalized")
            for sample in samples:
                session.record_sample(sample)
            session.finalize()
            deployed = {
                name: session.engine.get_query(name).query.to_query()
                for name in ("learned", "finalized")
            }
            assert session.database.load_gesture("finalized").query_text == deployed["finalized"]
        assert analysed == list(deployed.items())


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCLI:
    def write_manifest(self, tmp_path, name, queries):
        path = tmp_path / name
        path.write_text(json.dumps({"queries": queries}), encoding="utf-8")
        return path

    def test_clean_manifest_exits_zero(self, tmp_path, capsys):
        path = self.write_manifest(tmp_path, "good.json", {"wave": GOOD})
        assert analysis_cli([str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 queries" in out and "0 error(s)" in out

    def test_error_manifest_exits_one(self, tmp_path, capsys):
        path = self.write_manifest(tmp_path, "bad.json", {"never": UNSAT_ABS})
        assert analysis_cli([str(path)]) == 1
        assert "QA001" in capsys.readouterr().out

    def test_strict_fails_on_warnings(self, tmp_path):
        path = self.write_manifest(tmp_path, "dup.json", {"a": GOOD, "b": GOOD})
        assert analysis_cli([str(path)]) == 0  # duplicates are warnings
        assert analysis_cli(["--strict", str(path)]) == 1

    def test_unreadable_source_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert analysis_cli([str(missing)]) == 2
        assert "cannot analyse" in capsys.readouterr().err

    def test_json_report_written(self, tmp_path):
        manifest = self.write_manifest(tmp_path, "good.json", {"wave": GOOD})
        report_path = tmp_path / "report.json"
        assert analysis_cli(["--json", str(report_path), str(manifest)]) == 0
        payload = json.loads(report_path.read_text())
        assert str(manifest) in payload["sources"]
        assert payload["sources"][str(manifest)]["queries"] == ["wave"]

    def test_flat_manifest_and_ttl_flag(self, tmp_path):
        path = tmp_path / "flat.json"
        uncovered = (
            'SELECT "g" MATCHING ((kinect_t(rhand_x > 1) -> kinect_t(rhand_x > 2) '
            "within 1 seconds) -> kinect_t(rhand_x > 3));"
        )
        path.write_text(json.dumps({"g": uncovered}), encoding="utf-8")
        assert analysis_cli(["--strict", str(path)]) == 1  # QA010 warning
        assert analysis_cli(["--strict", "--ttl", "10", str(path)]) == 0  # QA011 info

    def test_database_source(self, tmp_path):

        db_path = tmp_path / "gestures.db"
        db = GestureDatabase(str(db_path))
        db.save_gesture(
            GestureDescription(
                name="stored",
                poses=[PoseWindow(0, Window({"rhand_x": 100.0}, {"rhand_x": 25.0}))],
                joints=["rhand"],
                max_duration_s=1.0,
            )
        )
        db.close()
        assert analysis_cli([str(db_path)]) == 0
