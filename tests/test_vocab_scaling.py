"""The pure parts of ``tools/vocab_scaling.py`` (the ROADMAP's scaling table)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from vocab_scaling import (  # noqa: E402 — path set up above
    SWEEP_PERIOD,
    check_same,
    measure,
    parse_args,
    query_text,
    render,
    summarise,
    sweep_positions,
    workload,
)


def test_the_workload_interleaves_eight_players_posing_each_gesture_in_turn():
    records = workload(8 * 60)
    assert [r["player"] for r in records[:9]] == [1, 2, 3, 4, 5, 6, 7, 8, 1]
    player_one = [r for r in records if r["player"] == 1]
    assert [r["ts"] for r in player_one[:2]] == [0.0, 1 / 30]
    # First second: gesture 1's first pose, then its second pose.
    assert (player_one[0]["x"], player_one[0]["y"]) == (10.0, -100.0)
    assert (player_one[15]["x"], player_one[15]["y"]) == (-100.0, 10.0)
    assert player_one[30]["x"] == 20.0  # next second, next gesture
    assert workload(100) == workload(100)


def test_sweep_positions_are_every_periods_last_tuple():
    assert sweep_positions(SWEEP_PERIOD - 1) == []
    assert sweep_positions(2 * SWEEP_PERIOD + 1) == [SWEEP_PERIOD - 1, 2 * SWEEP_PERIOD - 1]


def _round(
    per_tuple_ns, batched_ns, detections="d", query_stats="s", size="8", batched_64_ns=None,
    path=None,
):
    """One round; ``detections`` / ``query_stats`` are the digests of
    ``path``, or of every path when it is ``None`` (the others read "d" and
    "s")."""
    digests = {
        name: (
            {"detections": detections, "query_stats": query_stats}
            if path in (None, name)
            else {"detections": "d", "query_stats": "s"}
        )
        for name in ("per_tuple", "batched", "batched_64")
    }
    return {
        size: {
            "per_tuple_ns": per_tuple_ns,
            "batched_ns": batched_ns,
            "batched_64_ns": batched_ns if batched_64_ns is None else batched_64_ns,
            "digests": digests,
        }
    }


def test_summarise_takes_each_tuples_best_round_then_the_sweep_tuples():
    tuples = 2 * SWEEP_PERIOD
    slow = [3000] * tuples
    fast = [2000] * tuples
    slow[SWEEP_PERIOD - 1], fast[SWEEP_PERIOD - 1] = 90_000, 100_000
    slow[2 * SWEEP_PERIOD - 1], fast[2 * SWEEP_PERIOD - 1] = 50_000, 70_000
    [row] = summarise(
        "change",
        [
            _round(slow, tuples * 9000, batched_64_ns=tuples * 4000),
            _round(fast, tuples * 8000, batched_64_ns=tuples * 5000),
        ],
    )
    assert (row.side, row.queries) == ("change", 8)
    assert row.median_us == 2.0
    assert (row.sweep_median_us, row.sweep_max_us) == (70.0, 90.0)
    assert (row.batched_us_per_tuple, row.batched_64_us_per_tuple) == (8.0, 4.0)
    rendered = render([row])
    assert "change" in rendered and "70.0" in rendered and "64-tuple chunks" in rendered


def test_summarise_refuses_no_rounds_and_rounds_of_different_lengths():
    with pytest.raises(ValueError, match="no rounds"):
        summarise("parent", [])
    with pytest.raises(ValueError, match="different tuple counts"):
        summarise("parent", [_round([1, 2], 3), _round([1], 3)])


def test_different_answers_are_refused():
    same = _round([1], 1)
    check_same([same, same], [same])
    with pytest.raises(ValueError, match="change round 1: query_stats differ at 8 queries"):
        check_same([same], [_round([1], 1, query_stats="other")])
    with pytest.raises(ValueError, match="parent round 2: detections differ"):
        check_same([same, _round([1], 1, detections="other")], [same])
    with pytest.raises(ValueError, match="other sizes"):
        check_same([same], [_round([1], 1, size="64")])
    with pytest.raises(ValueError, match="detections differ at 8 queries on the batched 64 path"):
        check_same([same], [_round([1], 1, detections="other", path="batched_64")])


def test_one_measured_round_is_consistent_across_paths():
    [(size, result)] = measure([2], 64).items()
    assert size == "2" and len(result["per_tuple_ns"]) == 64
    digests = result["digests"]
    assert set(result) == {"per_tuple_ns", "batched_ns", "batched_64_ns", "digests"}
    # Per tuple and in chunks of either size the engine detects the same.
    assert (
        digests["per_tuple"]["detections"]
        == digests["batched"]["detections"]
        == digests["batched_64"]["detections"]
    )
    assert query_text(1).startswith('SELECT "g1"')


def test_parent_is_required_unless_measuring(capsys):
    args = parse_args(["--parent", "HEAD~1"])
    assert (args.rounds, args.tuples, args.queries) == (3, 8192, [8, 64, 128])
    assert parse_args(["--measure", "--queries", "8"]).queries == [8]
    with pytest.raises(SystemExit):
        parse_args([])
    with pytest.raises(SystemExit):
        parse_args(["--parent", "HEAD~1", "--rounds", "0"])
    assert "--parent" in capsys.readouterr().err
