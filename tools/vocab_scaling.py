#!/usr/bin/env python
"""The ROADMAP's vocabulary scaling table as a command: parent and change side by side.

    python tools/vocab_scaling.py --parent <rev> [--rounds 3] [--tuples 8192] [--queries 8 64 128]

Checks ``<rev>`` out into a temporary directory (``git archive``, as
``tools/e2e_pairs.py`` does) and measures it and the working tree
alternately, ``--rounds`` times each, in a fresh interpreter per round
(``PYTHONPATH`` = that tree's ``src``).

The workload is the disjoint two-pose vocabulary: query *i* is
``s(abs(x - 10i) < 2) -> s(abs(y - 10i) < 2) within 1 seconds``, deployed
together on one engine stream, fed tuples of 8 players who each pose one
of gestures 0-7 per second, at 30 frames per second.  Per vocabulary size
a round feeds the tuples twice: one ``engine.push`` at a time, each timed
on its own, and in 8-tuple chunks (``push_many(batch_size=8)``, one
gateway frame), timed whole.

Per side and size it prints, each tuple's best over the rounds taken
first: the median tuple, the median and max of the idle-sweep tuples
(every ``SWEEP_PERIOD``-th tuple of the stream, where every query's idle
sweep is due), and the best batched µs per tuple.  It fails when the two
sides' detections or ``query_stats()`` differ on either path: a timing of
different answers is not a comparison.

The measuring half (``measure``) imports only ``repro.cep`` and
``repro.streams`` names both trees have.  ``workload``, ``summarise``,
``check_same`` and ``render`` are the pure parts, and ``parse_args`` the
command line (``tests/test_vocab_scaling.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, NamedTuple, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Tuples of a stream between idle sweeps (``repro.cep.fanout``).
SWEEP_PERIOD = 512
PLAYERS = 8
CHUNK = 8

#: One round of one side: per vocabulary size (a string key, as JSON has
#: it), ``per_tuple_ns`` (one timing per tuple), ``batched_ns`` (the whole
#: chunked feed) and the digests of what each path detected and counted.
Round = Mapping[str, Mapping[str, Any]]


class Row(NamedTuple):
    side: str
    queries: int
    median_us: float
    sweep_median_us: float
    sweep_max_us: float
    batched_us_per_tuple: float


def query_text(number: int) -> str:
    centre = 10 * number
    return (
        f'SELECT "g{number}" MATCHING s(abs(x - {centre}) < 2) -> '
        f"s(abs(y - {centre}) < 2) within 1 seconds;"
    )


def workload(tuples: int) -> List[Dict[str, Any]]:
    """``tuples`` records of :data:`PLAYERS` interleaved players at 30 Hz.
    Player *p* poses gesture ``(p + second) % 8``: its first pose for the
    first half of the second, its second pose for the rest."""
    records = []
    for number in range(tuples):
        player, frame = number % PLAYERS + 1, number // PLAYERS
        gesture = (player + frame // 30) % 8
        first = frame % 30 < 15
        records.append(
            {
                "ts": frame / 30.0,
                "player": player,
                "x": 10.0 * gesture if first else -100.0,
                "y": -100.0 if first else 10.0 * gesture,
            }
        )
    return records


def sweep_positions(tuples: int) -> List[int]:
    """The 0-based indices of the tuples on which the idle sweep is due."""
    return list(range(SWEEP_PERIOD - 1, tuples, SWEEP_PERIOD))


def _digest(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def measure(sizes: Sequence[int], tuples: int) -> Dict[str, Dict[str, Any]]:
    """One round on the ``repro`` importable here (see the module docstring)."""
    from repro.cep.engine import CEPEngine
    from repro.streams import SimulatedClock

    records = workload(tuples)
    result: Dict[str, Dict[str, Any]] = {}
    for size in sizes:
        engines = []
        for _path in ("per_tuple", "batched"):
            engine = CEPEngine(clock=SimulatedClock())
            engine.create_stream("s")
            for number in range(size):
                engine.register_query(query_text(number))
            engines.append(engine)
        single, batched = engines
        timings = []
        clock = time.perf_counter_ns
        for record in records:
            started = clock()
            single.push("s", record)
            timings.append(clock() - started)
        started = clock()
        batched.push_many("s", records, batch_size=CHUNK)
        batched_ns = clock() - started
        result[str(size)] = {
            "per_tuple_ns": timings,
            "batched_ns": batched_ns,
            "digests": {
                path: {
                    "detections": _digest([d.to_state() for d in engine.detections()]),
                    "query_stats": _digest(engine.query_stats()),
                }
                for path, engine in zip(("per_tuple", "batched"), engines)
            },
        }
    return result


def summarise(side: str, rounds: Sequence[Round]) -> List[Row]:
    """One :class:`Row` per vocabulary size, each tuple's best round first.

    Raises ``ValueError`` on no rounds, or on rounds that timed different
    numbers of tuples (:func:`check_same` compares the sizes).
    """
    if not rounds:
        raise ValueError(f"no rounds for the {side}")
    sizes = list(rounds[0])
    rows = []
    for size in sizes:
        timings = [round_[size]["per_tuple_ns"] for round_ in rounds]
        if len({len(series) for series in timings}) != 1:
            raise ValueError(f"the {side}'s rounds timed different tuple counts at {size} queries")
        best = [min(values) / 1000.0 for values in zip(*timings)]
        sweeps = [best[index] for index in sweep_positions(len(best))]
        batched = min(round_[size]["batched_ns"] for round_ in rounds) / 1000.0 / len(best)
        rows.append(
            Row(
                side,
                int(size),
                statistics.median(best),
                statistics.median(sweeps) if sweeps else float("nan"),
                max(sweeps) if sweeps else float("nan"),
                batched,
            )
        )
    return rows


def check_same(parent: Sequence[Round], change: Sequence[Round]) -> None:
    """Raise ``ValueError`` naming the first size, path and digest on which
    any two rounds, of either side, differ."""
    reference = parent[0] if parent else change[0]
    for side, rounds in (("parent", parent), ("change", change)):
        for number, round_ in enumerate(rounds, start=1):
            if list(round_) != list(reference):
                raise ValueError(f"{side} round {number} measured other sizes")
            for size, measured in round_.items():
                for path, digests in measured["digests"].items():
                    for name, digest in digests.items():
                        if digest != reference[size]["digests"][path][name]:
                            raise ValueError(
                                f"{side} round {number}: {name} differ at {size} "
                                f"queries on the {path.replace('_', ' ')} path"
                            )


def render(rows: Sequence[Row]) -> str:
    lines = [
        f"{'queries':>8}{'side':>8}{'median tuple':>14}{'sweep median':>14}"
        f"{'sweep max':>12}{'8-tuple chunks':>16}   (us; chunks per tuple)"
    ]
    for row in sorted(rows, key=lambda row: (row.queries, row.side != "parent")):
        lines.append(
            f"{row.queries:>8}{row.side:>8}{row.median_us:>14.2f}{row.sweep_median_us:>14.1f}"
            f"{row.sweep_max_us:>12.1f}{row.batched_us_per_tuple:>16.2f}"
        )
    return "\n".join(lines)


def parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="git revision to compare the working tree against")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--tuples", type=int, default=8192)
    parser.add_argument("--queries", type=int, nargs="+", default=[8, 64, 128])
    parser.add_argument(
        "--measure", action="store_true", help="measure one round here and print it as JSON"
    )
    args = parser.parse_args(argv)
    if not args.measure and not args.parent:
        parser.error("--parent is required")
    if args.rounds < 1 or args.tuples < 1 or min(args.queries) < 1:
        parser.error("--rounds, --tuples and every --queries must be at least 1")
    return args


def _round(tree: Path, args: argparse.Namespace) -> Round:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--measure",
        "--tuples", str(args.tuples), "--queries", *map(str, args.queries),
    ]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.queries, args.tuples)))
        return 0
    with tempfile.TemporaryDirectory(prefix="vocab-parent-") as scratch:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", args.parent],
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            check=True,
        )
        subprocess.run(["tar", "-x", "-C", scratch], input=archive.stdout, check=True)
        trees = {"parent": Path(scratch), "change": REPO_ROOT}
        rounds: Dict[str, List[Round]] = {"parent": [], "change": []}
        for number in range(args.rounds):
            for side in ("parent", "change") if number % 2 == 0 else ("change", "parent"):
                rounds[side].append(_round(trees[side], args))
                print(f"vocab_scaling: round {number + 1} {side} done", file=sys.stderr, flush=True)
    try:
        check_same(rounds["parent"], rounds["change"])
    except ValueError as error:
        print(f"vocab_scaling: {error}", file=sys.stderr)
        return 1
    rows = summarise("parent", rounds["parent"]) + summarise("change", rounds["change"])
    print(
        f"disjoint two-pose vocabulary, {args.tuples} tuples of {PLAYERS} players, "
        f"best of {args.rounds} per tuple, parent {args.parent}"
    )
    print(render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
