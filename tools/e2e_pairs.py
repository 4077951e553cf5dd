#!/usr/bin/env python
"""Alternating parent/change pairs of ``benchmarks/e2e`` — the claim protocol as a command.

    python tools/e2e_pairs.py --parent <rev> --workload <name> [--workload <name> ...] --pairs 10 [--seconds 24] [--trace]
    python tools/e2e_pairs.py --parent <rev> --workload all --pairs 3

Checks ``<rev>`` out into a temporary directory (``git archive``: committed
files only, in a new directory — what the driver measures — and nothing is
left behind in ``.git``), then runs the command ``BENCHMARK.json`` declares
in that copy and in the working tree alternately: pair *n* uses seed *n*,
and who goes first alternates, so a slow minute on this shared box hits both
sides.  Per end-to-end metric it prints the parent's median and quartiles,
the change's median, how many pairs the change won (ties count for neither)
and a verdict from the metric's ``better`` / ``bound``:

``gain``          the change won at least nine tenths of the pairs and the
                  medians are further apart than the parent's own
                  inter-quartile range;
``regression``    the change's median is worse than the parent's by more
                  than the bound;
``within noise``  neither.

A run that reports ``correct: false`` or failed operations is refused, not
summarised.

``--trace`` names the layer that moved: after the pairs it runs the
benchmark once more per side with ``--trace 1 --seed 1`` and prints each
``per_layer`` metric of ``BENCHMARK.json`` as parent → change with the
ratio.  One traced run per side orients; the pairs are the claim.

``--workload`` repeats, and ``all`` names every workload of
``BENCHMARK.json``: the workloads run one after another (all pairs of one,
then the next) against one parent checkout, and one table is printed per
workload, so "no other workload got worse" is one command.

The tool reads ``BENCHMARK.json`` and calls the benchmark; it edits
neither.  ``summarise`` and ``layer_table`` are the pure parts, and
``parse_args`` the command line (``tests/test_e2e_pairs.py``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Mapping, NamedTuple, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: One run: the JSON object the benchmark prints last.
Run = Mapping[str, Any]


class Row(NamedTuple):
    metric: str
    unit: str
    parent_median: float
    parent_q1: float
    parent_q3: float
    change_median: float
    wins: int
    pairs: int
    verdict: str


def _quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _refuse_incorrect(run: Run, label: str) -> None:
    if not run.get("correct") or run.get("failed"):
        raise ValueError(
            f"{label} reports correct={run.get('correct')!r}, "
            f"failed={run.get('failed')!r}; refusing to summarise"
        )


def summarise(end_to_end: Sequence[Mapping[str, Any]], pairs: Sequence[Tuple[Run, Run]]) -> List[Row]:
    """One :class:`Row` per metric of ``BENCHMARK.json``'s ``end_to_end`` list.

    ``pairs`` holds (parent run, change run) per pair.  Raises ``ValueError``
    on an empty list and on any run that was incorrect or failed operations:
    a timing of wrong answers is not a measurement.
    """
    if not pairs:
        raise ValueError("no pairs to summarise")
    for number, pair in enumerate(pairs, start=1):
        for side, run in zip(("parent", "change"), pair):
            _refuse_incorrect(run, f"pair {number}: the {side} run")
    rows = []
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        sign = 1.0 if higher else -1.0  # sign * value: larger is better
        parent = [float(p["metrics"][name]["value"]) for p, _ in pairs]
        change = [float(c["metrics"][name]["value"]) for _, c in pairs]
        wins = sum(sign * c > sign * p for p, c in zip(parent, change))
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        q1, q3 = _quartiles(parent)
        improvement = sign * (change_median - parent_median)
        if wins >= 0.9 * len(pairs) and improvement > q3 - q1:
            verdict = "gain"
        elif -improvement > spec["bound"] * abs(parent_median):
            verdict = "regression"
        else:
            verdict = "within noise"
        rows.append(
            Row(name, spec["unit"], parent_median, q1, q3, change_median, wins, len(pairs), verdict)
        )
    return rows


def render(rows: Sequence[Row]) -> str:
    lines = [f"{'metric':<24}{'parent median [q1 - q3]':>38}{'change median':>16}{'wins':>8}  verdict"]
    for row in rows:
        parent = f"{row.parent_median:.5g} [{row.parent_q1:.5g} - {row.parent_q3:.5g}]"
        lines.append(
            f"{row.metric + ' (' + row.unit + ')':<24}{parent:>38}{row.change_median:>16.5g}"
            f"{f'{row.wins}/{row.pairs}':>8}  {row.verdict}"
        )
    return "\n".join(lines)


def layer_table(per_layer: Sequence[Mapping[str, Any]], parent: Run, change: Run) -> str:
    """Each metric of ``BENCHMARK.json``'s ``per_layer`` list in two traced
    runs, one line each: parent → change and the ratio change / parent.

    A metric missing from a run prints as ``-``, and so does the ratio to a
    parent value of 0.  Raises ``ValueError`` on an incorrect or failed run.
    """
    _refuse_incorrect(parent, "the traced parent run")
    _refuse_incorrect(change, "the traced change run")
    lines = [f"{'per-layer metric':<46}{'parent':>12}    {'change':>12}{'ratio':>8}"]
    for spec in per_layer:
        name = spec["name"]
        before, after = (run["metrics"].get(name, {}).get("value") for run in (parent, change))
        ratio = "-" if before is None or after is None or before == 0 else f"{after / before:.2f}"
        cells = ["-" if value is None else f"{value:.4g}" for value in (before, after)]
        lines.append(
            f"{name + ' (' + spec['unit'] + ')':<46}{cells[0]:>12} -> {cells[1]:>12}{ratio:>8}"
        )
    return "\n".join(lines)


def _run_once(command: Sequence[str], tree: Path) -> Dict[str, Any]:
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(command)} in {tree} printed nothing (exit {done.returncode})")
    return json.loads(lines[-1])


def parse_args(argv: Sequence[str] | None, manifest: Mapping[str, Any]) -> argparse.Namespace:
    """The command line; ``workloads`` lists each workload to run once, in order.

    ``--workload`` may repeat, and ``all`` stands for every workload of
    ``BENCHMARK.json`` in its order.
    """
    names = [workload["name"] for workload in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare the working tree against")
    parser.add_argument(
        "--workload",
        required=True,
        action="append",
        choices=[*names, "all"],
        help="a workload of BENCHMARK.json; repeat it for several, or give 'all'",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument(
        "--trace", action="store_true", help="then one traced seed-1 run per side: per-layer table"
    )
    args = parser.parse_args(argv)
    args.workloads = names if "all" in args.workload else list(dict.fromkeys(args.workload))
    return args


def _run_workload(
    manifest: Mapping[str, Any], args: argparse.Namespace, workload: str, trees: Mapping[str, Path]
) -> Tuple[List[Tuple[Run, Run]], Dict[str, Run]]:
    """The pairs of one workload, then its traced run per side with ``--trace``."""
    base = [*manifest["command"], "--workload", workload]
    pairs: List[Tuple[Run, Run]] = []
    for seed in range(1, args.pairs + 1):
        command = [*base, "--seed", str(seed), "--seconds", f"{args.seconds:g}"]
        runs = {}
        for side in ("parent", "change") if seed % 2 else ("change", "parent"):
            runs[side] = _run_once(command, trees[side])
            print(json.dumps({"workload": workload, "pair": seed, "side": side, **runs[side]}), flush=True)
        pairs.append((runs["parent"], runs["change"]))
    traced = {}
    if args.trace:
        command = [*base, "--seed", "1", "--seconds", f"{args.seconds:g}", "--trace", "1"]
        for side in ("parent", "change"):
            traced[side] = _run_once(command, trees[side])
            print(json.dumps({"workload": workload, "trace": 1, "side": side, **traced[side]}), flush=True)
    return pairs, traced


def main(argv: Sequence[str] | None = None) -> int:
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, manifest)

    with tempfile.TemporaryDirectory(prefix="e2e-parent-") as scratch:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", args.parent], cwd=REPO_ROOT, stdout=subprocess.PIPE, check=True
        )
        subprocess.run(["tar", "-x", "-C", scratch], input=archive.stdout, check=True)
        trees = {"parent": Path(scratch), "change": REPO_ROOT}
        results = {workload: _run_workload(manifest, args, workload, trees) for workload in args.workloads}
    status = 0
    for workload, (pairs, traced) in results.items():
        try:
            rows = summarise(manifest["end_to_end"], pairs)
            layers = ""
            if traced:
                layers = layer_table(manifest["per_layer"], traced["parent"], traced["change"])
        except ValueError as error:
            print(f"e2e_pairs: {workload}: {error}", file=sys.stderr)
            status = 1
            continue
        print(f"\n{workload}: {args.pairs} pairs of {args.seconds:g} s, parent {args.parent}")
        print(render(rows))
        if layers:
            print(f"\n{workload}: one traced run per side, seed 1")
            print(layers)
    return status


if __name__ == "__main__":
    sys.exit(main())
