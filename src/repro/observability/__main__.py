"""``python -m repro.observability`` — trace analysis and the live top CLI.

``summarize trace.json`` reads a Chrome trace-event document exported by
:meth:`Tracer.export` (or ``GestureSession.export_trace``) and renders:

* a per-stage latency table — span count, p50 / p95 / max duration and
  total time per category (gateway / queue / shard / matcher / ...);
* a critical-path breakdown — for each complete trace, where its
  end-to-end wall time went, averaged across traces.

``--json`` renders the same summary as one machine-readable document.  A
*valid but empty* trace (``{"traceEvents": []}`` — tracing off, or
nothing sampled) is not an error: the summary says so and the command
exits 0, so an untraced CI run does not fail its reporting step.

``top`` polls a gateway's ``/debug/vars`` endpoint and renders each
tenant's per-query share of traced matcher time (``session.profile()``)
and health as a terminal dashboard (``--once`` prints a single frame for
scripts and CI).

The commands exit 0 on success, 2 on a missing/invalid file or an
unreachable gateway, so they slot into CI pipelines.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from collections import defaultdict
from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = ["main", "summarize_trace", "summarize_trace_json"]


def _percentile(sorted_values: List[float], quantile: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, round(quantile * (len(sorted_values) - 1))))
    return sorted_values[index]


def _format_us(microseconds: float) -> str:
    if microseconds >= 1e6:
        return f"{microseconds / 1e6:.3f}s"
    if microseconds >= 1e3:
        return f"{microseconds / 1e3:.3f}ms"
    return f"{microseconds:.1f}us"


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(header) for header in headers]
    for row in rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    ruler = "  ".join("-" * width for width in widths)
    return "\n".join([line(headers), ruler, *[line(row) for row in rows]])


def _complete_events(document: Mapping[str, Any]) -> List[Mapping[str, Any]]:
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError(
            "not a Chrome trace-event document: missing 'traceEvents' list"
        )
    return [
        event
        for event in events
        if isinstance(event, Mapping) and event.get("ph") == "X"
    ]


def _analyze(events: List[Mapping[str, Any]]) -> Dict[str, Any]:
    """Shared analysis behind the text and JSON renderings."""
    by_stage: Dict[str, List[float]] = defaultdict(list)
    by_trace: Dict[str, List[Mapping[str, Any]]] = defaultdict(list)
    for event in events:
        duration = float(event.get("dur", 0.0))
        by_stage[str(event.get("cat", "?"))].append(duration)
        trace_id = event.get("args", {}).get("trace_id")
        if trace_id:
            by_trace[str(trace_id)].append(event)

    stages: Dict[str, Dict[str, float]] = {}
    for stage, durations in by_stage.items():
        durations = sorted(durations)
        stages[stage] = {
            "spans": len(durations),
            "p50_us": _percentile(durations, 0.50),
            "p95_us": _percentile(durations, 0.95),
            "max_us": durations[-1] if durations else 0.0,
            "total_us": sum(durations),
        }

    critical: Dict[str, Any] = {}
    if by_trace:
        stage_share: Dict[str, float] = defaultdict(float)
        spans_per_trace = []
        e2e_total = 0.0
        for trace_events in by_trace.values():
            start = min(float(event.get("ts", 0.0)) for event in trace_events)
            end = max(
                float(event.get("ts", 0.0)) + float(event.get("dur", 0.0))
                for event in trace_events
            )
            e2e_total += end - start
            spans_per_trace.append(len(trace_events))
            for event in trace_events:
                stage_share[str(event.get("cat", "?"))] += float(event.get("dur", 0.0))
        trace_count = len(by_trace)
        critical = {
            "traces": trace_count,
            "mean_end_to_end_us": e2e_total / trace_count,
            "mean_spans_per_trace": sum(spans_per_trace) / trace_count,
            "stage_share": {
                stage: {
                    "mean_us_per_trace": total / trace_count,
                    "share": total / max(1e-9, sum(stage_share.values())),
                }
                for stage, total in sorted(stage_share.items(), key=lambda kv: -kv[1])
            },
        }
    return {"spans": len(events), "stages": stages, "critical_path": critical}


def summarize_trace_json(document: Mapping[str, Any]) -> Dict[str, Any]:
    """The summary as one JSON-safe document (``spans == 0`` when the
    trace is valid but empty)."""
    return _analyze(_complete_events(document))


def summarize_trace(document: Mapping[str, Any]) -> str:
    """The per-stage table + critical-path breakdown, as one string.

    A valid empty trace renders a one-line notice instead of raising —
    tracing off is a configuration, not an error.
    """
    events = _complete_events(document)
    if not events:
        return (
            "trace contains no complete ('ph': 'X') span events — "
            "tracing was off or nothing was sampled"
        )
    analysis = _analyze(events)

    stage_rows = []
    stages = analysis["stages"]
    for stage in sorted(stages, key=lambda s: -stages[s]["total_us"]):
        digest = stages[stage]
        stage_rows.append(
            [
                stage,
                str(digest["spans"]),
                _format_us(digest["p50_us"]),
                _format_us(digest["p95_us"]),
                _format_us(digest["max_us"]),
                _format_us(digest["total_us"]),
            ]
        )
    sections = [
        "Per-stage latency (span durations by category)",
        _render_table(["stage", "spans", "p50", "p95", "max", "total"], stage_rows),
    ]

    critical = analysis["critical_path"]
    if critical:
        path_rows = [
            [
                stage,
                _format_us(share["mean_us_per_trace"]),
                f"{100.0 * share['share']:.1f}%",
            ]
            for stage, share in critical["stage_share"].items()
        ]
        sections += [
            "",
            f"Critical path across {critical['traces']} trace(s) "
            f"(mean end-to-end {_format_us(critical['mean_end_to_end_us'])}, "
            f"mean spans/trace {critical['mean_spans_per_trace']:.1f})",
            _render_table(["stage", "mean time/trace", "share"], path_rows),
        ]
    return "\n".join(sections)


# -- the top dashboard -------------------------------------------------------------------


def _fetch_debug_vars(url: str, timeout: float) -> Dict[str, Any]:
    with urllib.request.urlopen(url, timeout=timeout) as response:  # noqa: S310 — local gateway
        return json.loads(response.read().decode("utf-8"))


def _render_top_frame(document: Mapping[str, Any]) -> str:
    tenants = document.get("tenants") or {}
    if not tenants:
        return "no tenant sessions attached yet"
    frames = []
    for name in sorted(tenants):
        entry = tenants[name] or {}
        profile = entry.get("profile") or {}
        frames.append(f"tenant: {name}")
        if not profile.get("enabled"):
            frames.append("  attribution off (SessionConfig.trace_sample_rate = 0)")
        else:
            frames.append(f"  matcher spans: {profile.get('spans', 0)}")
            frames.append(f"  {'QUERY':<32} {'SPANS':>9} {'SECONDS':>10} {'SHARE':>7}")
            rows = sorted(
                (profile.get("queries") or {}).items(),
                key=lambda item: item[1].get("cpu_share", 0.0),
                reverse=True,
            )
            for query, row in rows:
                frames.append(
                    f"  {query[:32]:<32} {row.get('spans', 0):>9} "
                    f"{row.get('seconds', 0.0):>10.4f} {row.get('cpu_share', 0.0):>7.1%}"
                )
        health = entry.get("health")
        if health:
            frames.append(f"  health: {health.get('status', '?')}")
        frames.append("")
    return "\n".join(frames).rstrip()


def _run_top(url: str, interval: float, once: bool, timeout: float) -> int:
    while True:
        try:
            document = _fetch_debug_vars(url, timeout)
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {url}: {exc}", file=sys.stderr)
            return 2
        frame = _render_top_frame(document)
        if once:
            print(frame)
            return 0
        # Clear-and-home keeps the dashboard in place on ANSI terminals.
        sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
        sys.stdout.flush()
        time.sleep(interval)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability",
        description="Analyse exported traces; watch live per-query matcher time.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    summarize = commands.add_parser(
        "summarize", help="per-stage latency table + critical-path breakdown"
    )
    summarize.add_argument("trace_file", help="Chrome trace-event JSON file")
    summarize.add_argument(
        "--json", action="store_true", help="emit the summary as a JSON document"
    )
    top = commands.add_parser(
        "top", help="live per-query matcher-time dashboard from a gateway's /debug/vars"
    )
    top.add_argument(
        "--url",
        default="http://127.0.0.1:8876/debug/vars",
        help="gateway /debug/vars endpoint (default: %(default)s)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, help="refresh period, seconds"
    )
    top.add_argument(
        "--once", action="store_true", help="print a single frame and exit (CI)"
    )
    top.add_argument(
        "--timeout", type=float, default=5.0, help="HTTP timeout, seconds"
    )
    options = parser.parse_args(argv)

    if options.command == "top":
        return _run_top(options.url, options.interval, options.once, options.timeout)

    try:
        with open(options.trace_file, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read trace file: {exc}", file=sys.stderr)
        return 2
    try:
        if options.json:
            print(json.dumps(summarize_trace_json(document), indent=2, sort_keys=True))
        else:
            print(summarize_trace(document))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: the POSIX-polite exit.
        sys.exit(141)
