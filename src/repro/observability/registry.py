"""Declare a metric once: family rows, one value store, one exposition writer.

A :class:`Family` row is the single declaration of a metric; each subsystem
keeps a plain tuple of rows next to the code that writes them
(``SHARD_FAMILIES``, ``DURABILITY_FAMILIES``, ``GATEWAY_FAMILIES``, …) and
everything else is derived from the rows.  A :class:`MetricSet` holds the
live values of one tuple of rows behind **one** lock.  :func:`exposition` is
the only place ``# HELP`` / ``# TYPE`` lines are written (repo-lint RL005):
it groups samples by family, so a header appears exactly once however many
shards, tenants or registries contribute samples to one scrape body.
"""

from __future__ import annotations

import math
import platform
import threading
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple, Union

from repro.observability.histogram import LatencyHistogram

__all__ = [
    "BUILD_INFO",
    "Family",
    "MetricSet",
    "Sample",
    "build_info_sample",
    "exposition",
    "rounded",
    "scalar_samples",
]

Number = Union[int, float]


class Family(NamedTuple):
    """One metric, declared once.

    ``key`` names it in ``snapshot()`` documents and ``add(key=amount)``
    calls, ``name`` in the text exposition; ``kind`` is ``"counter"``,
    ``"gauge"`` or ``"histogram"``.  A float ``zero`` makes the metric a
    float of seconds, which snapshots round to six places.
    """

    key: str
    name: str
    kind: str
    help: str
    zero: Number = 0


#: One exposition sample: the declaring row, the label set, and a number or
#: — for a histogram family — the histogram to render.
Sample = Tuple[Family, Mapping[str, object], Union[Number, LatencyHistogram]]

BUILD_INFO = Family("build_info", "repro_build_info", "gauge", "Build and runtime identity (constant 1).")


def build_info_sample(labels: Mapping[str, object]) -> Sample:
    """The constant ``1`` whose labels carry the package version and Python
    runtime — the standard way to join any scraped series with "what build
    produced this"."""
    from repro import __version__

    return BUILD_INFO, {**labels, "version": __version__, "python": platform.python_version()}, 1


def scalar_samples(
    families: Iterable[Family], values: Mapping[str, Number], labels: Mapping[str, object]
) -> List[Sample]:
    """One sample per counter / gauge row; a key ``values`` lacks reads as zero."""
    return [
        (family, labels, values.get(family.key, family.zero))
        for family in families
        if family.kind != "histogram"
    ]


def rounded(values: Mapping[str, Number]) -> Dict[str, Number]:
    """``values`` as snapshot documents show them: float seconds rounded to µs."""
    return {
        key: round(value, 6) if isinstance(value, float) else value
        for key, value in values.items()
    }


class MetricSet:
    """The live values of one tuple of families.  Thread-safe.

    ``labels`` (``{"shard": 0}``) are stamped on every sample the set
    contributes to an exposition.  Histograms are *not* written under the
    lock: each has exactly one writer thread (see
    :mod:`repro.observability.histogram`); readers copy under it.
    """

    def __init__(
        self, families: Iterable[Family], labels: Optional[Mapping[str, object]] = None
    ) -> None:
        self.families = tuple(families)
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._values: Dict[str, Number] = {
            family.key: family.zero for family in self.families if family.kind != "histogram"
        }
        self._histograms: Dict[str, LatencyHistogram] = {
            family.key: LatencyHistogram() for family in self.families if family.kind == "histogram"
        }

    def add(self, **amounts: Number) -> None:
        """Move every named counter (or gauge) by its amount, under one lock."""
        with self._lock:
            values = self._values
            for key in amounts:
                values[key] += amounts[key]

    def raise_to(self, key: str, level: Number) -> None:
        """Keep ``key`` at the highest level seen (a high-water gauge)."""
        with self._lock:
            if level > self._values[key]:
                self._values[key] = level

    def observe(self, key: str, seconds: float) -> None:
        """One sample into histogram ``key`` (its single writer thread only)."""
        self._histograms[key].record(seconds)

    def values(self) -> Dict[str, Number]:
        """An unrounded copy of every counter and gauge, in family order."""
        with self._lock:
            return dict(self._values)

    def snapshot(self) -> Dict[str, Number]:
        """A JSON-serialisable copy of every counter and gauge."""
        return rounded(self.values())

    def histograms(self) -> Dict[str, LatencyHistogram]:
        """A copy of every histogram, by family key."""
        with self._lock:
            return {
                key: LatencyHistogram.merged([histogram])
                for key, histogram in self._histograms.items()
            }

    def samples(self) -> List[Sample]:
        """Every exposition sample of the set: its scalars, then its histograms."""
        copies = self.histograms()
        return scalar_samples(self.families, rounded(self.values()), self.labels) + [
            (family, self.labels, copies[family.key])
            for family in self.families
            if family.kind == "histogram"
        ]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.labels}, {self.snapshot()})"


def _format_value(value: Number) -> str:
    """Render a sample value: integral floats without ``.0``, non-finite ones
    in the format's spellings (``+Inf`` / ``-Inf`` / ``NaN``; Python's ``inf``
    and ``nan`` would not parse on the scraper side)."""
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value.is_integer():
            return str(int(value))
    return str(value)


def _sample_line(name: str, value: Number, labels: Mapping[str, object]) -> str:
    """``name{label="value",...} value``, labels sorted by name.

    Label *names* must already be legal (``[a-zA-Z_][a-zA-Z0-9_]*``); label
    values are escaped here — backslash, double quote and line feed are the
    only characters the format escapes, in that order, so a pre-existing
    ``\\`` never doubles an escape introduced here.
    """
    if not labels:
        return f"{name} {_format_value(value)}"
    rendered = ",".join(
        '{}="{}"'.format(
            key, str(labels[key]).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        for key in sorted(labels)
    )
    return f"{name}{{{rendered}}} {_format_value(value)}"


def exposition(samples: Iterable[Sample]) -> str:
    """Render samples in the Prometheus text exposition format (0.0.4).

    Samples are grouped by family in first-seen order, so each family's
    header is written once and its samples are contiguous — what the format
    requires — whatever order the contributing sets arrive in.  A histogram
    sample renders as cumulative ``_bucket`` series ending at ``le="+Inf"``,
    then ``_sum`` and ``_count``.  Every line ends with a newline.
    """
    groups: Dict[str, Tuple[Family, List[str]]] = {}
    for family, labels, value in samples:
        name = family.name
        lines = groups.setdefault(name, (family, []))[1]
        if isinstance(value, LatencyHistogram):
            for le, cumulative in value.bucket_pairs():
                lines.append(_sample_line(f"{name}_bucket", cumulative, {**labels, "le": le}))
            lines.append(_sample_line(f"{name}_sum", value.sum, labels))
            lines.append(_sample_line(f"{name}_count", value.count, labels))
        else:
            lines.append(_sample_line(name, value, labels))
    out: List[str] = []
    for family, lines in groups.values():
        out.append(f"# HELP {family.name} {family.help}\n# TYPE {family.name} {family.kind}")
        out.extend(lines)
    return "".join(line + "\n" for line in out)
