"""The match operator's semantics, spelled out as naively as possible.

The oracle ``tests/test_matcher_reference.py`` holds ``NFAMatcher`` to: a flat
list of runs per partition, ``Expression.evaluate`` once per run, a prune
before every tuple — no gating, no buckets, no batching, no compiled
closures, no shortcut on expiry.  It does not model the idle-partition sweep,
which the engine runs per stream (``NFAMatcher.sweep`` every
``_IDLE_SWEEP_TUPLES`` tuples of a stream): compare it with the sweep
disabled, or over fewer tuples than a sweep period.
"""

from types import SimpleNamespace

from repro.cep.matcher import Detection
from repro.cep.query import ConsumePolicy, SelectPolicy
from repro.cep.sinks import partition_sort_key


def merge_detections(detections):
    """The order every engine reads its detection log in, as one stable sort:
    ``(timestamp, partition key)``, arrival order breaking ties."""
    return sorted(detections, key=lambda d: (d.timestamp, partition_sort_key(d.partition)))


class ReferenceMatcher:
    def __init__(self, pattern, output, config):
        self.pattern, self.output, self.config = pattern, output, config
        self.partitions = {}  # partition value -> list of runs
        self.started = self.completed = self.pruned = self.detections = 0

    @property
    def active_runs(self):
        return sum(len(runs) for runs in self.partitions.values())

    def _expired(self, run, now):
        covering = self.pattern.constraints_covering(len(run.times) - 1)
        if covering:
            return any(now - run.times[c.first] > c.seconds for c in covering)
        ttl = self.config.run_ttl_seconds
        return ttl is not None and now - run.times[0] > ttl

    def _prune(self, runs, now):
        kept = [run for run in runs if not self._expired(run, now)]
        self.pruned += len(runs) - len(kept)
        runs[:] = kept

    def process(self, record, stream):
        config, steps = self.config, self.pattern.steps
        if stream not in self.pattern.streams():
            return []
        now = float(record.get(config.timestamp_field, 0.0))
        key = None if config.partition_field is None else record.get(config.partition_field)
        runs = self.partitions.setdefault(key, [])
        self._prune(runs, now)

        done = []
        for run in list(runs):  # a run started by this tuple waits for the next one
            step = steps[len(run.times)]
            if step.stream != stream or not step.predicate.evaluate(record):
                continue
            runs[:] = [other for other in runs if other is not run]
            if any(
                now - run.times[c.first] > c.seconds
                for c in self.pattern.constraints_ending_at(step.index)
                if c.first < step.index  # a within around one event spans no time
            ):
                self.pruned += 1
                continue
            run.times.append(now)
            run.matched.append(dict(record))
            (done if len(run.times) == len(steps) else runs).append(run)

        if steps[0].stream == stream and steps[0].predicate.evaluate(record):
            if len(steps) > 1 and len(runs) >= config.max_active_runs:
                self._prune(runs, now)  # a run that just moved may sit under the TTL now
            if len(steps) == 1 or len(runs) < config.max_active_runs:
                run = SimpleNamespace(times=[now], matched=[dict(record)], number=self.started)
                self.started += 1
                (done if len(steps) == 1 else runs).append(run)

        done.sort(key=lambda run: run.number)
        self.completed += len(done)
        if done and self.pattern.consume is ConsumePolicy.ALL:
            runs.clear()
        if not runs:
            del self.partitions[key]
        if self.pattern.select is not SelectPolicy.ALL:
            done = done[:1] if self.pattern.select is SelectPolicy.FIRST else done[-1:]
        self.detections += len(done)
        return [
            Detection(
                output=self.output,
                query_name=self.output,
                timestamp=now,
                start_timestamp=run.times[0],
                step_timestamps=tuple(run.times),
                matched=tuple(run.matched) if config.store_matched_tuples else None,
                partition=key,
            )
            for run in done
        ]


def reference_detections(queries, stream, records, config=None):
    """What one ``ReferenceMatcher`` per query reports on ``records``, in
    arrival order: the interpreted oracle engine-level tests compare with."""
    from repro.cep.engine import coerce_query
    from repro.cep.matcher import MatcherConfig
    from repro.cep.nfa import compile_pattern

    matchers = []
    for query in queries:
        query = coerce_query(query)
        matchers.append(
            ReferenceMatcher(compile_pattern(query.pattern), query.output, config or MatcherConfig())
        )
    return [d for record in records for matcher in matchers for d in matcher.process(record, stream)]
