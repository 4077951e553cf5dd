"""Sharded concurrent runtime: scale the detection path across worker shards.

The single-threaded :class:`~repro.cep.engine.CEPEngine` stays the unit of
matching semantics; this package is the execution layer that runs N of them
side by side:

``repro.runtime.router``
    stable partition-hash routing — all tuples of one player reach the
    same shard, in order.
``repro.runtime.shard``
    the worker loop and its parent-side handle: one message protocol,
    admission by credits (a producer that outruns a shard waits; only
    the gateway's edge drops tuples), and graceful failure reporting.
``repro.runtime.transport``
    what carries the protocol: a FIFO to a worker thread, or
    ``multiprocessing`` pipes to a worker process.
``repro.runtime.metrics``
    the per-shard counter families (throughput / queue depth /
    detections) and the registry that aggregates them.
``repro.runtime.sharded``
    :class:`ShardedRuntime`, the engine-shaped façade over all of it.

Most applications never import this package directly:
``GestureSession(SessionConfig(shards=4))`` runs the whole session on a
sharded runtime transparently (see :mod:`repro.api.session`).
``docs/runtime.md`` describes the shard protocol and the two executors.
"""

from repro.errors import (
    RuntimeStateError,
    ShardedRuntimeError,
    ShardFailedError,
)
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.router import HashPartitionRouter, stable_partition_hash
from repro.runtime.shard import RemoteShardError, ShardEngineSpec, ShardFailure
from repro.runtime.sharded import ShardedQuery, ShardedRuntime

__all__ = [
    "HashPartitionRouter",
    "MetricsRegistry",
    "RemoteShardError",
    "RuntimeStateError",
    "ShardEngineSpec",
    "ShardFailure",
    "ShardFailedError",
    "ShardedQuery",
    "ShardedRuntime",
    "ShardedRuntimeError",
    "stable_partition_hash",
]
