"""repro — Learning Event Patterns for Gesture Detection (EDBT 2014).

A from-scratch reproduction of Beier, Alaqraa, Lai and Sattler,
*Learning Event Patterns for Gesture Detection*, EDBT 2014: gestures are
described declaratively as complex-event-processing (CEP) queries over a
3D-camera skeleton stream, and those queries are *learned* from a handful
of recorded samples via distance-based sampling and window merging.

Quickstart
----------
The public API is :mod:`repro.api`: a fluent query DSL plus the
:class:`~repro.api.GestureSession` façade, which owns the CEP engine, the
``kinect_t`` transformation view, the detector, the learning pipeline and
the gesture database behind one object:

>>> from repro import GestureSession, F, Q
>>> hands_up = (
...     Q.stream("kinect_t")                 # events default to this stream
...     .where(F("rhand_y") > 400)           # pose 1: right hand raised
...     .named("hands_up")                   # -> a deployable Query
... )
>>> with GestureSession() as session:        # doctest: +SKIP
...     session.deploy(hands_up)             # DSL chains, Query objects,
...     session.learn("swipe", samples,      # query text and descriptions
...                   deploy=True)           # all deploy the same way
...     session.on("swipe", print)           # exception-isolated handlers
...     session.feed(frames, batch_size=64)  # batched engine delivery path
...     session.detections(partition=1)      # per-player filtering

Learned queries render to the paper's Fig. 1 text via ``to_query()`` and
round-trip through :func:`repro.cep.parse_query`; ``examples/quickstart.py``
runs the whole learn-deploy-detect loop on simulated data.

Scaling out
-----------
The matchers keep all their state per player, so detection over a shared
multi-user stream is embarrassingly parallel — and
``GestureSession(SessionConfig(shards=N))`` exploits it: frames are routed
to N worker shards by a stable hash of their ``player`` id, deployments
fan out to every shard, and each shard bounds its tuples in flight: a
feed that outruns the workers waits for them, and only a gateway tenant's
edge queue sheds load.  Per player
the detections are byte-identical to the inline engine's
(``tests/test_execution_modes.py`` asserts it), ``session.metrics`` reports per-shard throughput / queue
depth, and ``shard_executor="process"`` turns the shards into
worker processes for true multi-core parallelism:

>>> from repro import GestureSession, SessionConfig            # doctest: +SKIP
>>> with GestureSession(SessionConfig(shards=4)) as session:   # doctest: +SKIP
...     session.deploy_vocabulary(manifest)
...     session.feed(frames)                  # routed per player
...     session.detections(partition=2)       # == the inline sequence

``shards=1`` (the default) keeps the inline single-threaded path
untouched.  The execution layer lives in :mod:`repro.runtime` and can be
driven directly (``ShardedRuntime``) when the session façade is too much.

The package is organised by subsystem:

``repro.api``
    the public façade: fluent query DSL + ``GestureSession``.
``repro.streams``
    push-based streams and the simulated clock.
``repro.kinect``
    the Kinect skeleton-stream simulator (trajectories, users, noise).
``repro.transform``
    the user-independent ``kinect_t`` coordinate transformation.
``repro.cep``
    the CEP engine: query language, NFA matcher, views, sinks.
``repro.runtime``
    the sharded concurrent runtime: partition-hash routing, worker
    shards with bounded queues, merged results, metrics.
``repro.core``
    the learning pipeline: sampling, merging, validation, optimisation,
    query generation (the paper's contribution).
``repro.storage``
    the gesture database.
``repro.detection``
    the gesture detector, recording controller and interactive workflow.
``repro.apps``
    gesture-controlled OLAP and graph navigation demos.
``repro.evaluation``
    metrics, workload generation and experiment harnesses.
"""

from repro.errors import ReproError

__version__ = "1.2.0"

__all__ = [
    "ReproError",
    "__version__",
    # Lazily re-exported from repro.api (PEP 562):
    "GestureSession",
    "SessionConfig",
    "DurabilityConfig",
    "RecoveryResult",
    "ReplayController",
    "F",
    "Q",
    "QueryBuilder",
    "Expr",
]

#: Names re-exported lazily from :mod:`repro.api` so that importing
#: ``repro`` stays lightweight (no numpy import at package-import time).
_API_EXPORTS = (
    "GestureSession",
    "SessionConfig",
    "DurabilityConfig",
    "RecoveryResult",
    "ReplayController",
    "F",
    "Q",
    "QueryBuilder",
    "Expr",
)


def __getattr__(name: str):
    if name in _API_EXPORTS:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute '{name}'")
