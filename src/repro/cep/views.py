"""Derived streams (views).

The paper defines a ``kinect_t`` view that applies the whole
user-independent transformation "on-the-fly when new training samples are
recorded" so that "only a single step needs to be performed on the incoming
data stream" (Sec. 3.2).  A :class:`View` here is exactly that: a derived
stream computed by applying a per-tuple function to a source stream.
:func:`install_kinect_view` wires the standard transformation.

A database pushes projections into its views, and so does this one: a
view computes only the fields its output stream's subscribers read
(:attr:`~repro.streams.stream.Stream.reads`), when its function knows how
to compute less.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import for type hints only
    from repro.cep.engine import CEPEngine

from repro.streams.stream import Stream, Subscription
from repro.transform.pipeline import KinectTransformer, TransformConfig

#: Sentinel: no read set projected yet (``None`` is a read set: any field).
_UNSET: Any = object()

#: Names of the raw and transformed Kinect streams.
RAW_STREAM_NAME = "kinect"
TRANSFORMED_STREAM_NAME = "kinect_t"


class View:
    """A derived stream: ``output = function(tuple)`` for every source tuple.

    A function that can compute less defines ``project(reads)``: given the
    fields the output stream's subscribers read (``None``: any field), it
    returns the per-tuple function to apply instead.  The view asks again
    on the first tuple after the output's read set changed — a query
    deployed or undeployed, a subscriber added, cancelled or redeclared —
    and never otherwise, so a projection costs one identity check per
    tuple (or chunk).  A plain function is applied as it is.
    """

    def __init__(
        self,
        name: str,
        source: Stream,
        output: Stream,
        function: Callable[[Mapping[str, Any]], Mapping[str, Any]],
    ) -> None:
        self.name = name
        self.source = source
        self.output = output
        self.function = function
        self.tuples_processed = 0
        self._subscription: Optional[Subscription] = None
        #: The output read set :attr:`_apply` was projected for.
        self._reads: Any = _UNSET
        self._apply = function

    def start(self) -> None:
        if self._subscription is None:
            self._subscription = self.source.subscribe(
                self._on_tuple, name=self.name, batch_callback=self._on_batch
            )

    def stop(self) -> None:
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None

    @property
    def active(self) -> bool:
        return self._subscription is not None

    def _project(self) -> Callable[[Mapping[str, Any]], Mapping[str, Any]]:
        """Re-derive :attr:`_apply` for the output's current read set."""
        reads = self._reads = self.output.reads
        project = getattr(self.function, "project", None)
        self._apply = project(reads) if callable(project) else self.function
        return self._apply

    def _on_tuple(self, record: Mapping[str, Any]) -> None:
        self.tuples_processed += 1
        apply = self._apply if self.output.reads is self._reads else self._project()
        self.output.push(apply(record))

    def _on_batch(self, records: Sequence[Mapping[str, Any]]) -> None:
        """Batch delivery: transform the chunk and forward it as one chunk.

        A record the function rejects (a frame without torso fields) must
        not cost the chunk's other records their delivery — per-tuple
        feeding would lose only that one.  The rest are forwarded in order
        and the first error is re-raised afterwards, the rule
        :meth:`Stream.push_batch` applies to a raising subscriber.
        """
        self.tuples_processed += len(records)
        function = self._apply if self.output.reads is self._reads else self._project()
        outputs = []
        first_error: Optional[Exception] = None
        for record in records:
            try:
                outputs.append(function(record))
            except Exception as error:  # noqa: BLE001 — isolate, forward the rest
                if first_error is None:
                    first_error = error
        self.output.push_batch(outputs)
        if first_error is not None:
            raise first_error

    def __repr__(self) -> str:
        return (
            f"View(name={self.name!r}, source={self.source.name!r}, "
            f"output={self.output.name!r}, processed={self.tuples_processed})"
        )


def install_kinect_view(
    engine: "CEPEngine",
    transform_config: Optional[TransformConfig] = None,
) -> View:
    """Create the raw ``kinect`` stream and its transformed ``kinect_t`` view.

    Registers two streams with the engine (if not present yet) and installs
    the transformation view between them.  Returns the installed view; its
    transformer is available as ``view.function`` (a
    :class:`~repro.transform.pipeline.KinectTransformer`).

    The view computes only the joints its readers read
    (:meth:`~repro.transform.pipeline.KinectTransformer.project`): the
    engine's query fan-out declares the fields of the deployed queries, so a
    ``kinect_t`` tuple carries every non-joint field, ``scale``, both hands
    and the joints some deployed query reads.  A subscriber that declares
    nothing (``stream.subscribe(callback)``) widens it to every joint;
    ``view.function.transform(frame)`` always returns the full frame.

    The transformer keeps its smoothed forearm scale per tracked player
    (``transform_config.partition_field``, default ``"player"``) so
    concurrent users in one sensor space never blend scale factors; the
    ``player`` and ``ts`` fields pass through the transformation unchanged,
    which is what lets deployed queries partition their run tables on the
    transformed stream.
    """
    if RAW_STREAM_NAME not in engine.streams:
        engine.create_stream(RAW_STREAM_NAME)
    transformer = KinectTransformer(transform_config)
    return engine.register_view(TRANSFORMED_STREAM_NAME, RAW_STREAM_NAME, transformer)
