"""The gesture detector: deploys learned gestures and dispatches events.

:class:`GestureDetector` is the runtime face of the system once learning is
done.  It owns (or is handed) a CEP engine with the ``kinect`` /
``kinect_t`` streams, turns gesture descriptions into queries via the
query generator, deploys them, and converts engine detections into
:class:`~repro.detection.events.GestureEvent` objects delivered to
registered handlers — exactly the "Controller / Application" interface of
the paper's Fig. 2.  It subscribes to its engine's control taps, so every
query the engine deploys dispatches here, whoever deployed it.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cep.engine import CEPEngine, Engine, QueryHandle
from repro.cep.matcher import Detection
from repro.cep.query import Query
from repro.cep.sinks import CallbackSink
from repro.cep.views import TRANSFORMED_STREAM_NAME, install_kinect_view
from repro.transform.pipeline import KinectTransformer
from repro.core.description import GestureDescription
from repro.core.querygen import QueryGenConfig, QueryGenerator
from repro.detection.events import DetectionFeedback, GestureEvent
from repro.errors import BindingError, GestureNotFoundError
from repro.streams.clock import Clock, SimulatedClock

GestureHandler = Callable[[GestureEvent], None]

#: Prefix of the workflow's control queries: they steer the tool, not gestures.
CONTROL_QUERY_PREFIX = "__control_"


class GestureDetector:
    """Deploys gesture patterns on a CEP engine and dispatches events.

    Parameters
    ----------
    engine:
        An existing :class:`~repro.cep.engine.Engine` (inline or sharded);
        a new inline one with the Kinect view is created when omitted.
    clock:
        Time source for a newly created engine.
    querygen_config:
        Configuration used when deploying :class:`GestureDescription`
        objects (ignored for pre-built queries).

    Examples
    --------
    >>> detector = GestureDetector()
    >>> events = []
    >>> from repro.core import GestureDescription, PoseWindow, Window
    >>> description = GestureDescription(
    ...     name="hands_up",
    ...     poses=[PoseWindow(0, Window({"rhand_y": 500.0}, {"rhand_y": 200.0}))],
    ... )
    >>> detector.deploy(description)
    >>> detector.on_gesture("hands_up", events.append)
    >>> detector.process_frame({"ts": 0.0, "torso_x": 0, "torso_y": 0, "torso_z": 0,
    ...                         "rhand_x": 0, "rhand_y": 400, "rhand_z": 0,
    ...                         "relbow_x": 0, "relbow_y": 200, "relbow_z": 0})
    """

    def __init__(
        self,
        engine: Optional[Engine] = None,
        clock: Optional[Clock] = None,
        querygen_config: Optional[QueryGenConfig] = None,
    ) -> None:
        if engine is None:
            engine = CEPEngine(clock=clock or SimulatedClock())
            install_kinect_view(engine)
        self.engine: Engine = engine
        self.generator = QueryGenerator(querygen_config)
        self._handlers: Dict[str, List[GestureHandler]] = {}
        self._global_handlers: List[GestureHandler] = []
        self._deployed: Dict[str, QueryHandle] = {}
        # Serialises event dispatch: on a sharded runtime detections arrive
        # from several worker threads at once, and handlers must observe
        # them one at a time.  Reentrant because a handler may feed another
        # frame whose detection dispatches recursively.
        self._dispatch_lock = threading.RLock()
        #: The detections the last :attr:`events` read converted, and its
        #: events (one attribute: readers on other threads see a pair).
        self._converted: Tuple[List[Detection], List[GestureEvent]] = ([], [])
        engine.add_control_tap(self._on_control)

    def _on_control(self, op: str, payload: Dict[str, Any]) -> None:
        """Follow the engine: wire each deployed gesture to :meth:`_dispatch`."""
        if payload.get("name", "").startswith(CONTROL_QUERY_PREFIX):
            return
        if op == "deploy":
            deployed = self.engine.get_query(payload["name"])
            deployed.sink.add(CallbackSink(self._dispatch))
            self._deployed[deployed.name] = deployed
        elif op == "undeploy":
            self._deployed.pop(payload["name"], None)

    # -- deployment ------------------------------------------------------------------

    def deploy(
        self, gesture: Union[GestureDescription, Query, str, Any], name: Optional[str] = None
    ) -> QueryHandle:
        """Deploy a gesture description, a query object, query text, or a
        fluent builder chain (anything with a ``build() -> Query`` method).

        Returns the engine's deployed-query handle.  The gesture becomes
        active immediately; previously deployed gestures keep running.
        """
        if isinstance(gesture, GestureDescription):
            return self.engine.register_query(
                self.generator.generate(gesture), name=name or gesture.name
            )
        return self.engine.register_query(gesture, name=name)

    def undeploy(self, name: str) -> None:
        """Remove a deployed gesture."""
        if name not in self._deployed:
            raise GestureNotFoundError(f"gesture '{name}' is not deployed")
        self.engine.unregister_query(name)

    def deployed_gestures(self) -> List[str]:
        return sorted(self._deployed)

    def set_enabled(self, name: str, enabled: bool) -> None:
        """Pause/resume a deployed gesture (e.g. while its query is tuned)."""
        if name not in self._deployed:
            raise GestureNotFoundError(f"gesture '{name}' is not deployed")
        self.engine.enable_query(name, enabled)

    # -- handlers ---------------------------------------------------------------------

    def on_gesture(self, name: str, handler: GestureHandler) -> None:
        """Register a handler called whenever gesture ``name`` is detected."""
        if not callable(handler):
            raise BindingError("gesture handler must be callable")
        self._handlers.setdefault(name, []).append(handler)

    def on_any_gesture(self, handler: GestureHandler) -> None:
        """Register a handler called for every detection."""
        if not callable(handler):
            raise BindingError("gesture handler must be callable")
        self._global_handlers.append(handler)

    def _dispatch(self, detection: Detection) -> None:
        with self._dispatch_lock:
            event = GestureEvent.from_detection(detection)
            for handler in list(self._handlers.get(event.gesture, [])):
                handler(event)
            for handler in list(self._global_handlers):
                handler(event)

    # -- data path --------------------------------------------------------------------------

    def process_frame(self, frame: Mapping[str, float], stream: str = "kinect") -> None:
        """Push one raw sensor frame into the engine."""
        self.engine.push(stream, frame)

    def process_frames(
        self,
        frames: Sequence[Mapping[str, float]],
        stream: str = "kinect",
        batch_size: Optional[int] = None,
    ) -> int:
        """Push a whole recording; returns the number of frames pushed.

        ``batch_size`` selects the engine's batched delivery path (see
        :meth:`CEPEngine.push_many`); the default keeps per-tuple fan-out.
        """
        return self.engine.push_many(stream, frames, batch_size=batch_size)

    # -- transformation state ---------------------------------------------------------

    @property
    def transformers(self) -> List[KinectTransformer]:
        """The stateful Kinect transformers of the engine's installed views."""
        return [
            view.function
            for view in self.engine.views.values()
            if isinstance(view.function, KinectTransformer)
        ]

    @property
    def transformer(self) -> Optional[KinectTransformer]:
        """The ``kinect_t`` view's transformer (``None`` if not installed)."""
        view = self.engine.views.get(TRANSFORMED_STREAM_NAME)
        if view is not None and isinstance(view.function, KinectTransformer):
            return view.function
        transformers = self.transformers
        return transformers[0] if transformers else None

    # -- feedback / introspection --------------------------------------------------------------

    def feedback(self) -> DetectionFeedback:
        """Current partial-match progress of every deployed gesture."""
        timestamp = self.engine.clock.now()
        read = self.engine.query_progress()
        current = {name: read.get(name, (0.0, 0)) for name in self._deployed}
        return DetectionFeedback(
            timestamp=timestamp,
            progress={name: progress for name, (progress, _runs) in current.items()},
            active_runs={name: runs for name, (_progress, runs) in current.items()},
        )

    def detections(self, name: Optional[str] = None) -> List[Detection]:
        """Raw engine detections (see :attr:`events` for application events)."""
        return self.engine.detections(name)

    @property
    def events(self) -> List[GestureEvent]:
        """The gesture events of the engine's detection history, undeployed
        gestures' included and control queries' excluded, in the engine's
        order: ``(timestamp, partition key, arrival)``.  A read converts
        only what follows the part of the previous read's history that is
        unchanged: a history that grew at its end is converted once."""
        detections = [
            detection
            for detection in self.engine.detections()
            if not detection.query_name.startswith(CONTROL_QUERY_PREFIX)
        ]
        seen, converted = self._converted
        kept = 0
        for detection, earlier in zip(detections, seen):
            if detection is not earlier:
                break
            kept += 1
        events = converted[:kept] + [
            GestureEvent.from_detection(detection) for detection in detections[kept:]
        ]
        self._converted = (detections, events)
        return list(events)

    def clear(self) -> None:
        """Reset the detector for a fresh scene.

        Drops the detection history (and so the events), all partial
        matches, *and* the kinect view's smoothed-scale state:
        ``KinectTransformer.reset`` is exactly the "new user steps in" hook,
        and skipping it would let a previous user's smoothed scale skew the
        next user's first seconds.
        """
        self.engine.reset_scene()

    def __repr__(self) -> str:
        return (
            f"GestureDetector(deployed={self.deployed_gestures()}, "
            f"events={len(self.events)})"
        )
