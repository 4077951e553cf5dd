"""Multi-dimensional windows ("detection conditions").

The paper expresses each pose of a gesture as a multi-dimensional rectangle
— "a center point determined by all (x, y, z) joint coordinates and a width
in each dimension representing possible deviations" (Sec. 3.3) — because
rectangles translate directly into range predicates, are easy to visualise,
and are easy to tune by hand.

:class:`Window` is that rectangle over an arbitrary set of fields;
:class:`PoseWindow` adds the sequence number that orders poses within a
gesture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple


@dataclass
class Window:
    """An axis-aligned rectangle over named fields.

    Attributes
    ----------
    center:
        field name → centre coordinate.
    width:
        field name → *full tolerance* (not half-width) in that dimension, i.e.
        a point is inside when ``abs(point[f] - center[f]) < width[f]``,
        exactly matching the generated predicate
        ``abs(center - coord) < width`` of Sec. 3.3.4.
    """

    center: Dict[str, float]
    width: Dict[str, float]

    def __post_init__(self) -> None:
        if not self.center:
            raise ValueError("a window needs at least one dimension")
        if set(self.center) != set(self.width):
            raise ValueError("center and width must cover the same fields")
        for name, value in self.width.items():
            if value <= 0:
                raise ValueError(f"width of dimension '{name}' must be positive")

    # -- basic accessors --------------------------------------------------------------

    @property
    def fields(self) -> Tuple[str, ...]:
        return tuple(sorted(self.center))

    def lower(self, field_name: str) -> float:
        return self.center[field_name] - self.width[field_name]

    def upper(self, field_name: str) -> float:
        return self.center[field_name] + self.width[field_name]

    def bounds(self, field_name: str) -> Tuple[float, float]:
        return self.lower(field_name), self.upper(field_name)

    # -- geometry -----------------------------------------------------------------------

    def contains(self, point: Mapping[str, float]) -> bool:
        """True when ``point`` satisfies every range predicate of the window."""
        for name in self.center:
            if name not in point:
                return False
            if abs(float(point[name]) - self.center[name]) >= self.width[name]:
                return False
        return True

    def intersects(self, other: "Window") -> bool:
        """True when the windows overlap in *every* shared dimension.

        Windows over disjoint field sets do not intersect (they constrain
        different joints, so both predicates can hold simultaneously — that
        situation is reported separately by the validator).
        """
        shared = set(self.center) & set(other.center)
        if not shared:
            return False
        return all(
            self.lower(name) < other.upper(name) and other.lower(name) < self.upper(name)
            for name in shared
        )

    def intersection_volume_ratio(self, other: "Window") -> float:
        """Overlap volume divided by this window's volume (shared dims only)."""
        shared = sorted(set(self.center) & set(other.center))
        if not shared:
            return 0.0
        ratio = 1.0
        for name in shared:
            low = max(self.lower(name), other.lower(name))
            high = min(self.upper(name), other.upper(name))
            if high <= low:
                return 0.0
            ratio *= (high - low) / (self.upper(name) - self.lower(name))
        return ratio

    def volume(self) -> float:
        """Product of the dimension extents (2 × width per dimension)."""
        result = 1.0
        for name in self.center:
            result *= 2.0 * self.width[name]
        return result

    # -- construction / transformation ---------------------------------------------------

    @classmethod
    def from_points(
        cls,
        points: Sequence[Mapping[str, float]],
        fields: Sequence[str],
        min_width: float = 1.0,
    ) -> "Window":
        """Minimal bounding rectangle (MBR) around ``points`` over ``fields``.

        The MBR's centre is the midpoint of the per-dimension extremes and
        its width the half-extent, floored at ``min_width`` so a window
        derived from identical points still has positive volume.
        """
        if not points:
            raise ValueError("cannot build a window from zero points")
        if not fields:
            raise ValueError("cannot build a window without fields")
        center: Dict[str, float] = {}
        width: Dict[str, float] = {}
        for name in fields:
            values = [float(point[name]) for point in points if name in point]
            if not values:
                raise ValueError(f"no point carries field '{name}'")
            low, high = min(values), max(values)
            center[name] = (low + high) / 2.0
            width[name] = max((high - low) / 2.0, min_width)
        return cls(center=center, width=width)

    def expanded(self, padding: Mapping[str, float]) -> "Window":
        """Return a copy widened by ``padding`` per dimension (absolute)."""
        new_width = dict(self.width)
        for name, extra in padding.items():
            if name in new_width:
                new_width[name] = new_width[name] + max(0.0, extra)
        return Window(center=dict(self.center), width=new_width)

    def scaled(self, factor: float) -> "Window":
        """Return a copy with every width multiplied by ``factor``.

        This is the paper's generalisation step — and scaling "too much
        introduces the overlapping problem" the validator checks for.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Window(
            center=dict(self.center),
            width={name: value * factor for name, value in self.width.items()},
        )

    def merged_with(self, other: "Window", min_width: float = 1.0) -> "Window":
        """MBR of this window and ``other`` (union of their extents)."""
        fields = sorted(set(self.center) | set(other.center))
        center: Dict[str, float] = {}
        width: Dict[str, float] = {}
        for name in fields:
            bounds: List[float] = []
            for window in (self, other):
                if name in window.center:
                    bounds.extend(window.bounds(name))
            low, high = min(bounds), max(bounds)
            center[name] = (low + high) / 2.0
            width[name] = max((high - low) / 2.0, min_width)
        return Window(center=center, width=width)

    def without_fields(self, names: Iterable[str]) -> "Window":
        """Return a copy with the given dimensions removed."""
        removed = set(names)
        center = {k: v for k, v in self.center.items() if k not in removed}
        width = {k: v for k, v in self.width.items() if k not in removed}
        if not center:
            raise ValueError("removing these fields would leave an empty window")
        return Window(center=center, width=width)

    def distance_from(self, point: Mapping[str, float]) -> float:
        """How far outside the window ``point`` lies, in multiples of width.

        0 means inside; 1 means one full window-width outside in the worst
        dimension.  Used for the "sample deviates too much" warning.
        """
        worst = 0.0
        for name in self.center:
            if name not in point:
                continue
            excess = abs(float(point[name]) - self.center[name]) - self.width[name]
            if excess > 0:
                worst = max(worst, excess / self.width[name])
        return worst

    # -- serialisation ----------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return {"center": dict(self.center), "width": dict(self.width)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Mapping[str, float]]) -> "Window":
        return cls(center=dict(data["center"]), width=dict(data["width"]))

    def __repr__(self) -> str:
        dims = ", ".join(
            f"{name}={self.center[name]:.0f}±{self.width[name]:.0f}"
            for name in sorted(self.center)
        )
        return f"Window({dims})"


@dataclass
class PoseWindow:
    """A :class:`Window` with its position in the gesture's pose sequence."""

    sequence_index: int
    window: Window
    support: int = 1  # how many samples contributed to this pose

    def __post_init__(self) -> None:
        if self.sequence_index < 0:
            raise ValueError("sequence index must be non-negative")
        if self.support < 1:
            raise ValueError("support must be at least 1")

    def contains(self, point: Mapping[str, float]) -> bool:
        return self.window.contains(point)

    def to_dict(self) -> Dict[str, object]:
        return {
            "sequence_index": self.sequence_index,
            "support": self.support,
            "window": self.window.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PoseWindow":
        return cls(
            sequence_index=int(data["sequence_index"]),  # type: ignore[arg-type]
            support=int(data.get("support", 1)),  # type: ignore[arg-type]
            window=Window.from_dict(data["window"]),  # type: ignore[arg-type]
        )

    def __repr__(self) -> str:
        return f"PoseWindow(#{self.sequence_index}, {self.window!r}, support={self.support})"
