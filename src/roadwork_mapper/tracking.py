"""Accumulating object tracker with a speed-adaptive promotion threshold.

A LiDAR object id must be seen as a roadwork object several times before
it is trusted ("promoted").  The faster the vehicle moves, the fewer
sighting opportunities an object gets while inside the usable range, so
the required count shrinks with speed.  An entry keeps the caller's
contour sequence itself; the tracker neither copies nor changes it.
"""
from __future__ import annotations

import math
from typing import Mapping, Sequence

from .fusion import Match
from .geometry import Point2
from .records import Record


class ThresholdParams(Record):
    """Constants of the sighting-count threshold curve."""

    __slots__ = ("scale", "divisor", "usable_range", "fps", "min_threshold", "max_threshold")

    def __init__(self, scale: float = 5.0, divisor: float = 12.5, usable_range: float = 50.0,
                 fps: float = 10.0, min_threshold: int = 2, max_threshold: int = 5) -> None:
        if not (0 < min_threshold <= max_threshold):
            raise ValueError("invalid threshold clamp bounds")
        self.scale = scale  # a: overall gain
        self.divisor = divisor  # b: frames per required sighting
        self.usable_range = usable_range  # d: meters an object stays trackable
        self.fps = fps  # LiDAR cycles per second under load
        self.min_threshold = min_threshold
        self.max_threshold = max_threshold


def detection_threshold(speed: float, params: ThresholdParams = ThresholdParams()) -> int:
    """Required sighting count at a given vehicle speed (m/s).

    Total over finite non-negative speeds and positive finite constants:
    frames in range that overflow to infinity give the maximum, and that
    underflow to 0 the minimum.  The curve is clamped to its integer bounds,
    which keeps its rounded count, then rounded half away from zero: half
    up, as the lower bound is positive.
    """
    if speed == 0.0:
        return params.max_threshold
    frames_in_range = params.usable_range / speed * params.fps
    ratio = frames_in_range / params.divisor
    if ratio == 0.0:
        return params.min_threshold
    raw = params.scale * math.log(ratio)  # log(inf) is inf
    return math.floor(max(params.min_threshold, min(params.max_threshold, raw)) + 0.5)


class TrackedObject(Record):
    """Accumulated evidence for one LiDAR object id."""

    __slots__ = ("object_id", "world_contour", "last_seen", "object_class",
                 "detection_count", "promoted")

    def __init__(self, object_id: int, world_contour: Sequence[Point2], last_seen: float,
                 object_class: str | None = None, detection_count: int = 0,
                 promoted: bool = False) -> None:
        self.object_id = object_id
        self.world_contour = world_contour  # the caller's sequence, not a copy
        self.last_seen = last_seen
        self.object_class = object_class  # None until the detector first matches it
        self.detection_count = detection_count
        self.promoted = promoted


# Seconds an id may be absent from the LiDAR object list before eviction.
EVICTION_TIMEOUT = 2.0


class ObjectTracker:
    """Tracks sighting counts per LiDAR object id and promotes roadwork objects."""

    def __init__(self, eviction_timeout: float = EVICTION_TIMEOUT):
        self.eviction_timeout = eviction_timeout
        self._objects: dict[int, TrackedObject] = {}

    def __len__(self) -> int:
        return len(self._objects)

    def get(self, object_id: int) -> TrackedObject | None:
        return self._objects.get(object_id)

    def reset(self) -> None:
        self._objects.clear()

    def update(
        self,
        matches: Sequence[Match],
        world_contours: Mapping[int, Sequence[Point2]],
        threshold: int,
        timestamp: float,
    ) -> list[TrackedObject]:
        """Advance one LiDAR cycle; returns objects promoted this cycle.

        ``world_contours`` holds the current in-range objects (id to
        local-world contour).  Matched ids gain a sighting; ids that were
        CNN-matched at least once keep gaining sightings on LiDAR-only
        frames, because the LiDAR re-identifies them reliably.  A match
        whose id is not in ``world_contours`` is ignored.  An object is
        promoted once its count reaches ``threshold``, the cycle's
        ``detection_threshold`` of the vehicle speed.
        """
        objects = self._objects
        matched = {match.object_id: match.object_class for match in matches}
        for oid, contour in world_contours.items():
            entry = objects.get(oid)
            if entry is None:
                entry = objects[oid] = TrackedObject(oid, contour, timestamp)
            else:
                entry.world_contour = contour
                entry.last_seen = timestamp
            object_class = matched.get(oid)
            if object_class is not None:
                entry.object_class = object_class
            if entry.object_class is not None:
                entry.detection_count += 1

        promoted = []
        for oid, entry in list(objects.items()):
            if entry.promoted:
                continue
            if timestamp - entry.last_seen > self.eviction_timeout:
                del objects[oid]
            elif entry.object_class is not None and entry.detection_count >= threshold:
                entry.promoted = True
                promoted.append(entry)
        return promoted
