"""Accumulating object tracker with a speed-adaptive promotion threshold.

A LiDAR object id must be seen as a roadwork object several times before
it is trusted ("promoted").  The faster the vehicle moves, the fewer
sighting opportunities an object gets while inside the usable range, so
the required count shrinks with speed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .fusion import Match
from .geometry import Point2


@dataclass(frozen=True)
class ThresholdParams:
    """Constants of the sighting-count threshold curve."""

    scale: float = 5.0          # a: overall gain
    divisor: float = 12.5       # b: frames per required sighting
    usable_range: float = 50.0  # d: meters an object stays trackable
    fps: float = 10.0           # LiDAR cycles per second under load
    min_threshold: int = 2
    max_threshold: int = 5

    def __post_init__(self) -> None:
        if min(self.scale, self.divisor, self.usable_range, self.fps) <= 0:
            raise ValueError("threshold curve constants must be positive")
        if not (0 < self.min_threshold <= self.max_threshold):
            raise ValueError("invalid threshold clamp bounds")


def _round_half_away(x: float) -> int:
    if x >= 0.0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


def detection_threshold(speed: float, params: ThresholdParams = ThresholdParams()) -> int:
    """Required sighting count at a given vehicle speed (m/s)."""
    if speed < 0.0:
        raise ValueError("speed must be non-negative")
    if speed == 0.0:
        return params.max_threshold
    frames_in_range = params.usable_range / speed * params.fps
    raw = _round_half_away(params.scale * math.log(frames_in_range / params.divisor))
    return max(params.min_threshold, min(params.max_threshold, raw))


@dataclass
class TrackedObject:
    """Accumulated evidence for one LiDAR object id."""

    object_id: int
    world_contour: list[Point2]
    last_seen: float
    object_class: str | None = None  # None until the detector first matches it
    detection_count: int = 0
    promoted: bool = False


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
        frames, because the LiDAR re-identifies them reliably.  An object
        is promoted once its count reaches ``threshold``, the cycle's
        ``detection_threshold`` of the vehicle speed.
        """
        for oid, contour in world_contours.items():
            entry = self._objects.get(oid)
            if entry is None:
                entry = TrackedObject(
                    object_id=oid,
                    world_contour=list(contour),
                    last_seen=timestamp,
                )
                self._objects[oid] = entry
            else:
                entry.world_contour = list(contour)
                entry.last_seen = timestamp

        matched_ids = set()
        for match in matches:
            entry = self._objects.get(match.object_id)
            if entry is None:
                continue  # matched object out of range: ignore
            entry.detection_count += 1
            entry.object_class = match.object_class
            matched_ids.add(match.object_id)

        for oid in world_contours:
            entry = self._objects[oid]
            if oid not in matched_ids and entry.object_class is not None:
                entry.detection_count += 1

        for oid in [
            oid
            for oid, entry in self._objects.items()
            if not entry.promoted
            and timestamp - entry.last_seen > self.eviction_timeout
        ]:
            del self._objects[oid]

        promoted = []
        for entry in self._objects.values():
            if (
                not entry.promoted
                and entry.object_class is not None
                and entry.detection_count >= threshold
            ):
                entry.promoted = True
                promoted.append(entry)
        return promoted
