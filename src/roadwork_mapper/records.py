"""The base class of the package's records.

The values and per-cycle results the pipeline builds by the thousand
(stream samples and frames, contours, detections, pixel boxes, poses,
contour boxes and matches) are plain classes with ``__slots__``: building
one is one ``__init__`` call that sets its slots, and reading a field is a
slot load.  So are the session's settings
(``SessionConfig``, ``SensorModelParams``, ``CameraIntrinsics``,
``RigidTransform3D``, ``UtmAnchor``, ``ConfidencePolicy``, ``MatchParams``,
``ThresholdParams``, ``SeparationPolicy``) and the replay's results
(``SiteRecord``, ``Summary``), which a replay builds once or per site: a
class with ``__slots__`` costs far less to create at import than a
dataclass.  ``Record`` gives them what a frozen dataclass gave:

- equality by fields, in order, between records of the same type; a
  record never equals a record of another type or a plain tuple;
- a hash that agrees with that equality;
- the repr ``Name(field=value, ...)``.

A record's fields are not reassigned once it is built; its hash relies
on that.  The three records whose fields change after they are built
(``TrackedObject``, also a site's member, ``RoadworkSite`` and
``ReplayResult``) set ``__hash__ = None`` and are unhashable, as a mutable
dataclass is.
Each input rule has one home.  Stream records carry their values and
check nothing: the stream reader checks every stream rule.  A settings
record checks only what its config or scenario reader delegates to it
(``CameraIntrinsics``, ``RigidTransform3D``, ``ThresholdParams`` and the
simulator's scenario records).
"""
from __future__ import annotations


class Record:
    """A record whose fields are its ``__slots__``, in order, typed by the
    parameters of its ``__init__``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
