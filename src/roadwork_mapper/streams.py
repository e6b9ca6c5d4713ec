"""Recorded sensor streams: line-delimited JSON records.

Three record types exist, one JSON object per line, each tagged with
``type`` and carrying a timestamp ``t`` in seconds:

  odometry       {"type": "odometry", "t", "x", "y", "heading", "speed"}
  lidar_objects  {"type": "lidar_objects", "t", "objects": [{"id", "points"}]}
  detections     {"type": "detections", "t", "items":
                  [{"class", "confidence", "box": [x0, y0, x1, y1]}]}

Field names are frozen; see FORMATS.md at the repository root.  Streams
must be sorted by timestamp.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

from . import jsonio
from .detections import Detection, DetectionFrame, OBJECT_CLASSES
from .geometry import PixelBox
from .lidar import ContourObject


class StreamFormatError(Exception):
    """A malformed or out-of-order stream record; carries the line number."""

    def __init__(self, message: str, lineno: int, path: "Path | None" = None):
        self.message = message
        self.lineno = lineno
        self.path = path
        where = f"{path}:{lineno}" if path else f"line {lineno}"
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class OdometrySample:
    timestamp: float
    x: float
    y: float
    heading: float
    speed: float


@dataclass(frozen=True)
class LidarFrame:
    timestamp: float
    objects: tuple[ContourObject, ...]


StreamRecord = Union[OdometrySample, LidarFrame, DetectionFrame]


def _require(condition: bool, message: str, lineno: int) -> None:
    if not condition:
        raise StreamFormatError(message, lineno)


def _number(value, name: str, lineno: int) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"field {name!r} must be a number", lineno)
    x = float(value)
    _require(math.isfinite(x), f"field {name!r} must be finite", lineno)
    return x


def parse_line(line: str, lineno: int) -> StreamRecord:
    """Parse one stream record; raises StreamFormatError on bad input."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as err:
        raise StreamFormatError(f"invalid JSON ({err.msg})", lineno) from err
    _require(isinstance(data, dict), "record must be a JSON object", lineno)
    kind = data.get("type")
    _require(kind in ("odometry", "lidar_objects", "detections"),
             f"unknown record type {kind!r}", lineno)
    t = _number(data.get("t"), "t", lineno)

    if kind == "odometry":
        return OdometrySample(
            timestamp=t,
            x=_number(data.get("x"), "x", lineno),
            y=_number(data.get("y"), "y", lineno),
            heading=_number(data.get("heading"), "heading", lineno),
            speed=_number(data.get("speed"), "speed", lineno),
        )

    if kind == "lidar_objects":
        raw_objects = data.get("objects")
        _require(isinstance(raw_objects, list), "field 'objects' must be a list", lineno)
        objects = []
        seen_ids = set()
        for obj in raw_objects:
            _require(isinstance(obj, dict), "object entries must be JSON objects", lineno)
            oid = obj.get("id")
            _require(isinstance(oid, int) and not isinstance(oid, bool),
                     "object 'id' must be an integer", lineno)
            _require(oid not in seen_ids, f"duplicate object id {oid}", lineno)
            seen_ids.add(oid)
            raw_points = obj.get("points")
            _require(isinstance(raw_points, list) and raw_points,
                     "object 'points' must be a non-empty list", lineno)
            points = []
            for p in raw_points:
                _require(isinstance(p, list) and len(p) == 2,
                         "contour points must be [x, y] pairs", lineno)
                points.append((_number(p[0], "points.x", lineno),
                               _number(p[1], "points.y", lineno)))
            objects.append(ContourObject(object_id=oid, points=tuple(points)))
        return LidarFrame(timestamp=t, objects=tuple(objects))

    raw_items = data.get("items")
    _require(isinstance(raw_items, list), "field 'items' must be a list", lineno)
    detections = []
    for item in raw_items:
        _require(isinstance(item, dict), "detection entries must be JSON objects", lineno)
        cls = item.get("class")
        _require(cls in OBJECT_CLASSES, f"unknown detection class {cls!r}", lineno)
        confidence = _number(item.get("confidence"), "confidence", lineno)
        _require(0.0 <= confidence <= 1.0, "confidence must be within [0, 1]", lineno)
        raw_box = item.get("box")
        _require(isinstance(raw_box, list) and len(raw_box) == 4,
                 "detection 'box' must be [x0, y0, x1, y1]", lineno)
        x0, y0, x1, y1 = (_number(v, "box", lineno) for v in raw_box)
        _require(x0 <= x1 and y0 <= y1, "detection box corners are inverted", lineno)
        detections.append(Detection(object_class=cls, confidence=confidence,
                                    box=PixelBox(x0, y0, x1, y1)))
    return DetectionFrame(timestamp=t, detections=tuple(detections))


def read_stream(path: Path, expected_type: type) -> list:
    """Read one stream file, checking record type and timestamp order."""
    records = []
    last_t = None
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = parse_line(line, lineno)
            except StreamFormatError as err:
                raise StreamFormatError(err.message, lineno, Path(path)) from err
            if not isinstance(record, expected_type):
                raise StreamFormatError(
                    f"expected a {expected_type.__name__} record", lineno, Path(path))
            if last_t is not None and record.timestamp < last_t:
                raise StreamFormatError("timestamps out of order", lineno, Path(path))
            last_t = record.timestamp
            records.append(record)
    return records


# -- serialization ------------------------------------------------------


def odometry_to_line(sample: OdometrySample) -> str:
    return jsonio.dumps({
        "type": "odometry",
        "t": sample.timestamp,
        "x": sample.x,
        "y": sample.y,
        "heading": sample.heading,
        "speed": sample.speed,
    })


def lidar_frame_to_line(frame: LidarFrame) -> str:
    return jsonio.dumps({
        "type": "lidar_objects",
        "t": frame.timestamp,
        "objects": [
            {"id": obj.object_id, "points": [[x, y] for x, y in obj.points]}
            for obj in frame.objects
        ],
    })


def detection_frame_to_line(frame: DetectionFrame) -> str:
    return jsonio.dumps({
        "type": "detections",
        "t": frame.timestamp,
        "items": [
            {
                "class": d.object_class,
                "confidence": d.confidence,
                "box": [d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max],
            }
            for d in frame.detections
        ],
    })


def write_stream(path: Path, records: Iterable[StreamRecord]) -> None:
    serializers = {
        OdometrySample: odometry_to_line,
        LidarFrame: lidar_frame_to_line,
        DetectionFrame: detection_frame_to_line,
    }
    with open(path, "w") as handle:
        for record in records:
            handle.write(serializers[type(record)](record) + "\n")
