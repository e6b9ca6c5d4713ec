"""Recorded sensor streams: line-delimited JSON records.

Three record types exist, one JSON object per line, each tagged with
``type`` and carrying a timestamp ``t`` in seconds:

  odometry       {"type": "odometry", "t", "x", "y", "heading", "speed"}
  lidar_objects  {"type": "lidar_objects", "t", "objects": [{"id", "points"}]}
  detections     {"type": "detections", "t", "items":
                  [{"class", "confidence", "box": [x0, y0, x1, y1]}]}

Field names are frozen; see FORMATS.md at the repository root.  Streams
must be sorted by timestamp.

The reader is the one home of every stream rule.  It checks each value
once, as it builds the records: the JSON types, that every number is
finite (an int is converted to a float), that a speed is not negative,
that ids are unique in a frame, that a contour is not empty and each
coordinate lies within ``MAX_CONTOUR_COORDINATE``, that a class is known,
that a confidence lies in [0, 1] and that a box's corners are in order.
It builds each record through its constructor; the records are slotted
classes (``records.Record``) that carry their values and check nothing.

Two decoders read a line.  ``orjson`` decodes it first, and its value
becomes a record only behind a key fence (every mapping holds exactly the
keys the reader reads: 6 for odometry, 3 for a LiDAR or detection record,
2 per contour object, 3 per detection item) and only if every check
passes.  Any other line is decoded again by ``json`` and judged by the
same checks without the fence, so every record and every error is the one
``json`` gives.  The fence keeps out where the decoders part: orjson takes
nesting of any depth, where ``json`` stops at its recursion limit, and it
reads integers from 2**64 up, and below -2**63, as floats (the double the
reader's ``float()`` gives; an ``id`` then fails its integer check).
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable, Iterable, NoReturn, TypeVar, Union

from orjson import loads as _fast_loads

from . import jsonio
from .detections import Detection, DetectionFrame, OBJECT_CLASSES
from .geometry import PixelBox
from .lidar import ContourObject
from .records import Record


class StreamFormatError(Exception):
    """A malformed or out-of-order stream record, or a stream file that
    cannot be opened; carries the line number (None for the whole file)."""

    def __init__(self, message: str, lineno: int | None, path: "Path | None" = None):
        self.message = message
        self.lineno = lineno
        self.path = path
        if path is None:
            where = f"line {lineno}"
        elif lineno is None:
            where = str(path)
        else:
            where = f"{path}:{lineno}"
        super().__init__(f"{where}: {message}")


class OdometrySample(Record):
    """One odometry record: local-world pose and speed at a time."""

    __slots__ = ("timestamp", "x", "y", "heading", "speed")

    def __init__(self, timestamp: float, x: float, y: float, heading: float,
                 speed: float) -> None:
        self.timestamp = timestamp
        self.x = x
        self.y = y
        self.heading = heading
        self.speed = speed


class LidarFrame(Record):
    """The contour objects of one LiDAR scan."""

    __slots__ = ("timestamp", "objects")

    def __init__(self, timestamp: float, objects: tuple[ContourObject, ...]) -> None:
        self.timestamp = timestamp
        self.objects = objects


StreamRecord = Union[OdometrySample, LidarFrame, DetectionFrame]
_T = TypeVar("_T")

# The three streams.  Each name is the ``type`` of the stream's records and
# its key under a session config's ``inputs``; with ``.jsonl`` it is the
# file a replay reads by default.
STREAM_NAMES = ("odometry", "lidar_objects", "detections")


def _number(value, name: str, lineno: int) -> float:
    """A JSON number as a finite float; a bool is not a number."""
    kind = type(value)
    if kind is float:
        if math.isfinite(value):
            return value
    elif kind is int:
        try:
            return float(value)
        except OverflowError:
            pass  # too large for a double: not finite
    else:
        raise StreamFormatError(f"field {name!r} must be a number", lineno)
    raise StreamFormatError(f"field {name!r} must be finite", lineno)


# Largest magnitude of a contour coordinate, meters.  Contours are in the
# sensor frame, so no measured point is near it; a larger one could
# overflow to an infinity when it is projected into the image or moved
# into the world frame, and is rejected instead.
MAX_CONTOUR_COORDINATE = 1e6


def _coordinate(value, name: str, lineno: int) -> float:
    """A contour coordinate: a finite number within ``MAX_CONTOUR_COORDINATE``."""
    value = _number(value, name, lineno)
    if not -MAX_CONTOUR_COORDINATE <= value <= MAX_CONTOUR_COORDINATE:
        raise StreamFormatError(
            f"field {name!r} must be within {MAX_CONTOUR_COORDINATE:g} in magnitude", lineno)
    return value


# The exact types json gives a number; a bool is not one.
_NUMBER_TYPES = frozenset((float, int))
_ODOMETRY_FIELDS = ("t", "x", "y", "heading", "speed")
_BOX_FIELDS = ("box",) * 4


def _raise_first_fault(values, names, lineno: int) -> NoReturn:
    """Raise for the first of ``values`` that is not a finite number.

    For a group of values that failed the reader's one-pass test (or
    whose int overflowed a double), so one of them is at fault.
    """
    for value, name in zip(values, names):
        _number(value, name, lineno)
    raise AssertionError("no faulty value in the group")


class _KeyOutsideFence(Exception):
    """A mapping of a line holds a key the reader does not read."""


def _decode(line: str, lineno: int):
    """``json.loads(line)``, with its errors as StreamFormatError."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as err:
        raise StreamFormatError(f"invalid JSON ({err.msg})", lineno) from err
    except (ValueError, RecursionError) as err:
        # an integer literal beyond the int-string limit, or nesting too deep
        raise StreamFormatError(f"invalid JSON ({err})", lineno) from err


def parse_line(line: str, lineno: int) -> StreamRecord:
    """Parse one stream record; raises StreamFormatError on bad input.

    The line is decoded by orjson and built behind the key fence; a line
    that path refuses for any reason is decoded again by ``json`` and
    judged by the same checks without the fence (module docstring).
    """
    try:
        return _build(_fast_loads(line), lineno, fenced=True)
    except Exception:
        pass  # refused: the stdlib path gives the line its verdict
    return _build(_decode(line, lineno), lineno, fenced=False)


def _build(data, lineno: int, fenced: bool) -> StreamRecord:
    """The record of a decoded line.  ``fenced`` also refuses a mapping
    with a key the reader does not read: a mapping whose read keys pass
    the checks holds no other key exactly when its size is their count."""
    if type(data) is not dict:
        raise StreamFormatError("record must be a JSON object", lineno)
    kind = data.get("type")
    if kind not in STREAM_NAMES:
        raise StreamFormatError(f"unknown record type {kind!r}", lineno)
    if fenced and len(data) != (6 if kind == "odometry" else 3):
        raise _KeyOutsideFence
    t = data.get("t")

    if kind == "odometry":
        values = (t, data.get("x"), data.get("y"), data.get("heading"), data.get("speed"))
        t, x, y, heading, speed = values
        if not (type(t) in _NUMBER_TYPES and type(x) in _NUMBER_TYPES
                and type(y) in _NUMBER_TYPES and type(heading) in _NUMBER_TYPES
                and type(speed) in _NUMBER_TYPES
                and (t - t) + (x - x) + (y - y) + (heading - heading) + (speed - speed) == 0.0):
            _raise_first_fault(values, _ODOMETRY_FIELDS, lineno)
        try:
            sample = OdometrySample(float(t), float(x), float(y), float(heading), float(speed))
        except OverflowError:
            _raise_first_fault(values, _ODOMETRY_FIELDS, lineno)
        if sample.speed < 0.0:
            raise StreamFormatError("field 'speed' must be non-negative", lineno)
        return sample

    if type(t) is not float or t - t != 0.0:
        t = _number(t, "t", lineno)

    if kind == "lidar_objects":
        raw_objects = data.get("objects")
        if type(raw_objects) is not list:
            raise StreamFormatError("field 'objects' must be a list", lineno)
        objects = []
        seen_ids = set()
        low, high = -MAX_CONTOUR_COORDINATE, MAX_CONTOUR_COORDINATE
        for obj in raw_objects:
            if type(obj) is not dict:
                raise StreamFormatError("object entries must be JSON objects", lineno)
            if fenced and len(obj) != 2:
                raise _KeyOutsideFence
            oid = obj.get("id")
            if type(oid) is not int:
                raise StreamFormatError("object 'id' must be an integer", lineno)
            if oid in seen_ids:
                raise StreamFormatError(f"duplicate object id {oid}", lineno)
            seen_ids.add(oid)
            raw_points = obj.get("points")
            if type(raw_points) is not list or not raw_points:
                raise StreamFormatError("object 'points' must be a non-empty list", lineno)
            points = []
            for p in raw_points:
                if type(p) is not list or len(p) != 2:
                    raise StreamFormatError("contour points must be [x, y] pairs", lineno)
                x, y = p
                # The bounds also reject NaN and the infinities.
                if not (type(x) is float and type(y) is float
                        and low <= x <= high and low <= y <= high):
                    # JSON writes an integral float as an int; any other
                    # value, or an int too large for a double, is named below.
                    try:
                        if type(x) in _NUMBER_TYPES and type(y) in _NUMBER_TYPES:
                            x, y = float(x), float(y)
                    except OverflowError:
                        pass
                    if not (type(x) is float and type(y) is float
                            and low <= x <= high and low <= y <= high):
                        x = _coordinate(x, "points.x", lineno)
                        y = _coordinate(y, "points.y", lineno)
                points.append((x, y))
            objects.append(ContourObject(oid, tuple(points)))
        return LidarFrame(t, tuple(objects))

    raw_items = data.get("items")
    if type(raw_items) is not list:
        raise StreamFormatError("field 'items' must be a list", lineno)
    detections = []
    for item in raw_items:
        if type(item) is not dict:
            raise StreamFormatError("detection entries must be JSON objects", lineno)
        if fenced and len(item) != 3:
            raise _KeyOutsideFence
        cls = item.get("class")
        if cls not in OBJECT_CLASSES:
            raise StreamFormatError(f"unknown detection class {cls!r}", lineno)
        confidence = item.get("confidence")
        if type(confidence) is not float or confidence - confidence != 0.0:
            confidence = _number(confidence, "confidence", lineno)
        if not 0.0 <= confidence <= 1.0:
            raise StreamFormatError("confidence must be within [0, 1]", lineno)
        raw_box = item.get("box")
        if type(raw_box) is not list or len(raw_box) != 4:
            raise StreamFormatError("detection 'box' must be [x0, y0, x1, y1]", lineno)
        x0, y0, x1, y1 = raw_box
        if not (type(x0) in _NUMBER_TYPES and type(y0) in _NUMBER_TYPES
                and type(x1) in _NUMBER_TYPES and type(y1) in _NUMBER_TYPES
                and (x0 - x0) + (y0 - y0) + (x1 - x1) + (y1 - y1) == 0.0):
            _raise_first_fault(raw_box, _BOX_FIELDS, lineno)
        try:
            x0, y0, x1, y1 = float(x0), float(y0), float(x1), float(y1)
        except OverflowError:
            _raise_first_fault(raw_box, _BOX_FIELDS, lineno)
        if x0 > x1 or y0 > y1:
            raise StreamFormatError("detection box corners are inverted", lineno)
        detections.append(Detection(cls, confidence, PixelBox(x0, y0, x1, y1)))
    return DetectionFrame(t, tuple(detections))


def read_stream(path: Path, expected_type: type) -> list:
    """Read one UTF-8 stream file, checking record type and timestamp order."""
    records = []
    last_t = None
    # Undecodable bytes become lone surrogates, so that the line holding
    # them can be reported by number instead of failing the whole read.
    try:
        handle = open(path, encoding="utf-8", errors="surrogateescape")
    except OSError as err:
        raise StreamFormatError(f"cannot open ({err.strerror})", None, Path(path)) from err
    with handle:
        for lineno, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            try:
                if not line.isascii():
                    _check_utf8(line, lineno)
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


def read_document(path: Path, build: Callable[[Any], _T], what: str) -> _T:
    """``build`` of the JSON document in one file.  A file that cannot be
    opened, is not JSON or that ``build`` cannot take raises
    ``StreamFormatError`` naming the file and ``what`` it should hold.
    ``build`` reads its numbers through ``document_number`` and
    ``document_integer``."""
    path = Path(path)
    try:
        data = json.loads(path.read_bytes())
    except OSError as err:
        raise StreamFormatError(f"cannot open ({err.strerror})", None, path) from err
    except (ValueError, RecursionError) as err:
        raise StreamFormatError(f"invalid JSON ({err})", None, path) from err
    try:
        return build(data)
    except KeyError as err:
        raise StreamFormatError(f"{what} lacks field {err.args[0]!r}", None, path) from err
    except StreamFormatError as err:
        raise StreamFormatError(f"malformed {what} ({err.message})", None, path) from err
    except (IndexError, TypeError, ValueError, AttributeError) as err:
        raise StreamFormatError(f"malformed {what} ({err})", None, path) from err


def document_number(value, name: str) -> float:
    """A number of a JSON document, under the stream records' rule: a finite
    JSON number, not a bool or a string."""
    return _number(value, name, None)


def document_integer(value, name: str) -> int:
    """An integer of a JSON document: a JSON integer, not a bool, a float
    or a string."""
    if type(value) is not int:
        raise StreamFormatError(f"field {name!r} must be an integer", None)
    return value


def _check_utf8(line: str, lineno: int) -> None:
    """Reject a line read with ``surrogateescape`` that held invalid UTF-8."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as err:
        byte = ord(line[err.start]) - 0xDC00
        raise StreamFormatError(f"invalid UTF-8 (byte 0x{byte:02x})", lineno) from None


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
    with jsonio.naming(path), open(path, "w") as handle:
        for record in records:
            handle.write(serializers[type(record)](record) + "\n")
