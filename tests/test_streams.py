import copy
import decimal
import gc
import json
import math
import random
import struct
import sys
import tempfile
from pathlib import Path

import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadwork_mapper.detections import OBJECT_CLASSES, Detection, DetectionFrame, TRAFFIC_CONE
from roadwork_mapper.geometry import PixelBox
from roadwork_mapper.lidar import ContourObject
from roadwork_mapper.streams import (
    MAX_CONTOUR_COORDINATE,
    LidarFrame,
    OdometrySample,
    StreamFormatError,
    odometry_to_line,
    parse_line,
    read_stream,
    write_stream,
)


def test_odometry_round_trip():
    sample = OdometrySample(1.25, -3.5, 7.0, 0.1 + 0.2, 13.89)
    assert parse_line(odometry_to_line(sample), 1) == sample


def test_lidar_round_trip(tmp_path):
    frames = [
        LidarFrame(0.1, (ContourObject(1, ((1.0, 2.0), (3.0, 4.0))),)),
        LidarFrame(0.2, ()),
    ]
    path = tmp_path / "lidar_objects.jsonl"
    write_stream(path, frames)
    assert read_stream(path, LidarFrame) == frames


def test_detections_round_trip(tmp_path):
    frames = [
        DetectionFrame(
            0.05,
            (Detection(TRAFFIC_CONE, 0.91, PixelBox(1.0, 2.0, 3.0, 4.0)),),
        )
    ]
    path = tmp_path / "detections.jsonl"
    write_stream(path, frames)
    assert read_stream(path, DetectionFrame) == frames


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "odometry.jsonl"
    path.write_text(
        "\n" + odometry_to_line(OdometrySample(0.0, 0.0, 0.0, 0.0, 1.0)) + "\n\n"
    )
    assert len(read_stream(path, OdometrySample)) == 1


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("not json", "invalid JSON"),
        ("[1, 2]", "JSON object"),
        ('{"type": "imu", "t": 0}', "unknown record type"),
        ('{"type": "odometry", "t": "0", "x": 0, "y": 0, "heading": 0, "speed": 0}', "'t'"),
        ('{"type": "odometry", "t": 0, "x": 0, "y": 0, "heading": 0, "speed": true}', "'speed'"),
        ('{"type": "odometry", "t": 0, "x": NaN, "y": 0, "heading": 0, "speed": 0}', "finite"),
        pytest.param('{"type": "odometry", "t": 0, "x": 0, "y": 0, "heading": 0, "speed": -0.5}',
                     "field 'speed' must be non-negative", id="negative-speed"),
        ('{"type": "lidar_objects", "t": 0, "objects": [{"id": 1.5, "points": [[0, 0]]}]}', "integer"),
        pytest.param('{"type": "lidar_objects", "t": 0, "objects": [{"id": true, "points": [[0, 0]]}]}',
                     "integer", id="bool-id"),
        ('{"type": "lidar_objects", "t": 0, "objects": [{"id": 1, "points": []}]}', "non-empty"),
        ('{"type": "lidar_objects", "t": 0, "objects": [{"id": 1, "points": [[0]]}]}', "pairs"),
        ('{"type": "lidar_objects", "t": 0, "objects": [{"id": 4, "points": [[0, 0]]}, {"id": 5, "points": [[1, 0]]}, {"id": 4, "points": [[2, 0]]}]}', "duplicate object id 4"),
        ('{"type": "detections", "t": 0, "items": [{"class": "Pylon", "confidence": 0.9, "box": [0, 0, 1, 1]}]}', "class"),
        ('{"type": "detections", "t": 0, "items": [{"class": "Barrier", "confidence": 1.2, "box": [0, 0, 1, 1]}]}', "[0, 1]"),
        ('{"type": "detections", "t": 0, "items": [{"class": "Barrier", "confidence": 0.9, "box": [2, 0, 1, 1]}]}', "inverted"),
        # integers beyond a double, and beyond the interpreter's int-string limit
        pytest.param(
            '{"type": "odometry", "t": 1' + "0" * 400 + ', "x": 0, "y": 0, "heading": 0, "speed": 0}',
            "field 't' must be finite", id="t-beyond-double"),
        pytest.param(
            '{"type": "lidar_objects", "t": 0, "objects": [{"id": 1, "points": [[0, -1' + "0" * 400 + ']]}]}',
            "field 'points.y' must be finite", id="point-beyond-double"),
        pytest.param(
            '{"type": "odometry", "t": 1' + "0" * 5000 + ', "x": 0, "y": 0, "heading": 0, "speed": 0}',
            "invalid JSON (Exceeds the limit", id="t-beyond-int-string-limit"),
        pytest.param(
            '{"type": ' + "[" * 100_000 + "]" * 100_000 + "}",
            "invalid JSON (maximum recursion depth", id="nesting-beyond-recursion-limit"),
    ],
)
def test_malformed_lines_raise(line, fragment):
    with pytest.raises(StreamFormatError) as err:
        parse_line(line, 17)
    assert err.value.lineno == 17
    assert fragment in str(err.value)


def test_read_stream_reports_file_and_line(tmp_path):
    path = tmp_path / "odometry.jsonl"
    good = odometry_to_line(OdometrySample(0.0, 0.0, 0.0, 0.0, 1.0))
    path.write_text(good + "\n" + "garbage\n")
    with pytest.raises(StreamFormatError) as err:
        read_stream(path, OdometrySample)
    assert err.value.lineno == 2
    assert str(path) in str(err.value)


def test_read_stream_rejects_wrong_type(tmp_path):
    path = tmp_path / "odometry.jsonl"
    path.write_text('{"type": "lidar_objects", "t": 0, "objects": []}\n')
    with pytest.raises(StreamFormatError) as err:
        read_stream(path, OdometrySample)
    assert "OdometrySample" in str(err.value)


def test_read_stream_rejects_out_of_order(tmp_path):
    path = tmp_path / "odometry.jsonl"
    lines = [
        odometry_to_line(OdometrySample(1.0, 0.0, 0.0, 0.0, 1.0)),
        odometry_to_line(OdometrySample(0.5, 0.0, 0.0, 0.0, 1.0)),
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StreamFormatError) as err:
        read_stream(path, OdometrySample)
    assert err.value.lineno == 2
    assert "out of order" in str(err.value)


def test_equal_timestamps_are_accepted(tmp_path):
    path = tmp_path / "odometry.jsonl"
    line = odometry_to_line(OdometrySample(1.0, 0.0, 0.0, 0.0, 1.0))
    path.write_text(line + "\n" + line + "\n")
    assert len(read_stream(path, OdometrySample)) == 2


def test_read_stream_rejects_invalid_utf8(tmp_path):
    path = tmp_path / "odometry.jsonl"
    good = odometry_to_line(OdometrySample(0.0, 0.0, 0.0, 0.0, 1.0))
    accented = good[:-1] + ', "note": "café"}'
    path.write_bytes((good + "\n" + accented + "\n").encode("utf-8")
                     + b'{"type": "odometry", "note": "\xff"}\n')
    with pytest.raises(StreamFormatError) as err:
        read_stream(path, OdometrySample)
    assert err.value.lineno == 3
    assert str(err.value) == f"{path}:3: invalid UTF-8 (byte 0xff)"


# --- property tests over mutated and random input -------------------------


def _reference_require(condition, message, lineno):
    if not condition:
        raise StreamFormatError(message, lineno)


def _reference_number(value, name, lineno):
    _reference_require(isinstance(value, (int, float)) and not isinstance(value, bool),
                       f"field {name!r} must be a number", lineno)
    x = float(value)
    _reference_require(math.isfinite(x), f"field {name!r} must be finite", lineno)
    return x


def _reference_coordinate(value, name, lineno):
    x = _reference_number(value, name, lineno)
    _reference_require(abs(x) <= MAX_CONTOUR_COORDINATE,
                       f"field {name!r} must be within {MAX_CONTOUR_COORDINATE:g} in magnitude",
                       lineno)
    return x


def reference_parse_line(line, lineno):
    """``parse_line`` as it was with a formatted message per check (test oracle)."""
    require, number = _reference_require, _reference_number
    try:
        data = json.loads(line)
    except json.JSONDecodeError as err:
        raise StreamFormatError(f"invalid JSON ({err.msg})", lineno) from err
    require(isinstance(data, dict), "record must be a JSON object", lineno)
    kind = data.get("type")
    require(kind in ("odometry", "lidar_objects", "detections"),
            f"unknown record type {kind!r}", lineno)
    t = number(data.get("t"), "t", lineno)
    if kind == "odometry":
        sample = OdometrySample(
            timestamp=t,
            x=number(data.get("x"), "x", lineno),
            y=number(data.get("y"), "y", lineno),
            heading=number(data.get("heading"), "heading", lineno),
            speed=number(data.get("speed"), "speed", lineno),
        )
        require(sample.speed >= 0.0, "field 'speed' must be non-negative", lineno)
        return sample
    if kind == "lidar_objects":
        raw_objects = data.get("objects")
        require(isinstance(raw_objects, list), "field 'objects' must be a list", lineno)
        objects = []
        seen_ids = set()
        for obj in raw_objects:
            require(isinstance(obj, dict), "object entries must be JSON objects", lineno)
            oid = obj.get("id")
            require(isinstance(oid, int) and not isinstance(oid, bool),
                    "object 'id' must be an integer", lineno)
            require(oid not in seen_ids, f"duplicate object id {oid}", lineno)
            seen_ids.add(oid)
            raw_points = obj.get("points")
            require(isinstance(raw_points, list) and raw_points,
                    "object 'points' must be a non-empty list", lineno)
            points = []
            for p in raw_points:
                require(isinstance(p, list) and len(p) == 2,
                        "contour points must be [x, y] pairs", lineno)
                points.append((_reference_coordinate(p[0], "points.x", lineno),
                               _reference_coordinate(p[1], "points.y", lineno)))
            objects.append(ContourObject(object_id=oid, points=tuple(points)))
        return LidarFrame(timestamp=t, objects=tuple(objects))
    raw_items = data.get("items")
    require(isinstance(raw_items, list), "field 'items' must be a list", lineno)
    detections = []
    for item in raw_items:
        require(isinstance(item, dict), "detection entries must be JSON objects", lineno)
        cls = item.get("class")
        require(cls in OBJECT_CLASSES, f"unknown detection class {cls!r}", lineno)
        confidence = number(item.get("confidence"), "confidence", lineno)
        require(0.0 <= confidence <= 1.0, "confidence must be within [0, 1]", lineno)
        raw_box = item.get("box")
        require(isinstance(raw_box, list) and len(raw_box) == 4,
                "detection 'box' must be [x0, y0, x1, y1]", lineno)
        x0, y0, x1, y1 = (number(v, "box", lineno) for v in raw_box)
        require(x0 <= x1 and y0 <= y1, "detection box corners are inverted", lineno)
        detections.append(Detection(object_class=cls, confidence=confidence,
                                    box=PixelBox(x0, y0, x1, y1)))
    return DetectionFrame(timestamp=t, detections=tuple(detections))


_VALID_DOCS = [
    {"type": "odometry", "t": 0.25, "x": 103.2, "y": -4, "heading": 0.012, "speed": 13.9},
    {"type": "lidar_objects", "t": 12,
     "objects": [{"id": 17, "points": [[9.1, -2.4], [11, -2.4], [11.0, -3.0]]},
                 {"id": -3, "points": [[0.5, 0.0]]}]},
    {"type": "detections", "t": 12.35,
     "items": [{"class": "Barrier", "confidence": 0.91, "box": [312.0, 188.5, 401.2, 240]},
               {"class": "TrafficCone", "confidence": 1, "box": [0, 0, 0, 0]}]},
    {"type": "lidar_objects", "t": 0, "objects": []},
    {"type": "detections", "t": -1.5, "items": []},
]

# Stands for an integer literal beyond the int-string limit; json.dumps
# cannot write one, so it is substituted into the text afterwards.
_HUGE = "@huge-int@"
_ODD_VALUES = [
    True, False, None, "", "0", "odometry", "Barrier", [], [0], [0, 1], [[0, 0]], {}, {"id": 1},
    0, -1, 1, 2, 0.5, -0.0, 1.0000000000000002, 1e308, -1e308, 5e-324, 2 ** 63,
    10 ** 400, -(10 ** 400), math.nan, math.inf, -math.inf, _HUGE,
]


def _slots(node):
    """Every (container, key) pair in a decoded document, outermost first."""
    found = []
    keys = list(node) if isinstance(node, dict) else range(len(node))
    for key in keys:
        found.append((node, key))
        if isinstance(node[key], (dict, list)):
            found.extend(_slots(node[key]))
    return found


@st.composite
def mutated_lines(draw):
    # One seeded Random makes every choice uniform; hypothesis' own draws
    # favour small values, i.e. the first fields of a record.
    rnd = random.Random(draw(st.integers(0, 2 ** 64)))
    doc = copy.deepcopy(rnd.choice(_VALID_DOCS))
    for _ in range(rnd.randint(0, 3)):
        slots = _slots(doc)
        if not slots:
            break
        node, key = rnd.choice(slots)
        action = rnd.choice(["replace", "delete", "duplicate", "add"])
        if action == "replace":
            node[key] = copy.deepcopy(rnd.choice(_ODD_VALUES))
        elif action == "delete":
            del node[key]
        elif action == "duplicate" and isinstance(node, list):
            node.insert(key, copy.deepcopy(node[key]))
        elif isinstance(node, dict):
            node[rnd.choice(["type", "t", "id", "extra"])] = copy.deepcopy(rnd.choice(_ODD_VALUES))
    line = json.dumps(doc).replace(json.dumps(_HUGE), "9" * 4400)
    if rnd.random() < 0.25:
        # damage the text itself: cut it short or splice in a character
        at = rnd.randint(0, len(line))
        line = line[:at] + rnd.choice(["", "{", "}", "]", ",", '"', "-", "e", "x", "\\"])
    return line


@settings(max_examples=600)
@given(line=mutated_lines())
@example(line=json.dumps(_VALID_DOCS[0]).replace("0.25", "1" + "0" * 400))
@example(line=json.dumps(_VALID_DOCS[0]).replace("0.25", "1" + "0" * 5000))
def test_mutated_lines_raise_only_stream_format_errors(line):
    try:
        record = parse_line(line, 9)
    except StreamFormatError as err:
        assert err.lineno == 9
    else:
        assert isinstance(record, (OdometrySample, LidarFrame, DetectionFrame))


# Nesting deeper than json's recursion limit, which orjson takes.
_DEEP = "[" * 5000 + "]" * 5000


@settings(max_examples=600)
@given(line=mutated_lines())
@example(line=json.dumps(_VALID_DOCS[1]).replace("11,", "1" + "0" * 400 + ","))
@example(line=json.dumps(_VALID_DOCS[2]).replace("0.91", "1" + "0" * 5000))
@example(line='{"type": ' + "[" * 100_000 + "]" * 100_000 + "}")
@example(line=json.dumps({**_VALID_DOCS[0], "speed": -1.0}))
@example(line=json.dumps(_VALID_DOCS[1]).replace("-2.4]", "1e308]", 1))
@example(line=json.dumps(_VALID_DOCS[1]).replace("9.1", "-1000000.0000000001"))
# Where orjson and json part.  orjson reads an integer from 2**64 up, or
# below -2**63, as a float, has no nesting limit, and refuses a lone
# surrogate escape, NaN, the infinities and 1e400, which json reads.
@example(line=json.dumps({**_VALID_DOCS[0], "note": "\ud800"}))
@example(line=json.dumps(_VALID_DOCS[2]).replace('"Barrier"', '"\\ud800"'))
@example(line=json.dumps({**_VALID_DOCS[0], "note": 1e400}).replace("Infinity", "1e400"))
@example(line=json.dumps(_VALID_DOCS[0])[:-1] + ', "note": ' + _DEEP + "}")
@example(line=json.dumps(_VALID_DOCS[0]).replace('"t": 0.25', '"t": 7.5, "t": 0.25'))
@example(line=json.dumps(_VALID_DOCS[0]).replace('"t": 0.25', '"t": 0.25, "t": "late"'))
@example(line=json.dumps(_VALID_DOCS[1]).replace('"id": -3', '"id": -3, "note": [1]'))
@example(line=json.dumps(_VALID_DOCS[2]).replace('"confidence": 1', '"note": {}, "confidence": 1'))
@example(line=json.dumps(_VALID_DOCS[1]).replace('"id": -3', '"id": -3, "note": ' + _DEEP))
@example(line=json.dumps(_VALID_DOCS[2]).replace('"confidence": 1', '"note": ' + _DEEP + ', "confidence": 1'))
@example(line="\ufeff" + json.dumps(_VALID_DOCS[0]) + "\n")
# 309-digit integers, within a double and beyond it
@example(line=json.dumps(_VALID_DOCS[0]).replace("103.2", str(10 ** 308)))
@example(line=json.dumps(_VALID_DOCS[2]).replace("401.2", str(2 * 10 ** 308)))
def test_parse_line_matches_reference(line):
    try:
        want = reference_parse_line(line, 9)
    except StreamFormatError as err:
        want = err
    except (OverflowError, ValueError, RecursionError) as err:
        # The three crashes of the reference, now format errors:
        # OverflowError from float() of a huge integer, ValueError from an
        # integer literal beyond the int-string limit, RecursionError from
        # nesting deeper than the decoder's recursion limit.
        with pytest.raises(StreamFormatError) as got:
            parse_line(line, 9)
        assert got.value.lineno == 9
        if isinstance(err, OverflowError):
            assert got.value.message.endswith("must be finite")
        else:
            assert got.value.message == f"invalid JSON ({err})"
        return
    try:
        got = parse_line(line, 9)
    except StreamFormatError as err:
        got = err
    if isinstance(want, StreamFormatError):
        assert isinstance(got, StreamFormatError)
        assert (str(got), got.lineno) == (str(want), want.lineno)
    else:
        # repr tells 1 from 1.0 and -0.0 from 0.0, which == does not
        assert got == want and repr(got) == repr(want)


_STREAM_LINES = [json.dumps(doc).encode() for doc in _VALID_DOCS]


@settings(max_examples=300)
@given(lines=st.lists(st.one_of(st.sampled_from(_STREAM_LINES), st.binary(max_size=40)),
                      max_size=6),
       expected=st.sampled_from([OdometrySample, LidarFrame, DetectionFrame]))
@example(lines=[_STREAM_LINES[0], b"\xff\xfe"], expected=OdometrySample)
@example(lines=[_STREAM_LINES[3], _STREAM_LINES[3][:-1] + b', "x": "\xc3"}'],
         expected=LidarFrame)
def test_read_stream_on_random_bytes_raises_only_format_errors(lines, expected):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stream.jsonl"
        path.write_bytes(b"\n".join(lines))
        try:
            records = read_stream(path, expected)
        except StreamFormatError as err:
            with open(path, encoding="utf-8", errors="surrogateescape") as handle:
                line_count = sum(1 for _ in handle)
            assert err.path == path
            assert 1 <= err.lineno <= line_count
        else:
            assert all(isinstance(r, expected) for r in records)


# --- directed edges of the reader, against the reference ------------------


def _outcome(parse, line):
    """A parse's record (by repr, which tells 1 from 1.0 and -0.0 from 0.0)
    or its error text and line number."""
    try:
        return repr(parse(line, 9))
    except StreamFormatError as err:
        return str(err), err.lineno


def _assert_matches_reference(line):
    assert _outcome(parse_line, line) == _outcome(reference_parse_line, line)


# Each record with one numeric position left open as {}, by field name.
_NUMBER_SLOTS = {
    **{f"odometry.{key}": '{"type": "odometry", ' + ", ".join(
        f'"{k}": ' + ("{}" if k == key else "1.5") for k in ("t", "x", "y", "heading", "speed")) + "}"
       for key in ("t", "x", "y", "heading", "speed")},
    "lidar.t": '{"type": "lidar_objects", "t": {}, "objects": [{"id": 3, "points": [[1.5, 2.5]]}]}',
    "points.x": '{"type": "lidar_objects", "t": 1.5, "objects": [{"id": 3, "points": [[1.5, 2.5], [{}, 2.5]]}]}',
    "points.y": '{"type": "lidar_objects", "t": 1.5, "objects": [{"id": 3, "points": [[1.5, 2.5], [1.5, {}]]}]}',
    "detections.t": '{"type": "detections", "t": {}, "items": [{"class": "Barrier", "confidence": 0.5, "box": [0, 12.5, 640, 352]}]}',
    "confidence": '{"type": "detections", "t": 1.5, "items": [{"class": "Barrier", "confidence": {}, "box": [0, 12.5, 640, 352]}]}',
    **{f"box[{k}]": '{"type": "detections", "t": 1.5, "items": [{"class": "Barrier", "confidence": 0.5, "box": ['
       + ", ".join("{}" if i == k else str(v) for i, v in enumerate((0, 12.5, 640, 352))) + "]}]}"
       for k in range(4)},
}
_NUMBER_TEXTS = ["0", "1", "-3", "352", "0.5", "-0.0", "5e-324", "1e308", "1e400", "-1e400",
                 "NaN", "Infinity", "-Infinity", "true", "false", "null", '"1"',
                 # on and just beyond the contour coordinate bound
                 "1e6", "-1000000", "1000000.0000000001", "-1000001",
                 # orjson reads these integers as floats
                 str(2 ** 64), str(-2 ** 63 - 1),
                 # not JSON numbers, which each decoder refuses with its own message
                 "01", "1.", "-", "1e", "+1", ".5"]


@pytest.mark.parametrize("end", ["\n", ""], ids=["newline", "last-line"])
@pytest.mark.parametrize("text", _NUMBER_TEXTS)
@pytest.mark.parametrize("slot", _NUMBER_SLOTS)
def test_number_in_each_position_matches_reference(slot, text, end):
    _assert_matches_reference(_NUMBER_SLOTS[slot].replace("{}", text) + end)


def test_integer_text_in_every_numeric_field():
    lines = [
        '{"type": "odometry", "t": 0, "x": -4, "y": 7, "heading": 0, "speed": 14}\n',
        '{"type": "lidar_objects", "t": 12, "objects": [{"id": 1, "points": [[9, -2], [11, 0]]}]}\n',
        '{"type": "detections", "t": 3, "items": [{"class": "Barrier", "confidence": 1, '
        '"box": [0, 12.5, 640, 352]}]}\n',
    ]
    for line in lines:
        _assert_matches_reference(line)
    frame = parse_line(lines[2], 1)
    assert repr(frame.detections[0].box) == "PixelBox(x_min=0.0, y_min=12.5, x_max=640.0, y_max=352.0)"
    assert repr(parse_line(lines[1], 1).objects[0].points) == "((9.0, -2.0), (11.0, 0.0))"


# Object ids about the bounds of a 64-bit integer, where orjson's reading
# turns from an int to a float, and one of 400 digits.
_ID_TEXTS = [str(2 ** 63 - 1), str(2 ** 63), str(2 ** 64 - 1), str(2 ** 64), str(-2 ** 63 - 1),
             str(-2 ** 63), "1" * 400]


@pytest.mark.parametrize("text", _ID_TEXTS, ids=lambda text: text[:20] + f"-{len(text)}-chars")
def test_object_id_matches_reference(text):
    line = '{"type": "lidar_objects", "t": 1.5, "objects": [{"id": 3, "points": [[1.5, 2.5]]}, '
    _assert_matches_reference(line + '{"id": ' + text + ', "points": [[0.5, 2.5]]}]}\n')


def _near_halfway(x, digits):
    """The midpoint of ``x`` and its neighbour away from zero (toward zero
    at the largest double), exactly, and a text of ``digits`` + 1
    significant digits just below and just above it."""
    with decimal.localcontext() as context:
        context.prec = 800  # a double's exact decimal expansion fits
        other = math.nextafter(x, 0.0 if abs(x) == sys.float_info.max else
                               math.copysign(math.inf, x))
        mid = (decimal.Decimal(x) + decimal.Decimal(other)) / 2
        nudge = abs(mid).scaleb(-digits)
        return [f"{mid - nudge:.{digits}e}", f"{mid + nudge:.{digits}e}", str(mid)]


@pytest.mark.parametrize("x", [9.1, -2.4, 0.5, 999999.9999999999, 1e-300, 5e-324,
                               2.0 ** 64, 1e308])
def test_near_halfway_coordinates_match_reference(x):
    for text in _near_halfway(x, 40):
        for slot in ("points.x", "odometry.x"):
            _assert_matches_reference(_NUMBER_SLOTS[slot].replace("{}", text) + "\n")


@st.composite
def _double_texts(draw):
    x = draw(st.floats(allow_nan=False, allow_infinity=False))
    form = draw(st.sampled_from(["%.17g", "repr", "%.25e", "halfway", "integer"]))
    if form == "repr":
        return repr(x)
    if form == "halfway":
        return draw(st.sampled_from(_near_halfway(x, draw(st.integers(17, 45)))))
    if form == "integer":
        # the integer nearest the midpoint, or one either side: from 2**64 up
        # orjson reads it as a float, and from 2**54 up it rounds near a tie
        return str(round(decimal.Decimal(_near_halfway(x, 0)[2])) + draw(st.integers(-1, 1)))
    return form % x


@settings(max_examples=2000)
@given(text=_double_texts())
def test_orjson_reads_a_number_as_json_does(text):
    # The reader takes a number from orjson only where it is the double
    # that json's value gives through float(), bit for bit.
    want = float(json.loads(text))
    assert struct.pack("<d", float(orjson.loads(text))) == struct.pack("<d", want), text


_RECORD = json.dumps(_VALID_DOCS[2])


@pytest.mark.parametrize("line", [
    _RECORD + "\n",
    _RECORD,
    "\ufeff" + _RECORD + "\n",
    " " + _RECORD + "\n",
    "\t" + _RECORD + " \t\r\n",
    _RECORD + "\r\n",
    _RECORD + "\r",
    _RECORD + " ",
    _RECORD + "\n\n",
    _RECORD + "\x0b\n",
    _RECORD + "\u00a0\n",
    _RECORD + " \n",
    _RECORD + "\x0b",
    _RECORD + " x\n",
    _RECORD[:-1] + "\n",
])
def test_line_shapes_match_reference(line):
    _assert_matches_reference(line)


@pytest.mark.parametrize("tail", ["\x0b", "\u00a0", "\x0c"])
def test_trailing_non_json_space_is_extra_data(tail):
    with pytest.raises(StreamFormatError) as err:
        parse_line(_RECORD + tail + "\n", 4)
    assert err.value.message == "invalid JSON (Extra data)"


def test_bom_line_is_rejected():
    with pytest.raises(StreamFormatError) as err:
        parse_line("\ufeff" + _RECORD + "\n", 4)
    assert err.value.message == "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"


def test_read_stream_accepts_crlf_and_a_last_line_without_newline(tmp_path):
    lines = [json.dumps(doc) for doc in (_VALID_DOCS[4], _VALID_DOCS[2])]
    want = [reference_parse_line(line, 1) for line in lines]
    for name, text in [("lf", "\n".join(lines) + "\n"), ("crlf", "\r\n".join(lines) + "\r\n"),
                       ("no-final-newline", "\n".join(lines)),
                       ("padded", "  " + lines[0] + "\t\n \n" + lines[1] + " \n")]:
        path = tmp_path / f"{name}.jsonl"
        path.write_bytes(text.encode())
        assert read_stream(path, DetectionFrame) == want, name


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
def test_read_stream_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    good = tmp_path / "good.jsonl"
    good.write_text(json.dumps(_VALID_DOCS[4]) + "\n" + _RECORD + "\n")
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(_VALID_DOCS[4]) + "\n" + "garbage\n" + _RECORD + "\n")
    (gc.enable if enabled else gc.disable)()
    try:
        assert len(read_stream(good, DetectionFrame)) == 2
        assert gc.isenabled() is enabled
        with pytest.raises(StreamFormatError) as err:
            read_stream(bad, DetectionFrame)
        assert err.value.lineno == 2
        assert gc.isenabled() is enabled
        with pytest.raises(StreamFormatError) as err:
            read_stream(tmp_path / "missing.jsonl", DetectionFrame)
        assert err.value.lineno is None
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
