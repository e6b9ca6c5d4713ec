import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadwork_mapper import jsonio
from roadwork_mapper.detections import BARRIER, OBJECT_CLASSES, TRAFFIC_CONE
from roadwork_mapper.geometry import PixelBox
from roadwork_mapper.outputs import (
    AnnotationWriter,
    Summary,
    _round_decimeter,
    load_site_records,
    site_record_from_dict,
    site_record_to_dict,
    summarize,
    summary_text,
    summary_to_dict,
    write_site_record,
    write_summary,
)
from roadwork_mapper.sites import RoadworkSite, SiteRecord
from roadwork_mapper.tracking import TrackedObject


def make_record(site_id=3, length=20.04, depth=7.36):
    return SiteRecord(
        site_id=site_id,
        raw_polygon=((1.0, 2.0), (3.0, 4.0), (0.1 + 0.2, 0.3)),
        hull_polygon=((1.0, 2.0), (3.0, 4.0)),
        length=length,
        depth=depth,
        class_counts={TRAFFIC_CONE: 2, BARRIER: 1},
        start_time=10.5,
        end_time=55.0,
        frame="utm",
        utm_zone="32U",
    )


# --- float formatting ---


def test_float_formatting_is_lossless():
    for value in [0.1 + 0.2, 1.0 / 3.0, 1e-17, -55.299999999999997, 123456.789]:
        assert float(jsonio.format_float(value)) == value


def test_float_formatting_rejects_non_finite():
    for value in [math.nan, math.inf, -math.inf]:
        with pytest.raises(ValueError):
            jsonio.format_float(value)
        with pytest.raises(ValueError):
            jsonio.dumps({"x": value})


def test_dumps_matches_stdlib_structure():
    doc = {"a": [1, 2.5, "s", None, True], "b": {"c": -0.75}}
    assert json.loads(jsonio.dumps(doc)) == doc


def _reference_write(obj, parts):
    """The recursive writer before exact-type dispatch (test oracle)."""
    if obj is None or obj is True or obj is False:
        parts.append(json.dumps(obj))
    elif isinstance(obj, float):
        parts.append(jsonio.format_float(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(", ")
            _reference_write(item, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(json.dumps(key))
            parts.append(": ")
            _reference_write(value, parts)
        parts.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _outcome(dump, doc):
    try:
        return dump(doc)
    except (TypeError, ValueError) as err:
        return type(err), str(err)


def _reference_dumps(doc):
    parts = []
    _reference_write(doc, parts)
    return "".join(parts)


# every code point, lone surrogates and control characters included
_text = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=()),
                max_size=8)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, 10 ** 300, -(2 ** 64), 1, 0]),
    _text,
)
_docs = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_text, inner, max_size=4),
    ),
    max_leaves=25,
)
# a document with one part dumps must reject: a non-string key, a value no
# JSON type covers, or a non-finite float
_bad_docs = st.tuples(
    _docs,
    st.sampled_from([{1: 0}, {None: 0}, {(1,): 0}, {1, 2}, b"x", object, complex(1, 0),
                     math.nan, -math.inf]),
    _docs,
).map(list)


@settings(max_examples=300)
@given(doc=st.one_of(_docs, _bad_docs))
@example(doc={"a": [1, 2.5, "s\u00e9\n\x00\ud800", None, True, False, -0.0], "b": (0.1,)})
@example(doc={"x": [1.0, math.inf]})
@example(doc={"x": {2: 1}})
def test_dumps_matches_reference_writer(doc):
    assert _outcome(jsonio.dumps, doc) == _outcome(_reference_dumps, doc)


# --- annotations ---


def _written_line(*args):
    stream = io.StringIO()
    AnnotationWriter(stream).write(*args)
    return stream.getvalue()


def test_annotation_round_trip_shape():
    line = _written_line(
        1.5, 13.89, 5,
        [(7, TRAFFIC_CONE, 1, PixelBox(0.0, 1.0, 2.0, 3.0), 0.82)],
        [(9, BARRIER, 1)],
    )
    assert line.endswith("}\n") and line.count("\n") == 1
    doc = json.loads(line)
    assert list(doc) == ["t", "speed", "detection_threshold", "objects"]
    assert doc["t"] == 1.5
    assert doc["speed"] == 13.89
    assert doc["detection_threshold"] == 5
    boxed, ghost = doc["objects"]
    assert boxed == {"object_id": 7, "class": TRAFFIC_CONE, "site_id": 1, "ghost": False,
                     "box": [0.0, 1.0, 2.0, 3.0], "iou": 0.82}
    assert list(boxed) == ["object_id", "class", "site_id", "ghost", "box", "iou"]
    assert ghost == {"object_id": 9, "class": BARRIER, "site_id": 1, "ghost": True}


def _reference_annotation_line(timestamp, speed, detection_threshold, boxed, ghosts):
    """The annotation line as the per-entry dicts and ``jsonio.dumps`` built it
    before the writer formatted lines in one pass (test oracle)."""
    entries = []
    for object_id, object_class, site_id, box, iou in boxed:
        item = {"object_id": object_id, "class": object_class, "site_id": site_id,
                "ghost": False, "box": [box.x_min, box.y_min, box.x_max, box.y_max]}
        if iou is not None:
            item["iou"] = iou
        entries.append(item)
    for object_id, object_class, site_id in ghosts:
        entries.append({"object_id": object_id, "class": object_class,
                        "site_id": site_id, "ghost": True})
    return jsonio.dumps({
        "t": timestamp,
        "speed": speed,
        "detection_threshold": detection_threshold,
        "objects": entries,
    }) + "\n"


_SPECIAL_FLOATS = [-0.0, 10.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
_floats = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))
_ids = st.integers(min_value=-(2 ** 63), max_value=2 ** 63)
_classes = st.sampled_from(OBJECT_CLASSES + (None,))


def _box(corners):
    # ordered so that PixelBox accepts them; a NaN corner compares false
    x0, y0, x1, y1 = corners
    x0, x1 = (x1, x0) if x0 > x1 else (x0, x1)
    y0, y1 = (y1, y0) if y0 > y1 else (y0, y1)
    return PixelBox(x0, y0, x1, y1)


_boxed = st.tuples(_ids, _classes, st.none() | _ids,
                   st.tuples(_floats, _floats, _floats, _floats).map(_box),
                   st.none() | _floats)
_ghosts = st.tuples(_ids, _classes, _ids)


@settings(max_examples=300)
@given(timestamp=_floats, speed=_floats, detection_threshold=st.integers(0, 100),
       boxed=st.lists(_boxed, max_size=60), ghosts=st.lists(_ghosts, max_size=60))
@example(timestamp=10.0, speed=-0.0, detection_threshold=5,
         boxed=[(1, None, None, PixelBox(-0.0, 5e-324, 10.0, 1.7976931348623157e308), None),
                (2, BARRIER, 3, PixelBox(0.0, 0.0, 1.0, 1.0), 0.5)],
         ghosts=[(4, None, 3), (5, TRAFFIC_CONE, 3)])
@example(timestamp=0.0, speed=0.0, detection_threshold=2,
         boxed=[(1, None, None, PixelBox(0.0, 0.0, 1.0, 1.0), math.nan)], ghosts=[])
@example(timestamp=math.inf, speed=math.nan, detection_threshold=2,
         boxed=[(1, None, None, PixelBox(0.0, -math.inf, 1.0, 1.0), None)], ghosts=[])
def test_annotation_writer_matches_reference(timestamp, speed, detection_threshold,
                                             boxed, ghosts):
    args = (timestamp, speed, detection_threshold, boxed, ghosts)
    assert (_outcome(lambda a: _written_line(*a), args)
            == _outcome(lambda a: _reference_annotation_line(*a), args))


# --- site records ---


def test_site_record_round_trip(tmp_path):
    record = make_record()
    assert site_record_from_dict(site_record_to_dict(record)) == record
    path = write_site_record(record, tmp_path)
    assert path.name == "site_000003.json"
    loaded = load_site_records(tmp_path)
    assert loaded == [record]


def test_load_site_records_empty_dir(tmp_path):
    assert load_site_records(tmp_path) == []


def test_site_records_sorted_by_id(tmp_path):
    for sid in (7, 2, 11):
        write_site_record(make_record(site_id=sid), tmp_path)
    assert [r.site_id for r in load_site_records(tmp_path)] == [2, 7, 11]


# --- summary ---


def test_rounding_to_decimeters():
    assert _round_decimeter(20.04) == 20.0
    assert _round_decimeter(7.36) == 7.4
    assert _round_decimeter(0.05) == pytest.approx(0.1)
    assert _round_decimeter(0.0) == 0.0


def test_summary_combines_finished_and_active():
    active = RoadworkSite(
        5,
        [TrackedObject(1, [(0.0, 0.0)], 0.0, TRAFFIC_CONE, promoted=True),
         TrackedObject(2, [(4.0, 0.0)], 0.0, TRAFFIC_CONE, promoted=True)],
        0.0,
        0.0,
        0.0,
    )
    summary = summarize([active], [make_record(site_id=3)])
    assert summary.roadworks_present
    assert summary.count == 2
    assert summary.sites == ((3, 20.0, 7.4), (5, 4.0, 0.0))


def test_summary_empty():
    summary = summarize([], [])
    assert not summary.roadworks_present
    assert summary.count == 0
    assert summary_text(summary) == "no roadworks"


def test_summary_text_formatting():
    summary = Summary(True, 2, ((1, 20.0, 1.4), (2, 7.4, 0.3)))
    assert summary_text(summary) == "2 roadworks; 20.0 m x 1.4 m; 7.4 m x 0.3 m"
    single = Summary(True, 1, ((4, 5.0, 0.0),))
    assert summary_text(single) == "1 roadwork; 5.0 m x 0.0 m"


def test_write_summary_file(tmp_path):
    summary = Summary(True, 1, ((1, 2.5, 0.5),))
    path = write_summary(summary, tmp_path)
    assert path.name == "summary.json"
    doc = json.loads(path.read_text())
    assert doc == summary_to_dict(summary)
    assert doc["sites"][0] == {"site_id": 1, "length": 2.5, "depth": 0.5}
    assert (tmp_path / "summary.txt").read_text() == "1 roadwork; 2.5 m x 0.5 m\n"
