import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadwork_mapper import jsonio
from roadwork_mapper.detections import BARRIER, TRAFFIC_CONE
from roadwork_mapper.geometry import PixelBox
from roadwork_mapper.outputs import (
    AnnotationEntry,
    FrameAnnotation,
    Summary,
    _round_decimeter,
    annotation_to_dict,
    load_site_records,
    site_record_from_dict,
    site_record_to_dict,
    summarize,
    summary_text,
    summary_to_dict,
    write_site_record,
    write_summary,
)
from roadwork_mapper.sites import RoadworkSite, SiteMember, SiteRecord


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
    st.none(), st.booleans(), st.integers(), st.floats(), st.floats().map(np.float64),
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
                     math.nan, -math.inf, np.float64("inf")]),
    _docs,
).map(list)


@settings(max_examples=300)
@given(doc=st.one_of(_docs, _bad_docs))
@example(doc={"a": [1, 2.5, "s\u00e9\n\x00\ud800", None, True, False, -0.0], "b": (np.float64(0.1),)})
@example(doc={"x": [1.0, math.inf]})
@example(doc={"x": np.float64("nan")})
@example(doc={"x": {2: 1}})
def test_dumps_matches_reference_writer(doc):
    assert _outcome(jsonio.dumps, doc) == _outcome(_reference_dumps, doc)


# --- annotations ---


def test_annotation_round_trip_shape():
    ann = FrameAnnotation(
        timestamp=1.5,
        speed=13.89,
        detection_threshold=5,
        entries=(
            AnnotationEntry(7, TRAFFIC_CONE, 1, False, PixelBox(0.0, 1.0, 2.0, 3.0), 0.82),
            AnnotationEntry(9, BARRIER, 1, True),
        ),
    )
    doc = annotation_to_dict(ann)
    assert doc["t"] == 1.5
    assert doc["detection_threshold"] == 5
    assert doc["objects"][0]["box"] == [0.0, 1.0, 2.0, 3.0]
    assert doc["objects"][0]["iou"] == 0.82
    assert "box" not in doc["objects"][1]
    assert "iou" not in doc["objects"][1]
    assert doc["objects"][1]["ghost"] is True


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
        [SiteMember(1, TRAFFIC_CONE, [(0.0, 0.0)]), SiteMember(2, TRAFFIC_CONE, [(4.0, 0.0)])],
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
    doc = jsonio.loads(path.read_text())
    assert doc == summary_to_dict(summary)
    assert doc["sites"][0] == {"site_id": 1, "length": 2.5, "depth": 0.5}
    assert (tmp_path / "summary.txt").read_text() == "1 roadwork; 2.5 m x 0.5 m\n"
