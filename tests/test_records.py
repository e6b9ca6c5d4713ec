"""The pipeline's records: equality, hashing, repr and checked constructors.

The nine records are plain ``__slots__`` classes on ``records.Record``.
They compare like the frozen dataclasses they replaced: by fields, in
order, and only with a record of the same type.  A record never equals a
plain tuple of its fields; nothing in the package compares one with a
tuple.
"""
import math

import pytest

from roadwork_mapper.config import default_config, replace
from roadwork_mapper.detections import BARRIER, TRAFFIC_CONE, Detection, DetectionFrame
from roadwork_mapper.engine import ReplayResult
from roadwork_mapper.fusion import Match
from roadwork_mapper.geometry import PixelBox, Pose2D, normalize_angle
from roadwork_mapper.lidar import ContourBoxImage, ContourObject
from roadwork_mapper.outputs import Summary
from roadwork_mapper.records import Record
from roadwork_mapper.sites import RoadworkSite, SiteMember
from roadwork_mapper.streams import LidarFrame, OdometrySample
from roadwork_mapper.tracking import ThresholdParams, TrackedObject

_BOX = PixelBox(1.0, 2.0, 3.0, 4.0)
_CONTOUR = ContourObject(7, ((1.0, 2.0), (3.0, 4.0)))
_DETECTION = Detection(BARRIER, 0.9, _BOX)

# Each record type with the field values of one record and of another
# record that differs from it in the last field only.
RECORDS = {
    OdometrySample: ((1.0, 2.0, 3.0, 0.5, 10.0), (1.0, 2.0, 3.0, 0.5, 11.0)),
    LidarFrame: ((1.0, (_CONTOUR,)), (1.0, ())),
    ContourObject: ((7, ((1.0, 2.0),)), (7, ((1.0, 2.5),))),
    DetectionFrame: ((1.0, (_DETECTION,)), (1.0, ())),
    Detection: ((BARRIER, 0.9, _BOX), (BARRIER, 0.9, PixelBox(1.0, 2.0, 3.0, 5.0))),
    PixelBox: ((1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 3.0, 5.0)),
    Pose2D: ((1.0, 2.0, 0.5), (1.0, 2.0, 0.25)),
    ContourBoxImage: ((7, _BOX, ((1.0, 4.0),)), (7, _BOX, ((1.0, 3.5),))),
    Match: ((0, 7, BARRIER, 0.9, 0.75, 1.5), (0, 7, BARRIER, 0.9, 0.75, 2.5)),
}
_TYPES = list(RECORDS)


def _fields(record):
    return tuple(getattr(record, name) for name in type(record).__slots__)


@pytest.mark.parametrize("cls", _TYPES, ids=lambda cls: cls.__name__)
def test_records_are_slotted(cls):
    record = cls(*RECORDS[cls][0])
    assert isinstance(record, Record)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls", _TYPES, ids=lambda cls: cls.__name__)
def test_equality_is_by_fields(cls):
    values, other = RECORDS[cls]
    a, b, c = cls(*values), cls(*values), cls(*other)
    assert a == b and not a != b
    assert a != c and not a == c
    assert _fields(a) == values


@pytest.mark.parametrize("cls", _TYPES, ids=lambda cls: cls.__name__)
def test_hash_agrees_with_equality(cls):
    values, other = RECORDS[cls]
    a, b, c = cls(*values), cls(*values), cls(*other)
    assert hash(a) == hash(b)
    assert len({a, b, c}) == 2
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("cls", _TYPES, ids=lambda cls: cls.__name__)
def test_a_record_never_equals_a_plain_tuple(cls):
    record = cls(*RECORDS[cls][0])
    assert record != _fields(record)
    assert _fields(record) != record


@pytest.mark.parametrize("cls", _TYPES, ids=lambda cls: cls.__name__)
def test_a_record_never_equals_another_record_type(cls):
    record = cls(*RECORDS[cls][0])
    for other in _TYPES:
        if other is not cls:
            assert record != other(*RECORDS[other][0])


def test_records_of_the_same_fields_but_another_type_differ():
    # LidarFrame and DetectionFrame both hold a timestamp and a tuple.
    assert LidarFrame(1.0, ()) != DetectionFrame(1.0, ())
    assert len({LidarFrame(1.0, ()), DetectionFrame(1.0, ())}) == 2


def test_repr_names_every_field():
    assert repr(_BOX) == "PixelBox(x_min=1.0, y_min=2.0, x_max=3.0, y_max=4.0)"
    assert repr(Pose2D(1.0, 2.0, 0.5)) == "Pose2D(x=1.0, y=2.0, heading=0.5)"
    assert repr(_CONTOUR) == "ContourObject(object_id=7, points=((1.0, 2.0), (3.0, 4.0)))"


@pytest.mark.parametrize("cls", _TYPES, ids=lambda cls: cls.__name__)
def test_fields_can_be_given_by_name(cls):
    values = RECORDS[cls][0]
    assert cls(**dict(zip(cls.__slots__, values))) == cls(*values)


def test_pixel_box_rejects_inverted_corners():
    for corners in [(3.0, 2.0, 1.0, 4.0), (1.0, 4.0, 3.0, 2.0)]:
        with pytest.raises(ValueError, match=r"^box corners are inverted$"):
            PixelBox(*corners)
    assert PixelBox(1.0, 2.0, 1.0, 2.0).x_max == 1.0  # a point is a box


def test_detection_checks_class_and_confidence():
    with pytest.raises(ValueError, match=r"^unknown object class 'Cone'$"):
        Detection("Cone", 0.9, _BOX)
    for confidence in [-0.1, 1.5, math.nan]:
        with pytest.raises(ValueError, match=r"^confidence must be within \[0, 1\]$"):
            Detection(TRAFFIC_CONE, confidence, _BOX)
    assert Detection(TRAFFIC_CONE, 1.0, _BOX).confidence == 1.0


def test_contour_object_checks_its_points():
    with pytest.raises(ValueError, match=r"^contour must contain at least one point$"):
        ContourObject(1, ())
    for bad in [math.nan, math.inf, -math.inf]:
        with pytest.raises(ValueError, match=r"^contour points must be finite$"):
            ContourObject(1, ((0.0, 0.0), (1.0, bad)))
    # any pair of numbers is kept as a tuple of float pairs
    assert ContourObject(1, [[1, 2]]).points == ((1.0, 2.0),)
    assert type(ContourObject(1, [[1, 2]]).points[0][0]) is float


@pytest.mark.parametrize("heading", [0.0, math.pi, -math.pi, 3.0 * math.pi, -7.5, 100.0])
def test_pose_normalizes_its_heading(heading):
    pose = Pose2D(1.0, 2.0, heading)
    assert pose.heading == normalize_angle(heading)
    assert -math.pi < pose.heading <= math.pi
    assert pose == Pose2D(1.0, 2.0, pose.heading)


# The records whose fields change after they are built, with the arguments
# of one record.
MUTABLE_RECORDS = {
    TrackedObject: (7, [(1.0, 2.0)], 0.5),
    SiteMember: (7, BARRIER, [(1.0, 2.0)]),
    RoadworkSite: (1, [], 0.0, 0.5, 3.0),
    ReplayResult: (Summary(False, 0, ()), []),
}


@pytest.mark.parametrize("cls", MUTABLE_RECORDS, ids=lambda cls: cls.__name__)
def test_records_whose_fields_change_compare_by_fields_and_are_unhashable(cls):
    a, b = cls(*MUTABLE_RECORDS[cls]), cls(*MUTABLE_RECORDS[cls])
    assert isinstance(a, Record) and not hasattr(a, "__dict__")
    assert a == b
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
    setattr(b, cls.__slots__[0], 8)
    assert a != b


def test_settings_compare_by_fields_and_replace_runs_their_checks():
    config = default_config()
    assert config == default_config() and config.inputs == {}
    assert hash(config.sensor) == hash(default_config().sensor)
    assert replace(config.threshold, fps=20.0) == ThresholdParams(fps=20.0)
    with pytest.raises(ValueError, match="invalid threshold clamp bounds"):
        replace(config.threshold, min_threshold=9)
