import pytest

from roadwork_mapper.detections import Detection, DetectionFrame, TRAFFIC_CONE
from roadwork_mapper.geometry import PixelBox
from roadwork_mapper.lidar import ContourObject
from roadwork_mapper.streams import (
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
        ('{"type": "lidar_objects", "t": 0, "objects": [{"id": 1.5, "points": [[0, 0]]}]}', "integer"),
        ('{"type": "lidar_objects", "t": 0, "objects": [{"id": 1, "points": []}]}', "non-empty"),
        ('{"type": "lidar_objects", "t": 0, "objects": [{"id": 1, "points": [[0]]}]}', "pairs"),
        ('{"type": "lidar_objects", "t": 0, "objects": [{"id": 4, "points": [[0, 0]]}, {"id": 5, "points": [[1, 0]]}, {"id": 4, "points": [[2, 0]]}]}', "duplicate object id 4"),
        ('{"type": "detections", "t": 0, "items": [{"class": "Pylon", "confidence": 0.9, "box": [0, 0, 1, 1]}]}', "class"),
        ('{"type": "detections", "t": 0, "items": [{"class": "Barrier", "confidence": 1.2, "box": [0, 0, 1, 1]}]}', "[0, 1]"),
        ('{"type": "detections", "t": 0, "items": [{"class": "Barrier", "confidence": 0.9, "box": [2, 0, 1, 1]}]}', "inverted"),
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
