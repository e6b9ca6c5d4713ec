import io

import numpy as np
import pytest

from roadwork_mapper.detections import (
    BARRIER,
    PAIRING_WINDOW,
    PANEL_PASS_RIGHT,
    TRAFFIC_CONE,
    ConfidencePolicy,
    Detection,
    DetectionFrame,
    DetectorError,
    ExternalDetectorLink,
    gate_detections,
    pair_with_lidar,
)
from roadwork_mapper.geometry import PixelBox
from roadwork_mapper.streams import detection_frame_to_line

BOX = PixelBox(0.0, 0.0, 10.0, 10.0)


def det(object_class, confidence):
    return Detection(object_class=object_class, confidence=confidence, box=BOX)


def frame(t, *dets):
    return DetectionFrame(timestamp=t, detections=tuple(dets))


def test_gate_thresholds_are_inclusive():
    policy = ConfidencePolicy()
    kept = gate_detections(
        [
            det(BARRIER, 0.75),
            det(BARRIER, 0.7499),
            det(TRAFFIC_CONE, 0.70),
            det(TRAFFIC_CONE, 0.6999),
            det(PANEL_PASS_RIGHT, 0.70),
        ],
        policy,
    )
    assert [d.confidence for d in kept] == [0.75, 0.70, 0.70]


def test_gate_respects_custom_thresholds():
    policy = ConfidencePolicy(barrier_threshold=0.9, other_threshold=0.5)
    kept = gate_detections([det(BARRIER, 0.85), det(TRAFFIC_CONE, 0.55)], policy)
    assert len(kept) == 1
    assert kept[0].object_class == TRAFFIC_CONE


def test_pairing_picks_most_recent_within_window():
    frames = [frame(0.95), frame(1.04)]
    chosen = pair_with_lidar(frames, 1.05)
    assert chosen is not None
    assert chosen.timestamp == 1.04


def test_pairing_accepts_future_frames_inside_window():
    # A camera frame just after the scan is the most recent qualifying one.
    frames = [frame(1.00), frame(1.08)]
    chosen = pair_with_lidar(frames, 1.05)
    assert chosen.timestamp == 1.08


def test_pairing_window_boundary_inclusive():
    assert pair_with_lidar([frame(0.90)], 1.00).timestamp == 0.90
    assert pair_with_lidar([frame(0.899)], 1.00) is None


def test_pairing_takes_the_last_of_equal_timestamps():
    frames = [frame(1.0, det(BARRIER, 0.9)), frame(1.0), frame(1.2)]
    assert pair_with_lidar(frames, 1.05) is frames[1]


def test_pairing_empty_and_far_frames():
    assert pair_with_lidar([], 1.0) is None
    assert pair_with_lidar([frame(0.5), frame(2.0)], 1.0) is None


def test_pairing_never_exceeds_window():
    rng = np.random.default_rng(4)
    for _ in range(200):
        times = np.sort(rng.uniform(0.0, 10.0, size=rng.integers(0, 12)))
        frames = [frame(float(t)) for t in times]
        t = float(rng.uniform(0.0, 10.0))
        chosen = pair_with_lidar(frames, t)
        in_window = [f for f in frames if abs(f.timestamp - t) <= PAIRING_WINDOW]
        if chosen is None:
            assert not in_window
        else:
            assert abs(chosen.timestamp - t) <= PAIRING_WINDOW
            assert chosen.timestamp == max(f.timestamp for f in in_window)


def test_external_detector_round_trip():
    d = det(TRAFFIC_CONE, 0.88)
    response = detection_frame_to_line(frame(3.5, d))
    reader = io.StringIO(response + "\n")
    writer = io.StringIO()
    link = ExternalDetectorLink(writer=writer, reader=reader)
    result = link.request(3.5, "frame:7")
    assert result.timestamp == 3.5
    assert result.detections[0].confidence == 0.88
    request = writer.getvalue()
    assert '"frame": "frame:7"' in request
    assert '"t": 3.5' in request
    assert '"type": "frame_request"' in request


@pytest.mark.parametrize("answered,in_window", [
    (3.75, True), (3.25, True), (3.5, True), (3.8125, False), (3.1875, False),
])
def test_external_detector_answer_must_lie_within_the_window(answered, in_window):
    reader = io.StringIO(detection_frame_to_line(frame(answered)) + "\n")
    link = ExternalDetectorLink(writer=io.StringIO(), reader=reader, window=0.25)
    if in_window:
        assert link.request(3.5, "frame:7").timestamp == answered
    else:
        with pytest.raises(DetectorError, match=(
                rf"^external detector answered frame request 'frame:7' at t=3\.5 "
                rf"with t={answered}, outside the pairing window of 0\.25 s$")):
            link.request(3.5, "frame:7")


def test_external_detector_rejects_eof():
    link = ExternalDetectorLink(writer=io.StringIO(), reader=io.StringIO(""))
    with pytest.raises(Exception):
        link.request(0.0, "frame:0")
