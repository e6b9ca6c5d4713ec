import numpy as np
import pytest

from roadwork_mapper.detections import TRAFFIC_CONE
from roadwork_mapper.fusion import Match
from roadwork_mapper.tracking import (
    ObjectTracker,
    ThresholdParams,
    _round_half_away,
    detection_threshold,
)


def match(object_id, confidence=0.9):
    return Match(
        detection_index=0,
        object_id=object_id,
        object_class=TRAFFIC_CONE,
        confidence=confidence,
        iou=0.8,
        bottom_gap=1.0,
    )


# --- threshold curve ---


def test_round_half_away():
    assert _round_half_away(2.5) == 3
    assert _round_half_away(-2.5) == -3
    assert _round_half_away(2.4) == 2
    assert _round_half_away(2.6) == 3
    assert _round_half_away(0.0) == 0


def test_threshold_reference_speeds():
    # 50 km/h, 80 km/h, 100 km/h in m/s
    assert detection_threshold(50.0 / 3.6) == 5
    assert detection_threshold(80.0 / 3.6) == 3
    assert detection_threshold(100.0 / 3.6) == 2


def test_threshold_clamps_and_edge_speeds():
    assert detection_threshold(0.0) == 5
    assert detection_threshold(0.1) == 5    # raw value far above the cap
    assert detection_threshold(200.0) == 2  # raw value below the floor
    with pytest.raises(ValueError):
        detection_threshold(-1.0)


def test_threshold_monotone_non_increasing():
    speeds = np.linspace(0.01, 60.0, 1000)
    values = [detection_threshold(float(v)) for v in speeds]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert set(values) <= {2, 3, 4, 5}


def test_threshold_params_validation():
    with pytest.raises(ValueError):
        ThresholdParams(scale=0.0)
    with pytest.raises(ValueError):
        ThresholdParams(min_threshold=4, max_threshold=2)
    custom = ThresholdParams(min_threshold=1, max_threshold=9)
    assert detection_threshold(0.1, custom) == 9


# --- tracker behaviour ---

SLOW = detection_threshold(50.0 / 3.6)  # the required sighting count at 50 km/h: 5


def contours(*ids):
    return {oid: [(float(oid), 0.0)] for oid in ids}


def test_promotion_counts_cnn_then_lidar_only():
    # Two camera confirmations, then LiDAR-only persistence: the object
    # keeps accruing sightings and is promoted on the fifth cycle.
    tracker = ObjectTracker()
    t = 0.0
    for _ in range(2):
        assert tracker.update([match(1)], contours(1), SLOW, t) == []
        t += 0.1
    assert tracker.update([], contours(1), SLOW, t) == []
    t += 0.1
    assert tracker.update([], contours(1), SLOW, t) == []
    t += 0.1
    promoted = tracker.update([], contours(1), SLOW, t)
    assert [p.object_id for p in promoted] == [1]
    assert tracker.get(1).detection_count == 5
    assert tracker.get(1).promoted


def test_never_matched_object_accrues_nothing():
    tracker = ObjectTracker()
    for i in range(20):
        assert tracker.update([], contours(3), SLOW, i * 0.1) == []
    assert tracker.get(3).detection_count == 0


def test_promotion_is_reported_once():
    tracker = ObjectTracker()
    t = 0.0
    promoted_total = []
    for _ in range(12):
        promoted_total += tracker.update([match(2)], contours(2), SLOW, t)
        t += 0.1
    assert [p.object_id for p in promoted_total] == [2]
    assert tracker.get(2).detection_count == 12


def test_faster_speed_promotes_sooner():
    fast = detection_threshold(100.0 / 3.6)  # 2
    tracker = ObjectTracker()
    assert tracker.update([match(1)], contours(1), fast, 0.0) == []
    promoted = tracker.update([match(1)], contours(1), fast, 0.1)
    assert [p.object_id for p in promoted] == [1]


def test_eviction_is_strictly_after_timeout():
    tracker = ObjectTracker()
    tracker.update([match(1)], contours(1), SLOW, 0.0)
    # absent for exactly 2.0 s: still tracked
    tracker.update([], {}, SLOW, 2.0)
    assert tracker.get(1) is not None
    # one tick beyond: evicted
    tracker.update([], {}, SLOW, 2.1)
    assert tracker.get(1) is None


def test_promoted_objects_survive_absence():
    tracker = ObjectTracker()
    t = 0.0
    for _ in range(5):
        tracker.update([match(1)], contours(1), SLOW, t)
        t += 0.1
    assert tracker.get(1).promoted
    tracker.update([], {}, SLOW, t + 10.0)
    assert tracker.get(1) is not None


def test_reappearance_resets_absence_clock():
    tracker = ObjectTracker()
    tracker.update([match(1)], contours(1), SLOW, 0.0)
    tracker.update([], contours(1), SLOW, 1.9)   # seen again (LiDAR only)
    tracker.update([], {}, SLOW, 3.8)            # 1.9 s absent: kept
    assert tracker.get(1) is not None
    tracker.update([], {}, SLOW, 4.0)            # 2.1 s absent: evicted
    assert tracker.get(1) is None


def test_contour_updates_to_latest_and_reset_clears():
    tracker = ObjectTracker()
    tracker.update([match(1)], {1: [(1.0, 2.0)]}, SLOW, 0.0)
    tracker.update([], {1: [(3.0, 4.0), (5.0, 6.0)]}, SLOW, 0.1)
    assert tracker.get(1).world_contour == [(3.0, 4.0), (5.0, 6.0)]
    assert len(tracker) == 1
    tracker.reset()
    assert len(tracker) == 0
    assert tracker.get(1) is None


def test_match_for_out_of_range_object_is_ignored():
    tracker = ObjectTracker()
    tracker.update([match(99)], {}, SLOW, 0.0)
    assert tracker.get(99) is None


def test_promotion_requires_cnn_match_property():
    # Randomized schedule: promotion implies at least one camera match.
    rng = np.random.default_rng(8)
    for _ in range(50):
        tracker = ObjectTracker()
        cnn_matched = set()
        promoted = []
        t = 0.0
        for _ in range(30):
            ids = [int(i) for i in rng.choice(5, size=rng.integers(0, 4), replace=False)]
            matched = [int(i) for i in ids if rng.random() < 0.3]
            cnn_matched.update(matched)
            promoted += tracker.update(
                [match(i) for i in matched], contours(*ids), SLOW, t
            )
            t += 0.1
        for entry in promoted:
            assert entry.object_id in cnn_matched
            assert entry.detection_count >= 5
        assert len({p.object_id for p in promoted}) == len(promoted)
