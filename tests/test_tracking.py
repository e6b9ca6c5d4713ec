import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadwork_mapper.detections import BARRIER, OBJECT_CLASSES, TRAFFIC_CONE
from roadwork_mapper.fusion import Match
from roadwork_mapper.tracking import (
    ObjectTracker,
    ThresholdParams,
    TrackedObject,
    _round_half_away,
    detection_threshold,
)


def match(object_id, confidence=0.9, object_class=TRAFFIC_CONE):
    return Match(
        detection_index=0,
        object_id=object_id,
        object_class=object_class,
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


def test_threshold_is_total_where_frames_in_range_overflow_or_underflow():
    assert detection_threshold(5e-324) == 5  # frames in range overflow to inf
    assert detection_threshold(1e-300, ThresholdParams(scale=1e308)) == 5  # scale * log is inf
    assert detection_threshold(1e308, ThresholdParams(fps=1e-300)) == 2  # frames underflow to 0
    assert detection_threshold(1e300, ThresholdParams(scale=1e308)) == 2  # scale * log is -inf


def test_threshold_monotone_non_increasing():
    speeds = np.linspace(0.01, 60.0, 1000)
    values = [detection_threshold(float(v)) for v in speeds]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert set(values) <= {2, 3, 4, 5}


def test_threshold_params_validation():
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


# --- one-pass update against the three-loop reference ---


def _reference_update(self, matches, world_contours, threshold, timestamp):
    """``ObjectTracker.update`` as it was, three loops over the cycle,
    verbatim (test oracle)."""
    for oid, contour in world_contours.items():
        entry = self._objects.get(oid)
        if entry is None:
            entry = TrackedObject(
                object_id=oid,
                world_contour=list(contour),
                last_seen=timestamp,
            )
            self._objects[oid] = entry
        else:
            entry.world_contour = list(contour)
            entry.last_seen = timestamp

    matched_ids = set()
    for match in matches:
        entry = self._objects.get(match.object_id)
        if entry is None:
            continue  # matched object out of range: ignore
        entry.detection_count += 1
        entry.object_class = match.object_class
        matched_ids.add(match.object_id)

    for oid in world_contours:
        entry = self._objects[oid]
        if oid not in matched_ids and entry.object_class is not None:
            entry.detection_count += 1

    for oid in [
        oid
        for oid, entry in self._objects.items()
        if not entry.promoted
        and timestamp - entry.last_seen > self.eviction_timeout
    ]:
        del self._objects[oid]

    promoted = []
    for entry in self._objects.values():
        if (
            not entry.promoted
            and entry.object_class is not None
            and entry.detection_count >= threshold
        ):
            entry.promoted = True
            promoted.append(entry)
    return promoted


# Speeds whose thresholds are 5, 5, 3 and 2; time steps are multiples of
# 0.5 s, so an absence can equal the timeout exactly.
_SLOW_SPEED, _FAST_SPEED = 50.0 / 3.6, 100.0 / 3.6
_SPEEDS = [0.0, _SLOW_SPEED, 80.0 / 3.6, _FAST_SPEED]
_STEPS = [0.0, 0.5, 1.0, 2.0, 2.5]


@st.composite
def _cycles(draw):
    """Cycles of (world contours, matched (id, class) pairs, speed, time step);
    each cycle's matches name distinct ids of its own world."""
    cycles = []
    for _ in range(draw(st.integers(1, 14))):
        ids = draw(st.lists(st.integers(0, 5), unique=True, max_size=5))
        world = {oid: draw(st.lists(st.tuples(st.sampled_from([0.0, -1.5, 2.25]),
                                              st.sampled_from([0.0, 3.0])),
                                    min_size=1, max_size=3))
                 for oid in ids}
        matched_ids = draw(st.lists(st.sampled_from(ids), unique=True)) if ids else []
        matched = [(oid, draw(st.sampled_from(OBJECT_CLASSES))) for oid in matched_ids]
        cycles.append((world, matched, draw(st.sampled_from(_SPEEDS)),
                       draw(st.sampled_from(_STEPS))))
    return cycles


def _entries(tracker):
    return [(oid, e.object_id, list(e.world_contour), e.last_seen, e.object_class,
             e.detection_count, e.promoted) for oid, e in tracker._objects.items()]


_POINT = [(1.0, 0.0)]


@settings(max_examples=300, deadline=None)
@given(cycles=_cycles(), timeout=st.sampled_from([2.0, 1.0, 0.0]))
# The class of an object changes with its matches.
@example(cycles=[({1: _POINT}, [(1, TRAFFIC_CONE)], _SLOW_SPEED, 0.5),
                 ({1: _POINT}, [(1, BARRIER)], _SLOW_SPEED, 0.5),
                 ({1: _POINT}, [], _SLOW_SPEED, 0.5)], timeout=2.0)
# Object 1 is absent when the speed drops its threshold from 5 to 2.
@example(cycles=[({1: _POINT, 2: _POINT}, [(1, TRAFFIC_CONE)], _SLOW_SPEED, 0.5),
                 ({1: _POINT}, [], _SLOW_SPEED, 0.5),
                 ({2: _POINT}, [], _FAST_SPEED, 0.5)], timeout=2.0)
# Object 1 is absent for exactly the timeout, then for longer.
@example(cycles=[({1: _POINT}, [(1, TRAFFIC_CONE)], _SLOW_SPEED, 0.0),
                 ({}, [], _SLOW_SPEED, 2.0),
                 ({}, [], _SLOW_SPEED, 0.5)], timeout=2.0)
def test_update_matches_three_loop_reference(cycles, timeout):
    tracker = ObjectTracker(timeout)
    reference = ObjectTracker(timeout)
    t = 0.0
    for world, matched, speed, step in cycles:
        t += step
        matches = [match(oid, object_class=object_class) for oid, object_class in matched]
        threshold = detection_threshold(speed)
        promoted = tracker.update(matches, world, threshold, t)
        expected = _reference_update(reference, matches, world, threshold, t)
        assert [p.object_id for p in promoted] == [p.object_id for p in expected]
        assert _entries(tracker) == _entries(reference)


def test_update_keeps_the_given_contour_and_ignores_a_match_out_of_range():
    tracker = ObjectTracker()
    contour = [(1.0, 2.0)]
    tracker.update([match(1)], {1: contour}, SLOW, 0.0)
    tracker.update([match(1), match(2)], {1: contour}, SLOW, 0.1)  # 2 is not in range
    assert tracker.get(1).world_contour is contour
    assert tracker.get(1).detection_count == 2
    assert tracker.get(2) is None
