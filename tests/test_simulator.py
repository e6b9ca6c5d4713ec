"""Simulator and evaluator tests.

The closed-form motion model is checked against small-step Euler
integration of the same speed profile (speed linear in arc length per
segment), and the evaluator against hand-placed corner geometry.
"""
import math
import tracemalloc

import numpy as np
import pytest

from roadwork_mapper.config import ConfigError, replace
from roadwork_mapper.detections import BARRIER, PANEL_PASS_RIGHT, TRAFFIC_CONE
from roadwork_mapper.simulator import (
    MAX_TICKS_PER_STREAM,
    DetectorModel,
    GroundTruth,
    GroundTruthSite,
    PathVertex,
    Scenario,
    ScenarioObject,
    _Motion,
    _visible_chain,
    evaluate,
    generate_streams,
    ground_truth_from_dict,
    ground_truth_to_dict,
    load_ground_truth,
    rectangle,
    scenario_from_dict,
    write_ground_truth,
)
from roadwork_mapper.sites import SiteRecord
from roadwork_mapper.streams import lidar_frame_to_line, odometry_to_line


def straight_path(length=100.0, speed=10.0):
    return (PathVertex(0.0, 0.0, speed), PathVertex(length, 0.0, speed))


def panel(x0, y0, x1, y1, object_class=PANEL_PASS_RIGHT):
    return ScenarioObject(object_class=object_class, footprint=rectangle(x0, y0, x1, y1))


def make_record(polygon, site_id=1):
    pts = tuple((float(x), float(y)) for x, y in polygon)
    return SiteRecord(
        site_id=site_id,
        raw_polygon=pts,
        hull_polygon=pts,
        length=0.0,
        depth=0.0,
        class_counts={},
        start_time=0.0,
        end_time=0.0,
        frame="local",
        utm_zone=None,
    )


# --- motion model ---


def test_constant_speed_motion():
    motion = _Motion(straight_path(100.0, 10.0))
    assert motion.total_time == pytest.approx(10.0)
    assert motion.total_arc == pytest.approx(100.0)
    x, y, heading, speed, arc = motion.state(4.0)
    assert (x, y) == pytest.approx((40.0, 0.0))
    assert heading == 0.0
    assert speed == 10.0
    assert arc == pytest.approx(40.0)


def test_accelerating_segment_duration():
    # speed linear in arc length: t(L) = L ln(v1/v0) / (v1 - v0)
    motion = _Motion((PathVertex(0.0, 0.0, 5.0), PathVertex(100.0, 0.0, 15.0)))
    assert motion.total_time == pytest.approx(100.0 * math.log(3.0) / 10.0)
    x, _, _, speed, arc = motion.state(motion.total_time)
    assert x == pytest.approx(100.0)
    assert speed == pytest.approx(15.0)
    assert arc == pytest.approx(100.0)


def _euler_oracle(path, t_target, dt=1e-4):
    """Integrate speed-over-arc with small steps; returns (x, y, speed, arc)."""
    segments = []
    arc0 = 0.0
    for a, b in zip(path[:-1], path[1:]):
        length = math.dist((a.x, a.y), (b.x, b.y))
        segments.append((arc0, length, a, b))
        arc0 += length
    total = arc0

    def speed_at(s):
        for seg_arc, length, a, b in segments:
            if s <= seg_arc + length or seg_arc + length == total:
                return a.speed + (b.speed - a.speed) * (s - seg_arc) / length
        raise AssertionError

    s, t = 0.0, 0.0
    while t < t_target and s < total:
        s = min(s + speed_at(s) * dt, total)
        t += dt
    for seg_arc, length, a, b in segments:
        if s <= seg_arc + length or seg_arc + length == total:
            frac = (s - seg_arc) / length
            return (
                a.x + frac * (b.x - a.x),
                a.y + frac * (b.y - a.y),
                speed_at(s),
                s,
            )
    raise AssertionError


def test_motion_matches_euler_integration():
    path = (
        PathVertex(0.0, 0.0, 5.0),
        PathVertex(60.0, 0.0, 15.0),
        PathVertex(60.0, 40.0, 8.0),
        PathVertex(20.0, 40.0, 8.0),
    )
    motion = _Motion(path)
    for t in [0.0, 1.7, 4.0, 6.2, 9.0, 11.5, motion.total_time]:
        x, y, _, speed, arc = motion.state(min(t, motion.total_time))
        ex, ey, espeed, earc = _euler_oracle(path, min(t, motion.total_time))
        assert arc == pytest.approx(earc, abs=5e-3)
        assert (x, y) == pytest.approx((ex, ey), abs=5e-3)
        assert speed == pytest.approx(espeed, abs=5e-3)


def test_motion_clamps_beyond_path_end():
    motion = _Motion(straight_path(50.0, 10.0))
    assert motion.state(99.0) == motion.state(motion.total_time)


def test_motion_validation():
    with pytest.raises(ValueError):
        _Motion((PathVertex(0.0, 0.0, 10.0),))
    with pytest.raises(ValueError):
        _Motion((PathVertex(0.0, 0.0, 10.0), PathVertex(0.0, 0.0, 10.0)))
    with pytest.raises(ValueError):
        _Motion((PathVertex(0.0, 0.0, 10.0), PathVertex(5.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        _Motion((PathVertex(-1e308, 0.0, 10.0), PathVertex(1e308, 0.0, 10.0)))


# --- visible contour chain ---

SQUARE = ScenarioObject(
    object_class=TRAFFIC_CONE,
    footprint=((10.0, -5.0), (12.0, -5.0), (12.0, -3.0), (10.0, -3.0)),
)


def test_visible_chain_approaching_right_side_object():
    chain = _visible_chain(SQUARE.footprint, 0.0, 0.0, 0.0)
    assert chain == [(10.0, -5.0), (10.0, -3.0), (12.0, -3.0)]


def test_visible_chain_after_passing_ends_at_far_rear_corner():
    chain = _visible_chain(SQUARE.footprint, 20.0, 0.0, 0.0)
    assert chain == [(10.0, -3.0), (12.0, -3.0), (12.0, -5.0)]
    assert chain[-1] == (12.0, -5.0)


def test_visible_chain_abeam_sees_near_face():
    chain = _visible_chain(SQUARE.footprint, 11.0, 0.0, 0.0)
    assert (10.0, -3.0) in chain and (12.0, -3.0) in chain
    assert (10.0, -5.0) not in chain and (12.0, -5.0) not in chain


def test_footprint_normalized_to_ccw():
    clockwise = tuple(reversed(rectangle(0.0, 0.0, 2.0, 1.0)))
    obj = ScenarioObject(object_class=TRAFFIC_CONE, footprint=clockwise)
    assert obj.footprint == rectangle(0.0, 0.0, 2.0, 1.0)
    chain = _visible_chain(obj.footprint, -5.0, 0.5, 0.0)
    assert chain  # a CW polygon would report no visible faces here
    assert (0.0, 0.0) in chain and (0.0, 1.0) in chain


# --- detector model ---


def test_detection_probability_curve():
    det = DetectorModel()
    assert det.probability(10.0) == 1.0
    assert det.probability(30.0) == 1.0
    assert det.probability(40.0) == pytest.approx(0.8)
    assert det.probability(50.0) == pytest.approx(0.6)
    assert det.probability(55.0) == pytest.approx(0.5)  # extrapolated
    assert det.probability(100.0) == 0.0  # clamped


# --- stream generation ---


def noiseless_scenario(sites, length=100.0, speed=10.0, seed=0):
    return Scenario(
        path=straight_path(length, speed),
        sites=sites,
        seed=seed,
        lidar_noise_sigma=0.0,
        detector=DetectorModel(box_sigma=0.0),
    )


def test_stream_counts_and_rates():
    drive = generate_streams(noiseless_scenario((), length=100.0, speed=10.0))
    assert len(drive.odometry) == 501   # 10 s at 50 Hz, inclusive of t=0
    assert len(drive.lidar) == 101
    assert len(drive.detections) == 201
    assert drive.odometry[0].timestamp == 0.0
    assert drive.odometry[1].timestamp == pytest.approx(0.02)
    assert drive.odometry[-1].timestamp <= 10.0


def test_lidar_respects_range_and_detector_respects_fov():
    site = (panel(60.0, -4.0, 61.0, -3.0),)
    drive = generate_streams(
        Scenario(
            path=straight_path(100.0, 10.0),
            sites=(site,),
            lidar_noise_sigma=0.0,
            lidar_range=30.0,
            detector=DetectorModel(box_sigma=0.0),
        )
    )
    for frame in drive.lidar:
        x = 10.0 * frame.timestamp
        in_range = math.dist((x, 0.0), (60.0, -4.0)) <= 30.0 or math.dist(
            (x, 0.0), (61.0, -4.0)
        ) <= 30.0
        if frame.objects:
            assert in_range
    # detections exist while approaching, none once the panel is behind
    seen_ahead = any(
        f.detections for f in drive.detections if 10.0 * f.timestamp < 55.0
    )
    seen_behind = any(
        f.detections for f in drive.detections if 10.0 * f.timestamp > 62.0
    )
    assert seen_ahead and not seen_behind


def test_noiseless_lidar_contour_is_exact():
    site = (panel(30.0, -4.0, 31.0, -3.0),)
    drive = generate_streams(noiseless_scenario((site,)))
    frame = drive.lidar[0]  # vehicle at origin
    assert len(frame.objects) == 1
    pts = frame.objects[0].points
    # robot frame equals world frame at the origin pose
    assert pts == ((30.0, -4.0), (30.0, -3.0), (31.0, -3.0))


def test_detection_boxes_inside_image_and_confidence_in_range():
    # The records carry what the simulator gives them, so the stream
    # rules are checked here: with noise, which draws through numpy.
    site = (panel(30.0, -2.0, 31.0, -1.0), panel(40.0, -2.0, 41.0, -1.0, TRAFFIC_CONE))
    drive = generate_streams(Scenario(path=straight_path(), sites=(site,), seed=3))
    boxes = [d for f in drive.detections for d in f.detections]
    assert {d.object_class for d in boxes} == {PANEL_PASS_RIGHT, TRAFFIC_CONE}
    for d in boxes:
        assert 0.0 <= d.box.x_min <= d.box.x_max <= 640.0
        assert 0.0 <= d.box.y_min <= d.box.y_max <= 352.0
        assert 0.80 <= d.confidence <= 0.99
    contours = [obj for f in drive.lidar for obj in f.objects]
    assert contours
    for obj in contours:
        assert type(obj.points) is tuple and obj.points
        for point in obj.points:
            assert type(point) is tuple and len(point) == 2
            assert all(type(c) is float and math.isfinite(c) for c in point)


def test_generation_is_deterministic_per_seed():
    site = (panel(30.0, -4.0, 31.0, -3.0),)
    scenario = Scenario(path=straight_path(), sites=(site,), seed=7)
    a = generate_streams(scenario)
    b = generate_streams(scenario)
    assert [odometry_to_line(s) for s in a.odometry] == [
        odometry_to_line(s) for s in b.odometry
    ]
    assert [lidar_frame_to_line(f) for f in a.lidar] == [
        lidar_frame_to_line(f) for f in b.lidar
    ]
    other = generate_streams(Scenario(path=straight_path(), sites=(site,), seed=8))
    assert [lidar_frame_to_line(f) for f in a.lidar] != [
        lidar_frame_to_line(f) for f in other.lidar
    ]


def test_object_ids_are_stable_across_sites():
    sites = (
        (panel(30.0, -4.0, 31.0, -3.0), panel(35.0, -4.0, 36.0, -3.0)),
        (panel(80.0, -4.0, 81.0, -3.0),),
    )
    drive = generate_streams(noiseless_scenario(sites, length=40.0))
    ids = {obj.object_id for frame in drive.lidar for obj in frame.objects}
    assert ids <= {1, 2, 3}
    assert {1, 2} <= ids


# --- ground truth ---


def test_ground_truth_corner_selection():
    site = (panel(30.0, -3.3, 30.4, -3.0),)
    drive = generate_streams(noiseless_scenario((site,)))
    truth = drive.ground_truth
    assert len(truth.sites) == 1
    gt = truth.sites[0]
    assert gt.start == pytest.approx((30.0, -3.0))
    assert gt.end == pytest.approx((30.4, -3.3))
    assert gt.deepest == pytest.approx((30.4, -3.3))


def test_ground_truth_subtracts_odometry_origin():
    site = (panel(30.0, -3.3, 30.4, -3.0),)
    path = (PathVertex(100.0, 50.0, 10.0), PathVertex(200.0, 50.0, 10.0))
    moved = tuple(
        ScenarioObject(o.object_class, tuple((x + 100.0, y + 50.0) for x, y in o.footprint))
        for o in site
    )
    drive = generate_streams(
        Scenario(path=path, sites=(moved,), lidar_noise_sigma=0.0,
                 detector=DetectorModel(box_sigma=0.0))
    )
    gt = drive.ground_truth.sites[0]
    assert gt.start == pytest.approx((30.0, -3.0))
    assert gt.end == pytest.approx((30.4, -3.3))


def test_ground_truth_file_round_trip(tmp_path):
    truth = GroundTruth(
        sites=(GroundTruthSite((1.0, 2.0), (3.0, 4.0), (5.0, 6.0)),)
    )
    assert ground_truth_from_dict(ground_truth_to_dict(truth)) == truth
    path = tmp_path / "ground_truth.json"
    write_ground_truth(truth, path)
    assert load_ground_truth(path) == truth


# --- scenario files ---


def test_scenario_from_dict_minimal():
    scenario = scenario_from_dict(
        {
            "path": [{"x": 0, "y": 0, "speed": 10}, {"x": 50, "y": 0, "speed": 10}],
            "sites": [
                {
                    "objects": [
                        {"class": "TrafficCone", "footprint": [[10, -3], [11, -3], [11, -2], [10, -2]]}
                    ]
                }
            ],
            "seed": 3,
            "lidar_noise_sigma": 0.0,
        }
    )
    assert scenario.seed == 3
    assert scenario.lidar_noise_sigma == 0.0
    assert len(scenario.sites) == 1
    assert scenario.sites[0][0].object_class == TRAFFIC_CONE


@pytest.mark.parametrize(
    "data",
    [
        {},
        {"path": [{"x": 0, "y": 0}]},
        {"path": [{"x": 0, "y": 0}, {"x": 1, "y": 0}], "sites": [{"objects": []}]},
        {
            "path": [{"x": 0, "y": 0}, {"x": 1, "y": 0}],
            "sites": [{"objects": [{"class": "Wall", "footprint": [[0, 0], [1, 0], [1, 1]]}]}],
        },
        {
            "path": [{"x": 0, "y": 0}, {"x": 1, "y": 0}],
            "sites": [{"objects": [{"class": "Barrier", "footprint": [[0, 0], [1, 0]]}]}],
        },
        {"path": [{"x": 0, "y": 0}, {"x": 1, "y": 0}], "lidar_noise_sigma": -1.0},
        {"path": [{"x": 0, "y": 0}, {"x": 1, "y": 0}], "lidar_hz": 0},
        *({"path": [{"x": 0, "y": 0}, {"x": 1, "y": 0}], **setting}
          for value in (True, "10")
          for setting in ({"detector": {"fov_deg": value}}, {"lidar_hz": value},
                          {"seed": value})),
        {"path": [{"x": 0, "y": 0}, {"x": 1, "y": 0}], "seed": 1.5},
        {"path": [{"x": 0, "y": 0}, {"x": 1, "y": 0}], "detector": {"confidence": [0.9]}},
    ],
)
def test_bad_scenarios_raise(data):
    with pytest.raises(ConfigError):
        scenario_from_dict(data)


@pytest.mark.parametrize("setting,message", [
    ({"detector": {"fov_deg": True}}, "scenario.detector.fov_deg must be a number"),
    ({"lidar_hz": "10"}, "scenario.lidar_hz must be a number"),
    ({"seed": 1.0}, "scenario.seed must be an integer"),
])
def test_scenario_numbers_are_not_coerced(setting, message):
    with pytest.raises(ConfigError, match=message):
        scenario_from_dict({"path": [{"x": 0, "y": 0}, {"x": 1, "y": 0}], **setting})


_PATH = [{"x": 0, "y": 0}, {"x": 1, "y": 0}]


def _with_footprint(footprint):
    return {"path": _PATH,
            "sites": [{"objects": [{"class": "TrafficCone", "footprint": footprint}]}]}


@pytest.mark.parametrize("data,message", [
    ({"path": [{"x": True, "y": 0}, {"x": 1, "y": 0}]}, r"scenario\.path\[0\]\.x must be a number"),
    ({"path": [{"x": 0, "y": 0}, {"x": 1, "y": 0, "speed": "10"}]},
     r"scenario\.path\[1\]\.speed must be a number"),
    ({"path": [{"x": 0}, {"x": 1, "y": 0}]}, r"scenario\.path\[0\]\.y must be a number"),
    (_with_footprint([[True, "1"], [1, 0], [1, 1]]),
     r"scenario\.sites\[0\]\.objects\[0\]\.footprint\[0\]\[0\] must be a number"),
    (_with_footprint([[0, 0], [1, "0"], [1, 1]]),
     r"scenario\.sites\[0\]\.objects\[0\]\.footprint\[1\]\[1\] must be a number"),
    (_with_footprint([[0, 0, 5], [1, 0], [1, 1]]),
     r"scenario\.sites\[0\]\.objects\[0\]\.footprint\[0\] must be a list of two numbers"),
    (_with_footprint("0 0 1 0 1 1"),
     r"scenario\.sites\[0\]\.objects\[0\]\.footprint must be a list of points"),
    ({"path": _PATH, "detector": {"confidence": [True, "0.9", "extra"]}},
     r"scenario\.detector\.confidence must be a list of two numbers"),
    ({"path": _PATH, "detector": {"confidence": [True, 0.9]}},
     r"scenario\.detector\.confidence\[0\] must be a number"),
    ({"path": _PATH, "detector": {"confidence": [0.8, "0.9"]}},
     r"scenario\.detector\.confidence\[1\] must be a number"),
    ({"path": _PATH, "detector": {"confidence": [0.8, 1.5]}},
     r"scenario\.detector\.confidence must lie within \[0, 1\]"),
])
def test_scenario_lists_are_not_coerced(data, message):
    with pytest.raises(ConfigError, match=message):
        scenario_from_dict(data)


_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize("data,message", [
    ({"path": [{"x": _INF, "y": 0}, {"x": 1, "y": 0}]}, r"scenario\.path\[0\]\.x"),
    ({"path": [{"x": 0, "y": 0}, {"x": 1, "y": _NAN}]}, r"scenario\.path\[1\]\.y"),
    ({"path": [{"x": 0, "y": 0, "speed": _INF}, {"x": 1, "y": 0}]},
     r"scenario\.path\[0\]\.speed"),
    (_with_footprint([[0, 0], [1, -_INF], [1, 1]]),
     r"scenario\.sites\[0\]\.objects\[0\]\.footprint\[1\]\[1\]"),
    (_with_footprint([[_NAN, 0], [1, 0], [1, 1]]),
     r"scenario\.sites\[0\]\.objects\[0\]\.footprint\[0\]\[0\]"),
    ({"path": _PATH, "detector": {"confidence": [_NAN, 0.9]}},
     r"scenario\.detector\.confidence\[0\]"),
    *(({"path": _PATH, "detector": {key: value}}, rf"scenario\.detector\.{key}")
      for key, value in (("fov_deg", _INF), ("max_range", _NAN), ("box_sigma", _NAN),
                         ("full_probability_range", -_INF), ("visual_height", _INF))),
    *(({"path": _PATH, key: value}, rf"scenario\.{key}")
      for key, value in (("lidar_hz", _NAN), ("camera_hz", _INF), ("odometry_hz", _NAN),
                         ("lidar_noise_sigma", _NAN), ("lidar_range", _INF))),
])
def test_scenario_numbers_must_be_finite(data, message):
    with pytest.raises(ConfigError, match=message + " must be finite"):
        scenario_from_dict(data)


@pytest.mark.parametrize("path,message", [
    ([{"x": 0, "y": 0}, {"x": 0, "y": 0}], "zero-length segment"),
    ([{"x": 0, "y": 0, "speed": -1.0}, {"x": 1, "y": 0}], "speeds must be positive"),
    ([{"x": 0, "y": 0}, {"x": 1, "y": 0, "speed": 0}], "speeds must be positive"),
    ([{"x": -1e308, "y": 0}, {"x": 1e308, "y": 0}], "too long to drive"),
])
def test_undrivable_path_is_config_error(path, message):
    with pytest.raises(ConfigError, match=r"^scenario\.path: .*" + message):
        scenario_from_dict({"path": path})


def _straight(seconds, **rates):
    """A 10 m straight scenario dict that takes ``seconds`` to drive."""
    speed = 10.0 / seconds
    return {"path": [{"x": 0, "y": 0, "speed": speed}, {"x": 10, "y": 0, "speed": speed}],
            **rates}


def test_drive_beyond_the_tick_bound_is_rejected_before_any_list():
    # 10 m at 1e-9 m/s: 1e10 s, which would be 5e11 odometry timestamps
    slow = (PathVertex(0.0, 0.0, 1e-9), PathVertex(10.0, 0.0, 1e-9))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=(
                r"^scenario\.path: the drive takes 1e\+10 s, so its 50 Hz stream "
                rf"would need more than {MAX_TICKS_PER_STREAM} timestamps$")):
            scenario_from_dict(_straight(1e10))
        with pytest.raises(ValueError, match="would need more than"):
            generate_streams(Scenario(path=slow, sites=()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_tick_bound_applies_to_the_fastest_stream():
    # floor(t * rate) + 1 timestamps: t * rate just below the bound fits
    limit = MAX_TICKS_PER_STREAM
    assert scenario_from_dict(_straight((limit - 1) / 50.0)).odometry_hz == 50.0
    with pytest.raises(ConfigError, match=r"^scenario\.path: .* 50 Hz stream"):
        scenario_from_dict(_straight((limit + 1) / 50.0))
    with pytest.raises(ConfigError, match=r"^scenario\.path: .* 200 Hz stream"):
        scenario_from_dict(_straight((limit + 1) / 200.0, camera_hz=200))
    assert scenario_from_dict(_straight((limit - 1) / 200.0, lidar_hz=200)).lidar_hz == 200.0


def test_scenario_lists_of_numbers_load():
    scenario = scenario_from_dict({**_with_footprint([[0, 0], [1.5, 0], [1, 1]]),
                                   "detector": {"confidence": [0.8, 1]}})
    assert scenario.sites[0][0].footprint == ((0.0, 0.0), (1.5, 0.0), (1.0, 1.0))
    assert (scenario.detector.confidence_low, scenario.detector.confidence_high) == (0.8, 1.0)
    assert scenario.path[0].speed == 8.33


# --- evaluation ---

TRUTH = GroundTruth(
    sites=(
        GroundTruthSite((30.0, -3.0), (30.4, -3.3), (30.4, -3.3)),
    )
)


def test_evaluate_exact_polygon_scores_zero():
    record = make_record([(30.0, -3.0), (30.4, -3.3)])
    result = evaluate([record], TRUTH)
    assert result.matched_sites == 1
    assert result.missed_sites == 0
    assert result.mean_error == pytest.approx(0.0)
    assert result.std_error == pytest.approx(0.0)
    assert [name for _, name, _ in result.corner_errors] == ["start", "end", "deepest"]


def test_evaluate_uniform_offset():
    record = make_record([(30.3, -3.0), (30.7, -3.3)])
    result = evaluate([record], TRUTH)
    assert result.mean_error == pytest.approx(0.3)
    assert result.std_error == pytest.approx(0.0)


def test_evaluate_pairs_by_nearest_centroid():
    truth = GroundTruth(
        sites=(
            GroundTruthSite((10.0, 0.0), (12.0, 0.0), (12.0, 0.0)),
            GroundTruthSite((50.0, 0.0), (52.0, 0.0), (52.0, 0.0)),
        )
    )
    near = make_record([(10.1, 0.0), (12.1, 0.0)], site_id=1)
    far = make_record([(50.1, 0.0), (52.1, 0.0)], site_id=2)
    result = evaluate([far, near], truth)  # order must not matter
    assert result.matched_sites == 2
    assert result.mean_error == pytest.approx(0.1)
    by_site = {gi for gi, _, _ in result.corner_errors}
    assert by_site == {0, 1}


def test_evaluate_pairs_by_the_raw_polygon_not_the_hull_vertices():
    # Two truth sites 0.6 m apart.  The record's raw square is centred on
    # the first; its hull lists three extra vertices on its right edge,
    # which pull the mean of the hull vertices nearer the second.
    truth = GroundTruth(sites=(
        GroundTruthSite((-1.0, 0.0), (1.0, 0.0), (0.0, 0.0)),
        GroundTruthSite((-0.4, 0.0), (1.6, 0.0), (0.6, 0.0)),
    ))
    square = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))
    on_edge = ((-1.0, -1.0), (1.0, -1.0), (1.0, -0.5), (1.0, 0.0), (1.0, 0.5),
               (1.0, 1.0), (-1.0, 1.0))
    for hull in (square, on_edge):
        record = replace(make_record(square), hull_polygon=hull)
        result = evaluate([record], truth)
        assert result.matched_sites == 1
        assert {gi for gi, _, _ in result.corner_errors} == {0}


def test_evaluate_counts_missed_sites():
    truth = GroundTruth(
        sites=(
            GroundTruthSite((10.0, 0.0), (12.0, 0.0), (12.0, 0.0)),
            GroundTruthSite((50.0, 0.0), (52.0, 0.0), (52.0, 0.0)),
        )
    )
    result = evaluate([make_record([(10.0, 0.0), (12.0, 0.0)])], truth)
    assert result.matched_sites == 1
    assert result.missed_sites == 1
    assert len(result.corner_errors) == 3


def test_evaluate_empty_records():
    result = evaluate([], TRUTH)
    assert result.matched_sites == 0
    assert result.missed_sites == 1
    assert math.isnan(result.mean_error)
    assert math.isnan(result.std_error)


def test_evaluate_rigid_invariance():
    rng = np.random.default_rng(5)
    base_truth = GroundTruth(
        sites=(GroundTruthSite((10.0, 1.0), (14.0, 2.0), (13.0, 3.0)),)
    )
    base_record = make_record([(10.2, 1.1), (14.1, 2.2), (12.8, 3.0), (11.0, 1.5)])
    reference = evaluate([base_record], base_truth).corner_errors
    for _ in range(20):
        dx, dy = rng.uniform(-1000.0, 1000.0, size=2)
        theta = rng.uniform(-math.pi, math.pi)
        c, s = math.cos(theta), math.sin(theta)

        def rot(p):
            return (p[0] * c - p[1] * s + dx, p[0] * s + p[1] * c + dy)

        truth = GroundTruth(
            sites=tuple(
                GroundTruthSite(rot(t.start), rot(t.end), rot(t.deepest))
                for t in base_truth.sites
            )
        )
        record = make_record([rot(p) for p in base_record.raw_polygon])
        moved = evaluate([record], truth).corner_errors
        for (_, _, a), (_, _, b) in zip(reference, moved):
            assert a == pytest.approx(b, abs=1e-9)
