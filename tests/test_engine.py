"""End-to-end replay tests on synthetic drives.

A noiseless straight drive past two small panels must reproduce the
ground-truth corner points exactly: the simulated LiDAR returns exact
world geometry, so every stored site point coincides with a footprint
corner.  The odometry time base, ``PoseTimeline``, is tested on its own
at the end.
"""
import bisect
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from roadwork_mapper import engine
from roadwork_mapper.config import default_config
from roadwork_mapper.detections import PANEL_PASS_RIGHT, TRAFFIC_CONE, Detection, DetectionFrame
from roadwork_mapper.engine import PoseTimeline, ReplayEngine, ReplayResult
from roadwork_mapper.geometry import Pose2D
from roadwork_mapper.lidar import ContourObject
from roadwork_mapper.simulator import (
    DetectorModel,
    PathVertex,
    Scenario,
    ScenarioObject,
    SimulatedDrive,
    evaluate,
    generate_streams,
    rectangle,
)
from roadwork_mapper.streams import LidarFrame, OdometrySample

import test_acceptance
import test_fusion
import test_lidar


def panel(x0, y0, x1, y1):
    return ScenarioObject(
        object_class=PANEL_PASS_RIGHT, footprint=rectangle(x0, y0, x1, y1)
    )


def two_panel_scenario(seed=0):
    return Scenario(
        path=(PathVertex(0.0, 0.0, 10.0), PathVertex(200.0, 0.0, 10.0)),
        sites=(
            (panel(30.0, -3.3, 30.4, -3.0),),
            (panel(120.0, -3.3, 120.4, -3.0),),
        ),
        seed=seed,
        lidar_noise_sigma=0.0,
        detector=DetectorModel(box_sigma=0.0),
    )


@pytest.fixture(scope="module")
def noiseless_drive():
    return generate_streams(two_panel_scenario())


def run_engine(drive, out_dir=None):
    engine = ReplayEngine(default_config())
    result = engine.run(drive.odometry, drive.lidar, drive.detections, out_dir=out_dir)
    return engine, result


def test_noiseless_drive_finds_both_sites(noiseless_drive):
    engine, result = run_engine(noiseless_drive)
    assert result.skipped_cycles == 0
    assert result.cycles == len(noiseless_drive.lidar)
    assert [r.site_id for r in result.site_records] == [1, 2]
    assert result.summary.roadworks_present
    assert result.summary.count == 2
    assert engine.registry.active == {}
    for record in result.site_records:
        assert record.frame == "local"
        assert record.class_counts == {PANEL_PASS_RIGHT: 1}


def test_noiseless_drive_is_corner_exact(noiseless_drive):
    _, result = run_engine(noiseless_drive)
    evaluation = evaluate(result.site_records, noiseless_drive.ground_truth)
    assert evaluation.matched_sites == 2
    assert evaluation.missed_sites == 0
    assert evaluation.mean_error <= 1e-6


def test_site_dimensions_from_stored_corners(noiseless_drive):
    _, result = run_engine(noiseless_drive)
    record = result.site_records[0]
    # Stored outline: both road-side corners plus the far rear corner.
    expected = [30.0, -3.0, 30.4, -3.0, 30.4, -3.3]
    flat = [c for point in record.raw_polygon for c in point]
    assert flat == pytest.approx(expected, abs=1e-9)
    assert record.length == pytest.approx(0.5)
    assert record.depth == pytest.approx(0.24)
    assert result.summary.sites[0] == (1, 0.5, 0.2)


def test_tracker_resets_after_leaving_all_sites(noiseless_drive):
    engine, _ = run_engine(noiseless_drive)
    assert len(engine.tracker) == 0


def test_replays_are_byte_identical(noiseless_drive, tmp_path):
    dirs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        run_engine(noiseless_drive, out_dir=out_dir)
        dirs.append(out_dir)
    for rel in ["annotations.jsonl", "summary.json", "summary.txt",
                "sites/site_000001.json", "sites/site_000002.json"]:
        a = (dirs[0] / rel).read_bytes()
        b = (dirs[1] / rel).read_bytes()
        assert a == b
        assert a  # files must not be empty


def test_annotations_contain_matches_and_ghosts(noiseless_drive, tmp_path):
    run_engine(noiseless_drive, out_dir=tmp_path)
    lines = [json.loads(line) for line in
             (tmp_path / "annotations.jsonl").read_text().splitlines()]
    assert len(lines) == len(noiseless_drive.lidar)
    assert all(entry["detection_threshold"] == 5 for entry in lines)
    boxed = [o for line in lines for o in line["objects"] if "box" in o]
    assert boxed
    matched = [o for o in boxed if o.get("iou") is not None]
    assert matched
    assert all(o["iou"] > 0.5 for o in matched)
    ghosts = [o for line in lines for o in line["objects"] if o["ghost"]]
    assert ghosts
    assert all(o["site_id"] is not None for o in ghosts)
    assert all("box" not in o for o in ghosts)


def test_a_reclassed_member_shows_its_latest_class_everywhere(noiseless_drive, tmp_path):
    # The detector calls every object a cone from the first promotion on.
    # Cones and panels pass the same confidence and size tests, so the
    # matches stay the same and only the class changes.
    run_engine(noiseless_drive, out_dir=tmp_path / "as-simulated")
    lines = (tmp_path / "as-simulated" / "annotations.jsonl").read_text().splitlines()
    promoted_at = next(line["t"] for line in map(json.loads, lines)
                       if any(o["site_id"] is not None for o in line["objects"]))
    reclassed = [DetectionFrame(f.timestamp, tuple(
        Detection(TRAFFIC_CONE if f.timestamp > promoted_at else d.object_class,
                  d.confidence, d.box) for d in f.detections))
        for f in noiseless_drive.detections]
    drive = SimulatedDrive(noiseless_drive.odometry, noiseless_drive.lidar, reclassed,
                           noiseless_drive.ground_truth)
    _, result = run_engine(drive, out_dir=tmp_path / "reclassed")
    lines = (tmp_path / "reclassed" / "annotations.jsonl").read_text().splitlines()
    objects = [o for line in map(json.loads, lines) for o in line["objects"]
               if o["site_id"] == 1]
    boxed = [o["class"] for o in objects if not o["ghost"]]
    ghosts = [o["class"] for o in objects if o["ghost"]]
    assert PANEL_PASS_RIGHT in boxed  # promoted as a panel
    assert ghosts  # then passed
    assert {boxed[-1], *ghosts, *result.site_records[0].class_counts} == {TRAFFIC_CONE}


def test_latencies_recorded_per_cycle(noiseless_drive):
    _, result = run_engine(noiseless_drive)
    assert len(result.latencies) == result.cycles
    assert result.latency_max >= result.latency_mean >= 0.0


def test_latency_percentiles_are_nearest_rank():
    result = ReplayResult(summary=None, site_records=[], latencies=[5.0, 1.0, 4.0, 2.0])
    assert result.latency_percentile(50) == 2.0  # a cycle's latency, not a mean of two
    assert result.latency_percentile(95) == 5.0
    assert result.latency_percentile(25) == 1.0
    assert ReplayResult(summary=None, site_records=[]).latency_percentile(95) == 0.0


def test_cycles_without_odometry_are_skipped():
    odometry = [
        OdometrySample(t, 10.0 * t, 0.0, 0.0, 10.0)
        for t in [0.0, 0.1, 0.2, 3.0, 3.1]
    ]
    lidar = [LidarFrame(t, ()) for t in [0.1, 1.5, 3.0]]
    engine = ReplayEngine(default_config())
    result = engine.run(odometry, lidar, [])
    assert result.cycles == 2
    assert result.skipped_cycles == 1


def test_a_contour_at_the_tracking_range_is_tracked_and_boxed(tmp_path):
    # The range test is inclusive: a nearest point at exactly
    # tracking_range is in range, one a float farther is not.
    edge = default_config().matching.tracking_range
    contours = (ContourObject(1, ((edge, 0.0),)),
                ContourObject(2, ((math.nextafter(edge, math.inf), 0.0),)))
    engine = ReplayEngine(default_config())
    result = engine.run([OdometrySample(0.0, 0.0, 0.0, 0.0, 0.0)],
                        [LidarFrame(0.0, contours)], [], out_dir=tmp_path)
    assert result.cycles == 1
    assert engine.tracker.get(1) is not None and engine.tracker.get(2) is None
    annotation = json.loads((tmp_path / "annotations.jsonl").read_text())
    assert [item["object_id"] for item in annotation["objects"]] == [1]


def test_empty_streams():
    engine = ReplayEngine(default_config())
    result = engine.run([], [], [])
    assert result.cycles == 0
    assert result.skipped_cycles == 0
    assert not result.summary.roadworks_present


def test_detection_source_override(noiseless_drive):
    calls = []

    def silent_source(index, timestamp):
        calls.append((index, timestamp))
        return None

    engine = ReplayEngine(default_config(), detection_source=silent_source)
    result = engine.run(noiseless_drive.odometry, noiseless_drive.lidar, [])
    assert len(calls) == result.cycles
    assert result.site_records == []  # no camera input, nothing promoted
    assert not result.summary.roadworks_present


def test_out_dir_files_written(noiseless_drive, tmp_path):
    out = tmp_path / "session"
    run_engine(noiseless_drive, out_dir=out)
    assert (out / "annotations.jsonl").is_file()
    assert (out / "summary.json").is_file()
    assert sorted(p.name for p in (out / "sites").iterdir()) == [
        "site_000001.json",
        "site_000002.json",
    ]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["count"] == 2


def test_ghosts_are_only_asked_for_when_annotating(noiseless_drive, tmp_path, monkeypatch):
    calls = []
    ghost_update = engine.SiteRegistry.ghost_update

    def counted(self, visible_ids, pose):
        calls.append(pose)
        return ghost_update(self, visible_ids, pose)

    monkeypatch.setattr(engine.SiteRegistry, "ghost_update", counted)
    _, result = run_engine(noiseless_drive)
    assert result.cycles > 0
    assert calls == []
    _, result = run_engine(noiseless_drive, out_dir=tmp_path)
    assert len(calls) == result.cycles


def _replay_bytes(drive, out_dir):
    ReplayEngine(default_config()).run(
        drive.odometry, drive.lidar, drive.detections, out_dir=out_dir)
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def test_frame_passes_replay_like_per_object_reference(tmp_path, monkeypatch):
    # Criterion-8 drives at several seeds, replayed by the per-frame box and
    # match passes and then by their per-contour and per-detection test
    # oracles, must write the same bytes.
    drives = {seed: generate_streams(test_acceptance._two_site_scenario(seed, noisy=True))
              for seed in (1, 2, 3, 4)}
    batched = {seed: _replay_bytes(drive, tmp_path / f"batched{seed}")
               for seed, drive in drives.items()}
    monkeypatch.setattr(engine, "build_contour_boxes", test_lidar.boxes_reference)
    monkeypatch.setattr(engine, "match_frame", test_fusion.match_frame_reference)
    for seed, drive in drives.items():
        assert batched[seed] == _replay_bytes(drive, tmp_path / f"reference{seed}")
        assert len(batched[seed]) >= 4
        annotations = [json.loads(line) for line in batched[seed]["annotations.jsonl"].splitlines()]
        assert any(o.get("iou") is not None for a in annotations for o in a["objects"])


# --- the odometry time base ---


def _samples(times):
    """Odometry samples at ``times``, each at its own distinct position."""
    return [OdometrySample(t, 3.0 + 2.5 * i + 0.1 * i * i, -1.0 + 0.7 * i, 0.1 * i, 4.0 + i)
            for i, t in enumerate(times)]


def _nearest_sample_reference(times, t, window):
    """The replay's sample lookup before the time base had its own type."""
    if not times:
        return None
    i = bisect.bisect_left(times, t)
    best = None
    for j in (i - 1, i):
        if 0 <= j < len(times) and abs(times[j] - t) <= window:
            if best is None or abs(times[j] - t) < abs(times[best] - t):
                best = j
    return best


def _index_of(samples, timeline, answer):
    x0, y0 = timeline.origin
    return [i for i, s in enumerate(samples)
            if answer[0] == Pose2D(s.x - x0, s.y - y0, s.heading)]


def test_pose_timeline_answers_pose_speed_and_arc_from_the_origin():
    samples = _samples([0.0, 0.5, 1.0])
    timeline = PoseTimeline(samples)
    assert timeline.origin == (3.0, -1.0)
    pose, speed, arc = timeline.nearest(0.9, 0.25)
    assert pose == Pose2D(samples[2].x - 3.0, samples[2].y + 1.0, samples[2].heading)
    assert speed == 6.0
    assert arc == (math.dist((samples[1].x, samples[1].y), (samples[0].x, samples[0].y))
                   + math.dist((samples[2].x, samples[2].y), (samples[1].x, samples[1].y)))


def test_pose_timeline_tie_goes_to_the_earlier_sample():
    samples = _samples([0.0, 1.0])
    timeline = PoseTimeline(samples)
    assert _index_of(samples, timeline, timeline.nearest(0.5, 0.5)) == [0]


def test_pose_timeline_gap_equal_to_the_window_still_pairs():
    samples = _samples([0.0, 1.0])
    timeline = PoseTimeline(samples)
    assert _index_of(samples, timeline, timeline.nearest(1.25, 0.25)) == [1]
    assert _index_of(samples, timeline, timeline.nearest(-0.25, 0.25)) == [0]
    assert timeline.nearest(1.25, 0.125) is None


def test_pose_timeline_without_a_sample_in_the_window_gives_none():
    assert PoseTimeline([]).nearest(0.0, 1.0) is None
    timeline = PoseTimeline(_samples([0.0, 0.5, 3.0]))
    assert timeline.nearest(1.5, 0.25) is None
    assert timeline.nearest(-1.0, 0.25) is None
    assert timeline.nearest(4.0, 0.25) is None


@pytest.mark.parametrize("t", [0.75, 1.0, 1.25, 1.5, 2.0])
def test_pose_timeline_resolves_duplicate_times_as_before(t):
    times = [0.0, 1.0, 1.0, 1.0, 2.0]
    samples = _samples(times)
    timeline = PoseTimeline(samples)
    expected = _nearest_sample_reference(times, t, 0.5)
    assert _index_of(samples, timeline, timeline.nearest(t, 0.5)) == [expected]


@settings(max_examples=300)
@given(st.lists(st.integers(-8, 8), max_size=12).map(lambda ks: sorted(k / 4 for k in ks)),
       st.one_of(st.integers(-12, 12).map(lambda k: k / 8), st.floats(-3.0, 3.0)),
       st.sampled_from([0.0, 0.1, 0.125, 0.25, 0.5, 1.0]))
def test_pose_timeline_picks_the_reference_sample(times, t, window):
    samples = _samples(times)
    timeline = PoseTimeline(samples)
    expected = _nearest_sample_reference(times, t, window)
    answer = timeline.nearest(t, window)
    if expected is None:
        assert answer is None
    else:
        assert _index_of(samples, timeline, answer) == [expected]


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
       st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30))
def test_pose_timeline_arc_is_the_running_sum_bit_for_bit(xs, ys):
    samples = [OdometrySample(float(i), x, y, 0.0, 1.0)
               for i, (x, y) in enumerate(zip(xs, ys))]
    timeline = PoseTimeline(samples)
    total = 0.0
    for i, sample in enumerate(samples):
        if i:
            previous = samples[i - 1]
            total += math.dist((sample.x, sample.y), (previous.x, previous.y))
        assert timeline.nearest(sample.timestamp, 0.0)[2] == total
