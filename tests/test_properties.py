"""Pipeline invariants on small random seeded drives.

Each drive is a short road, straight or with one bend, past one to three
sites of random objects on the right shoulder, simulated by ``simulator``
at a random seed.  The properties hold for every replay, whatever it
detects.
"""
import bisect
import json
import math
from pathlib import Path

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadwork_mapper import streams
from roadwork_mapper.cli import STREAM_FILES, main
from roadwork_mapper.config import default_config
from roadwork_mapper.detections import (
    BARRIER,
    OBJECT_CLASSES,
    PANEL_PASS_LEFT,
    PANEL_PASS_RIGHT,
)
from roadwork_mapper.engine import ReplayEngine
from roadwork_mapper.geometry import normalize_angle, point_segment_distance
from roadwork_mapper.lidar import ContourObject, object_range
from roadwork_mapper.simulator import (
    PathVertex,
    Scenario,
    ScenarioObject,
    generate_streams,
    load_scenario,
    rectangle,
)
from roadwork_mapper.streams import LidarFrame, OdometrySample

REPO = Path(__file__).resolve().parents[1]


@st.composite
def _objects(draw, start):
    """One site: objects in a row along the shoulder from ``start``."""
    objects = []
    x = start
    for _ in range(draw(st.integers(1, 3))):
        lateral = draw(st.sampled_from([-3.0, -3.5, -4.5]))
        length = draw(st.sampled_from([0.4, 2.0]))
        objects.append(ScenarioObject(draw(st.sampled_from(OBJECT_CLASSES)),
                                      rectangle(x, lateral - 0.3, x + length, lateral)))
        x += length + draw(st.sampled_from([1.0, 3.5, 8.0]))
    return tuple(objects)


@st.composite
def _drives(draw):
    speed = draw(st.sampled_from([8.33, 15.0, 25.0]))
    bend = draw(st.sampled_from([0.0, 8.0, -8.0]))
    path = (PathVertex(0.0, 0.0, speed), PathVertex(90.0, 0.0, speed),
            PathVertex(150.0, bend, speed))
    # A site near the end of the road is still open when the replay ends.
    starts = draw(st.lists(st.sampled_from([25.0, 45.0, 70.0, 135.0]), min_size=1,
                           max_size=3, unique=True))
    scenario = Scenario(
        path=path,
        sites=tuple(draw(_objects(start)) for start in sorted(starts)),
        seed=draw(st.integers(0, 10_000)),
        lidar_noise_sigma=draw(st.sampled_from([0.0, 0.1])),
    )
    return generate_streams(scenario)


def _replay(drive, out_dir, lidar=None, engine=None):
    engine = engine or ReplayEngine(default_config())
    result = engine.run(drive.odometry, drive.lidar if lidar is None else lidar,
                        drive.detections, out_dir=out_dir)
    files = {str(p.relative_to(out_dir)): p.read_bytes()
             for p in sorted(out_dir.rglob("*")) if p.is_file()}
    return engine, result, files


@settings(max_examples=8)
@given(drive=_drives())
def test_two_replays_write_identical_bytes(drive, tmp_path_factory):
    _, _, first = _replay(drive, tmp_path_factory.mktemp("first"))
    _, _, second = _replay(drive, tmp_path_factory.mktemp("second"))
    assert first == second


@settings(max_examples=8)
@given(drive=_drives(), cut=st.floats(0.0, 1.0))
def test_prefix_replay_annotations_are_a_prefix(drive, cut, tmp_path_factory):
    k = round(cut * len(drive.lidar))
    _, _, full = _replay(drive, tmp_path_factory.mktemp("full"))
    _, result, prefix = _replay(drive, tmp_path_factory.mktemp("prefix"), drive.lidar[:k])
    annotations = prefix["annotations.jsonl"]
    assert full["annotations.jsonl"].startswith(annotations)
    assert annotations.count(b"\n") == result.cycles
    # Sites finished within the first k frames are written the same way.
    for name, data in prefix.items():
        if name.startswith("sites/"):
            assert full[name] == data


@settings(max_examples=8)
@given(drive=_drives(), cut=st.floats(0.0, 1.0))
def test_summary_counts_records_and_active_sites(drive, cut, tmp_path_factory):
    # A replay cut short ends with sites still open as well as finished ones.
    lidar = drive.lidar[:round(cut * len(drive.lidar))]
    engine, result, _ = _replay(drive, tmp_path_factory.mktemp("out"), lidar)
    assert result.summary.count == len(result.site_records) + len(engine.registry.active)
    assert result.summary.roadworks_present == (result.summary.count > 0)


# A drive on which an object joins two sites, which then fold into one: the
# random drives rarely give one.
_BRIDGED = generate_streams(Scenario(
    path=(PathVertex(0.0, 0.0, 8.33), PathVertex(90.0, 0.0, 8.33), PathVertex(150.0, 8.0, 8.33)),
    sites=(
        (ScenarioObject(PANEL_PASS_LEFT, rectangle(25.0, -3.8, 25.4, -3.5)),),
        (ScenarioObject(PANEL_PASS_RIGHT, rectangle(45.0, -3.3, 47.0, -3.0)),
         ScenarioObject(BARRIER, rectangle(48.0, -4.8, 50.0, -4.5)),
         ScenarioObject(PANEL_PASS_LEFT, rectangle(53.5, -3.3, 53.9, -3.0))),
    ),
    seed=8344,
))


@settings(max_examples=8)
@given(drive=_drives())
@example(drive=_BRIDGED)
def test_every_member_is_in_one_site_after_each_merge(drive, tmp_path_factory):
    engine = ReplayEngine(default_config())
    registry = engine.registry
    assign, step = registry.assign, registry.step
    assigned, promoted_in_steps, folds = [], [], []

    def checked_assign(obj, *args):
        before = len(registry.active)
        assign(obj, *args)
        ids = [oid for site in registry.active.values() for oid in site.member_ids()]
        assert len(ids) == len(set(ids)), "an object is a member twice"
        assigned.append(obj.object_id)
        folds.append(len(registry.active) < before)

    def checked_step(promoted, *args):
        promoted_in_steps.extend(obj.object_id for obj in promoted)
        return step(promoted, *args)

    registry.assign = checked_assign
    registry.step = checked_step
    _replay(drive, tmp_path_factory.mktemp("out"), engine=engine)
    # Each promotion is assigned once, by the step of its cycle.
    assert assigned == promoted_in_steps != []
    if drive is _BRIDGED:
        assert any(folds)


@settings(max_examples=8)
@given(drive=_drives())
@example(drive=_BRIDGED)
def test_head_stores_its_tracked_contour_and_the_others_their_last_point(
        drive, tmp_path_factory):
    engine = ReplayEngine(default_config())
    cycle = engine._cycle
    checked_cycles = []

    def checked_cycle(*args):
        records = cycle(*args)
        frame = args[1]
        in_range = {c.object_id for c in frame.objects
                    if object_range(c) <= engine.config.matching.tracking_range}
        for site in engine.registry.active.values():
            head, *others = site.members
            assert site.stored_points() == (
                list(engine.tracker.get(head.object_id).world_contour)
                + [engine.tracker.get(m.object_id).world_contour[-1] for m in others])
            for member in site.members:
                # One record per object: the member is the tracker's entry,
                # refreshed in this cycle when its object is in range.
                assert member is engine.tracker.get(member.object_id)
                if member.object_id in in_range:
                    assert member.last_seen == frame.timestamp
        checked_cycles.append(records)
        return records

    engine._cycle = checked_cycle
    _, result, _ = _replay(drive, tmp_path_factory.mktemp("out"), engine=engine)
    assert len(checked_cycles) == result.cycles


def _arc_at(drive, t):
    """Odometry path length driven by the sample at time ``t``."""
    times = [s.timestamp for s in drive.odometry]
    k = bisect.bisect_left(times, t)
    assert times[k] == t  # the LiDAR and odometry clocks share ticks
    return sum(math.dist((a.x, a.y), (b.x, b.y))
               for a, b in zip(drive.odometry[:k], drive.odometry[1:k + 1]))


@settings(max_examples=8)
@given(drive=_drives())
def test_no_site_finishes_within_finalize_distance(drive, tmp_path_factory):
    engine = ReplayEngine(default_config())
    finalize_check = engine.registry.finalize_check
    finished = []

    def recording(matched_ids, arc, timestamp, anchor):
        records = finalize_check(matched_ids, arc, timestamp, anchor)
        finished.extend((timestamp, record) for record in records)
        return records

    engine.registry.finalize_check = recording
    _, result, _ = _replay(drive, tmp_path_factory.mktemp("out"), engine=engine)
    assert [record for _, record in finished] == result.site_records
    for timestamp, record in finished:
        driven = _arc_at(drive, timestamp) - _arc_at(drive, record.end_time)
        assert driven > engine.config.finalize_distance


def _moved(drive, angle, dx, dy):
    """``drive`` with its odometry frame turned by ``angle`` and shifted by
    (dx, dy); the LiDAR contours and detections are robot- and image-frame."""
    c, s = math.cos(angle), math.sin(angle)
    odometry = [OdometrySample(o.timestamp, c * o.x - s * o.y + dx, s * o.x + c * o.y + dy,
                               normalize_angle(o.heading + angle), o.speed)
                for o in drive.odometry]
    return type(drive)(odometry, drive.lidar, drive.detections, drive.ground_truth)


def _boundary_distance(point, polygon):
    return min(point_segment_distance(point, a, b)
               for a, b in zip(polygon, polygon[1:] + polygon[:1]))


@settings(max_examples=4)
@given(drive=_drives(), angle=st.floats(-math.pi, math.pi),
       dx=st.floats(-1e4, 1e4), dy=st.floats(-1e4, 1e4))
def test_site_polygons_move_with_the_odometry_frame(drive, angle, dx, dy, tmp_path_factory):
    # Local-frame polygons subtract the first pose, so the shift cancels and
    # only the turn remains.
    _, result, _ = _replay(drive, tmp_path_factory.mktemp("first"))
    _, moved, _ = _replay(_moved(drive, angle, dx, dy), tmp_path_factory.mktemp("moved"))
    assert len(moved.site_records) == len(result.site_records)
    c, s = math.cos(angle), math.sin(angle)
    for a, b in zip(result.site_records, moved.site_records):
        assert (b.start_time, b.end_time, b.class_counts) == (a.start_time, a.end_time,
                                                              a.class_counts)
        assert b.length == pytest.approx(a.length, rel=0, abs=1e-9)
        assert b.depth == pytest.approx(a.depth, rel=0, abs=1e-9)
        raw = [(c * x - s * y, s * x + c * y) for x, y in a.raw_polygon]
        assert len(b.raw_polygon) == len(raw)
        assert all(math.dist(p, q) <= 1e-9 for p, q in zip(raw, b.raw_polygon))
        # The hull starts at its lowest point in x, and a point on one of its
        # edges may be kept or dropped by rounding, so the hulls are compared
        # as boundaries.
        hull = [(c * x - s * y, s * x + c * y) for x, y in a.hull_polygon]
        assert all(_boundary_distance(p, list(b.hull_polygon)) <= 1e-9 for p in hull)
        assert all(_boundary_distance(p, hull) <= 1e-9 for p in b.hull_polygon)


def _relabelled(drive):
    """``drive`` with every LiDAR object id ``i`` relabelled ``3 * i + 7``,
    a map that keeps the ids' order."""
    lidar = [LidarFrame(f.timestamp, tuple(ContourObject(3 * c.object_id + 7, c.points)
                                           for c in f.objects))
             for f in drive.lidar]
    return type(drive)(drive.odometry, lidar, drive.detections, drive.ground_truth)


def _annotations(data, object_id=int):
    """The annotation lines of ``data`` as values, each object id ``i``
    replaced by ``object_id(i)``."""
    frames = [json.loads(line) for line in data.splitlines()]
    for frame in frames:
        for item in frame["objects"]:
            item["object_id"] = object_id(item["object_id"])
    return frames


@settings(max_examples=8)
@given(drive=_drives())
@example(drive=_BRIDGED)
def test_outputs_do_not_depend_on_object_id_values(drive, tmp_path_factory):
    _, result, files = _replay(drive, tmp_path_factory.mktemp("first"))
    _, relabelled, relabelled_files = _replay(_relabelled(drive),
                                              tmp_path_factory.mktemp("relabelled"))
    assert relabelled.cycles == result.cycles
    assert (_annotations(relabelled_files.pop("annotations.jsonl"), lambda i: (i - 7) / 3)
            == _annotations(files.pop("annotations.jsonl")))
    # Site records and the summary hold no object id.
    assert relabelled_files == files


def _refuse(line):
    raise ValueError("refused")


def _file_replay(drive, work, refuse):
    """Output files of a replay of ``drive`` written as stream files, and
    the number of lines the stdlib decoder read; ``refuse`` makes the
    fast decoder refuse every line."""
    in_dir, out_dir = work / "in", work / "out"
    in_dir.mkdir(parents=True)
    streams.write_stream(in_dir / STREAM_FILES["odometry"], drive.odometry)
    streams.write_stream(in_dir / STREAM_FILES["lidar_objects"], drive.lidar)
    streams.write_stream(in_dir / STREAM_FILES["detections"], drive.detections)
    decoded = []
    decode = streams._decode

    def counted(line, lineno):
        decoded.append(lineno)
        return decode(line, lineno)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streams, "_decode", counted)
        if refuse:
            patch.setattr(streams, "_fast_loads", _refuse)
        assert main(["replay", "--in-dir", str(in_dir), "--out-dir", str(out_dir)]) == 0
    files = {str(p.relative_to(out_dir)): p.read_bytes()
             for p in sorted(out_dir.rglob("*")) if p.is_file()}
    return files, len(decoded)


def _assert_either_decoder_writes_the_same_bytes(drive, work):
    lines = len(drive.odometry) + len(drive.lidar) + len(drive.detections)
    shipped, stdlib_lines = _file_replay(drive, work / "shipped", refuse=False)
    # The simulator writes exactly the keys the reader reads: orjson takes all.
    assert stdlib_lines == 0
    refused, stdlib_lines = _file_replay(drive, work / "refused", refuse=True)
    assert stdlib_lines == lines
    assert shipped["annotations.jsonl"]
    assert refused == shipped


def test_sample_drive_replays_alike_through_either_decoder(tmp_path):
    drive = generate_streams(load_scenario(REPO / "configs" / "sample_scenario.yaml"))
    _assert_either_decoder_writes_the_same_bytes(drive, tmp_path)


@settings(max_examples=8)
@given(drive=_drives())
def test_drives_replay_alike_through_either_decoder(drive, tmp_path_factory):
    _assert_either_decoder_writes_the_same_bytes(drive, tmp_path_factory.mktemp("decoders"))
