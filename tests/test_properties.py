"""Pipeline invariants on small random seeded drives.

Each drive is a short road, straight or with one bend, past one to three
sites of random objects on the right shoulder, simulated by ``simulator``
at a random seed.  The properties hold for every replay, whatever it
detects.
"""
import bisect
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadwork_mapper.config import default_config
from roadwork_mapper.detections import (
    BARRIER,
    OBJECT_CLASSES,
    PANEL_PASS_LEFT,
    PANEL_PASS_RIGHT,
)
from roadwork_mapper.engine import ReplayEngine
from roadwork_mapper.simulator import (
    PathVertex,
    Scenario,
    ScenarioObject,
    generate_streams,
    rectangle,
)


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


# A drive on which an object joins two sites, which the merge then unifies:
# the random drives rarely give one.
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
    merge = registry.merge_split_sites
    members_after_merge = []

    def checked_merge(pose):
        merge(pose)
        ids = [oid for site in registry.active.values() for oid in site.member_ids()]
        assert len(ids) == len(set(ids)), "an object is a member twice"
        members_after_merge.append(len(ids))

    registry.merge_split_sites = checked_merge
    _, result, _ = _replay(drive, tmp_path_factory.mktemp("out"), engine=engine)
    assert len(members_after_merge) == result.cycles


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
        for site in engine.registry.active.values():
            head, *others = site.members
            assert head.points == engine.tracker.get(head.object_id).world_contour
            for member in others:
                contour = engine.tracker.get(member.object_id).world_contour
                assert member.points == [contour[-1]]
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

    def recording(arc, timestamp, anchor):
        records = finalize_check(arc, timestamp, anchor)
        finished.extend((timestamp, record) for record in records)
        return records

    engine.registry.finalize_check = recording
    _, result, _ = _replay(drive, tmp_path_factory.mktemp("out"), engine=engine)
    assert [record for _, record in finished] == result.site_records
    for timestamp, record in finished:
        driven = _arc_at(drive, timestamp) - _arc_at(drive, record.end_time)
        assert driven > engine.config.finalize_distance
