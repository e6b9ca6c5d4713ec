"""Acceptance gate: one checked, printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see all verdict lines;
without ``-s`` pytest still shows the line of any failing criterion.
"""
import math
import time
from pathlib import Path

import numpy as np

from roadwork_mapper.config import default_config
from roadwork_mapper.detections import BARRIER, PANEL_PASS_RIGHT, TRAFFIC_CONE
from roadwork_mapper.engine import ReplayEngine
from roadwork_mapper.fusion import MatchParams, match_frame
from roadwork_mapper.geometry import PixelBox, Pose2D
from roadwork_mapper.lidar import ContourBoxImage, object_range
from roadwork_mapper.simulator import (
    DetectorModel,
    PathVertex,
    Scenario,
    ScenarioObject,
    evaluate,
    generate_streams,
    rectangle,
)
from roadwork_mapper.sites import (
    RoadworkSite,
    SiteRegistry,
    site_dimensions,
)
from roadwork_mapper.tracking import detection_threshold

import test_fusion
import test_sites


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: speed-adaptive threshold curve -------------------------


def test_criterion_1_threshold_regression():
    started = time.perf_counter()
    kmh = lambda v: v / 3.6
    anchors_ok = (
        detection_threshold(kmh(50.0)) == 5
        and detection_threshold(kmh(80.0)) == 3
        and detection_threshold(kmh(100.0)) == 2
    )
    clamps_ok = detection_threshold(0.0) == 5 and detection_threshold(0.01) == 5 \
        and detection_threshold(500.0) == 2
    grid = [detection_threshold(float(v)) for v in np.linspace(0.001, 80.0, 1000)]
    monotone_ok = all(a >= b for a, b in zip(grid, grid[1:]))
    elapsed = time.perf_counter() - started
    _report(
        1,
        anchors_ok and clamps_ok and monotone_ok and elapsed < 1.0,
        f"anchors 5/3/2 {anchors_ok}, clamps {clamps_ok}, "
        f"monotone over 1000 speeds {monotone_ok}, {elapsed:.3f} s",
    )


# -- criteria 2 and 3: localization accuracy ------------------------------


def _two_site_scenario(seed: int, noisy: bool) -> Scenario:
    panels = tuple(
        ScenarioObject(PANEL_PASS_RIGHT, rectangle(x, -3.3, x + 0.4, -3.0))
        for x in [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0]
    )
    barriers = tuple(
        ScenarioObject(BARRIER, rectangle(x, -3.3, x + 2.0, -3.0))
        for x in [180.0, 183.5, 187.0]
    )
    return Scenario(
        path=(PathVertex(0.0, 0.0, 8.33), PathVertex(300.0, 0.0, 8.33)),
        sites=(panels, barriers),
        seed=seed,
        lidar_noise_sigma=0.10 if noisy else 0.0,
        detector=DetectorModel() if noisy else DetectorModel(box_sigma=0.0),
    )


def _drive_and_score(seed: int, noisy: bool, out_dir: Path):
    drive = generate_streams(_two_site_scenario(seed, noisy))
    out_dir.mkdir()
    engine = ReplayEngine(default_config())
    result = engine.run(drive.odometry, drive.lidar, drive.detections, out_dir=out_dir)
    return evaluate(result.site_records, drive.ground_truth)


def test_criterion_2_noisy_accuracy(tmp_path):
    started = time.perf_counter()
    errors = []
    matched = missed = 0
    for seed in range(1, 7):
        evaluation = _drive_and_score(seed, noisy=True, out_dir=tmp_path / f"seed{seed}")
        errors.extend(e for _, _, e in evaluation.corner_errors)
        matched += evaluation.matched_sites
        missed += evaluation.missed_sites
    elapsed = time.perf_counter() - started
    mean = sum(errors) / len(errors)
    _report(
        2,
        len(errors) >= 30 and mean <= 0.5 and missed == 0 and elapsed < 60.0,
        f"mean corner error {mean:.3f} m over {len(errors)} corners, "
        f"6 seeds, {matched} sites matched, {missed} missed, {elapsed:.1f} s",
    )


def test_criterion_3_noiseless_closed_loop(tmp_path):
    evaluation = _drive_and_score(seed=0, noisy=False, out_dir=tmp_path / "replay")
    mean = evaluation.mean_error
    _report(
        3,
        evaluation.matched_sites == 2
        and evaluation.missed_sites == 0
        and mean <= 1e-6,
        f"mean corner error {mean:.2e} m over {len(evaluation.corner_errors)} corners",
    )


# -- criterion 4: grouping suite ------------------------------------------


def _boundary_cases_hold() -> bool:
    pose = Pose2D(0.0, 0.0, 0.0)
    cases = [
        (TRAFFIC_CONE, TRAFFIC_CONE, (12.0, 0.0), True),
        (TRAFFIC_CONE, TRAFFIC_CONE, (12.01, 0.0), False),
        (BARRIER, BARRIER, (2.0, 0.0), True),
        (BARRIER, BARRIER, (2.01, 0.0), False),
        (BARRIER, TRAFFIC_CONE, (6.0, 0.0), True),
        (BARRIER, TRAFFIC_CONE, (6.01, 0.0), False),
        (TRAFFIC_CONE, BARRIER, (6.0, 0.0), True),
        (TRAFFIC_CONE, BARRIER, (6.01, 0.0), False),
        (TRAFFIC_CONE, TRAFFIC_CONE, (0.0, 1.5), True),
        (TRAFFIC_CONE, TRAFFIC_CONE, (0.0, 1.51), False),
    ]
    for cls_a, cls_b, position, same_site in cases:
        registry = SiteRegistry()
        registry.assign(test_sites.entry(1, cls_a, [(0.0, 0.0)]), pose, 0.0, 0.0)
        registry.assign(test_sites.entry(2, cls_b, [position]), pose, 0.0, 0.0)
        if (test_sites.site_of(registry, 2) == 1) != same_site:
            return False
    return True


def _one_site_per_object_holds(rng) -> bool:
    """After each assign, every object is a member of one site at most."""
    pose = Pose2D(0.0, 0.0, 0.0)
    for _ in range(50):
        registry = SiteRegistry()
        for oid in range(1, 9):
            registry.assign(
                test_sites.entry(oid, TRAFFIC_CONE,
                                 [(float(rng.uniform(0, 25)), float(rng.uniform(0, 4)))]),
                pose,
                0.0,
                0.0,
            )
            seen: set[int] = set()
            for site in registry.active.values():
                ids = set(site.member_ids())
                if ids & seen:
                    return False
                seen |= ids
    return True


def _permutation_oracle_holds(rng) -> bool:
    classes = [TRAFFIC_CONE, BARRIER, PANEL_PASS_RIGHT]
    for _ in range(60):
        heading = float(rng.uniform(-3.0, 3.0))
        objects = [
            (
                oid + 1,
                classes[rng.integers(3)],
                (float(rng.uniform(0, 30)), float(rng.uniform(0, 5))),
            )
            for oid in range(int(rng.integers(1, 9)))
        ]
        expected = test_sites._expected_partition(
            objects, SiteRegistry().separation, heading
        )
        if test_sites._run_grouping(objects, heading) != expected:
            return False
        shuffled = list(objects)
        rng.shuffle(shuffled)
        if test_sites._run_grouping(shuffled, heading) != expected:
            return False
    return True


def _depth_bounded_by_length(rng) -> bool:
    for _ in range(1000):
        members = [
            test_sites.entry(i + 1, TRAFFIC_CONE,
                             [tuple(map(float, rng.uniform(-50, 50, 2)))])
            for i in range(int(rng.integers(1, 8)))
        ]
        length, depth = site_dimensions(RoadworkSite(1, members, 0.0, 0.0, 0.0))
        if depth > length + 1e-12:
            return False
    return True


def _single_head_invariant_holds() -> bool:
    contours = {
        oid: [(x, 0.0), (x + 0.5, 0.0), (x + 1.0, 0.4)]
        for oid, x in [(1, 10.0), (2, 0.0), (3, 30.0), (4, 20.0)]
    }
    pose = Pose2D(0.0, 0.0, 0.0)
    registry = SiteRegistry()

    def heads_ok() -> bool:
        # The head is the rearmost member (the heading is +x), and the
        # stored points are its full contour, then one point, the last, of
        # each later member.
        for site in registry.active.values():
            head, *others = site.members
            if min(site.members, key=lambda m: m.world_contour[0][0]) is not head:
                return False
            if site.stored_points() != (list(head.world_contour)
                                        + [m.world_contour[-1] for m in others]):
                return False
        return True

    # head replacement: object 2 undercuts object 1
    registry.assign(test_sites.entry(1, TRAFFIC_CONE, contours[1]), pose, 0.0, 0.0)
    registry.assign(test_sites.entry(2, TRAFFIC_CONE, contours[2]), pose, 0.0, 0.0)
    if not heads_ok():
        return False
    # split then fold: 3 founds its own site, 4 bridges the two together
    registry.assign(test_sites.entry(3, TRAFFIC_CONE, contours[3]), pose, 0.0, 0.0)
    if len(registry.active) != 2 or not heads_ok():
        return False
    registry.assign(test_sites.entry(4, TRAFFIC_CONE, contours[4]), pose, 0.0, 0.0)
    return len(registry.active) == 1 and heads_ok()


def test_criterion_4_grouping_suite():
    rng = np.random.default_rng(2024)
    boundary = _boundary_cases_hold()
    one_site = _one_site_per_object_holds(rng)
    permutation = _permutation_oracle_holds(rng)
    depth = _depth_bounded_by_length(rng)
    heads = _single_head_invariant_holds()
    _report(
        4,
        boundary and one_site and permutation and depth and heads,
        f"boundaries {boundary}, one site per object {one_site}, "
        f"permutation oracle {permutation}, depth<=length x1000 {depth}, "
        f"single head {heads}",
    )


# -- criterion 5: matching oracle ------------------------------------------


def test_criterion_5_matching_oracle():
    rng = np.random.default_rng(77)
    instances = 0
    agreements = 0
    matches_seen = 0
    for threshold in (0.5, 0.3):
        params = MatchParams(iou_threshold=threshold)
        for _ in range(250):
            dets, boxes = test_fusion._random_instance(rng)
            got = {
                m.detection_index: m.object_id
                for m in match_frame(dets, boxes, params)
            }
            want = test_fusion.oracle_match(dets, boxes, params)
            instances += 1
            agreements += got == want
            matches_seen += len(want)

    # directed size-filter cases: the oversized candidate is excluded for a
    # panel and kept for a barrier
    params = MatchParams(iou_threshold=0.15)
    detection_box = PixelBox(0.0, 0.0, 40.0, 25.0)
    big = ContourBoxImage(1, PixelBox(0.0, 0.0, 100.0, 50.0),
                          ((0.0, 25.0), (100.0, 25.0)))
    panel = test_fusion.det(0.9, detection_box, object_class=PANEL_PASS_RIGHT)
    barrier = test_fusion.det(0.9, detection_box, object_class=BARRIER)
    filter_ok = (
        match_frame([panel], [big], params) == []
        and len(match_frame([barrier], [big], params)) == 1
    )
    _report(
        5,
        agreements == instances == 500 and matches_seen > 100 and filter_ok,
        f"{agreements}/{instances} instances equal the exhaustive oracle "
        f"({matches_seen} matches), size filter + barrier exemption {filter_ok}",
    )


# -- criterion 6: finalization distance ------------------------------------


def test_criterion_6_finalization_boundary():
    registry = SiteRegistry()
    registry.assign(test_sites.entry(1, TRAFFIC_CONE, [(0.0, 0.0)]), Pose2D(0.0, 0.0, 0.0),
                    0.0, 10.0)
    at_49_9 = registry.finalize_check([], 59.9, 1.0, None)
    still_active = list(registry.active) == [1] and at_49_9 == []
    at_50_1 = registry.finalize_check([], 60.1, 2.0, None)
    finished = len(at_50_1) == 1 and registry.active == {}
    _report(
        6,
        still_active and finished,
        f"active at 49.9 m {still_active}, finished at 50.1 m {finished}",
    )


# -- criterion 7: throughput ------------------------------------------------


class _InstrumentedEngine(ReplayEngine):
    def __init__(self, config):
        super().__init__(config)
        self.active_counts: list[int] = []

    def _cycle(self, *args, **kwargs):
        records = super()._cycle(*args, **kwargs)
        self.active_counts.append(len(self.registry.active))
        return records


def test_criterion_7_throughput(tmp_path):
    barriers = tuple(
        ScenarioObject(BARRIER, rectangle(x, y - 0.4, x + 0.4, y))
        for x in np.arange(60.0, 90.0, 3.0)
        for y in (-3.0, -5.0, -7.0, -9.0, -11.0)
    )
    scenario = Scenario(
        path=(PathVertex(0.0, 0.0, 10.0), PathVertex(200.0, 0.0, 10.0)),
        sites=tuple((obj,) for obj in barriers),
        seed=5,
        lidar_noise_sigma=0.0,
        detector=DetectorModel(box_sigma=0.0),
    )
    drive = generate_streams(scenario)
    busy_frames = sum(
        1
        for frame in drive.lidar
        if sum(1 for obj in frame.objects if object_range(obj) <= 50.0) >= 10
    )
    engine = _InstrumentedEngine(default_config())
    result = engine.run(drive.odometry, drive.lidar, drive.detections, out_dir=tmp_path)
    max_ms = result.latency_max * 1000.0
    mean_ms = result.latency_mean * 1000.0
    peak_sites = max(engine.active_counts)
    total_sites = len(result.site_records) + len(engine.registry.active)
    _report(
        7,
        busy_frames >= 50
        and peak_sites == 50
        and total_sites == 50
        and max_ms <= 100.0
        and mean_ms <= 50.0,
        f"{busy_frames} frames with >=10 in-range objects, "
        f"site dictionary peaked at {peak_sites} entries ({total_sites} total), "
        f"latency max {max_ms:.1f} ms mean {mean_ms:.1f} ms",
    )


# -- criterion 8: determinism -----------------------------------------------


def test_criterion_8_byte_determinism(tmp_path):
    drive = generate_streams(_two_site_scenario(seed=3, noisy=True))
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        out_dir.mkdir()
        ReplayEngine(default_config()).run(
            drive.odometry, drive.lidar, drive.detections, out_dir=out_dir
        )
        files = sorted(p.relative_to(out_dir) for p in out_dir.rglob("*") if p.is_file())
        outputs.append({str(rel): (out_dir / rel).read_bytes() for rel in files})
    identical = outputs[0] == outputs[1]
    _report(
        8,
        identical and len(outputs[0]) >= 4,
        f"{len(outputs[0])} files compared byte-for-byte, identical {identical}",
    )
