"""Synthetic drive simulator and accuracy evaluator.

A scenario places roadwork objects (convex footprint polygons, world
frame) along a vehicle path and describes both sensors statistically.
From that the simulator produces the three recorded streams the replay
engine consumes, plus per-site ground-truth corner points, so the whole
pipeline can be scored without field data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import jsonio
from .config import (
    CALIBRATION_KEYS,
    EXTRINSIC_KEYS,
    FINITE,
    NON_NEGATIVE,
    POSITIVE,
    PROBABILITY,
    ConfigError,
    _load_yaml,
    _number,
    _number_pair,
    _section,
    check_keys,
    default_config,
    extrinsic_from_dict,
    read_settings,
    replace,
)
from .detections import Detection, DetectionFrame, OBJECT_CLASSES
from .geometry import PixelBox, Point2, normalize_angle, point_segment_distance, project_to_image
from .lidar import ContourObject, SensorModelParams
from .sites import SiteRecord
from .streams import (
    MAX_CONTOUR_COORDINATE,
    LidarFrame,
    OdometrySample,
    document_number,
    read_document,
)


@dataclass(frozen=True, slots=True)
class PathVertex:
    x: float
    y: float
    speed: float  # m/s at this vertex; linear in arc length between vertices


@dataclass(frozen=True, slots=True)
class ScenarioObject:
    object_class: str
    footprint: tuple[Point2, ...]  # convex, world frame

    def __post_init__(self) -> None:
        if self.object_class not in OBJECT_CLASSES:
            raise ValueError(f"unknown object class {self.object_class!r}")
        if len(self.footprint) < 3:
            raise ValueError("footprint needs at least 3 vertices")
        object.__setattr__(self, "footprint", _ccw(self.footprint))


@dataclass(frozen=True, slots=True)
class DetectorModel:
    """Statistical camera detector: range-dependent hit rate."""

    fov_deg: float = 65.0
    max_range: float = 60.0
    full_probability_range: float = 30.0
    min_probability: float = 0.6
    min_probability_range: float = 50.0
    box_sigma: float = 0.05      # meters of corner jitter before projection
    visual_height: float = 1.6   # meters used for the projected box top
    confidence_low: float = 0.80
    confidence_high: float = 0.99

    def __post_init__(self) -> None:
        if not self.min_probability_range > self.full_probability_range:
            raise ValueError(
                "min_probability_range must be greater than full_probability_range")

    def probability(self, r: float) -> float:
        if r <= self.full_probability_range:
            return 1.0
        slope = (1.0 - self.min_probability) / (
            self.min_probability_range - self.full_probability_range
        )
        return max(0.0, min(1.0, 1.0 - slope * (r - self.full_probability_range)))


@dataclass(frozen=True, slots=True)
class Scenario:
    path: tuple[PathVertex, ...]
    sites: tuple[tuple[ScenarioObject, ...], ...]
    seed: int = 0
    lidar_hz: float = 10.0
    camera_hz: float = 20.0
    odometry_hz: float = 50.0
    lidar_noise_sigma: float = 0.10
    lidar_range: float = 80.0
    detector: DetectorModel = DetectorModel()
    sensor: SensorModelParams = field(default_factory=lambda: default_config().sensor)


@dataclass(frozen=True, slots=True)
class GroundTruthSite:
    start: Point2
    end: Point2
    deepest: Point2

    def centroid(self) -> Point2:
        return (
            (self.start[0] + self.end[0] + self.deepest[0]) / 3.0,
            (self.start[1] + self.end[1] + self.deepest[1]) / 3.0,
        )


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """Characteristic corner points per site, local-world frame."""

    sites: tuple[GroundTruthSite, ...]


@dataclass(slots=True)
class SimulatedDrive:
    odometry: list[OdometrySample]
    lidar: list[LidarFrame]
    detections: list[DetectionFrame]
    ground_truth: GroundTruth


def rectangle(x0: float, y0: float, x1: float, y1: float) -> tuple[Point2, ...]:
    """Axis-aligned CCW rectangle footprint helper for scenario building."""
    xa, xb = min(x0, x1), max(x0, x1)
    ya, yb = min(y0, y1), max(y0, y1)
    return ((xa, ya), (xb, ya), (xb, yb), (xa, yb))


def _ccw(polygon: Sequence[Point2]) -> tuple[Point2, ...]:
    pts = tuple((float(x), float(y)) for x, y in polygon)
    area2 = sum(
        pts[i][0] * pts[(i + 1) % len(pts)][1] - pts[(i + 1) % len(pts)][0] * pts[i][1]
        for i in range(len(pts))
    )
    return pts if area2 >= 0.0 else tuple(reversed(pts))


class _Motion:
    """Closed-form motion along a polyline with per-vertex speeds."""

    def __init__(self, path: Sequence[PathVertex]):
        if len(path) < 2:
            raise ValueError("path needs at least two vertices")
        self._segments = []
        t0 = 0.0
        arc0 = 0.0
        for a, b in zip(path[:-1], path[1:]):
            if a.speed <= 0.0 or b.speed <= 0.0:
                raise ValueError("path speeds must be positive")
            length = math.dist((a.x, a.y), (b.x, b.y))
            if length == 0.0:
                raise ValueError("path contains a zero-length segment")
            heading = math.atan2(b.y - a.y, b.x - a.x)
            if abs(b.speed - a.speed) < 1e-12:
                duration = length / a.speed
            else:
                duration = length * math.log(b.speed / a.speed) / (b.speed - a.speed)
            self._segments.append((t0, duration, arc0, length, a, heading, b.speed))
            t0 += duration
            arc0 += length
        if not math.isfinite(t0):
            raise ValueError("path is too long to drive in a finite time")
        self.total_time = t0
        self.total_arc = arc0

    def state(self, t: float) -> tuple[float, float, float, float, float]:
        """(x, y, heading, speed, arc) at time t; clamps beyond the path end."""
        t = min(max(t, 0.0), self.total_time)
        segment = self._segments[-1]
        for candidate in self._segments:
            if t <= candidate[0] + candidate[1]:
                segment = candidate
                break
        t0, duration, arc0, length, a, heading, v1 = segment
        t_loc = min(t - t0, duration)
        if abs(v1 - a.speed) < 1e-12:
            s_loc = a.speed * t_loc
            speed = a.speed
        else:
            k = (v1 - a.speed) / length
            s_loc = a.speed / k * math.expm1(k * t_loc)
            speed = a.speed * math.exp(k * t_loc)
        s_loc = min(s_loc, length)
        x = a.x + s_loc * math.cos(heading)
        y = a.y + s_loc * math.sin(heading)
        return x, y, heading, speed, arc0 + s_loc


def _world_to_robot(points: Sequence[Point2], x: float, y: float, heading: float) -> np.ndarray:
    pts = np.asarray(points, dtype=float) - (x, y)
    c, s = math.cos(-heading), math.sin(-heading)
    return pts @ np.array([[c, -s], [s, c]]).T


def _visible_chain(
    footprint: Sequence[Point2], sx: float, sy: float, heading: float
) -> list[Point2]:
    """Footprint vertices on faces seen from the sensor, in sweep order."""
    n = len(footprint)
    ids: set[int] = set()
    for i in range(n):
        p = footprint[i]
        q = footprint[(i + 1) % n]
        nx, ny = q[1] - p[1], -(q[0] - p[0])  # outward normal (CCW polygon)
        mx, my = (p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0
        if nx * (sx - mx) + ny * (sy - my) > 0.0:
            ids.add(i)
            ids.add((i + 1) % n)
    verts = [footprint[i] for i in sorted(ids)]
    verts.sort(key=lambda p: normalize_angle(math.atan2(p[1] - sy, p[0] - sx) - heading))
    return verts


# Most timestamps one simulated stream may hold.  The streams are built
# in memory before they are written, and a drive that needs more (e.g.
# 10 m at 1e-9 m/s, 5e11 odometry ticks) would exhaust memory instead.
MAX_TICKS_PER_STREAM = 10_000_000


def _check_drive_length(scenario: Scenario, total_time: float) -> None:
    """Raise ValueError when a stream of the drive needs more than
    ``MAX_TICKS_PER_STREAM`` timestamps; builds nothing."""
    rate_hz = max(scenario.odometry_hz, scenario.lidar_hz, scenario.camera_hz)
    # floor(total_time * rate_hz) + 1 ticks; the float test also holds
    # when the product overflows to inf
    if not total_time * rate_hz < MAX_TICKS_PER_STREAM:
        raise ValueError(
            f"the drive takes {total_time:.6g} s, so its {rate_hz:g} Hz stream "
            f"would need more than {MAX_TICKS_PER_STREAM} timestamps")


def _ticks(rate_hz: float, total_time: float) -> list[float]:
    count = int(math.floor(total_time * rate_hz)) + 1
    return [k / rate_hz for k in range(count)]


def generate_streams(scenario: Scenario) -> SimulatedDrive:
    """Simulate one drive; deterministic for a given scenario (incl. seed)."""
    motion = _Motion(scenario.path)
    _check_drive_length(scenario, motion.total_time)
    rng = np.random.default_rng(scenario.seed)
    flat: list[tuple[int, ScenarioObject]] = []
    for site in scenario.sites:
        for obj in site:
            flat.append((len(flat) + 1, obj))

    odometry = []
    for t in _ticks(scenario.odometry_hz, motion.total_time):
        x, y, heading, speed, _ = motion.state(t)
        odometry.append(OdometrySample(t, x, y, heading, speed))

    lidar = []
    for t in _ticks(scenario.lidar_hz, motion.total_time):
        x, y, heading, _, _ = motion.state(t)
        objects = []
        for oid, obj in flat:
            if min(math.dist((x, y), v) for v in obj.footprint) > scenario.lidar_range:
                continue
            chain = _visible_chain(obj.footprint, x, y, heading)
            if not chain:
                continue
            robot = _world_to_robot(chain, x, y, heading)
            if scenario.lidar_noise_sigma > 0.0:
                robot = robot + rng.normal(0.0, scenario.lidar_noise_sigma, robot.shape)
            # A contour the stream reader would reject is left out, after its
            # noise is drawn, so that the draws of the other contours stay.
            if not (np.abs(robot) <= MAX_CONTOUR_COORDINATE).all():
                continue
            objects.append(
                ContourObject(object_id=oid, points=tuple(map(tuple, robot.tolist())))
            )
        lidar.append(LidarFrame(timestamp=t, objects=tuple(objects)))

    det = scenario.detector
    half_fov = math.radians(det.fov_deg) / 2.0
    intr = scenario.sensor.intrinsics
    detections = []
    for t in _ticks(scenario.camera_hz, motion.total_time):
        x, y, heading, _, _ = motion.state(t)
        items = []
        for oid, obj in flat:
            cx = sum(v[0] for v in obj.footprint) / len(obj.footprint)
            cy = sum(v[1] for v in obj.footprint) / len(obj.footprint)
            r = math.dist((x, y), (cx, cy))
            if r > det.max_range:
                continue
            if abs(normalize_angle(math.atan2(cy - y, cx - x) - heading)) > half_fov:
                continue
            p = det.probability(r)
            if p <= 0.0 or (p < 1.0 and rng.random() >= p):
                continue
            robot = _world_to_robot(obj.footprint, x, y, heading)
            if det.box_sigma > 0.0:
                robot = robot + rng.normal(0.0, det.box_sigma, robot.shape)
            pts3 = np.vstack([
                np.hstack([robot, np.zeros((len(robot), 1))]),
                np.hstack([robot, np.full((len(robot), 1), det.visual_height)]),
            ])
            cam = scenario.sensor.extrinsic.apply(pts3.tolist())
            pixels = [px for p3 in cam if (px := project_to_image(p3, intr)) is not None]
            if not pixels:
                continue
            box = PixelBox.from_points(pixels).clamped(intr.width, intr.height)
            if box.x_max - box.x_min <= 0.0 or box.y_max - box.y_min <= 0.0:
                continue
            confidence = float(rng.uniform(det.confidence_low, det.confidence_high))
            items.append(Detection(obj.object_class, confidence, box))
        detections.append(DetectionFrame(timestamp=t, detections=tuple(items)))

    origin = (odometry[0].x, odometry[0].y)
    truth = GroundTruth(
        sites=tuple(
            _ground_truth_site(site, scenario.path, origin) for site in scenario.sites
        )
    )
    return SimulatedDrive(odometry, lidar, detections, truth)


def _ground_truth_site(
    objects: Sequence[ScenarioObject],
    path: Sequence[PathVertex],
    origin: Point2,
) -> GroundTruthSite:
    verts = [v for obj in objects for v in obj.footprint]
    cx = sum(v[0] for v in verts) / len(verts)
    cy = sum(v[1] for v in verts) / len(verts)

    best = None
    for a, b in zip(path[:-1], path[1:]):
        d = point_segment_distance((cx, cy), (a.x, a.y), (b.x, b.y))
        if best is None or d < best[0]:
            best = (d, a, b)
    _, a, b = best
    length = math.dist((a.x, a.y), (b.x, b.y))
    ux, uy = (b.x - a.x) / length, (b.y - a.y) / length

    def lon(p: Point2) -> float:
        return (p[0] - a.x) * ux + (p[1] - a.y) * uy

    def lat(p: Point2) -> float:
        return abs((p[0] - a.x) * -uy + (p[1] - a.y) * ux)

    start = min(verts, key=lambda p: (lon(p), lat(p)))
    end = max(verts, key=lambda p: (lon(p), lat(p)))
    deepest = max(verts, key=lambda p: (math.dist(start, p), lat(p)))
    return GroundTruthSite(
        start=(start[0] - origin[0], start[1] - origin[1]),
        end=(end[0] - origin[0], end[1] - origin[1]),
        deepest=(deepest[0] - origin[0], deepest[1] - origin[1]),
    )


# -- scenario files ------------------------------------------------------

# One row per setting of a scenario file, in the form of
# ``config.SESSION_KEYS``; its calibration section takes the session's rows.
SCENARIO_KEYS = (
    ("detector.fov_deg", "detector.fov_deg", POSITIVE),
    ("detector.max_range", "detector.max_range", POSITIVE),
    ("detector.full_probability_range", "detector.full_probability_range", NON_NEGATIVE),
    ("detector.min_probability", "detector.min_probability", PROBABILITY),
    ("detector.min_probability_range", "detector.min_probability_range", POSITIVE),
    ("detector.box_sigma", "detector.box_sigma", NON_NEGATIVE),
    ("detector.visual_height", "detector.visual_height", POSITIVE),
    ("detector.confidence", ("detector.confidence_low", "detector.confidence_high"),
     PROBABILITY),
    ("seed", "seed", NON_NEGATIVE),
    *((key, key, POSITIVE) for key in ("lidar_hz", "camera_hz", "odometry_hz")),
    ("lidar_noise_sigma", "lidar_noise_sigma", NON_NEGATIVE),
    ("lidar_range", "lidar_range", POSITIVE),
)


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ConfigError("scenario root must be a mapping")

    raw_path = data.get("path")
    if not isinstance(raw_path, list) or len(raw_path) < 2:
        raise ConfigError("scenario.path must list at least two vertices")
    path = []
    for i, vertex in enumerate(raw_path):
        where = f"scenario.path[{i}]"
        if not isinstance(vertex, dict):
            raise ConfigError(f"{where} must be a mapping")
        path.append(PathVertex(_number(vertex.get("x"), f"{where}.x", FINITE),
                               _number(vertex.get("y"), f"{where}.y", FINITE),
                               _number(vertex.get("speed", 8.33), f"{where}.speed", FINITE)))

    try:
        motion = _Motion(path)
    except ValueError as err:
        raise ConfigError(f"scenario.path: {err}") from err

    raw_sites = data.get("sites", [])
    if not isinstance(raw_sites, list):
        raise ConfigError("scenario.sites must be a list")
    sites = []
    for si, raw_site in enumerate(raw_sites):
        raw_objects = raw_site.get("objects") if isinstance(raw_site, dict) else None
        if not isinstance(raw_objects, list) or not raw_objects:
            raise ConfigError(f"scenario.sites[{si}].objects must be a non-empty list")
        objects = []
        for oi, raw_obj in enumerate(raw_objects):
            where = f"scenario.sites[{si}].objects[{oi}]"
            if not isinstance(raw_obj, dict):
                raise ConfigError(f"{where} must be a mapping")
            raw_footprint = raw_obj.get("footprint")
            if not isinstance(raw_footprint, list):
                raise ConfigError(f"{where}.footprint must be a list of points")
            footprint = tuple(_number_pair(p, f"{where}.footprint[{k}]")
                              for k, p in enumerate(raw_footprint))
            try:
                objects.append(ScenarioObject(raw_obj.get("class"), footprint))
            except ValueError as err:
                raise ConfigError(f"{where}: {err}") from err
        sites.append(tuple(objects))

    base = Scenario(path=tuple(path), sites=tuple(sites))
    extrinsic = extrinsic_from_dict(_section(data, "calibration"), "scenario.")
    scenario = read_settings(data, replace(base, sensor=replace(base.sensor, extrinsic=extrinsic)),
                             CALIBRATION_KEYS + SCENARIO_KEYS, "scenario.")
    try:
        _check_drive_length(scenario, motion.total_time)
    except ValueError as err:
        raise ConfigError(f"scenario.path: {err}") from err
    check_keys(data, ["path", "sites", *EXTRINSIC_KEYS]
               + [row[0] for row in CALIBRATION_KEYS + SCENARIO_KEYS], "scenario", "scenario.")
    for i, vertex in enumerate(raw_path):
        check_keys(vertex, ("x", "y", "speed"), "scenario", f"scenario.path[{i}].")
    for si, raw_site in enumerate(raw_sites):
        check_keys(raw_site, ("objects",), "scenario", f"scenario.sites[{si}].")
        for oi, raw_obj in enumerate(raw_site["objects"]):
            check_keys(raw_obj, ("class", "footprint"), "scenario",
                       f"scenario.sites[{si}].objects[{oi}].")
    return scenario


def load_scenario(path: Path) -> Scenario:
    return scenario_from_dict(_load_yaml(path, "scenario"))


def ground_truth_to_dict(truth: GroundTruth) -> dict:
    return {
        "frame": "local_world",
        "sites": [
            {
                "start": [s.start[0], s.start[1]],
                "end": [s.end[0], s.end[1]],
                "deepest": [s.deepest[0], s.deepest[1]],
            }
            for s in truth.sites
        ],
    }


def ground_truth_from_dict(data: dict) -> GroundTruth:
    def corner(site: dict, i: int, name: str) -> Point2:
        point = site[name]
        return (document_number(point[0], f"sites[{i}].{name}[0]"),
                document_number(point[1], f"sites[{i}].{name}[1]"))

    return GroundTruth(sites=tuple(
        GroundTruthSite(corner(s, i, "start"), corner(s, i, "end"), corner(s, i, "deepest"))
        for i, s in enumerate(data.get("sites", []))
    ))


def write_ground_truth(truth: GroundTruth, path: Path) -> None:
    with jsonio.naming(path):
        Path(path).write_text(jsonio.dumps(ground_truth_to_dict(truth)) + "\n")


def load_ground_truth(path: Path) -> GroundTruth:
    return read_document(path, ground_truth_from_dict, "ground truth")


# -- evaluation ----------------------------------------------------------

CORNER_NAMES = ("start", "end", "deepest")


@dataclass(frozen=True, slots=True)
class Evaluation:
    corner_errors: tuple[tuple[int, str, float], ...]  # (gt site index, corner, m)
    matched_sites: int
    missed_sites: int

    @property
    def mean_error(self) -> float:
        if not self.corner_errors:
            return math.nan
        return sum(e for _, _, e in self.corner_errors) / len(self.corner_errors)

    @property
    def std_error(self) -> float:
        if not self.corner_errors:
            return math.nan
        mean = self.mean_error
        return math.sqrt(
            sum((e - mean) ** 2 for _, _, e in self.corner_errors)
            / len(self.corner_errors)
        )


def evaluate(records: Sequence[SiteRecord], truth: GroundTruth) -> Evaluation:
    """Score detected sites against ground truth.

    Sites are paired to ground truth by the nearest mean of the record's
    raw polygon, its stored points; unlike the mean of the hull vertices,
    it does not depend on whether rounding keeps a point on a hull edge.
    Each characteristic corner is then scored as the distance to the
    nearest vertex of the raw polygon.  Unpaired ground-truth sites count
    as missed.  Records and truth must share one frame.
    """
    means = []
    for record in records:
        raw = record.raw_polygon
        means.append((sum(p[0] for p in raw) / len(raw), sum(p[1] for p in raw) / len(raw)))
    candidates = []
    for gi, site in enumerate(truth.sites):
        gc = site.centroid()
        candidates.extend((math.dist(gc, rc), gi, ri) for ri, rc in enumerate(means))
    candidates.sort()

    gt_taken: set[int] = set()
    rec_taken: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for _, gi, ri in candidates:
        if gi in gt_taken or ri in rec_taken:
            continue
        gt_taken.add(gi)
        rec_taken.add(ri)
        pairs.append((gi, ri))
    pairs.sort()

    errors: list[tuple[int, str, float]] = []
    for gi, ri in pairs:
        site = truth.sites[gi]
        polygon = records[ri].raw_polygon
        for name, corner in zip(CORNER_NAMES, (site.start, site.end, site.deepest)):
            errors.append(
                (gi, name, min(math.dist(corner, v) for v in polygon))
            )
    return Evaluation(
        corner_errors=tuple(errors),
        matched_sites=len(pairs),
        missed_sites=len(truth.sites) - len(pairs),
    )
