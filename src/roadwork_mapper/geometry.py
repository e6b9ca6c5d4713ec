"""Frames, intrinsics and planar geometry primitives.

Coordinate conventions used throughout the pipeline:

  robot frame    +x forward, +y left, +z up, origin on the ground under
                 the rear axle.  LiDAR contours arrive in this frame.
  camera frame   +z forward (optical axis), +x right, +y down.
  image frame    u right, v down, origin at the top-left pixel corner.
  local world    2D ground plane frame fixed at the start of a session;
                 vehicle poses from odometry are expressed here.
  UTM            easting/northing meters; reached from local world by a
                 single rotation + translation (no geodesic correction).

Angles are radians, counter-clockwise positive.  Pose headings are
normalized to (-pi, pi].
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

from .records import Record

Point2 = tuple[float, float]


def normalize_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return math.pi - (math.pi - angle) % (2.0 * math.pi)


class Pose2D(Record):
    """Vehicle pose on the local-world ground plane; the heading is
    normalized to (-pi, pi]."""

    __slots__ = ("x", "y", "heading")

    def __init__(self, x: float, y: float, heading: float) -> None:
        self.x = x
        self.y = y
        self.heading = normalize_angle(heading)


class RigidTransform3D(Record):
    """Rotation + translation mapping points between 3D frames.

    The rotation is kept as three rows of three floats and the translation
    as three floats.  The rotation must be orthonormal to within
    ``numpy.allclose(r @ r.T, I, atol=1e-9)`` (relative tolerance 1e-5)
    and have determinant +1 to within 1e-9.
    """

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation: Iterable[Sequence[float]],
                 translation: Sequence[float]) -> None:
        r = tuple(_floats(row, 3, "rotation row") for row in rotation)
        if len(r) != 3:
            raise ValueError("rotation must have 3 rows")
        self.rotation = r
        self.translation = _floats(translation, 3, "translation")
        for row in range(3):
            for col in range(3):
                dot = sum(u * v for u, v in zip(r[row], r[col]))
                expected = 1.0 if row == col else 0.0
                # written as not (a <= b), so that NaN fails as under numpy.allclose
                if not abs(dot - expected) <= 1e-9 + 1e-5 * expected:
                    raise ValueError("rotation matrix is not orthonormal")
        (a, b, c), (d, e, f), (g, h, k) = r
        det = a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
        if abs(det - 1.0) > 1e-9:
            raise ValueError("rotation matrix determinant must be +1")

    def apply(self, points: Iterable[Sequence[float]]) -> list[tuple[float, float, float]]:
        """Transform (x, y, z) rows; one (x, y, z) tuple per row.

        Each coordinate is ``((x * r0 + y * r1) + z * r2) + t`` in that
        order, so a point's image does not depend on the rows passed with
        it, and numpy float64 rows map to the same bits as Python floats.
        """
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = self.rotation
        t0, t1, t2 = self.translation
        return [
            (x * r00 + y * r01 + z * r02 + t0,
             x * r10 + y * r11 + z * r12 + t1,
             x * r20 + y * r21 + z * r22 + t2)
            for x, y, z in points
        ]


def _floats(values: Iterable[float], count: int, name: str) -> tuple[float, ...]:
    """``values`` as a tuple of exactly ``count`` floats."""
    out = tuple(float(v) for v in values)
    if len(out) != count:
        raise ValueError(f"{name} must have {count} entries")
    return out


class CameraIntrinsics(Record):
    """Pinhole model at the detector's working resolution."""

    __slots__ = ("fx", "fy", "cx", "cy", "width", "height")

    def __init__(self, fx: float, fy: float, cx: float, cy: float,
                 width: int, height: int) -> None:
        if not (0 <= cx < width and 0 <= cy < height):
            raise ValueError("principal point must lie inside the image")
        self.fx = fx
        self.fy = fy
        self.cx = cx
        self.cy = cy
        self.width = width
        self.height = height


# Points closer than this along the optical axis do not project.
MIN_PROJECTION_DEPTH = 1e-6


def project_to_image(point_camera: Sequence[float], intrinsics: CameraIntrinsics) -> Point2 | None:
    """Project a camera-frame point to pixels; None if at/behind the camera."""
    x, y, z = float(point_camera[0]), float(point_camera[1]), float(point_camera[2])
    if z <= MIN_PROJECTION_DEPTH:
        return None
    return (intrinsics.fx * x / z + intrinsics.cx, intrinsics.fy * y / z + intrinsics.cy)


class PixelBox(Record):
    """Axis-aligned image box, pixel units."""

    __slots__ = ("x_min", "y_min", "x_max", "y_max")

    def __init__(self, x_min: float, y_min: float, x_max: float, y_max: float) -> None:
        self.x_min = x_min
        self.y_min = y_min
        self.x_max = x_max
        self.y_max = y_max

    @classmethod
    def from_points(cls, points: Iterable[Point2]) -> "PixelBox":
        pts = list(points)
        us = [p[0] for p in pts]
        vs = [p[1] for p in pts]
        return cls(min(us), min(vs), max(us), max(vs))

    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def clamped(self, width: float, height: float) -> "PixelBox":
        return PixelBox(
            min(max(self.x_min, 0.0), width),
            min(max(self.y_min, 0.0), height),
            min(max(self.x_max, 0.0), width),
            min(max(self.y_max, 0.0), height),
        )


def _cross(o: Point2, a: Point2, b: Point2) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Sequence[Point2]) -> list[Point2]:
    """Convex hull in CCW order, collinear interior points removed.

    Degenerate inputs are handled: one distinct point yields a single-point
    polygon, collinear inputs yield the two extreme points.
    """
    unique = sorted(set((float(p[0]), float(p[1])) for p in points))
    if not unique:
        raise ValueError("convex hull of empty point set")
    if len(unique) <= 2:
        return unique

    lower: list[Point2] = []
    for p in unique:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list[Point2] = []
    for p in reversed(unique):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    # The lower chain keeps unique[0] and the upper chain unique[-1], so
    # collinear points give the two extremes of the sorted order.
    return lower[:-1] + upper[:-1]


def point_segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    ab = (b[0] - a[0], b[1] - a[1])
    ap = (p[0] - a[0], p[1] - a[1])
    denom = ab[0] * ab[0] + ab[1] * ab[1]
    if denom == 0.0:
        return math.hypot(ap[0], ap[1])
    t = max(0.0, min(1.0, (ap[0] * ab[0] + ap[1] * ab[1]) / denom))
    return math.hypot(ap[0] - t * ab[0], ap[1] - t * ab[1])


def distance_to_convex_polygon(point: Point2, hull: Sequence[Point2]) -> float:
    """Distance from a point to a convex polygon, given CCW as by
    ``convex_hull``: 0 inside or on an edge, else the distance to the
    nearest edge.  A point is outside when it lies right of an edge."""
    if len(hull) == 1:
        return math.dist(point, hull[0])
    if len(hull) == 2:
        return point_segment_distance(point, hull[0], hull[1])
    n = len(hull)
    for i in range(n):
        if _cross(hull[i], hull[(i + 1) % n], point) < 0.0:
            return min(point_segment_distance(point, hull[j], hull[(j + 1) % n])
                       for j in range(n))
    return 0.0


def point_to_axis_distance(point: Point2, axis_start: Point2, axis_end: Point2) -> float:
    """Orthogonal distance from a point to the infinite line through the axis."""
    dx = axis_end[0] - axis_start[0]
    dy = axis_end[1] - axis_start[1]
    length = math.hypot(dx, dy)
    if length == 0.0:
        raise ValueError("axis endpoints coincide")
    return abs(dx * (point[1] - axis_start[1]) - dy * (point[0] - axis_start[0])) / length


class UtmAnchor(Record):
    """Rigid placement of the local-world frame inside a UTM zone."""

    __slots__ = ("easting", "northing", "zone", "heading_offset")

    def __init__(self, easting: float, northing: float, zone: str,
                 heading_offset: float = 0.0) -> None:
        self.easting = easting
        self.northing = northing
        self.zone = zone
        self.heading_offset = heading_offset


def local_to_utm(point: Point2, anchor: UtmAnchor) -> Point2:
    """Map a local-world point to UTM easting/northing."""
    c = math.cos(anchor.heading_offset)
    s = math.sin(anchor.heading_offset)
    x, y = point
    return (anchor.easting + c * x - s * y, anchor.northing + s * x + c * y)
