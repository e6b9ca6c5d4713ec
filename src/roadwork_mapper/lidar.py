"""LiDAR contour objects and their image-space representation.

The scanner's ECU delivers per-object contour polylines on a horizontal
plane at the sensor mount height (robot frame).  To compare an object
against camera detections, the contour is lifted to a bottom and a top
polyline (a fixed standard object height covers the tallest roadwork
equipment including warning lights), both are projected through the
camera model, clipped to the image, and enclosed in a pixel box.
"""
from __future__ import annotations

import math
from itertools import starmap
from typing import Sequence

from .geometry import (
    MIN_PROJECTION_DEPTH,
    CameraIntrinsics,
    PixelBox,
    Point2,
    Pose2D,
    RigidTransform3D,
)
from .records import Record

# Height ascribed to every contour object when extruding the upper line,
# meters: tallest common roadwork objects plus a mounted warning light.
ASSUMED_OBJECT_HEIGHT = 1.60


class ContourObject(Record):
    """One ECU object: stable id plus an ordered contour polyline (robot frame).

    The points are a non-empty tuple of (x, y) pairs of finite floats.
    """

    __slots__ = ("object_id", "points")

    def __init__(self, object_id: int, points: tuple[Point2, ...]) -> None:
        self.object_id = object_id
        self.points = points


class SensorModelParams(Record):
    """Camera model plus the LiDAR scan plane height."""

    __slots__ = ("intrinsics", "extrinsic", "sensor_mount_height", "object_height")

    def __init__(self, intrinsics: CameraIntrinsics, extrinsic: RigidTransform3D,
                 sensor_mount_height: float = 0.0,
                 object_height: float = ASSUMED_OBJECT_HEIGHT) -> None:
        self.intrinsics = intrinsics
        self.extrinsic = extrinsic  # robot frame -> camera frame
        self.sensor_mount_height = sensor_mount_height
        self.object_height = object_height


class ContourBoxImage(Record):
    """Image-space stand-in for a contour object, used for detector matching."""

    __slots__ = ("object_id", "box", "bottom_line")

    def __init__(self, object_id: int, box: PixelBox, bottom_line: tuple[Point2, ...]) -> None:
        self.object_id = object_id
        self.box = box
        self.bottom_line = bottom_line


def object_range(contour: ContourObject) -> float:
    """Closest contour point distance from the robot origin, meters."""
    return min(starmap(math.hypot, contour.points))


def clip_to_image_boundary(
    polyline: Sequence[Point2], width: float, height: float
) -> list[Point2]:
    """Clip a pixel polyline to [0, width] x [0, height].

    Each edge a-b is clipped on its own (Liang-Barsky), and an edge
    crossing a border contributes its border intersection instead of the
    outside vertex.  Vertices inside the image are kept exactly, and
    consecutive repeats are dropped, so a polyline wholly inside the image
    comes back as itself minus its repeats; ``build_contour_boxes``
    relies on that to skip this function for such polylines.  A single
    point inside the image is returned as it is; a polyline fully outside
    clips to nothing.
    """
    pts = [(float(u), float(v)) for u, v in polyline]
    if len(pts) <= 1:
        return pts if _within(pts, width, height) else []

    out: list[Point2] = []

    def push(p: Point2) -> None:
        if not out or out[-1] != p:
            out.append(p)

    for a, b in zip(pts[:-1], pts[1:]):
        seg = _clip_segment(a, b, width, height)
        if seg is not None:
            push(seg[0])
            push(seg[1])
    return out


def _clip_segment(
    a: Point2, b: Point2, width: float, height: float
) -> tuple[Point2, Point2] | None:
    """Liang-Barsky clip of segment a-b against the image rectangle.

    An end the clip does not move is returned as the input point itself,
    not recomputed from ``t``.
    """
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, a[0] - 0.0),
        (dx, width - a[0]),
        (-dy, a[1] - 0.0),
        (dy, height - a[1]),
    ):
        if p == 0.0:
            if q < 0.0:
                return None
            continue
        t = q / p
        if p < 0.0:
            if t > t1:
                return None
            if t > t0:
                t0 = t
        else:
            if t < t0:
                return None
            if t < t1:
                t1 = t
    ca = a if t0 == 0.0 else (a[0] + t0 * dx, a[1] + t0 * dy)
    cb = b if t1 == 1.0 else (a[0] + t1 * dx, a[1] + t1 * dy)
    return ca, cb


def build_contour_boxes(
    contours: Sequence[ContourObject], sensor: SensorModelParams
) -> list[ContourBoxImage]:
    """Project one frame's contour objects into the image, one box each.

    Each contour point is lifted to the bottom and top rows, transformed
    with the float operations of ``RigidTransform3D.apply`` and projected
    with those of ``project_to_image``; ``x * r_k0 + y * r_k1`` is shared
    by a point's two rows, as both sums are the same.  Rows at or behind
    the depth cut-off are dropped before any division.

    The projection loop also keeps each row's bounds and whether every
    point of both rows lies in front of the camera and inside the image
    (a NaN or infinite projection does not).  Such a contour clips to
    itself: its bottom line is its bottom row less repeats, and its box
    is the bottom row's bounds joined with the top row's, in the order
    ``PixelBox.from_points`` would take them, so no point list is built or
    walked again.  Every other contour takes ``clip_to_image_boundary``.
    Contours with no point in front of the camera, or whose projection
    falls entirely outside the image, get no box; the caller keeps such
    objects in world-frame tracking only.  Boxes come back in input order;
    a frame with no contour returns before the sensor model is read.
    """
    if not contours:
        return []
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = sensor.extrinsic.rotation
    t0, t1, t2 = sensor.extrinsic.translation
    intr = sensor.intrinsics
    fx, fy, cx, cy = intr.fx, intr.fy, intr.cx, intr.cy
    w = float(intr.width)
    h = float(intr.height)
    z_bottom = sensor.sensor_mount_height
    z_top = sensor.sensor_mount_height + sensor.object_height
    # z * r_k2 of each row height: a product, so taking it once moves no bit.
    b0, b1, b2 = z_bottom * r02, z_bottom * r12, z_bottom * r22
    a0, a1, a2 = z_top * r02, z_top * r12, z_top * r22
    inf = math.inf

    boxes = []
    for contour in contours:
        bottom_px = []
        top_px = []
        in_view = True
        # Row bounds: bottom u, v and top u, v, each (min, max).  A strict
        # comparison keeps the first of equal values, as min() and max() do.
        bu0 = bv0 = tu0 = tv0 = inf
        bu1 = bv1 = tu1 = tv1 = -inf
        for x, y in contour.points:
            s0 = x * r00 + y * r01
            s1 = x * r10 + y * r11
            s2 = x * r20 + y * r21
            z = s2 + b2 + t2
            if z > MIN_PROJECTION_DEPTH:
                u = fx * (s0 + b0 + t0) / z + cx
                v = fy * (s1 + b1 + t1) / z + cy
                bottom_px.append((u, v))
                if 0.0 <= u <= w and 0.0 <= v <= h:
                    if u < bu0:
                        bu0 = u
                    if u > bu1:
                        bu1 = u
                    if v < bv0:
                        bv0 = v
                    if v > bv1:
                        bv1 = v
                else:
                    in_view = False
            else:
                in_view = False
            z = s2 + a2 + t2
            if z > MIN_PROJECTION_DEPTH:
                u = fx * (s0 + a0 + t0) / z + cx
                v = fy * (s1 + a1 + t1) / z + cy
                top_px.append((u, v))
                if 0.0 <= u <= w and 0.0 <= v <= h:
                    if u < tu0:
                        tu0 = u
                    if u > tu1:
                        tu1 = u
                    if v < tv0:
                        tv0 = v
                    if v > tv1:
                        tv1 = v
                else:
                    in_view = False
            else:
                in_view = False
        if in_view:
            # Clips to itself.  A dropped repeat equals the point before
            # it, so it moves no bound.
            bottom_line = _without_repeats(bottom_px)
            box = PixelBox(tu0 if tu0 < bu0 else bu0, tv0 if tv0 < bv0 else bv0,
                           tu1 if tu1 > bu1 else bu1, tv1 if tv1 > bv1 else bv1)
        else:
            if not bottom_px and not top_px:
                continue
            bottom_line = clip_to_image_boundary(bottom_px, w, h)
            visible = bottom_line + clip_to_image_boundary(top_px, w, h)
            if not visible:
                continue
            box = PixelBox.from_points(visible)
        boxes.append(ContourBoxImage(contour.object_id, box, tuple(bottom_line)))
    return boxes


def _within(points: list[Point2], width: float, height: float) -> bool:
    """True when every point lies in [0, width] x [0, height]."""
    for u, v in points:
        if not (0.0 <= u <= width and 0.0 <= v <= height):
            return False
    return True


def _without_repeats(points: list[Point2]) -> list[Point2]:
    """``points`` less each point equal to the one before it."""
    return points[:1] + [q for p, q in zip(points, points[1:]) if q != p]


def contour_to_world(contour: ContourObject, pose: Pose2D) -> list[Point2]:
    """Rigidly map a robot-frame contour onto the local-world ground plane."""
    c = math.cos(pose.heading)
    s = math.sin(pose.heading)
    return [
        (c * x - s * y + pose.x, s * x + c * y + pose.y)
        for x, y in contour.points
    ]
