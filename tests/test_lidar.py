import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadwork_mapper.config import default_config
from roadwork_mapper.geometry import (
    CameraIntrinsics,
    PixelBox,
    Pose2D,
    RigidTransform3D,
    project_to_image,
)
from roadwork_mapper.lidar import (
    ContourBoxImage,
    ContourObject,
    SensorModelParams,
    build_contour_boxes,
    clip_to_image_boundary,
    contour_to_world,
    object_range,
)

SENSOR = default_config().sensor
FY = SENSOR.intrinsics.fy


def single_box(contour, sensor):
    """The box of one contour projected alone, or None."""
    boxes = build_contour_boxes([contour], sensor)
    assert len(boxes) <= 1
    return boxes[0] if boxes else None


def test_contour_requires_points():
    with pytest.raises(ValueError):
        ContourObject(object_id=1, points=())
    with pytest.raises(ValueError):
        ContourObject(object_id=1, points=((math.nan, 0.0),))


def _reference_contour_points(points):
    """``ContourObject``'s check as it was, rebuilding every point (test oracle)."""
    if not points:
        raise ValueError("contour must contain at least one point")
    pts = tuple((float(x), float(y)) for x, y in points)
    for x, y in pts:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("contour points must be finite")
    return pts


_coordinate = st.one_of(
    st.floats(), st.integers(-1000, 1000), st.floats().map(np.float64), st.booleans(),
    st.sampled_from([-0.0, 10 ** 400, "1.5", None]),
)
_any_point = st.one_of(
    st.tuples(_coordinate, _coordinate),
    st.tuples(st.floats(), st.floats()),
    st.lists(_coordinate, min_size=1, max_size=3),
    st.lists(_coordinate, min_size=1, max_size=3).map(tuple),
    st.just(1.0),
)


def _constructed_points(make, points):
    try:
        return repr(make(points))
    except (TypeError, ValueError, OverflowError) as err:
        return type(err), str(err)


@settings(max_examples=250)
@given(points=st.one_of(st.lists(_any_point, max_size=4).map(tuple),
                        st.lists(_any_point, max_size=4)))
@example(points=((1.0, 2.0), (-0.0, 5e-324)))
@example(points=((1.0, 2.0), (3.0, math.inf)))
@example(points=[(1.0, 2.0)])
@example(points=([1.0, 2.0],))
@example(points=((np.float64(1.0), 2.0),))
def test_contour_points_match_rebuilding_reference(points):
    # repr tells 1 from 1.0, -0.0 from 0.0 and numpy.float64 from float
    got = _constructed_points(lambda pts: ContourObject(1, pts).points, points)
    assert got == _constructed_points(_reference_contour_points, points)


def test_object_range_is_min_distance():
    contour = ContourObject(object_id=1, points=((30.0, 40.0), (60.0, 80.0)))
    assert object_range(contour) == pytest.approx(50.0)


def test_box_height_matches_pinhole_prediction():
    # A contour point 10 m ahead extrudes to a box fy * h / z pixels tall.
    contour = ContourObject(object_id=1, points=((10.0, 0.0),))
    box = single_box(contour, SENSOR)
    assert box is not None
    assert box.box.y_max - box.box.y_min == pytest.approx(FY * 1.6 / 10.0, abs=0.5)
    assert box.box.x_max == box.box.x_min == pytest.approx(SENSOR.intrinsics.cx)


@pytest.mark.parametrize("depth", [5.0, 10.0, 20.0, 40.0])
def test_box_height_across_depths(depth):
    contour = ContourObject(object_id=1, points=((depth, 0.0),))
    box = single_box(contour, SENSOR)
    assert box.box.y_max - box.box.y_min == pytest.approx(FY * 1.6 / depth, abs=0.5)


def test_box_width_from_two_points_at_equal_depth():
    contour = ContourObject(object_id=2, points=((10.0, -1.0), (10.0, 1.0)))
    box = single_box(contour, SENSOR)
    assert box is not None
    # Lateral extent 2 m at 10 m depth spans fx * 2 / 10 pixels.
    assert box.box.x_max - box.box.x_min == pytest.approx(SENSOR.intrinsics.fx * 2.0 / 10.0)
    assert len(box.bottom_line) == 2


def test_a_frame_with_no_contour_reads_no_sensor_model():
    assert build_contour_boxes([], None) == []


def test_contour_behind_vehicle_is_rejected():
    contour = ContourObject(object_id=3, points=((-5.0, 0.0), (-6.0, 1.0)))
    assert single_box(contour, SENSOR) is None


def test_contour_partially_behind_uses_forward_points():
    contour = ContourObject(object_id=4, points=((10.0, 0.0), (-10.0, 0.0)))
    box = single_box(contour, SENSOR)
    assert box is not None


def test_contour_outside_image_is_rejected_but_rangeable():
    # 1 m ahead, 20 m to the left: far outside the horizontal field of view.
    contour = ContourObject(object_id=5, points=((1.0, 20.0),))
    assert single_box(contour, SENSOR) is None
    assert object_range(contour) == pytest.approx(math.hypot(1.0, 20.0))


def test_partially_off_image_box_stops_at_the_border():
    # Wide contour whose left edge projects past the image border.
    contour = ContourObject(object_id=6, points=((5.0, 6.0), (5.0, 0.0)))
    box = single_box(contour, SENSOR)
    assert box is not None
    assert box.box.x_min == 0.0


def test_clip_border_interpolation():
    clipped = clip_to_image_boundary([(-50.0, 100.0), (50.0, 100.0)], 640.0, 352.0)
    assert clipped[0] == pytest.approx((0.0, 100.0))
    assert clipped[-1] == pytest.approx((50.0, 100.0))


def test_clip_interior_polyline_untouched():
    line = [(10.0, 10.0), (600.0, 300.0), (320.0, 176.0)]
    assert clip_to_image_boundary(line, 640.0, 352.0) == line


_W, _H = 640.0, 352.0
_inside_u = st.one_of(st.floats(0.0, _W), st.sampled_from([0.0, -0.0, _W]))
_inside_v = st.one_of(st.floats(0.0, _H), st.sampled_from([0.0, -0.0, _H]))


@settings(max_examples=300)
@given(runs=st.lists(st.tuples(st.tuples(_inside_u, _inside_v), st.integers(1, 3)),
                     min_size=1, max_size=6))
@example(runs=[((10.0, 10.0), 1), ((600.3, 300.7), 2), ((0.1, 351.9), 1)])
def test_clip_keeps_inside_polylines_exactly(runs):
    # A polyline inside the image, borders included, comes back as itself
    # less its consecutive repeats, to the bit (repr tells -0.0 from 0.0).
    line = [p for p, count in runs for _ in range(count)]
    clipped = clip_to_image_boundary(line, _W, _H)
    assert repr(clipped) == repr([p for i, p in enumerate(line) if i == 0 or p != line[i - 1]])


def test_clip_fully_outside_returns_empty():
    assert clip_to_image_boundary([(-50.0, 100.0), (-10.0, 300.0)], 640.0, 352.0) == []


def test_clip_outside_vertex_becomes_two_border_points():
    # In, out above the top border, back in: the outside vertex is replaced
    # by an exit and an entry intersection.
    line = [(100.0, 50.0), (120.0, -50.0), (140.0, 50.0)]
    clipped = clip_to_image_boundary(line, 640.0, 352.0)
    ys = [p[1] for p in clipped]
    assert ys.count(0.0) == 2
    assert all(0.0 <= u <= 640.0 and 0.0 <= v <= 352.0 for u, v in clipped)


def test_clip_output_always_inside_bounds():
    rng = np.random.default_rng(21)
    for _ in range(200):
        line = [tuple(p) for p in rng.uniform(-200, 900, size=(rng.integers(1, 8), 2))]
        clipped = clip_to_image_boundary(line, 640.0, 352.0)
        for u, v in clipped:
            assert -1e-9 <= u <= 640.0 + 1e-9
            assert -1e-9 <= v <= 352.0 + 1e-9


def test_contour_to_world_quarter_turn():
    contour = ContourObject(object_id=7, points=((5.0, 0.0),))
    world = contour_to_world(contour, Pose2D(0.0, 0.0, math.pi / 2.0))
    assert world[0] == pytest.approx((0.0, 5.0))


def test_contour_to_world_translation():
    contour = ContourObject(object_id=8, points=((1.0, 2.0),))
    world = contour_to_world(contour, Pose2D(10.0, 20.0, 0.0))
    assert world[0] == pytest.approx((11.0, 22.0))


def test_contour_to_world_preserves_pairwise_distances():
    rng = np.random.default_rng(13)
    for _ in range(100):
        pts = [tuple(p) for p in rng.uniform(-30, 30, size=(6, 2))]
        contour = ContourObject(object_id=9, points=tuple(pts))
        pose = Pose2D(*rng.uniform(-100, 100, size=2), rng.uniform(-4, 4))
        world = contour_to_world(contour, pose)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert math.dist(world[i], world[j]) == pytest.approx(
                    math.dist(pts[i], pts[j]), abs=1e-9
                )


def test_custom_mount_height_shifts_box_but_keeps_height():
    sensor = SensorModelParams(
        intrinsics=SENSOR.intrinsics,
        extrinsic=SENSOR.extrinsic,
        sensor_mount_height=0.3,
    )
    contour = ContourObject(object_id=10, points=((10.0, 0.0),))
    low = single_box(contour, SENSOR)
    high = single_box(contour, sensor)
    assert high.box.y_max - high.box.y_min == pytest.approx(
        low.box.y_max - low.box.y_min, abs=1e-9
    )
    assert high.box.y_max < low.box.y_max  # raised scan plane projects higher


# --- the per-contour builder the batch replaced, kept as an exact oracle ---


def _clip_segment_reference(a, b, width, height):
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    t0, t1 = 0.0, 1.0
    for p, q in ((-dx, a[0] - 0.0), (dx, width - a[0]), (-dy, a[1] - 0.0), (dy, height - a[1])):
        if p == 0.0:
            if q < 0.0:
                return None
            continue
        t = q / p
        if p < 0.0:
            if t > t1:
                return None
            t0 = max(t0, t)
        else:
            if t < t0:
                return None
            t1 = min(t1, t)
    ca = a if t0 == 0.0 else (a[0] + t0 * dx, a[1] + t0 * dy)
    cb = b if t1 == 1.0 else (a[0] + t1 * dx, a[1] + t1 * dy)
    return ca, cb


def clip_reference(polyline, width, height):
    """Liang-Barsky on every edge, the scalar clip every contour once took."""
    pts = [(float(u), float(v)) for u, v in polyline]
    if len(pts) <= 1:
        inside = all(0.0 <= u <= width and 0.0 <= v <= height for u, v in pts)
        return pts if inside else []
    out = []
    for a, b in zip(pts[:-1], pts[1:]):
        seg = _clip_segment_reference(a, b, width, height)
        if seg is None:
            continue
        for p in seg:
            if not out or out[-1] != p:
                out.append(p)
    return out


def _project_polyline_reference(points_3d, sensor):
    cam = sensor.extrinsic.apply(points_3d)
    projected = []
    for p in cam:
        px = project_to_image(p, sensor.intrinsics)
        if px is not None:
            projected.append(px)
    return projected


def build_contour_box_reference(contour, sensor):
    """One contour projected point by point through ``project_to_image``."""
    pts = np.asarray(contour.points, dtype=float)
    z_bottom = np.full((len(pts), 1), sensor.sensor_mount_height)
    z_top = np.full((len(pts), 1), sensor.sensor_mount_height + sensor.object_height)
    bottom_px = _project_polyline_reference(np.hstack([pts, z_bottom]), sensor)
    top_px = _project_polyline_reference(np.hstack([pts, z_top]), sensor)
    if not bottom_px and not top_px:
        return None

    w = float(sensor.intrinsics.width)
    h = float(sensor.intrinsics.height)
    bottom_clip = clip_reference(bottom_px, w, h)
    visible = bottom_clip + clip_reference(top_px, w, h)
    if not visible:
        return None
    return ContourBoxImage(
        object_id=contour.object_id,
        box=PixelBox.from_points(visible),
        bottom_line=tuple(bottom_clip),
    )


def boxes_reference(contours, sensor):
    """Per-contour stand-in for ``build_contour_boxes``."""
    boxes = (build_contour_box_reference(c, sensor) for c in contours)
    return [b for b in boxes if b is not None]


def _tilted(yaw, pitch, roll, translation):
    """The default camera mount turned by small angles about camera axes."""
    cz, sz = math.cos(yaw), math.sin(yaw)
    cy, sy = math.cos(pitch), math.sin(pitch)
    cx, sx = math.cos(roll), math.sin(roll)
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    return RigidTransform3D(rz @ ry @ rx @ SENSOR.extrinsic.rotation, translation)


# Depths and offsets at and around the projection cut-off and the camera
# plane, so contours straddle z = 0 and single points sit on the boundary.
_EDGE_VALUES = [0.0, -0.0, 1e-6, -1e-6, 2e-6, 5e-7, 1e-300]
_forward = st.one_of(st.floats(-30.0, 80.0), st.sampled_from(_EDGE_VALUES))
_lateral = st.one_of(st.floats(-60.0, 60.0), st.sampled_from(_EDGE_VALUES))
_contour_points = st.lists(st.tuples(_forward, _lateral), min_size=1, max_size=6)


@st.composite
def _frames(draw):
    point_lists = draw(st.lists(_contour_points, max_size=8))
    ids = draw(st.permutations(range(len(point_lists))))
    return [ContourObject(object_id=i, points=tuple(pts)) for i, pts in zip(ids, point_lists)]


_angle = st.floats(-0.3, 0.3)
_sensors = st.one_of(
    st.just(SENSOR),
    st.builds(
        SensorModelParams,
        intrinsics=st.just(SENSOR.intrinsics),
        extrinsic=st.one_of(
            st.just(SENSOR.extrinsic),
            st.builds(_tilted, _angle, _angle, _angle,
                      st.tuples(*[st.floats(-2.0, 2.0)] * 3).map(np.array)),
        ),
        sensor_mount_height=st.sampled_from([0.0, 0.3, 1.7, -0.4]),
        object_height=st.sampled_from([1.6, 0.0, 2.5]),
    ),
)

# --- contours wholly in view skip the clip: exact against the scalar clip ---

# A camera looking along the robot's +x axis with round intrinsics and no
# translation: a point (x, y) at scan height zs lands on u = 100 - 100 y / x,
# v = 50 - 100 zs / x with no rounding for the values drawn below, so
# vertices fall exactly on u = 0, u = w, v = 0 and v = h.
_AXIS_EXTRINSIC = RigidTransform3D(
    np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]), np.zeros(3))
_AXIS_INTRINSICS = CameraIntrinsics(fx=100.0, fy=100.0, cx=100.0, cy=50.0,
                                    width=200, height=100)
# (scan height, object height): the bottom row lies on v = h and the top
# row on v = 0 at depth 2, at depth 4, or nowhere.
_axis_sensors = st.sampled_from([(-1.0, 2.0), (-2.0, 4.0), (-0.5, 0.0), (0.0, 1.0)]).map(
    lambda heights: SensorModelParams(_AXIS_INTRINSICS, _AXIS_EXTRINSIC, *heights))
# Points inside the view cone, on its borders (slope +-1 at depths 2 and
# 4), outside it, and rows at and around the projection cut-off.
_axis_depth = st.one_of(st.sampled_from([2.0, 4.0]), st.floats(2.0, 10.0))
_axis_in_cone = st.builds(lambda x, r: (x, x * r), _axis_depth, st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-1.0, 1.0)))
_axis_any = st.one_of(
    _axis_in_cone,
    st.builds(lambda x, r: (x, x * r), _axis_depth, st.floats(-1.5, 1.5)),
    st.tuples(st.sampled_from([1e-6, 5e-7, 2e-6, 0.0, -2.0]), st.sampled_from([0.0, 1.0])),
)


@st.composite
def _in_view_frames(draw):
    """Frames of mostly in-view contours with repeated and single points."""
    frame = []
    for oid in range(draw(st.integers(1, 5))):
        point = draw(st.sampled_from([_axis_in_cone, _axis_in_cone, _axis_any]))
        runs = draw(st.lists(st.tuples(point, st.integers(1, 3)), min_size=1, max_size=5))
        points = tuple(p for p, count in runs for _ in range(count))
        frame.append(ContourObject(object_id=oid, points=points))
    return frame


_ON_BORDERS = ContourObject(1, ((2.0, 2.0), (2.0, 2.0), (4.0, 0.0), (2.0, -2.0)))
_AT_DEPTH_CUTOFF = ContourObject(2, ((1e-6, 0.0), (4.0, 0.0)))
_AXIS_SENSOR = SensorModelParams(_AXIS_INTRINSICS, _AXIS_EXTRINSIC,
                                 sensor_mount_height=-1.0, object_height=2.0)


# Points near 1e308: a lateral one projects to u = -inf or +inf, a
# forward one onto the principal point, and one behind the camera drops.
_OVERFLOWING = [
    ContourObject(1, ((10.0, 1e308), (20.0, 0.0))),
    ContourObject(2, ((1e308, -1e308), (20.0, 0.0))),
    ContourObject(3, ((1e308, 0.0),)),
    ContourObject(4, ((-1e308, 1e308), (20.0, 1.0))),
]
_BEHIND = ContourObject(1, ((-5.0, 0.0), (-6.0, 1.0)))
_STRADDLING = ContourObject(2, ((10.0, 0.5), (-10.0, -0.5), (0.0, 1.0), (1e-6, 0.0)))
_OFF_IMAGE = ContourObject(3, ((1.0, 20.0),))
_CLIPPED = ContourObject(4, ((5.0, 6.0), (5.0, 0.0)))
_SINGLE = ContourObject(5, ((10.0, 0.0),))
_AT_CUTOFF = ContourObject(6, ((1e-6, 0.0), (5e-7, 1.0)))  # z <= MIN_PROJECTION_DEPTH


@settings(max_examples=300)
@given(frame=st.one_of(_frames(), _in_view_frames()), sensor=st.one_of(_sensors, _axis_sensors))
@example(frame=[], sensor=SENSOR)
@example(frame=[_BEHIND, _STRADDLING, _OFF_IMAGE, _CLIPPED, _SINGLE, _AT_CUTOFF],
         sensor=SENSOR)
@example(frame=[_CLIPPED, _SINGLE, _STRADDLING],
         sensor=SensorModelParams(SENSOR.intrinsics,
                                  _tilted(0.2, -0.1, 0.05, np.array([0.3, -1.1, 0.2]))))
@example(frame=[_ON_BORDERS, _AT_DEPTH_CUTOFF, ContourObject(3, ((2.0, 2.0), (4.0, 4.0)))],
         sensor=_AXIS_SENSOR)
@example(frame=_OVERFLOWING, sensor=SENSOR)
def test_batch_boxes_equal_per_contour_reference(frame, sensor):
    got = build_contour_boxes(frame, sensor)
    want = boxes_reference(frame, sensor)
    # Record equality compares every float with ==: box corners and
    # bottom line points must match to the bit, in input order.
    assert got == want


_HUGE = [1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 4e305, -4e305]
_overflow_points = st.lists(
    st.tuples(st.one_of(_forward, st.sampled_from(_HUGE)),
              st.one_of(_lateral, st.sampled_from(_HUGE))),
    min_size=1, max_size=6)


@st.composite
def _overflow_frames(draw):
    point_lists = draw(st.lists(_overflow_points, max_size=6))
    return [ContourObject(object_id=i, points=tuple(pts)) for i, pts in enumerate(point_lists)]


@settings(max_examples=300)
@given(frame=_overflow_frames(), sensor=_sensors)
@example(frame=_OVERFLOWING, sensor=SENSOR)
@example(  # NaN projections: first in a row, then last in a row
    frame=[ContourObject(1, ((_HUGE[2], _HUGE[3]), (10.0, 0.0))),
           ContourObject(2, ((10.0, 0.0), (_HUGE[2], _HUGE[2])))],
    sensor=SensorModelParams(SENSOR.intrinsics,
                             _tilted(0.2, -0.1, 0.05, np.array([0.3, -1.1, 0.2]))))
def test_overflowing_projections_equal_per_contour_reference(frame, sensor):
    # Points near +-1e308 overflow to infinite projections, and the clip
    # can turn those into NaN, which never equals itself; repr compares
    # every float, NaN included, and tells -0.0 from 0.0.
    got = build_contour_boxes(frame, sensor)
    with np.errstate(over="ignore", invalid="ignore"):
        want = boxes_reference(frame, sensor)
    assert repr(got) == repr(want)


def test_directed_frame_covers_every_visibility_case():
    boxes = {b.object_id: b for b in build_contour_boxes(
        [_BEHIND, _STRADDLING, _OFF_IMAGE, _CLIPPED, _SINGLE, _AT_CUTOFF], SENSOR)}
    assert set(boxes) == {2, 4, 5}  # behind, off-image and cut-off get no box
    assert len(boxes[5].bottom_line) == 1


@settings(max_examples=300)
@given(frame=_in_view_frames(), sensor=st.one_of(_axis_sensors, _axis_sensors, _sensors))
@example(frame=[_ON_BORDERS, _AT_DEPTH_CUTOFF, ContourObject(3, ((4.0, 1.0),))],
         sensor=_AXIS_SENSOR)
def test_in_view_shortcut_equals_scalar_clip(frame, sensor):
    assert build_contour_boxes(frame, sensor) == boxes_reference(frame, sensor)


def test_contour_on_the_image_borders_keeps_its_vertices():
    box, cut = build_contour_boxes([_ON_BORDERS, _AT_DEPTH_CUTOFF], _AXIS_SENSOR)
    # bottom row at scan height -1: v = 100 at x = 2, 75 at x = 4; the
    # repeated first vertex appears once
    assert box.bottom_line == ((0.0, 100.0), (100.0, 75.0), (200.0, 100.0))
    assert box.box == PixelBox(0.0, 0.0, 200.0, 100.0)
    # the row at the depth cut-off projects inside the image but is dropped
    assert cut.bottom_line == ((100.0, 75.0),)
