import math

import numpy as np
import pytest

from roadwork_mapper.geometry import (
    CameraIntrinsics,
    PixelBox,
    Pose2D,
    RigidTransform3D,
    UtmAnchor,
    convex_hull,
    distance_to_convex_polygon,
    local_to_utm,
    normalize_angle,
    point_to_axis_distance,
    project_to_image,
)

INTR = CameraIntrinsics(fx=400.0, fy=400.0, cx=320.0, cy=176.0, width=640, height=352)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_normalize_angle_range_and_values():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(math.pi) == pytest.approx(math.pi)
    assert normalize_angle(-math.pi) == pytest.approx(math.pi)
    assert normalize_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    rng = np.random.default_rng(1)
    for angle in rng.uniform(-50.0, 50.0, size=500):
        wrapped = normalize_angle(angle)
        assert -math.pi < wrapped <= math.pi
        assert math.isclose(math.sin(wrapped), math.sin(angle), abs_tol=1e-9)
        assert math.isclose(math.cos(wrapped), math.cos(angle), abs_tol=1e-9)


def test_pose_normalizes_heading():
    pose = Pose2D(1.0, 2.0, 3 * math.pi)
    assert pose.heading == pytest.approx(math.pi)


def test_rigid_transform_rows_do_not_depend_on_the_batch():
    # A point's image must be the same whichever points share its call,
    # which a BLAS matrix product does not promise.
    rng = np.random.default_rng(9)
    for _ in range(300):
        transform = RigidTransform3D(random_rotation(rng), rng.normal(size=3, scale=10))
        chunks = [rng.normal(size=(int(rng.integers(1, 9)), 3), scale=30)
                  for _ in range(int(rng.integers(2, 6)))]
        together = transform.apply(np.vstack(chunks))
        apart = np.vstack([transform.apply(chunk) for chunk in chunks])
        assert np.array_equal(together, apart)
        assert np.array_equal(transform.apply(chunks[0][:1])[0], together[0])


def test_rigid_transform_rejects_bad_rotation():
    with pytest.raises(ValueError):
        RigidTransform3D(np.eye(3) * 2.0, np.zeros(3))
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        RigidTransform3D(reflection, np.zeros(3))


def _numpy_verdict(r):
    """Whether a rotation passes ``np.allclose(r r^T, I, atol=1e-9)`` and
    ``|det r - 1| <= 1e-9``."""
    r = np.asarray(r, dtype=float)
    with np.errstate(invalid="ignore"):
        return bool(np.allclose(r @ r.T, np.eye(3), atol=1e-9)
                    and not abs(np.linalg.det(r) - 1.0) > 1e-9)


def _accepts(r):
    try:
        RigidTransform3D(r, (0.0, 0.0, 0.0))
    except ValueError:
        return False
    return True


_TURN = random_rotation(np.random.default_rng(4))
_ROTATIONS = {
    "identity": np.eye(3),
    "turn": _TURN,
    "scaled x2": np.eye(3) * 2.0,
    "scaled inside allclose's rtol": np.eye(3) * (1.0 + 4e-6),
    "scaled inside the det bound": _TURN * (1.0 + 1e-10),
    "reflected": np.diag([1.0, 1.0, -1.0]),
    "permuted": np.eye(3)[[1, 0, 2]],
    "nan": np.where(np.eye(3) == 1.0, np.nan, 0.0),
    "one nan": np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, np.nan]]),
    "inf": np.diag([1.0, 1.0, np.inf]),
    "off by 1e-12": _TURN + 1e-12,
    "off by 1e-10": _TURN + np.array([[0.0, 1e-10, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    "off by 1e-8": _TURN + np.array([[0.0, 1e-8, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    "sheared": np.array([[1.0, 1e-6, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
}


@pytest.mark.parametrize("name", list(_ROTATIONS))
def test_rotation_check_gives_numpy_verdict(name):
    assert _accepts(_ROTATIONS[name]) == _numpy_verdict(_ROTATIONS[name])


def test_rotation_check_gives_numpy_verdict_on_perturbed_turns():
    rng = np.random.default_rng(12)
    verdicts = []
    for _ in range(2000):
        r = random_rotation(rng) + rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-14, -4)
        verdicts.append(_numpy_verdict(r))
        assert _accepts(r) == verdicts[-1]
    assert 0 < sum(verdicts) < len(verdicts)  # both verdicts occur


def test_rigid_transform_holds_float_tuples():
    transform = RigidTransform3D(np.eye(3), [1, 2, 3])
    assert transform.rotation == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    assert transform.translation == (1.0, 2.0, 3.0)
    assert all(type(v) is float for row in transform.rotation for v in row)
    assert transform == RigidTransform3D(transform.rotation, (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        RigidTransform3D(np.eye(3)[:2], (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        RigidTransform3D(np.eye(3), (0.0, 0.0))


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=400.0, fy=400.0, cx=640.0, cy=176.0, width=640, height=352)


def test_project_known_point():
    # x = 1 m right of the axis at 2 m depth with fx = 400 lands 200 px
    # right of the principal point.
    assert project_to_image((1.0, 0.0, 2.0), INTR) == pytest.approx((520.0, 176.0))


def test_project_rejects_points_behind_camera():
    assert project_to_image((0.0, 0.0, -1.0), INTR) is None
    assert project_to_image((0.0, 0.0, 0.0), INTR) is None
    assert project_to_image((0.0, 0.0, 1e-7), INTR) is None


def test_pixel_box_validation_and_area():
    assert PixelBox(0.0, 0.0, 4.0, 5.0).area() == 20.0
    assert PixelBox(1.0, 2.0, 1.0, 2.0).area() == 0.0  # a point is a box


def test_convex_hull_square_with_interior_points():
    points = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (2.0, 2.0), (1.0, 3.0)]
    hull = convex_hull(points)
    assert sorted(hull) == [(0.0, 0.0), (0.0, 4.0), (4.0, 0.0), (4.0, 4.0)]


def test_convex_hull_removes_collinear_edge_points():
    points = [(0.0, 0.0), (2.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]
    hull = convex_hull(points)
    assert (2.0, 0.0) not in hull


def test_convex_hull_degenerate_inputs():
    assert convex_hull([(1.0, 1.0)]) == [(1.0, 1.0)]
    assert convex_hull([(1.0, 1.0), (1.0, 1.0)]) == [(1.0, 1.0)]
    collinear = [(0.0, 0.0), (1.0, 1.0), (3.0, 3.0), (2.0, 2.0)]
    assert convex_hull(collinear) == [(0.0, 0.0), (3.0, 3.0)]
    with pytest.raises(ValueError):
        convex_hull([])


def _contains_oracle(hull, p, tol=1e-9):
    # Half-plane test written independently of the library helper.
    n = len(hull)
    for i in range(n):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % n]
        if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) < -tol:
            return False
    return True


def test_convex_hull_random_sets_against_containment_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        points = [tuple(p) for p in rng.uniform(-10, 10, size=(rng.integers(3, 40), 2))]
        hull = convex_hull(points)
        assert set(hull) <= set(points)
        # CCW and strictly convex at every vertex.
        n = len(hull)
        if n >= 3:
            for i in range(n):
                o, a, b = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
                cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
                assert cross > 0.0
        for p in points:
            assert _contains_oracle(hull, p)
        assert sorted(convex_hull(hull)) == sorted(hull)  # hull is a fixpoint


def test_convex_hull_keeps_both_extremes_of_three_or_more_points():
    """With three or more distinct points the hull has at least two
    vertices, the first and the last point in sorted order among them;
    collinear and nearly collinear sets included."""
    rng = np.random.default_rng(24)
    for trial in range(600):
        n = int(rng.integers(3, 12))
        kind = trial % 4
        if kind == 0:  # anywhere
            points = rng.uniform(-10.0, 10.0, size=(n, 2))
        elif kind == 1:  # on a line through two random points, up to rounding
            a, b = rng.uniform(-10.0, 10.0, size=(2, 2))
            points = a + rng.uniform(-2.0, 2.0, size=(n, 1)) * (b - a)
        elif kind == 2:  # exactly on an axis-parallel or diagonal grid line
            t = rng.integers(-5, 6, size=n).astype(float)
            points = np.stack([t, [(0.0, 3.0, -1.0)[trial % 3] * v for v in t]], axis=1)
        else:  # few distinct points, each repeated
            points = np.repeat(rng.uniform(-10.0, 10.0, size=(n, 2)), 3, axis=0)
        points = [(float(x), float(y)) for x, y in points]
        unique = sorted(set(points))
        if len(unique) < 3:
            continue
        hull = convex_hull(points)
        assert len(hull) >= 2
        assert unique[0] in hull and unique[-1] in hull


def test_distance_to_convex_polygon():
    hull = convex_hull([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)])
    # Inside, on an edge and on a vertex: 0.
    assert distance_to_convex_polygon((5.0, 5.0), hull) == 0.0
    assert distance_to_convex_polygon((10.0, 5.0), hull) == 0.0
    assert distance_to_convex_polygon((0.0, 0.0), hull) == 0.0
    assert distance_to_convex_polygon((10.0, 10.0), hull) == 0.0
    assert distance_to_convex_polygon((2.0, 2.0), [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)]) == 0.0
    # Outside: the distance to the nearest edge.
    assert distance_to_convex_polygon((10.001, 5.0), hull) == pytest.approx(0.001)
    assert distance_to_convex_polygon((13.0, 5.0), hull) == pytest.approx(3.0)
    assert distance_to_convex_polygon((5.0, -2.0), hull) == pytest.approx(2.0)
    assert distance_to_convex_polygon((13.0, 14.0), hull) == pytest.approx(5.0)
    # Degenerate hulls.
    assert distance_to_convex_polygon((1.0, 1.0), [(1.0, 1.0)]) == 0.0
    assert distance_to_convex_polygon((1.0, 2.0), [(0.0, 0.0), (2.0, 0.0)]) == pytest.approx(
        math.dist((1.0, 2.0), (1.0, 0.0))
    )


def test_point_to_axis_distance_known_value():
    # Foot-of-perpendicular oracle: |cross| / |axis|.
    d = point_to_axis_distance((10.0, 0.0), (0.0, 0.0), (10.0, 5.0))
    assert d == pytest.approx(50.0 / math.sqrt(125.0))


def test_point_to_axis_distance_matches_projection_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b, p = rng.uniform(-20, 20, size=(3, 2))
        if np.allclose(a, b):
            continue
        ab = b - a
        t = float(np.dot(p - a, ab) / np.dot(ab, ab))
        foot = a + t * ab
        expected = float(np.hypot(*(p - foot)))
        got = point_to_axis_distance(tuple(p), tuple(a), tuple(b))
        assert got == pytest.approx(expected, abs=1e-9)
        assert got <= math.dist(tuple(p), tuple(a)) + 1e-9


def test_point_to_axis_distance_degenerate_axis():
    with pytest.raises(ValueError):
        point_to_axis_distance((1.0, 1.0), (2.0, 2.0), (2.0, 2.0))


def test_local_to_utm_quarter_turn():
    anchor = UtmAnchor(easting=500000.0, northing=5300000.0, zone="32U",
                       heading_offset=math.pi / 2.0)
    e, n = local_to_utm((10.0, 0.0), anchor)
    assert e == pytest.approx(500000.0)
    assert n == pytest.approx(5300010.0)


def test_local_to_utm_preserves_distances():
    rng = np.random.default_rng(9)
    for _ in range(100):
        anchor = UtmAnchor(
            easting=float(rng.uniform(100000, 899999)),
            northing=float(rng.uniform(0, 9000000)),
            zone="32U",
            heading_offset=float(rng.uniform(-math.pi, math.pi)),
        )
        p = (float(rng.uniform(-1000, 1000)), float(rng.uniform(-1000, 1000)))
        q = (float(rng.uniform(-1000, 1000)), float(rng.uniform(-1000, 1000)))
        assert local_to_utm((0.0, 0.0), anchor) == (anchor.easting, anchor.northing)
        assert math.dist(local_to_utm(p, anchor), local_to_utm(q, anchor)) == pytest.approx(
            math.dist(p, q), abs=1e-8)
