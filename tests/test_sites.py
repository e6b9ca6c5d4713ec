"""Site dictionary tests.

The grouping rules are incremental (objects join sites one at a time and
split sites get merged), but with single-point contours the end state
must match a plain connected-components computation over the pairwise
qualification graph.  A small union-find serves as that oracle.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadwork_mapper import sites as sites_module
from roadwork_mapper.detections import BARRIER, PANEL_PASS_RIGHT, TRAFFIC_CONE
from roadwork_mapper.geometry import (
    Pose2D,
    UtmAnchor,
    convex_hull,
    distance_to_convex_polygon,
)
from roadwork_mapper.sites import (
    HULL_INFLATION,
    RoadworkSite,
    SeparationPolicy,
    SiteMember,
    SiteRegistry,
    site_dimensions,
)

POSE = Pose2D(0.0, 0.0, 0.0)


def assign_point(registry, oid, x, y, object_class=TRAFFIC_CONE, t=0.0, arc=0.0):
    return registry.assign(oid, object_class, [(x, y)], POSE, t, arc)


# --- pairwise separation limits ---


def test_panel_panel_longitudinal_boundary():
    registry = SiteRegistry()
    assign_point(registry, 1, 0.0, 0.0)
    assert assign_point(registry, 2, 12.0, 0.0) == 1
    fresh = SiteRegistry()
    assign_point(fresh, 1, 0.0, 0.0)
    assert assign_point(fresh, 2, 12.01, 0.0) == 2


def test_barrier_barrier_longitudinal_boundary():
    registry = SiteRegistry()
    assign_point(registry, 1, 0.0, 0.0, BARRIER)
    assert assign_point(registry, 2, 2.0, 0.0, BARRIER) == 1
    fresh = SiteRegistry()
    assign_point(fresh, 1, 0.0, 0.0, BARRIER)
    assert assign_point(fresh, 2, 2.01, 0.0, BARRIER) == 2


@pytest.mark.parametrize("first,second", [(BARRIER, TRAFFIC_CONE), (TRAFFIC_CONE, BARRIER)])
def test_barrier_other_longitudinal_boundary(first, second):
    registry = SiteRegistry()
    assign_point(registry, 1, 0.0, 0.0, first)
    assert assign_point(registry, 2, 6.0, 0.0, second) == 1
    fresh = SiteRegistry()
    assign_point(fresh, 1, 0.0, 0.0, first)
    assert assign_point(fresh, 2, 6.01, 0.0, second) == 2


def test_lateral_boundary():
    registry = SiteRegistry()
    assign_point(registry, 1, 0.0, 0.0)
    assert assign_point(registry, 2, 0.0, 1.5) == 1
    fresh = SiteRegistry()
    assign_point(fresh, 1, 0.0, 0.0)
    assert assign_point(fresh, 2, 0.0, 1.51) == 2


def test_separation_uses_nearest_stored_points():
    registry = SiteRegistry()
    registry.assign(1, TRAFFIC_CONE, [(0.0, 0.0), (5.0, 0.0)], POSE, 0.0, 0.0)
    # 16.9 m from the head's first point but 11.9 m from its nearest one.
    assert assign_point(registry, 2, 16.9, 0.0) == 1


def test_separation_respects_heading():
    # Driving along +y: the 12 m budget applies to y offsets, the 1.5 m
    # lateral budget to x offsets.
    pose = Pose2D(0.0, 0.0, math.pi / 2.0)
    registry = SiteRegistry()
    registry.assign(1, TRAFFIC_CONE, [(0.0, 0.0)], pose, 0.0, 0.0)
    assert registry.assign(2, TRAFFIC_CONE, [(0.0, 10.0)], pose, 0.0, 0.0) == 1
    # 10 m to the side: lateral in this frame, so a second site is founded.
    assert registry.assign(3, TRAFFIC_CONE, [(10.0, 0.0)], pose, 0.0, 0.0) == 2


# --- member bookkeeping ---


def test_members_ordered_by_longitudinal_position():
    registry = SiteRegistry()
    assign_point(registry, 10, 10.0, 0.0)
    assign_point(registry, 20, 0.5, 0.0)
    assign_point(registry, 30, 11.0, 0.0)
    assert registry.active[1].member_ids() == [20, 10, 30]


def test_only_head_keeps_full_contour():
    contours = {
        1: [(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)],
        2: [(8.0, 0.0), (9.0, 0.0), (10.0, 1.0)],
        3: [(4.0, 0.0), (5.0, 0.0), (6.0, 1.0)],
    }
    registry = SiteRegistry()
    for oid in (1, 2, 3):
        registry.assign(oid, TRAFFIC_CONE, contours[oid], POSE, 0.0, 0.0)
    site = registry.active[1]
    assert site.member_ids() == [1, 3, 2]
    assert site.members[0].points == contours[1]
    assert site.members[1].points == [contours[3][-1]]
    assert site.members[2].points == [contours[2][-1]]


def test_new_head_restores_full_contour_and_trims_old():
    contours = {
        1: [(10.0, 0.0), (11.0, 0.0), (12.0, 1.0)],
        2: [(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)],
    }
    registry = SiteRegistry()
    registry.assign(1, TRAFFIC_CONE, contours[1], POSE, 0.0, 0.0)
    registry.assign(2, TRAFFIC_CONE, contours[2], POSE, 0.0, 0.0)
    site = registry.active[1]
    assert site.member_ids() == [2, 1]
    assert site.members[0].points == contours[2]
    assert site.members[1].points == [contours[1][-1]]


def test_new_head_without_provider_keeps_assigned_contour():
    registry = SiteRegistry()
    registry.assign(1, TRAFFIC_CONE, [(10.0, 0.0), (12.0, 1.0)], POSE, 0.0, 0.0)
    registry.assign(2, TRAFFIC_CONE, [(0.0, 0.0), (2.0, 1.0)], POSE, 0.0, 0.0)
    site = registry.active[1]
    assert site.members[0].points == [(0.0, 0.0), (2.0, 1.0)]
    assert site.members[1].points == [(12.0, 1.0)]


def test_merge_gives_a_trimmed_member_that_becomes_head_its_full_contour():
    contours = {oid: [(x, 0.0), (x + 1.0, 0.0)]
                for oid, x in [(1, 0.0), (2, 3.0), (3, 20.0), (5, 24.0), (4, 12.0)]}
    registry = SiteRegistry()
    for oid in (1, 2, 3, 5):
        registry.assign(oid, TRAFFIC_CONE, contours[oid], POSE, 0.0, 0.0)
    assert [s.member_ids() for s in registry.active.values()] == [[1, 2], [3, 5]]
    registry.assign(4, TRAFFIC_CONE, contours[4], POSE, 0.0, 0.0)  # joins both
    # Facing the other way, the trimmed member 5 is now the rearmost.
    registry.merge_split_sites(Pose2D(0.0, 0.0, math.pi))
    site = registry.active[1]
    assert site.member_ids() == [5, 3, 4, 2, 1]
    assert site.members[0].points == contours[5]
    for member in site.members[1:]:
        assert member.points == [contours[member.object_id][-1]]


def test_refresh_members_updates_visible_points():
    registry = SiteRegistry()
    registry.assign(1, TRAFFIC_CONE, [(0.0, 0.0), (1.0, 0.0)], POSE, 0.0, 0.0)
    assign_point(registry, 2, 5.0, 0.0)
    registry.refresh_members({1: [(0.1, 0.0), (1.1, 0.0)], 2: [(5.0, 0.0), (5.1, 0.2)]})
    site = registry.active[1]
    assert site.members[0].points == [(0.1, 0.0), (1.1, 0.0)]
    assert site.members[1].points == [(5.1, 0.2)]
    registry.refresh_members({})  # nothing visible: points unchanged
    assert site.members[0].points == [(0.1, 0.0), (1.1, 0.0)]


# --- split sites and merging ---


def test_bridging_object_merges_split_sites():
    registry = SiteRegistry()
    assert assign_point(registry, 1, 0.0, 0.0) == 1
    assert assign_point(registry, 2, 20.0, 0.0) == 2
    # 10 m from each: joins both, which makes them one site.
    nearest = assign_point(registry, 3, 9.0, 0.0)
    assert nearest == 1
    registry.merge_split_sites(POSE)
    assert list(registry.active) == [1]
    assert registry.active[1].member_ids() == [1, 3, 2]


def test_merge_keeps_earliest_start_and_latest_detection():
    registry = SiteRegistry()
    assign_point(registry, 1, 0.0, 0.0, t=5.0, arc=10.0)
    assign_point(registry, 2, 20.0, 0.0, t=1.0, arc=12.0)
    assign_point(registry, 3, 10.0, 0.0, t=7.0, arc=14.0)
    registry.merge_split_sites(POSE)
    site = registry.active[1]
    assert site.start_time == 1.0
    assert site.last_detection_time == 7.0
    assert site.arc_position == 14.0


def test_merge_chain_reaches_fixpoint():
    registry = SiteRegistry()
    for oid, x in [(1, 0.0), (2, 20.0), (3, 40.0)]:
        assign_point(registry, oid, x, 0.0)
    assert len(registry.active) == 3
    assign_point(registry, 4, 10.0, 0.0)
    assign_point(registry, 5, 30.0, 0.0)
    registry.merge_split_sites(POSE)
    assert list(registry.active) == [1]
    assert registry.active[1].member_ids() == [1, 4, 2, 5, 3]


# --- union-find oracle ---


class _UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)

    def components(self):
        groups = {}
        for item in self.parent:
            groups.setdefault(self.find(item), set()).add(item)
        return {frozenset(g) for g in groups.values()}


def _expected_partition(objects, policy, heading):
    uf = _UnionFind([oid for oid, _, _ in objects])
    c, s = math.cos(heading), math.sin(heading)
    for (oa, ca, pa), (ob, cb, pb) in itertools.combinations(objects, 2):
        dx, dy = pa[0] - pb[0], pa[1] - pb[1]
        lon, lat = abs(dx * c + dy * s), abs(-dx * s + dy * c)
        if lon <= policy.longitudinal_for(ca, cb) and lat <= policy.lateral:
            uf.union(oa, ob)
    return uf.components()


def _run_grouping(objects, heading):
    pose = Pose2D(0.0, 0.0, heading)
    registry = SiteRegistry()
    for oid, cls, point in objects:
        registry.assign(oid, cls, [point], pose, 0.0, 0.0)
        registry.merge_split_sites(pose)
    return {frozenset(site.member_ids()) for site in registry.active.values()}


def test_grouping_matches_connected_components():
    rng = np.random.default_rng(42)
    classes = [TRAFFIC_CONE, BARRIER, PANEL_PASS_RIGHT]
    policy = SeparationPolicy()
    for trial in range(100):
        heading = float(rng.choice([0.0, math.pi / 2.0, rng.uniform(-3.0, 3.0)]))
        n = int(rng.integers(1, 9))
        objects = [
            (
                oid + 1,
                classes[rng.integers(3)],
                (float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.0, 5.0))),
            )
            for oid in range(n)
        ]
        expected = _expected_partition(objects, policy, heading)
        assert _run_grouping(objects, heading) == expected
        shuffled = list(objects)
        rng.shuffle(shuffled)
        assert _run_grouping(shuffled, heading) == expected


# --- nested-site removal ---


def square_site(site_id, object_id, x0, y0, size):
    pts = [(x0, y0), (x0 + size, y0), (x0 + size, y0 + size), (x0, y0 + size)]
    return RoadworkSite(
        site_id=site_id,
        members=[SiteMember(object_id, TRAFFIC_CONE, pts)],
        start_time=0.0,
        last_detection_time=0.0,
        arc_position=0.0,
    )


def test_nested_site_is_removed():
    registry = SiteRegistry()
    registry.active[1] = square_site(1, 1, 0.0, 0.0, 10.0)
    registry.active[2] = RoadworkSite(
        2, [SiteMember(2, TRAFFIC_CONE, [(5.0, 5.0)])], 0.0, 0.0, 0.0
    )
    assert registry.remove_nested() == [2]
    assert list(registry.active) == [1]


def test_nested_removal_inflation_boundary():
    for x in (11.4, 11.5):  # 11.5 lies exactly hull_inflation off the edge
        registry = SiteRegistry()
        registry.active[1] = square_site(1, 1, 0.0, 0.0, 10.0)
        registry.active[2] = RoadworkSite(
            2, [SiteMember(2, TRAFFIC_CONE, [(x, 5.0)])], 0.0, 0.0, 0.0
        )
        assert registry.remove_nested() == [2]
    fresh = SiteRegistry()
    fresh.active[1] = square_site(1, 1, 0.0, 0.0, 10.0)
    fresh.active[2] = RoadworkSite(
        2, [SiteMember(2, TRAFFIC_CONE, [(11.6, 5.0)])], 0.0, 0.0, 0.0
    )
    assert fresh.remove_nested() == []
    assert sorted(fresh.active) == [1, 2]


def test_mutual_containment_prefers_more_members_then_lower_id():
    registry = SiteRegistry()
    big = square_site(1, 1, 0.0, 0.0, 10.0)
    big.members.append(SiteMember(4, TRAFFIC_CONE, [(5.0, 5.0)]))
    registry.active[1] = big
    registry.active[2] = square_site(2, 2, 0.5, 0.5, 10.0)  # overlapping twin
    assert registry.remove_nested() == [2]

    fresh = SiteRegistry()
    fresh.active[3] = square_site(3, 1, 0.0, 0.0, 10.0)
    fresh.active[5] = square_site(5, 2, 0.5, 0.5, 10.0)
    assert fresh.remove_nested() == [5]
    assert list(fresh.active) == [3]


def test_disjoint_sites_are_kept():
    registry = SiteRegistry()
    registry.active[1] = square_site(1, 1, 0.0, 0.0, 10.0)
    registry.active[2] = square_site(2, 2, 50.0, 0.0, 10.0)
    assert registry.remove_nested() == []


def test_remove_nested_builds_hulls_only_for_box_candidates(monkeypatch):
    built = []

    def counting_hull(points):
        built.append(list(points))
        return convex_hull(points)

    monkeypatch.setattr(sites_module, "convex_hull", counting_hull)
    registry = SiteRegistry()
    registry.active[1] = square_site(1, 1, 0.0, 0.0, 10.0)
    for site_id, point in [(2, (5.0, 5.0)), (3, (6.0, 6.0))]:
        registry.active[site_id] = RoadworkSite(
            site_id, [SiteMember(site_id, TRAFFIC_CONE, [point])], 0.0, 0.0, 0.0
        )
    assert registry.remove_nested() == [2, 3]
    assert built == [registry.active[1].stored_points()]  # one hull for both inner sites

    built.clear()
    overlapping = SiteRegistry()  # boxes overlap, neither lies inside the other
    overlapping.active[1] = square_site(1, 1, 0.0, 0.0, 10.0)
    overlapping.active[2] = square_site(2, 2, 5.0, 5.0, 25.0)
    assert overlapping.remove_nested() == []
    assert built == []


# --- nested-site removal against the pairwise reference ---


def _reference_contained_in(inner, outer, inflation):
    hull = convex_hull(outer.stored_points())
    return all(
        distance_to_convex_polygon(p, hull) <= inflation for p in inner.stored_points()
    )


def _reference_remove_nested(registry):
    """Plain pairwise removal: one hull per ordered site pair, no prefilter."""
    sites = list(registry.active.values())
    removed = []
    for site in sites:
        if site.site_id in removed:
            continue
        for other in sites:
            if other.site_id == site.site_id or other.site_id in removed:
                continue
            if not _reference_contained_in(site, other, registry.hull_inflation):
                continue
            if _reference_contained_in(other, site, registry.hull_inflation):
                if (len(other.members), -other.site_id) < (
                    len(site.members),
                    -site.site_id,
                ):
                    continue
            removed.append(site.site_id)
            break
    for site_id in removed:
        del registry.active[site_id]
    return removed


GRID = st.integers(0, 16).map(lambda k: k * 0.5)
GRID_POINT = st.tuples(GRID, GRID)


@st.composite
def nested_layouts(draw):
    """Site layouts as (site id, [member points, ...]) in insertion order.

    Points sit on a half-meter grid, so duplicates, collinear runs and
    equal-sized twins are common.  "edge" sites put a point hull_inflation
    (exactly, or 1e-9 m either side) off an extreme edge of an earlier site.
    """
    n = draw(st.integers(2, 7))
    layout = []
    for _ in range(n):
        kind = draw(st.sampled_from(["cloud", "single", "collinear", "twin", "edge"]))
        if kind == "cloud":
            members = draw(
                st.lists(st.lists(GRID_POINT, min_size=1, max_size=4), min_size=1, max_size=3)
            )
        elif kind == "collinear":
            y = draw(GRID)
            members = [[(x, y)] for x in draw(st.lists(GRID, min_size=1, max_size=5))]
        elif kind == "twin" and layout:
            source = draw(st.sampled_from(layout))
            dx, dy = draw(st.sampled_from([(0.0, 0.0), (0.5, 0.0), (0.0, 1.0), (1.0, 0.5)]))
            members = [[(x + dx, y + dy) for x, y in pts] for pts in source]
        elif kind == "edge" and layout:
            points = [p for pts in draw(st.sampled_from(layout)) for p in pts]
            axis = draw(st.sampled_from([0, 1]))
            sign = draw(st.sampled_from([1.0, -1.0]))
            delta = draw(st.sampled_from([-1e-9, 0.0, 1e-9]))
            far = max(sign * p[axis] for p in points)
            across = [p[1 - axis] for p in points if sign * p[axis] == far]
            mid = (min(across) + max(across)) / 2.0
            off = sign * (far + HULL_INFLATION + delta)
            members = [[(off, mid) if axis == 0 else (mid, off)]]
            if draw(st.booleans()):
                members.append([points[0]])
        else:
            members = [[draw(GRID_POINT)]]
        layout.append(members)
    offset = draw(st.sampled_from([0.0, 1e5]))
    site_ids = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n, unique=True))
    return [
        (site_id, [[(x + offset, y + offset) for x, y in pts] for pts in members])
        for site_id, members in zip(site_ids, layout)
    ]


def _registry_from(layout):
    registry = SiteRegistry()
    object_id = 0
    for site_id, members in layout:
        site_members = []
        for pts in members:
            object_id += 1
            site_members.append(SiteMember(object_id, TRAFFIC_CONE, list(pts)))
        registry.active[site_id] = RoadworkSite(site_id, site_members, 0.0, 0.0, 0.0)
    return registry


@settings(max_examples=400)
@given(nested_layouts())
def test_remove_nested_matches_pairwise_reference(layout):
    expected_registry = _registry_from(layout)
    expected = _reference_remove_nested(expected_registry)
    registry = _registry_from(layout)
    assert registry.remove_nested() == expected
    assert list(registry.active) == list(expected_registry.active)


# --- the box prefilter against the n x n box matrix ---


def _box_matrix_walk(registry):
    """Hull tests and drops of nested-site removal with its box rule written
    as one numpy comparison over the n x n box matrix, walked row-major."""
    sites = list(registry.active.values())
    points = [site.stored_points() for site in sites]
    # (min x, min y, -max x, -max y): box i lies inside box j grown by g
    # exactly when every entry of i is >= that of j minus g.
    boxes = np.array([(min(x for x, _ in pts), min(y for _, y in pts),
                       -max(x for x, _ in pts), -max(y for _, y in pts)) for pts in points])
    grow = registry.hull_inflation + sites_module._BOX_SLACK
    candidate = (boxes[:, None] >= boxes[None] - grow).all(axis=2)
    calls, removed = [], []

    def contains(inner, outer):
        calls.append((inner, outer))
        return _reference_contained_in(sites[inner], sites[outer], registry.hull_inflation)

    for i, j in zip(*(idx.tolist() for idx in np.nonzero(candidate))):
        site, other = sites[i], sites[j]
        if i == j or site.site_id in removed or other.site_id in removed:
            continue
        if not contains(i, j):
            continue
        if candidate[j, i] and contains(j, i):
            if (len(other.members), -other.site_id) < (len(site.members), -site.site_id):
                continue
        removed.append(site.site_id)
    return calls, removed


@st.composite
def box_layouts(draw):
    """(hull inflation, site layout) with sites of every width, and points
    placed exactly on an earlier site's grown box edge or one ulp either
    side of it."""
    inflation = draw(st.sampled_from([HULL_INFLATION, 0.0, 0.25, -0.5, math.nan, math.inf]))
    grow = inflation + sites_module._BOX_SLACK
    offset = draw(st.sampled_from([0.0, 1e5, -3e6]))
    layout = []
    for _ in range(draw(st.integers(2, 8))):
        x, y = offset + draw(GRID), offset + draw(GRID)
        kind = draw(st.sampled_from(["point", "box", "wide", "edge"]))
        if kind == "box":
            size = draw(st.sampled_from([0.5, 2.0, 4.0]))
            members = [[(x, y)], [(x + size, y + draw(st.sampled_from([0.0, size])))]]
        elif kind == "wide":
            members = [[(x - 20.0, y), (x + 20.0, y + 1.0)]]
        elif kind == "edge" and layout and math.isfinite(grow):
            points = [p for pts in draw(st.sampled_from(layout)) for p in pts]
            xs, ys = [p[0] for p in points], [p[1] for p in points]
            edge = draw(st.sampled_from([min(xs) - grow, max(xs) + grow,
                                         min(ys) - grow, max(ys) + grow]))
            edge = draw(st.sampled_from([edge, math.nextafter(edge, math.inf),
                                         math.nextafter(edge, -math.inf)]))
            across = draw(st.sampled_from(points))
            if edge in (min(xs) - grow, max(xs) + grow) or draw(st.booleans()):
                members = [[(edge, across[1])]]
            else:
                members = [[(across[0], edge)]]
        else:
            members = [[(x, y)]]
        layout.append(members)
    site_ids = draw(st.lists(st.integers(1, 40), min_size=len(layout),
                             max_size=len(layout), unique=True))
    return inflation, list(zip(site_ids, layout))


@settings(max_examples=400)
@given(box_layouts())
def test_box_prefilter_walks_the_box_matrix_row_major(case):
    inflation, layout = case
    registry, reference = _registry_from(layout), _registry_from(layout)
    registry.hull_inflation = reference.hull_inflation = inflation
    expected_calls, expected_removed = _box_matrix_walk(reference)
    calls = []
    hull_contains = SiteRegistry._hull_contains

    def recording(self, points, hulls, inner, outer):
        calls.append((inner, outer))
        return hull_contains(self, points, hulls, inner, outer)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SiteRegistry, "_hull_contains", recording)
        assert registry.remove_nested() == expected_removed
    # The same pairs reach the hull test, in the same order.
    assert calls == expected_calls


# --- dimensions ---


def test_dimensions_known_values():
    site = RoadworkSite(
        1,
        [
            SiteMember(1, TRAFFIC_CONE, [(0.0, 0.0)]),
            SiteMember(2, TRAFFIC_CONE, [(10.0, 5.0)]),
            SiteMember(3, TRAFFIC_CONE, [(0.0, 5.0)]),
        ],
        0.0,
        0.0,
        0.0,
    )
    dims = site_dimensions(site)
    assert dims.length == pytest.approx(math.sqrt(125.0))
    assert dims.depth == pytest.approx(50.0 / math.sqrt(125.0))
    assert dims.axis_start == (0.0, 0.0)
    assert dims.axis_end == (10.0, 5.0)


def test_dimensions_single_point_site():
    site = RoadworkSite(1, [SiteMember(1, TRAFFIC_CONE, [(3.0, 4.0)])], 0.0, 0.0, 0.0)
    dims = site_dimensions(site)
    assert dims.length == 0.0
    assert dims.depth == 0.0


def test_depth_never_exceeds_length():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        members = [
            SiteMember(i + 1, TRAFFIC_CONE, [tuple(map(float, rng.uniform(-40, 40, 2)))])
            for i in range(n)
        ]
        dims = site_dimensions(RoadworkSite(1, members, 0.0, 0.0, 0.0))
        assert dims.depth <= dims.length + 1e-12


# --- ghosts ---


def test_ghosts_cover_recent_passed_members_only():
    # Large lateral offsets keep each object in its own site; the ghost
    # rule only looks at the longitudinal position.
    registry = SiteRegistry()
    assign_point(registry, 1, -5.0, 0.0)     # just behind: ghost
    assign_point(registry, 2, -15.0, 10.0)   # at the retention edge: ghost
    site3 = assign_point(registry, 3, -20.0, 20.0)  # too far back
    site4 = assign_point(registry, 4, 5.0, 30.0)    # still ahead
    registry.ghost_update(visible_ids=set(), pose=POSE)
    ghosts = {oid for site in registry.active.values() for oid in site.ghosts}
    assert ghosts == {1, 2}
    assert registry.active[site3].ghosts == []
    assert registry.active[site4].ghosts == []


def test_visible_members_are_not_ghosts():
    registry = SiteRegistry()
    assign_point(registry, 1, -5.0, 0.0)
    registry.ghost_update(visible_ids={1}, pose=POSE)
    assert registry.active[1].ghosts == []
    registry.ghost_update(visible_ids=set(), pose=POSE)
    assert registry.active[1].ghosts == [1]


# --- finishing ---


def test_finalize_boundary_is_strict():
    registry = SiteRegistry()
    assign_point(registry, 1, 0.0, 0.0, t=1.0, arc=10.0)
    assert registry.finalize_check(59.9, 2.0, None) == []
    assert registry.finalize_check(60.0, 2.0, None) == []
    records = registry.finalize_check(60.1, 2.0, None)
    assert len(records) == 1
    assert registry.active == {}
    assert registry.finished == records


def test_member_detection_refreshes_finish_countdown():
    registry = SiteRegistry()
    assign_point(registry, 1, 0.0, 0.0, t=1.0, arc=0.0)
    registry.record_member_detections([1], timestamp=3.0, arc=30.0)
    assert registry.finalize_check(80.0, 4.0, None) == []
    assert len(registry.finalize_check(80.1, 4.0, None)) == 1


def test_record_contents_local_frame():
    registry = SiteRegistry()
    registry.assign(1, BARRIER, [(0.0, 0.0), (10.0, 0.0)], POSE, 1.5, 0.0)
    assign_point(registry, 2, 10.0, 1.0, t=2.5)
    record = registry.finalize_check(100.0, 9.0, None)[0]
    assert record.site_id == 1
    assert record.frame == "local"
    assert record.utm_zone is None
    assert record.raw_polygon == ((0.0, 0.0), (10.0, 0.0), (10.0, 1.0))
    assert set(record.hull_polygon) == {(0.0, 0.0), (10.0, 0.0), (10.0, 1.0)}
    assert record.length == pytest.approx(math.dist((0, 0), (10, 1)))
    assert record.class_counts == {BARRIER: 1, TRAFFIC_CONE: 1}
    assert record.start_time == 1.5
    assert record.end_time == 2.5


def test_record_utm_conversion():
    anchor = UtmAnchor(easting=500000.0, northing=4000000.0, zone="32U")
    registry = SiteRegistry()
    assign_point(registry, 1, 3.0, 4.0)
    record = registry.finalize_check(100.0, 9.0, anchor)[0]
    assert record.frame == "utm"
    assert record.utm_zone == "32U"
    assert record.raw_polygon[0] == pytest.approx((500003.0, 4000004.0))


def test_site_ids_never_reused():
    registry = SiteRegistry()
    assign_point(registry, 1, 0.0, 0.0)
    registry.finalize_check(100.0, 1.0, None)
    assign_point(registry, 2, 500.0, 0.0)
    assert list(registry.active) == [2]
