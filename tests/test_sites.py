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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadwork_mapper import sites as sites_module
from roadwork_mapper.detections import (
    BARRIER,
    OBJECT_CLASSES,
    PANEL_PASS_RIGHT,
    TRAFFIC_CONE,
)
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
    SiteRegistry,
    site_dimensions,
)
from roadwork_mapper.tracking import ObjectTracker, TrackedObject

import test_tracking

POSE = Pose2D(0.0, 0.0, 0.0)


def entry(object_id, object_class, contour, t=0.0):
    """A promoted tracker entry, as a site holds it."""
    return TrackedObject(object_id, contour, t, object_class, promoted=True)


def assign_point(registry, oid, x, y, object_class=TRAFFIC_CONE, t=0.0, arc=0.0):
    return registry.assign(entry(oid, object_class, [(x, y)]), POSE, t, arc)


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
    registry.assign(entry(1, TRAFFIC_CONE, [(0.0, 0.0), (5.0, 0.0)]), POSE, 0.0, 0.0)
    # 16.9 m from the head's first point but 11.9 m from its nearest one.
    assert assign_point(registry, 2, 16.9, 0.0) == 1


def test_separation_respects_heading():
    # Driving along +y: the 12 m budget applies to y offsets, the 1.5 m
    # lateral budget to x offsets.
    pose = Pose2D(0.0, 0.0, math.pi / 2.0)
    registry = SiteRegistry()
    registry.assign(entry(1, TRAFFIC_CONE, [(0.0, 0.0)]), pose, 0.0, 0.0)
    assert registry.assign(entry(2, TRAFFIC_CONE, [(0.0, 10.0)]), pose, 0.0, 0.0) == 1
    # 10 m to the side: lateral in this frame, so a second site is founded.
    assert registry.assign(entry(3, TRAFFIC_CONE, [(10.0, 0.0)]), pose, 0.0, 0.0) == 2


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
        registry.assign(entry(oid, TRAFFIC_CONE, contours[oid]), POSE, 0.0, 0.0)
    site = registry.active[1]
    assert site.member_ids() == [1, 3, 2]
    assert site.stored_points() == contours[1] + [contours[3][-1], contours[2][-1]]


def test_new_head_restores_full_contour_and_trims_old():
    contours = {
        1: [(10.0, 0.0), (11.0, 0.0), (12.0, 1.0)],
        2: [(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)],
    }
    registry = SiteRegistry()
    registry.assign(entry(1, TRAFFIC_CONE, contours[1]), POSE, 0.0, 0.0)
    registry.assign(entry(2, TRAFFIC_CONE, contours[2]), POSE, 0.0, 0.0)
    site = registry.active[1]
    assert site.member_ids() == [2, 1]
    assert site.stored_points() == contours[2] + [contours[1][-1]]


def test_new_head_without_provider_keeps_assigned_contour():
    registry = SiteRegistry()
    registry.assign(entry(1, TRAFFIC_CONE, [(10.0, 0.0), (12.0, 1.0)]), POSE, 0.0, 0.0)
    registry.assign(entry(2, TRAFFIC_CONE, [(0.0, 0.0), (2.0, 1.0)]), POSE, 0.0, 0.0)
    site = registry.active[1]
    assert site.stored_points() == [(0.0, 0.0), (2.0, 1.0), (12.0, 1.0)]


def test_merge_gives_a_trimmed_member_that_becomes_head_its_full_contour():
    contours = {oid: [(x, 0.0), (x + 1.0, 0.0)]
                for oid, x in [(1, 0.0), (2, 3.0), (3, 20.0), (5, 24.0), (4, 12.0)]}
    registry = SiteRegistry()
    for oid in (1, 2, 3, 5):
        registry.assign(entry(oid, TRAFFIC_CONE, contours[oid]), POSE, 0.0, 0.0)
    assert [s.member_ids() for s in registry.active.values()] == [[1, 2], [3, 5]]
    registry.assign(entry(4, TRAFFIC_CONE, contours[4]), POSE, 0.0, 0.0)  # joins both
    # Facing the other way, the trimmed member 5 is now the rearmost.
    registry.merge_split_sites(Pose2D(0.0, 0.0, math.pi))
    site = registry.active[1]
    assert site.member_ids() == [5, 3, 4, 2, 1]
    assert site.stored_points() == contours[5] + [contours[oid][-1] for oid in (3, 4, 2, 1)]


def test_members_show_the_contours_the_tracker_last_saw():
    tracker, registry = ObjectTracker(), SiteRegistry()
    world = {1: [(0.0, 0.0), (1.0, 0.0)], 2: [(5.0, 0.0)]}
    promoted = tracker.update([test_tracking.match(1), test_tracking.match(2)], world, 1, 0.0)
    registry.step(promoted, [1, 2], POSE, 0.0, 0.0, None)
    site = registry.active[1]
    assert all(member is tracker.get(member.object_id) for member in site.members)
    tracker.update([], {1: [(0.1, 0.0), (1.1, 0.0)], 2: [(5.0, 0.0), (5.1, 0.2)]}, 1, 0.1)
    assert site.stored_points() == [(0.1, 0.0), (1.1, 0.0), (5.1, 0.2)]
    tracker.update([], {}, 1, 0.2)  # nothing in range: points unchanged
    assert site.stored_points() == [(0.1, 0.0), (1.1, 0.0), (5.1, 0.2)]


def test_assigning_an_id_a_site_holds_keeps_its_member():
    registry = SiteRegistry()
    assign_point(registry, 1, 0.0, 0.0)
    member = registry.active[1].members[0]
    assert assign_point(registry, 1, 0.5, 0.0) == 1
    assert len(registry.active[1].members) == 1
    assert registry.active[1].members[0] is member


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
        registry.assign(entry(oid, cls, [point]), pose, 0.0, 0.0)
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
        members=[entry(object_id, TRAFFIC_CONE, pts)],
        start_time=0.0,
        last_detection_time=0.0,
        arc_position=0.0,
    )


def test_nested_site_is_removed():
    registry = SiteRegistry()
    registry.active[1] = square_site(1, 1, 0.0, 0.0, 10.0)
    registry.active[2] = RoadworkSite(
        2, [entry(2, TRAFFIC_CONE, [(5.0, 5.0)])], 0.0, 0.0, 0.0
    )
    assert registry.remove_nested() == [2]
    assert list(registry.active) == [1]


def test_nested_removal_inflation_boundary():
    for x in (11.4, 11.5):  # 11.5 lies exactly hull_inflation off the edge
        registry = SiteRegistry()
        registry.active[1] = square_site(1, 1, 0.0, 0.0, 10.0)
        registry.active[2] = RoadworkSite(
            2, [entry(2, TRAFFIC_CONE, [(x, 5.0)])], 0.0, 0.0, 0.0
        )
        assert registry.remove_nested() == [2]
    fresh = SiteRegistry()
    fresh.active[1] = square_site(1, 1, 0.0, 0.0, 10.0)
    fresh.active[2] = RoadworkSite(
        2, [entry(2, TRAFFIC_CONE, [(11.6, 5.0)])], 0.0, 0.0, 0.0
    )
    assert fresh.remove_nested() == []
    assert sorted(fresh.active) == [1, 2]


def test_mutual_containment_prefers_more_members_then_lower_id():
    registry = SiteRegistry()
    big = square_site(1, 1, 0.0, 0.0, 10.0)
    big.members.append(entry(4, TRAFFIC_CONE, [(5.0, 5.0)]))
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
            site_id, [entry(site_id, TRAFFIC_CONE, [point])], 0.0, 0.0, 0.0
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
            points = _stored(draw(st.sampled_from(layout)))
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


def _stored(members):
    """The points a site of members with these contours stores: the head
    rule, read from member order."""
    return members[0] + [pts[-1] for pts in members[1:]]


def _registry_from(layout, inflation=HULL_INFLATION):
    registry = SiteRegistry(hull_inflation=inflation)
    object_id = 0
    for site_id, members in layout:
        site_members = []
        for pts in members:
            object_id += 1
            site_members.append(entry(object_id, TRAFFIC_CONE, list(pts)))
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
    side of it.  Inflations lie in the domain of ``sites.hull_inflation``:
    finite and >= 0."""
    inflation = draw(st.sampled_from([HULL_INFLATION, 0.0, 0.25, 30.0]))
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
        elif kind == "edge" and layout:
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
    registry, reference = _registry_from(layout, inflation), _registry_from(layout, inflation)
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


# --- nested-site removal over many calls: the box cache ---


def _moved(points, dx, dy):
    return [(x + dx, y + dy) for x, y in points]


@st.composite
def upkeep_sequences(draw):
    """(inflation, layout, ops): the registries' hull inflation, a site
    layout, then per call the changes made before it: moves (by zero too,
    which leaves the values as they were), new members, sites added or
    deleted, zeros flipped to -0.0, or nothing."""
    inflation = draw(st.sampled_from([HULL_INFLATION, 0.25, 3.0]))
    layout = draw(nested_layouts())
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        changes = []
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["move", "move", "member", "add", "delete",
                                         "negzero"]))
            if kind == "move":
                step = st.sampled_from([0.0, 0.5, -0.5, 1.5, -3.0])
                changes.append(("move", draw(st.integers(0, 40)), draw(step), draw(step)))
            elif kind == "member":
                changes.append(("member", draw(st.integers(0, 40)), draw(GRID_POINT)))
            elif kind == "add":
                changes.append(("add", draw(st.lists(st.lists(GRID_POINT, min_size=1, max_size=3),
                                                     min_size=1, max_size=2))))
            elif kind == "delete":
                changes.append(("delete", draw(st.integers(0, 40))))
            else:
                changes.append(("negzero", draw(st.integers(0, 40))))
        ops.append(changes)
    return inflation, layout, ops


def _apply(registry, change, new_ids):
    """One change of ``upkeep_sequences`` to a registry."""
    sites = list(registry.active.values())
    kind = change[0]
    if kind == "add":
        site_id = next(new_ids)
        registry.active[site_id] = RoadworkSite(site_id, [
            entry(1000 * site_id + k, TRAFFIC_CONE, list(pts))
            for k, pts in enumerate(change[1])], 0.0, 0.0, 0.0)
    elif sites:
        site = sites[change[1] % len(sites)]
        if kind == "move":
            for member in site.members:
                member.world_contour = _moved(member.world_contour, change[2], change[3])
        elif kind == "member":
            site.members.append(entry(10 ** 6 + len(site.members), TRAFFIC_CONE,
                                      [change[2]]))
        elif kind == "delete":
            del registry.active[site.site_id]
        else:
            for member in site.members:
                member.world_contour = [(-0.0 if x == 0.0 else x, -0.0 if y == 0.0 else y)
                                        for x, y in member.world_contour]


@settings(max_examples=300)
@given(upkeep_sequences())
def test_remove_nested_over_many_calls_matches_pairwise_reference(case):
    inflation, layout, ops = case
    registry = _registry_from(layout, inflation)
    expected_registry = _registry_from(layout, inflation)
    ids, expected_ids = itertools.count(100), itertools.count(100)
    assert registry.remove_nested() == _reference_remove_nested(expected_registry)
    for changes in ops:
        for change in changes:
            _apply(registry, change, ids)
            _apply(expected_registry, change, expected_ids)
        assert registry.remove_nested() == _reference_remove_nested(expected_registry)
        assert list(registry.active) == list(expected_registry.active)
        # The cache holds the current sites only.
        assert set(registry._boxes) <= set(registry.active)


def _recording_hull_tests(patch):
    calls = []
    hull_contains = SiteRegistry._hull_contains

    def recording(self, points, hulls, inner, outer):
        calls.append((inner, outer))
        return hull_contains(self, points, hulls, inner, outer)

    patch.setattr(SiteRegistry, "_hull_contains", recording)
    return calls


def test_unchanged_sites_are_not_tested_again(monkeypatch):
    calls = _recording_hull_tests(monkeypatch)
    registry = SiteRegistry()
    # Each point lies inside its triangle's box but 3.5 m or more off its
    # hull, so every pair passes the box test and fails the hull test.
    for site_id, pts in [(1, [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]), (2, [(9.0, 9.0)]),
                         (3, [(9.0, 6.0)]),
                         (4, [(100.0, 0.0), (110.0, 0.0), (100.0, 10.0)]), (5, [(109.0, 9.0)])]:
        registry.active[site_id] = RoadworkSite(
            site_id, [entry(site_id, TRAFFIC_CONE, pts)], 0.0, 0.0, 0.0)
    assert registry.remove_nested() == []
    assert calls == [(1, 0), (2, 0), (4, 3)]

    calls.clear()
    assert registry.remove_nested() == []
    assert calls == []

    # Equal values in new lists, and -0.0 for 0.0, are no change.
    first = registry.active[1].members[0]
    first.world_contour = [(-0.0 if x == 0.0 else x, y) for x, y in first.world_contour]
    assert registry.remove_nested() == []
    assert calls == []

    registry.active[5].members[0].world_contour = [(109.0, 9.5)]
    assert registry.remove_nested() == []
    assert calls == [(4, 3)]  # only the moved site's pair

    calls.clear()
    registry.active[1].members[0].world_contour = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.5)]
    assert registry.remove_nested() == []
    assert calls == [(1, 0), (2, 0)]  # the moved outer site against what it holds

    calls.clear()
    registry.active[6] = RoadworkSite(6, [entry(6, TRAFFIC_CONE, [(1.0, 1.0)])],
                                      0.0, 0.0, 0.0)
    assert registry.remove_nested() == [6]  # a new site inside the first triangle
    assert calls == [(5, 0)]
    calls.clear()
    assert registry.remove_nested() == []
    assert calls == []


def test_a_site_refreshed_by_assign_is_tested_again(monkeypatch):
    calls = _recording_hull_tests(monkeypatch)
    registry = SiteRegistry()
    registry.assign(entry(1, TRAFFIC_CONE, [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]),
                    POSE, 0.0, 0.0)
    assert assign_point(registry, 2, 9.0, 7.0) == 2  # in the triangle's box, off its hull
    calls.clear()
    assert registry.remove_nested() == []
    assert calls == [(1, 0)]
    # Site 2 moves and site 3 is founded: both are changed, site 1 is not,
    # so only site 2 is tested against site 1.
    registry.active[2].members[0].world_contour = [(9.0, 6.5)]
    assert registry.assign(entry(3, TRAFFIC_CONE, [(50.0, 50.0)]), POSE, 0.0, 0.0) == 3
    calls.clear()
    assert registry.remove_nested() == []
    assert calls == [(1, 0)]


def test_assign_leaves_the_box_cache_alone():
    registry = SiteRegistry()

    def assign_keeping_the_cache(object_id, x, expected):
        before = dict(registry._boxes)
        assert assign_point(registry, object_id, x, 0.0) == expected
        assert list(registry._boxes) == list(before)
        assert all(registry._boxes[k] is box for k, box in before.items())

    assign_keeping_the_cache(1, 0.0, 1)  # founds site 1
    assign_keeping_the_cache(2, 100.0, 2)  # founds site 2, far from site 1
    assert registry.remove_nested() == []  # caches both sites
    assign_keeping_the_cache(3, 1.0, 1)  # joins site 1
    assign_keeping_the_cache(4, 22.0, 3)  # founds site 3
    assign_keeping_the_cache(5, 11.5, 1)  # joins sites 1 and 3, 10.5 m from each


# --- assign against the reference assign ---


def _reference_separation(points_a, points_b, heading):
    """``sites._separation`` as it was, taking the heading."""
    best = None
    best_pair = None
    for pa in points_a:
        for pb in points_b:
            d = math.dist(pa, pb)
            if best is None or d < best:
                best = d
                best_pair = (pa, pb)
    assert best_pair is not None
    dx = best_pair[0][0] - best_pair[1][0]
    dy = best_pair[0][1] - best_pair[1][1]
    c = math.cos(heading)
    s = math.sin(heading)
    return best, abs(dx * c + dy * s), abs(-dx * s + dy * c)


class _ReferenceMember:
    """A site member as the registry once kept it: its contour, and the
    points the head rule left it, rebuilt by ``_reference_head_rule``."""

    def __init__(self, object_id, object_class, contour):
        self.object_id = object_id
        self.object_class = object_class
        self.world_contour = contour
        self.points = contour


def _reference_head_rule(members):
    """``sites._apply_head_rule`` as it was."""
    head = members[0]
    head.points = head.world_contour
    for member in members[1:]:
        member.points = member.world_contour[-1:]


def _reference_longitudinal(points, pose):
    c = math.cos(pose.heading)
    s = math.sin(pose.heading)
    return sum((x - pose.x) * c + (y - pose.y) * s for x, y in points) / len(points)


def _reference_rank(members, pose):
    """``sites._rank`` as it was: ``members`` sorted by their points, then
    the head rule applied."""
    members.sort(key=lambda m: _reference_longitudinal(m.points, pose))
    _reference_head_rule(members)
    return members


def _reference_stored(site):
    return [p for member in site.members for p in member.points]


def _reference_assign(self, obj, pose, timestamp, arc):
    """``SiteRegistry.assign`` with the separation helper and the reference
    members (test oracle)."""
    object_id, object_class = obj.object_id, obj.object_class
    contour = [(float(x), float(y)) for x, y in obj.world_contour]
    qualified = []
    for site in self.active.values():
        best = None
        for member in site.members:
            dist, lon, lat = _reference_separation(contour, member.points, pose.heading)
            limit = self.separation.longitudinal_for(object_class, member.object_class)
            if lon <= limit and lat <= self.separation.lateral:
                if best is None or dist < best:
                    best = dist
        if best is not None:
            qualified.append((best, site.site_id))

    if not qualified:
        site = RoadworkSite(
            site_id=self._next_site_id,
            members=[_ReferenceMember(object_id, object_class, contour)],
            start_time=timestamp,
            last_detection_time=timestamp,
            arc_position=arc,
        )
        self._next_site_id += 1
        self.active[site.site_id] = site
        return site.site_id

    qualified.sort()
    for _, site_id in qualified:
        site = self.active[site_id]
        site.members = _reference_rank(
            site.members + [_ReferenceMember(object_id, object_class, contour)], pose)
        site.last_detection_time = timestamp
        site.arc_position = arc
    return qualified[0][1]


def _site_state(registry, stored=RoadworkSite.stored_points):
    """Every field of every active site, and its points as ``stored`` reads
    them, by repr (which tells -0.0 from 0.0)."""
    return repr([(site.site_id, [(m.object_id, m.object_class, m.world_contour)
                                 for m in site.members],
                  stored(site), site.start_time, site.last_detection_time, site.arc_position)
                 for site in registry.active.values()])


_LIMITS = [0.0, 2.5]  # with the defaults, values a session config may set
_HEADINGS = [0.0, math.pi / 2.0, math.pi / 6.0, -2.5, 1e-3, math.pi]


@st.composite
def separation_policies(draw):
    """The default limits, or some of them zero or another value."""
    default = SeparationPolicy()
    fields = {}
    for name in ("panel_panel_longitudinal", "barrier_barrier_longitudinal",
                 "barrier_other_longitudinal", "lateral"):
        if draw(st.integers(0, 3)) == 0:
            fields[name] = draw(st.sampled_from(_LIMITS))
        else:
            fields[name] = getattr(default, name)
    return SeparationPolicy(**fields)


def _prune_reach(policy, object_class):
    """The reach of a box prefilter on ``assign`` at the object's longest
    limit, with a rounding margin: contours drawn on its edge are the pairs
    such a prefilter would get wrong by rounding."""
    longest = max(policy.longitudinal_for(object_class, BARRIER),
                  policy.longitudinal_for(object_class, TRAFFIC_CONE))
    return math.hypot(longest, policy.lateral) * (1.0 + 1e-9) + sites_module._BOX_SLACK


def _contour_near(data, registry, policy, object_class, heading, offset):
    """A contour on the grid, or placed against a current site: on its
    pruning edge (and one ulp either side), or at the separation limits
    from one of its points (exactly, or one ulp off)."""
    sites = list(registry.active.values())
    kind = data.draw(st.sampled_from(["grid", "edge", "limit"] if sites else ["grid"]))
    nudge = data.draw(st.sampled_from([0.0, math.inf, -math.inf]))
    if kind == "edge":
        reach = _prune_reach(policy, object_class)
        points = data.draw(st.sampled_from(sites)).stored_points()
        xs, ys = [p[0] for p in points], [p[1] for p in points]
        side = data.draw(st.integers(0, 3))
        edge = [min(xs) - reach, max(xs) + reach, min(ys) - reach, max(ys) + reach][side]
        if nudge:
            edge = math.nextafter(edge, nudge)
        across = data.draw(st.sampled_from(points))
        return [(edge, across[1])] if side < 2 else [(across[0], edge)]
    if kind == "limit":
        px, py = data.draw(st.sampled_from(data.draw(st.sampled_from(sites)).stored_points()))
        lon = data.draw(st.sampled_from([
            policy.panel_panel_longitudinal, policy.barrier_barrier_longitudinal,
            policy.barrier_other_longitudinal, 0.0]))
        lat = data.draw(st.sampled_from([policy.lateral, 0.0]))
        lon *= data.draw(st.sampled_from([1.0, -1.0]))
        lat *= data.draw(st.sampled_from([1.0, -1.0]))
        c, s = math.cos(heading), math.sin(heading)
        x = px + lon * c - lat * s
        y = py + lon * s + lat * c
        if nudge:
            x = math.nextafter(x, nudge)
        return [(x, y)]
    points = data.draw(st.lists(GRID_POINT, min_size=1, max_size=3))
    return [(x + offset, y + offset) for x, y in points]


@settings(max_examples=400)
@given(st.data())
def test_assign_matches_the_reference_assign(data):
    policy = data.draw(separation_policies())
    heading = data.draw(st.sampled_from(_HEADINGS))
    offset = data.draw(st.sampled_from([0.0, 1e5, -3e6]))
    pose = Pose2D(offset, offset, heading)
    registry, reference = SiteRegistry(policy), SiteRegistry(policy)
    for object_id in range(data.draw(st.integers(1, 10))):
        object_class = data.draw(st.sampled_from(OBJECT_CLASSES))
        contour = _contour_near(data, registry, policy, object_class, pose.heading, offset)
        t = float(object_id)
        obj = entry(object_id, object_class, contour, t)
        assert registry.assign(obj, pose, t, t) == _reference_assign(reference, obj, pose, t, t)
        assert _site_state(registry) == _site_state(reference, _reference_stored)
        if data.draw(st.booleans()):
            # Nested-site removal after assigns, which leave its cache alone.
            assert registry.remove_nested() == _reference_remove_nested(reference)
            assert _site_state(registry) == _site_state(reference, _reference_stored)


def test_pruning_keeps_a_pair_that_qualifies_by_rounding():
    # At this heading hypot(longitudinal, lateral limit) rounds below the
    # 10 m by which the pair is apart along x, yet the pair qualifies: a
    # distance prefilter without a rounding margin would skip the site.
    pose = Pose2D(0.0, 0.0, 9 * 1e-4)
    lon, lat = 10.0 * math.cos(pose.heading), 10.0 * math.sin(pose.heading)
    assert math.hypot(lon, lat) < 10.0
    policy = SeparationPolicy(lon, lon, lon, lat)
    for assign in (SiteRegistry.assign, _reference_assign):
        registry = SiteRegistry(policy)
        assert assign(registry, entry(1, TRAFFIC_CONE, [(0.0, 0.0)]), pose, 0.0, 0.0) == 1
        assert assign(registry, entry(2, TRAFFIC_CONE, [(10.0, 0.0)]), pose, 0.0, 0.0) == 1


def test_assign_among_far_sites_joins_the_one_within_reach():
    registry = SiteRegistry()
    for k in range(5):
        assign_point(registry, k, 100.0 * k, 0.0)
    assert assign_point(registry, 9, 201.0, 0.0) == 3


# --- member order against the points the registry once kept ---


_RANK_COORD = st.integers(0, 2).map(float)  # coarse, so that keys tie often
_RANK_GROUP = st.lists(st.tuples(st.integers(1, 6),
                                 st.lists(st.tuples(_RANK_COORD, _RANK_COORD),
                                          min_size=1, max_size=3)),
                       min_size=1, max_size=4, unique_by=lambda entry: entry[0])


@settings(max_examples=300)
@given(groups=st.tuples(_RANK_GROUP, _RANK_GROUP),
       heading=st.sampled_from([0.0, math.pi / 2.0, -2.5]))
def test_rank_matches_the_points_keyed_reference(groups, heading):
    # Two sites' members, or a site's and a joining object's, that may
    # share ids.  The reference keeps each member's points under the head
    # rule of its own group, then joins the groups as a merge did: the
    # first member of each id, sorted by those points.
    pose = Pose2D(0.5, 1.0, heading)
    members = [[entry(oid, TRAFFIC_CONE, contour) for oid, contour in group]
               for group in groups]
    references = [[_ReferenceMember(oid, TRAFFIC_CONE, contour) for oid, contour in group]
                  for group in groups]
    twin = {}
    for group, reference in zip(members, references):
        _reference_head_rule(reference)
        twin.update((id(r), m) for r, m in zip(reference, group))
    seen = set()
    joined = []
    for member in references[0] + references[1]:
        if member.object_id not in seen:
            seen.add(member.object_id)
            joined.append(member)
    expected = [twin[id(m)] for m in _reference_rank(joined, pose)]
    got = sites_module._rank(members, pose)
    assert len(got) == len(expected)
    assert all(a is b for a, b in zip(got, expected))
    assert RoadworkSite(1, got, 0.0, 0.0, 0.0).stored_points() == [
        p for m in joined for p in m.points]


# --- dimensions ---


def test_dimensions_known_values():
    site = RoadworkSite(
        1,
        [
            entry(1, TRAFFIC_CONE, [(0.0, 0.0)]),
            entry(2, TRAFFIC_CONE, [(10.0, 5.0)]),
            entry(3, TRAFFIC_CONE, [(0.0, 5.0)]),
        ],
        0.0,
        0.0,
        0.0,
    )
    length, depth = site_dimensions(site)
    assert length == pytest.approx(math.sqrt(125.0))
    assert depth == pytest.approx(50.0 / math.sqrt(125.0))


def test_dimensions_single_point_site():
    site = RoadworkSite(1, [entry(1, TRAFFIC_CONE, [(3.0, 4.0)])], 0.0, 0.0, 0.0)
    assert site_dimensions(site) == (0.0, 0.0)


def test_depth_never_exceeds_length():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        members = [
            entry(i + 1, TRAFFIC_CONE, [tuple(map(float, rng.uniform(-40, 40, 2)))])
            for i in range(n)
        ]
        length, depth = site_dimensions(RoadworkSite(1, members, 0.0, 0.0, 0.0))
        assert depth <= length + 1e-12


# --- ghosts ---


def test_ghosts_cover_recent_passed_members_only():
    # Large lateral offsets keep each object in its own site; the ghost
    # rule only looks at the longitudinal position.
    registry = SiteRegistry()
    assign_point(registry, 1, -5.0, 0.0)     # just behind: ghost
    assign_point(registry, 2, -15.0, 10.0)   # at the retention edge: ghost
    site3 = assign_point(registry, 3, -20.0, 20.0)  # too far back
    site4 = assign_point(registry, 4, 5.0, 30.0)    # still ahead
    ghosts = registry.ghost_update(visible_ids=set(), pose=POSE)
    assert {oid for oid, _, _ in ghosts} == {1, 2}
    assert [oid for oid, _, site_id in ghosts if site_id == site3] == []
    assert [oid for oid, _, site_id in ghosts if site_id == site4] == []
    assert all(object_class == TRAFFIC_CONE for _, object_class, _ in ghosts)


def test_a_member_level_with_the_vehicle_is_a_ghost():
    # The ghost band is [-ghost_retention, 0]: longitudinal distance 0 is
    # in it, the next float ahead is not.
    registry = SiteRegistry()
    assign_point(registry, 1, 0.0, 0.0)
    assign_point(registry, 2, math.nextafter(0.0, 1.0), 30.0)
    assert registry.ghost_update(visible_ids=set(), pose=POSE) == [(1, TRAFFIC_CONE, 1)]


def test_visible_members_are_not_ghosts():
    registry = SiteRegistry()
    assign_point(registry, 1, -5.0, 0.0)
    assert registry.ghost_update(visible_ids={1}, pose=POSE) == []
    assert registry.ghost_update(visible_ids=set(), pose=POSE) == [(1, TRAFFIC_CONE, 1)]


# --- finishing ---


def test_finalize_boundary_is_strict():
    registry = SiteRegistry()
    assign_point(registry, 1, 0.0, 0.0, t=1.0, arc=10.0)
    assert registry.finalize_check(59.9, 2.0, None) == []
    assert registry.finalize_check(60.0, 2.0, None) == []
    records = registry.finalize_check(60.1, 2.0, None)
    assert len(records) == 1
    assert registry.active == {}


def test_member_detection_refreshes_finish_countdown():
    registry = SiteRegistry()
    assign_point(registry, 1, 0.0, 0.0, t=1.0, arc=0.0)
    registry.record_member_detections([1], timestamp=3.0, arc=30.0)
    assert registry.finalize_check(80.0, 4.0, None) == []
    assert len(registry.finalize_check(80.1, 4.0, None)) == 1


def test_record_contents_local_frame():
    registry = SiteRegistry()
    registry.assign(entry(1, BARRIER, [(0.0, 0.0), (10.0, 0.0)]), POSE, 1.5, 0.0)
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


# --- one cycle of upkeep ---


def test_finalize_check_returns_records_in_site_order():
    registry = SiteRegistry()
    for oid, arc in ((1, 5.0), (2, 30.0), (3, 0.0)):
        assign_point(registry, oid, 0.0, 10.0 * oid, arc=arc)
    records = registry.finalize_check(60.0, 2.0, None)
    assert [record.site_id for record in records] == [1, 3]
    assert list(registry.active) == [2]


def test_ghost_update_with_no_site_is_empty():
    assert SiteRegistry().ghost_update(visible_ids=[1, 2], pose=POSE) == []


# Member ids of the drawn registries and cycles: few, so that promoted
# objects, refreshed contours and matches hit members often.
MEMBER_ID = st.integers(1, 8)
SHORT_CONTOUR = st.lists(GRID_POINT, min_size=1, max_size=3)


@st.composite
def upkeep_cycles(draw):
    """(sites, finished, cycles): sites as (site id, arc position,
    [(object id, class, contour), ...]) in insertion order, of which the
    last ``finished`` are left only in the box cache; then per cycle the
    contours the tracker's update gives the objects in range, and the
    arguments of ``SiteRegistry.step``, as plain values."""
    site_ids = draw(st.lists(st.integers(1, 9), max_size=4, unique=True))
    sites = []
    for site_id in site_ids:
        members = draw(st.lists(st.tuples(MEMBER_ID, st.sampled_from(OBJECT_CLASSES),
                                          SHORT_CONTOUR), min_size=1, max_size=3))
        if draw(st.booleans()):
            members.append(members[0])  # a repeated member id
        sites.append((site_id, draw(st.sampled_from([0.0, 20.0, 40.0])), members))
    finished = draw(st.integers(0, len(sites)))
    cycles = []
    for _ in range(draw(st.integers(1, 4))):
        cycles.append((
            draw(st.dictionaries(MEMBER_ID, SHORT_CONTOUR, max_size=4)),
            draw(st.lists(st.tuples(MEMBER_ID, st.sampled_from(OBJECT_CLASSES), SHORT_CONTOUR),
                          max_size=3)),
            draw(st.lists(MEMBER_ID, max_size=4)),
            draw(st.sampled_from([0.0, 0.7, math.pi])),
            draw(st.sampled_from([0.0, 30.0, 60.0, 95.0])),
            draw(st.sampled_from([None, UtmAnchor(500000.0, 4000000.0, "32U")])),
        ))
    return sites, finished, cycles


def _upkeep_registry(sites, finished):
    """A registry holding ``sites``, with one entry per object id as the
    tracker keeps it; the box cache also holds the last ``finished`` of
    them, which the registry then no longer has."""
    registry = SiteRegistry()
    entries = {}
    for site_id, arc, members in sites:
        registry.active[site_id] = RoadworkSite(
            site_id, [entries.setdefault(oid, entry(oid, cls, contour))
                      for oid, cls, contour in members], 0.0, 0.0, arc)
        registry._next_site_id = max(registry._next_site_id, site_id + 1)
    registry.remove_nested()  # caches every site, if there are two or more
    for site_id, _, members in sites[len(sites) - finished:]:
        registry.active.pop(site_id, None)
        registry._boxes.setdefault(site_id, sites_module._SiteBox(
            list(members[0][2]), registry.hull_inflation + sites_module._BOX_SLACK))
    return registry


def _track(registry, world_contours):
    """What the tracker's update does to the members before the step: a
    member in ``world_contours`` takes its contour from there."""
    for site in registry.active.values():
        for member in site.members:
            if member.object_id in world_contours:
                member.world_contour = world_contours[member.object_id]


def _five_calls(registry, promoted, matched_ids, pose, timestamp, arc, anchor):
    """The calls ``SiteRegistry.step`` stands for, in its order."""
    for obj in promoted:
        registry.assign(obj, pose, timestamp, arc)
    registry.merge_split_sites(pose)
    registry.remove_nested()
    registry.record_member_detections(matched_ids, timestamp, arc)
    return registry.finalize_check(arc, timestamp, anchor)


def _upkeep_state(registry):
    return ([(site.site_id, [(m.object_id, m.object_class, m.world_contour) for m in site.members],
              site.stored_points(), site.start_time, site.last_detection_time,
              site.arc_position)
             for site in registry.active.values()],
            list(registry._boxes), registry._next_site_id)


_ONE_CYCLE = ({}, [], [], 0.0, 0.0, None)


@settings(max_examples=200)
@given(upkeep_cycles())
# no site, a cache entry of a finished one, nothing promoted
@example(([(1, 0.0, [(1, BARRIER, [(0.0, 0.0)])])], 1, [_ONE_CYCLE]))
# one site that holds a member id twice, then a promotion into no site
@example(([(1, 0.0, [(1, BARRIER, [(0.0, 0.0)]), (1, BARRIER, [(0.0, 0.0)])])], 0,
          [_ONE_CYCLE, ({}, [], [], 0.0, 60.0, None),
           ({}, [(2, TRAFFIC_CONE, [(1.0, 1.0)])], [2], 0.0, 60.0, None)]))
def test_step_is_its_five_calls_in_order(case):
    sites, finished, cycles = case
    registry = _upkeep_registry(sites, finished)
    expected = _upkeep_registry(sites, finished)
    assert _upkeep_state(registry) == _upkeep_state(expected)
    for k, (world, promoted, matched, heading, arc, anchor) in enumerate(cycles):
        pose = Pose2D(1.0, -2.0, heading)
        timestamp = 10.0 + k
        _track(registry, world)
        _track(expected, world)
        # Each registry gets entries of its own, as two trackers would give.
        objects, twins = ([entry(oid, cls, contour, timestamp) for oid, cls, contour in promoted]
                          for _ in range(2))
        records = registry.step(objects, iter(matched), pose, timestamp, arc, anchor)
        assert records == _five_calls(expected, twins, iter(matched), pose,
                                      timestamp, arc, anchor)
        assert _upkeep_state(registry) == _upkeep_state(expected)
