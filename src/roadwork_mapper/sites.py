"""Roadwork site dictionary: grouping promoted objects into measured sites.

Promoted objects are grouped by mutual separation measured in the
vehicle-trajectory frame (longitudinal along the heading, lateral
perpendicular to it).  Every member carries its latest full contour;
the head member (the rearmost along the heading) stores all of it and
every later member only its last point, which is enough to trace a
smooth site outline during the drive-by.  Sites that were split by a
late-arriving bridging object are merged, sites fully inside another
site's hull are dropped, and a site is finished once the vehicle has
driven far enough past its last detection.

``SiteRegistry.step`` runs one cycle of this upkeep and is the one place
that holds its order; ghosts are not part of it, but answered by
``ghost_update`` when a frame is annotated.  A member keeps the caller's
contour sequence itself, as the tracker does: nothing changes a contour in
place, so sharing it is safe.

A step that its inputs make a no-op returns at once: ``step`` with no
active site and nothing promoted, ``merge_split_sites`` and
``remove_nested`` with fewer than two sites, ``ghost_update`` with no
active site, and ``finalize_check`` when no site is finished.  Each call
decides this from the registry and its arguments as they are at that
call, never from an earlier one, so a sparse drive's empty cycles cost
little and the rules below hold as they are written.

The registry keeps one box cache, keyed by site id: each site's stored
points as last seen, their bounding box, and whether a nested-site
removal has tested the site since those points were written.  A site is
changed when it has no entry, when its stored points differ in value from
the entry's, or when it has not been tested since.  Nested-site removal
rebuilds the cache from the current sites on every call and re-tests only
pairs with a changed site: after a call no surviving site lies inside
another, and the hull test depends on nothing but the two point lists and
the hull inflation.  ``assign`` reads and refreshes the same boxes (a box
it refreshes stays untested) to skip sites too far from a new object to
qualify.  No other code touches the cache, and a site's entry is trusted
only while its points are equal in value, so sites may be changed, added
or removed in any way between calls.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from operator import sub
from typing import Iterable, Mapping, Sequence

from .detections import BARRIER, TRAFFIC_CONE
from .geometry import (
    Point2,
    Pose2D,
    UtmAnchor,
    convex_hull,
    distance_to_convex_polygon,
    local_to_utm,
    point_to_axis_distance,
)
from .records import Record
from .tracking import TrackedObject


class SeparationPolicy(Record):
    """Maximum member separations for two objects to share a site, meters."""

    __slots__ = ("panel_panel_longitudinal", "barrier_barrier_longitudinal",
                 "barrier_other_longitudinal", "lateral")

    def __init__(self, panel_panel_longitudinal: float = 12.0,
                 barrier_barrier_longitudinal: float = 2.0,
                 barrier_other_longitudinal: float = 6.0, lateral: float = 1.5) -> None:
        self.panel_panel_longitudinal = panel_panel_longitudinal
        self.barrier_barrier_longitudinal = barrier_barrier_longitudinal
        self.barrier_other_longitudinal = barrier_other_longitudinal
        self.lateral = lateral

    def longitudinal_for(self, class_a: str, class_b: str) -> float:
        a_barrier = class_a == BARRIER
        b_barrier = class_b == BARRIER
        if a_barrier and b_barrier:
            return self.barrier_barrier_longitudinal
        if a_barrier or b_barrier:
            return self.barrier_other_longitudinal
        return self.panel_panel_longitudinal


# Meters behind the vehicle within which an out-of-view member is still
# drawn as a ghost in frame annotations.
GHOST_RETENTION = 15.0

# Meters of vehicle path without member detections after which a site is
# considered finished.
FINALIZE_DISTANCE = 50.0

# Meters by which a site's convex hull is grown when deciding whether
# another site lies inside it.
HULL_INFLATION = 1.5

# Extra meters on the bounding-box prefilters of nested-site removal and
# ``assign``, so that rounding never keeps a borderline pair from the
# exact test.
_BOX_SLACK = 1e-6


class SiteMember(Record):
    __slots__ = ("object_id", "object_class", "contour", "points")
    __hash__ = None  # its fields change

    def __init__(self, object_id: int, object_class: str, contour: Sequence[Point2]) -> None:
        self.object_id = object_id
        self.object_class = object_class
        self.contour = contour  # latest full world contour, the caller's sequence
        # The contour for the head member, [its last point] otherwise.
        self.points = contour


class RoadworkSite(Record):
    __slots__ = ("site_id", "members", "start_time", "last_detection_time", "arc_position")
    __hash__ = None  # its fields change

    def __init__(self, site_id: int, members: list[SiteMember], start_time: float,
                 last_detection_time: float, arc_position: float) -> None:
        self.site_id = site_id
        self.members = members
        self.start_time = start_time
        self.last_detection_time = last_detection_time
        self.arc_position = arc_position  # vehicle arc length at the last member detection

    def member_ids(self) -> list[int]:
        return [m.object_id for m in self.members]

    def stored_points(self) -> list[Point2]:
        out: list[Point2] = []
        for member in self.members:
            out.extend(member.points)
        return out

    def class_counts(self) -> dict[str, int]:
        return dict(Counter(m.object_class for m in self.members))


class _SiteBox:
    """A site's stored points as last seen, their bounding box, and whether
    nested-site removal has tested the site since the entry was written."""

    __slots__ = ("points", "x0", "y0", "x1", "y1", "tested")

    def __init__(self, points: list[Point2]) -> None:
        xs, ys = zip(*points)
        self.points = points
        self.x0 = min(xs)
        self.y0 = min(ys)
        self.x1 = max(xs)
        self.y1 = max(ys)
        self.tested = False


def _current_box(cache: Mapping[int, _SiteBox], site_id: int,
                 points: list[Point2]) -> _SiteBox:
    """The cached box of a site whose stored points are ``points``, or a new
    untested one if the entry is missing or its points differ in value."""
    box = cache.get(site_id)
    if box is None or box.points != points:
        box = _SiteBox(points)
    return box


class SiteDimensions(Record):
    """Length along the dominant axis and depth orthogonal to it."""

    __slots__ = ("length", "depth", "axis_start", "axis_end")

    def __init__(self, length: float, depth: float, axis_start: Point2,
                 axis_end: Point2) -> None:
        self.length = length
        self.depth = depth
        self.axis_start = axis_start
        self.axis_end = axis_end


def site_dimensions(site: RoadworkSite) -> SiteDimensions:
    """Measure a site from its stored points.

    The reference point is the first stored point of the head member's
    contour; length is the largest distance from it, depth the largest
    orthogonal distance from the resulting axis.
    """
    points = site.stored_points()
    first = site.members[0].points[0]
    far = max(points, key=lambda p: math.dist(first, p))
    length = math.dist(first, far)
    if length == 0.0:
        return SiteDimensions(0.0, 0.0, first, far)
    depth = max(point_to_axis_distance(p, first, far) for p in points)
    return SiteDimensions(length, depth, first, far)


class SiteRecord(Record):
    """Finished site in output form."""

    __slots__ = ("site_id", "raw_polygon", "hull_polygon", "length", "depth", "class_counts",
                 "start_time", "end_time", "frame", "utm_zone")

    def __init__(self, site_id: int, raw_polygon: tuple[Point2, ...],
                 hull_polygon: tuple[Point2, ...], length: float, depth: float,
                 class_counts: dict[str, int], start_time: float, end_time: float,
                 frame: str, utm_zone: str | None) -> None:
        self.site_id = site_id
        self.raw_polygon = raw_polygon
        self.hull_polygon = hull_polygon
        self.length = length
        self.depth = depth
        self.class_counts = class_counts
        self.start_time = start_time
        self.end_time = end_time
        self.frame = frame  # "utm" or "local"
        self.utm_zone = utm_zone


def _separation(
    points_a: Sequence[Point2], points_b: Sequence[Point2], c: float, s: float
) -> tuple[float, float, float]:
    """(euclidean, longitudinal, lateral) between the nearest point pair,
    along and across a heading of cosine ``c`` and sine ``s``."""
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
    return best, abs(dx * c + dy * s), abs(-dx * s + dy * c)


def _member_longitudinal(points: Sequence[Point2], pose: Pose2D) -> float:
    c = math.cos(pose.heading)
    s = math.sin(pose.heading)
    return sum((x - pose.x) * c + (y - pose.y) * s for x, y in points) / len(points)


def _apply_head_rule(members: Sequence[SiteMember]) -> None:
    """The head member stores its full contour, every other member its last point."""
    head = members[0]
    head.points = head.contour
    for member in members[1:]:
        member.points = member.contour[-1:]


def _rank(members: list[SiteMember], pose: Pose2D) -> list[SiteMember]:
    """``members`` sorted rear to front along the heading, by their stored
    points, under the head rule."""
    members.sort(key=lambda m: _member_longitudinal(m.points, pose))
    _apply_head_rule(members)
    return members


class SiteRegistry:
    """Active roadwork sites of one session."""

    def __init__(
        self,
        separation: SeparationPolicy = SeparationPolicy(),
        ghost_retention: float = GHOST_RETENTION,
        finalize_distance: float = FINALIZE_DISTANCE,
        hull_inflation: float = HULL_INFLATION,
    ):
        self.separation = separation
        self.ghost_retention = ghost_retention
        self.finalize_distance = finalize_distance
        self.hull_inflation = hull_inflation
        self.active: dict[int, RoadworkSite] = {}
        self._next_site_id = 1
        # The box cache (see the module docstring), and the hull inflation
        # its tested flags hold for.
        self._boxes: dict[int, _SiteBox] = {}
        self._tested_inflation: float | None = None

    def step(self, world_contours: Mapping[int, Sequence[Point2]],
             promoted: Sequence[TrackedObject], matched_ids: Iterable[int],
             pose: Pose2D, timestamp: float, arc: float,
             anchor: UtmAnchor | None) -> list[SiteRecord]:
        """One cycle of site upkeep; returns the sites finished in it.

        ``world_contours`` holds the cycle's in-range objects and
        ``matched_ids`` the ids the detector matched.  The order is part of
        the output: each call reads what the ones before it stored.  With
        no active site and nothing promoted, every call is a no-op but
        nested-site removal's emptying of the box cache, so that is all
        this does.
        """
        if not self.active and not promoted:
            self._boxes = {}
            return []
        self.refresh_members(world_contours)
        for obj in promoted:
            assert obj.object_class is not None  # promotion implies a CNN match
            self.assign(obj.object_id, obj.object_class, obj.world_contour,
                        pose, timestamp, arc)
        self.merge_split_sites(pose)
        self.remove_nested()
        self.record_member_detections(matched_ids, timestamp, arc)
        return self.finalize_check(arc, timestamp, anchor)

    # -- membership ----------------------------------------------------

    def assign(
        self,
        object_id: int,
        object_class: str,
        contour: Sequence[Point2],
        pose: Pose2D,
        timestamp: float,
        arc: float,
    ) -> int:
        """Insert a newly promoted object into the site dictionary.

        The object joins every site holding a member within the class
        separation limits (joining several sites marks them for the
        split-site merge); with no qualifying site it founds a new one.
        Returns the id of the nearest joined site or of the new site.

        A qualifying member point lies within ``hypot(longitudinal limit,
        lateral limit)`` of a contour point, so a site whose cached box is
        farther than that (grown by 1e-9 of it and ``_BOX_SLACK`` for
        rounding) from the contour's box along x or y cannot qualify and is
        skipped.  The gaps are differences of coordinates, so their rounding
        is relative to the gap, whatever the coordinates' size.  A site is
        skipped only when a gap compares greater, so a NaN or infinite limit,
        which only a direct caller can pass (a session config's separations
        are finite), skips none.  A box refreshed here stays untested for
        nested-site removal.  The new member keeps ``contour`` itself, not a
        copy.
        """
        c = math.cos(pose.heading)
        s = math.sin(pose.heading)
        policy = self.separation
        # The longest limit this object can have: to a barrier or to any other class.
        longest = max(policy.longitudinal_for(object_class, BARRIER),
                      policy.longitudinal_for(object_class, TRAFFIC_CONE))
        reach = math.hypot(longest, policy.lateral) * (1.0 + 1e-9) + _BOX_SLACK
        xs, ys = zip(*contour)
        cx0, cy0, cx1, cy1 = min(xs), min(ys), max(xs), max(ys)
        boxes = self._boxes
        qualified: list[tuple[float, int]] = []
        for site in self.active.values():
            box = boxes[site.site_id] = _current_box(boxes, site.site_id,
                                                     site.stored_points())
            if (box.x0 - cx1 > reach or cx0 - box.x1 > reach
                    or box.y0 - cy1 > reach or cy0 - box.y1 > reach):
                continue
            best = None
            for member in site.members:
                dist, lon, lat = _separation(contour, member.points, c, s)
                limit = self.separation.longitudinal_for(object_class, member.object_class)
                if lon <= limit and lat <= self.separation.lateral:
                    if best is None or dist < best:
                        best = dist
            if best is not None:
                qualified.append((best, site.site_id))

        if not qualified:
            site = RoadworkSite(
                site_id=self._next_site_id,
                members=[SiteMember(object_id, object_class, contour)],
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
            site.members = _rank(
                site.members + [SiteMember(object_id, object_class, contour)], pose)
            site.last_detection_time = timestamp
            site.arc_position = arc
        return qualified[0][1]

    def merge_split_sites(self, pose: Pose2D) -> None:
        """Unify sites sharing an object id, repeating until stable.  With
        fewer than two sites no id is shared, so the call returns at once."""
        if len(self.active) < 2:
            return
        while True:
            owner: dict[int, int] = {}
            merge_pair = None
            for site in self.active.values():
                for oid in site.member_ids():
                    if oid in owner and owner[oid] != site.site_id:
                        merge_pair = (owner[oid], site.site_id)
                        break
                    owner[oid] = site.site_id
                if merge_pair:
                    break
            if not merge_pair:
                return
            keep_id, drop_id = sorted(merge_pair)
            self._merge_into(self.active[keep_id], self.active.pop(drop_id), pose)

    def _merge_into(
        self, target: RoadworkSite, source: RoadworkSite, pose: Pose2D
    ) -> None:
        seen = set()
        members = []
        for member in target.members + source.members:
            if member.object_id in seen:
                continue
            seen.add(member.object_id)
            members.append(member)
        target.members = _rank(members, pose)
        target.start_time = min(target.start_time, source.start_time)
        target.last_detection_time = max(
            target.last_detection_time, source.last_detection_time
        )
        target.arc_position = max(target.arc_position, source.arc_position)

    def remove_nested(self) -> list[int]:
        """Drop sites whose points all lie inside another site's inflated hull.

        Sites are visited in insertion order and tested against every other
        site not dropped yet; under mutual containment the site with more
        members wins, then the lower id.  Returns the dropped ids in the
        order they were dropped.

        A pair reaches the exact hull test only if the inner site's bounding
        box lies inside the outer site's box grown by ``hull_inflation``.
        This never drops a nested pair: the hull lies inside its bounding
        box, so a point more than ``hull_inflation`` outside the box is also
        more than that from the hull.  Each outer hull is built at most once
        per call, and only for a pair that passes the box test.

        Only pairs with a changed site (see the module docstring) are
        tested: a changed inner site against every box that holds its box,
        an unchanged one against the changed ones only.  After a call no
        surviving site lies inside another (a mutual loser is dropped
        whichever of the two is visited first), and the hull test reads the
        two point lists only through comparisons, sums, products and
        ``hypot``, on which -0.0 and 0.0 act alike; so two sites whose points
        are equal in value to those a call kept are not nested now, and
        skipping their test keeps every drop.  Points compare with ``==``,
        which takes an object as equal to itself, NaN too; the test then
        reads the very same values.  With no changed site the call returns
        at once; with fewer than two sites nothing can be nested and the
        cache is emptied.
        """
        if len(self.active) < 2:
            self._boxes = {}
            return []
        sites = list(self.active.values())
        points = [site.stored_points() for site in sites]
        # A tested flag holds only for the inflation it was tested under.
        cached = self._boxes if self._tested_inflation == self.hull_inflation else {}
        boxes = [_current_box(cached, site.site_id, pts) for site, pts in zip(sites, points)]
        self._boxes = {site.site_id: box for site, box in zip(sites, boxes)}
        self._tested_inflation = self.hull_inflation
        changed = [not box.tested for box in boxes]
        if True not in changed:
            return []
        for box in boxes:
            box.tested = True

        grow = self.hull_inflation + _BOX_SLACK
        # Each site's box (x0, y0)-(x1, y1), grown by ``grow``.
        gx0 = [box.x0 - grow for box in boxes]
        gy0 = [box.y0 - grow for box in boxes]
        gx1 = [box.x1 + grow for box in boxes]
        gy1 = [box.y1 + grow for box in boxes]

        # holders[i]: in index order, the candidate outer sites whose grown
        # box holds the box of site i: every site for a changed site i, the
        # changed ones for an unchanged site i.  Only grown boxes starting
        # in [x1 - reach, x0] of a box can hold it: a holder ends at or
        # after that x1, and no grown box is wider than ``reach``, the
        # widest rounded width plus more than its rounding error.  The
        # window's upper end is the x0 comparison itself, so the filter
        # makes the other three.
        every = sorted(range(len(sites)), key=gx0.__getitem__)
        # (candidates in start order, their starts), indexed by changed[i]
        outers = [(order, [gx0[j] for j in order])
                  for order in ([j for j in every if changed[j]], every)]
        reach = max(map(sub, gx1, gx0)) * (1.0 + 1e-9)
        holders = []
        for i, box in enumerate(boxes):
            xi1, yi0, yi1 = box.x1, box.y0, box.y1
            order, starts = outers[changed[i]]
            window = order[bisect_left(starts, xi1 - reach):bisect_right(starts, box.x0)]
            holders.append(sorted(j for j in window if yi0 >= gy0[j] and xi1 <= gx1[j]
                                  and yi1 <= gy1[j] and j != i))

        hulls: dict[int, list[Point2]] = {}
        removed: list[int] = []
        # Each inner site's candidate outers in turn, as a row-major walk
        # of the (inner, outer) box matrix.
        for i, site in enumerate(sites):
            for j in holders[i]:
                other = sites[j]
                if other.site_id in removed:
                    continue
                if not self._hull_contains(points, hulls, i, j):
                    continue
                if i in holders[j] and self._hull_contains(points, hulls, j, i):
                    # Mutual containment: more members wins, then lower id.
                    if (len(other.members), -other.site_id) < (
                        len(site.members),
                        -site.site_id,
                    ):
                        continue
                removed.append(site.site_id)
                break
        for site_id in removed:
            del self.active[site_id]
            del self._boxes[site_id]
        return removed

    def _hull_contains(
        self,
        points: list[list[Point2]],
        hulls: dict[int, list[Point2]],
        inner: int,
        outer: int,
    ) -> bool:
        """Whether all points of site ``inner`` lie within ``hull_inflation``
        of the hull of site ``outer``; the hull is built once into ``hulls``."""
        if outer not in hulls:
            hulls[outer] = convex_hull(points[outer])
        hull = hulls[outer]
        return all(
            distance_to_convex_polygon(p, hull) <= self.hull_inflation for p in points[inner]
        )

    # -- per-frame upkeep ----------------------------------------------

    def refresh_members(self, world_contours: Mapping[int, Sequence[Point2]]) -> None:
        """Give members still visible to the LiDAR their contour from
        ``world_contours``, the very sequence, not a copy."""
        for site in self.active.values():
            for member in site.members:
                contour = world_contours.get(member.object_id)
                if contour:
                    member.contour = contour
            _apply_head_rule(site.members)

    def record_member_detections(
        self, matched_ids: Iterable[int], timestamp: float, arc: float
    ) -> None:
        """Refresh the finish countdown of sites whose members got re-detected."""
        matched = set(matched_ids)
        if not matched:
            return
        for site in self.active.values():
            if matched.intersection(site.member_ids()):
                site.last_detection_time = timestamp
                site.arc_position = arc

    def ghost_update(self, visible_ids: Iterable[int],
                     pose: Pose2D) -> list[tuple[int, str, int]]:
        """The members that left the image but are still just behind us, as
        ``(object id, class, site id)``, site by site in member order."""
        if not self.active:
            return []
        visible = set(visible_ids)
        c = math.cos(pose.heading)
        s = math.sin(pose.heading)
        ghosts = []
        for site in self.active.values():
            for member in site.members:
                if member.object_id in visible:
                    continue
                px, py = member.points[-1]
                longitudinal = (px - pose.x) * c + (py - pose.y) * s
                if -self.ghost_retention <= longitudinal <= 0.0:
                    ghosts.append((member.object_id, member.object_class, site.site_id))
        return ghosts

    # -- finishing -----------------------------------------------------

    def finalize_check(
        self, arc: float, timestamp: float, anchor: UtmAnchor | None
    ) -> list[SiteRecord]:
        """Finish sites the vehicle has fully driven past; returns their
        records in the registry's order.  A first pass looks for one such
        site, so a cycle that finishes none builds no list."""
        for site in self.active.values():
            if arc - site.arc_position > self.finalize_distance:
                break
        else:
            return []
        return [self._build_record(self.active.pop(site_id), timestamp, anchor)
                for site_id in [sid for sid, site in self.active.items()
                                if arc - site.arc_position > self.finalize_distance]]

    def _build_record(
        self, site: RoadworkSite, timestamp: float, anchor: UtmAnchor | None
    ) -> SiteRecord:
        raw = site.stored_points()
        hull = convex_hull(raw)
        dims = site_dimensions(site)
        if anchor is not None:
            raw = [local_to_utm(p, anchor) for p in raw]
            hull = [local_to_utm(p, anchor) for p in hull]
        return SiteRecord(
            site_id=site.site_id,
            raw_polygon=tuple(raw),
            hull_polygon=tuple(hull),
            length=dims.length,
            depth=dims.depth,
            class_counts=site.class_counts(),
            start_time=site.start_time,
            end_time=site.last_detection_time,
            frame="utm" if anchor is not None else "local",
            utm_zone=anchor.zone if anchor is not None else None,
        )
