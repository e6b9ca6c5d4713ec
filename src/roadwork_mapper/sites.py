"""Roadwork site dictionary: grouping promoted objects into measured sites.

Promoted objects are grouped by mutual separation measured in the
vehicle-trajectory frame (longitudinal along the heading, lateral
perpendicular to it).  A member is the tracker's own ``TrackedObject``, so
its contour and class are the tracker's: the latest full world contour and
the latest matched class, which the tracker sets from each frame before the
registry's upkeep runs.  Promoted entries are never evicted, and the
tracker is reset only when no site is active, so a member's entry is never
replaced while its site lives.  A site's points follow the head rule,
read from member order wherever points are used: the head member (the
rearmost along the heading as of the last join or fold) gives all of its
contour and every later member only its last point, which is enough to
trace a smooth site outline during the drive-by.  An object that joins
several sites bridges them, and they fold into one at once, so every
object is a member of one site at most; sites fully inside another site's
hull are dropped, and a site is finished once the vehicle has driven far
enough past its last detection.

``SiteRegistry.step`` runs one cycle of this upkeep and is the one place
that holds its order; each rule has one home in it: ``assign`` joins and
folds, ``remove_nested`` drops nested sites, and ``finalize_check``
refreshes and finishes.  Ghosts are not part of it, but answered by
``ghost_update`` for each frame's annotation.  The registry never changes a
member: it reads the entry's id, contour and class only.  Nothing changes a
contour in place, so sharing it is safe.  The registry's settings are fixed
once it is built.

A step that its inputs make a no-op returns at once: ``step`` with no
active site and nothing promoted, ``remove_nested`` with fewer than two
sites and ``ghost_update`` with no active site.  Each call decides this
from the registry and its arguments as they are at that call, never from
an earlier one, so a sparse drive's empty cycles cost little and the rules
below hold as they are written.

The registry keeps one box cache, keyed by site id, which belongs to
nested-site removal alone: an entry is a site's stored points and their
bounding box, plain and grown, as the last call saw them.  A site has
changed when it has no entry or its stored points differ in value from the
entry's.  Each call rebuilds the cache from the current sites and re-tests
only pairs with a changed site, found by one filter over the sites in
index order: after a call no surviving site lies inside another, and the
hull test depends on nothing but the two point lists and the fixed hull
inflation.  A site's entry is trusted only while its points are equal in
value, so sites may be changed, added or removed in any way between calls.
"""
from __future__ import annotations

import math
from collections import Counter
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .detections import BARRIER
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

# Extra meters on nested-site removal's bounding-box prefilter, so that
# rounding never keeps a borderline pair from the exact hull test.
_BOX_SLACK = 1e-6


class RoadworkSite(Record):
    __slots__ = ("site_id", "members", "start_time", "last_detection_time", "arc_position")

    def __init__(self, site_id: int, members: list[TrackedObject], start_time: float,
                 last_detection_time: float, arc_position: float) -> None:
        self.site_id = site_id
        self.members = members  # the tracker's promoted entries, rear to front
        self.start_time = start_time
        self.last_detection_time = last_detection_time
        self.arc_position = arc_position  # vehicle arc length at the last member detection

    def member_ids(self) -> list[int]:
        return [m.object_id for m in self.members]

    def stored_points(self) -> list[Point2]:
        """The head rule: the head member's contour, then each later
        member's last point."""
        out = list(self.members[0].world_contour)
        for member in self.members[1:]:
            out.append(member.world_contour[-1])
        return out

    def class_counts(self) -> dict[str, int]:
        return dict(Counter(m.object_class for m in self.members))


def _stored(members: Iterable[TrackedObject]) -> Iterator[tuple[TrackedObject, Sequence[Point2]]]:
    """Each of ``members`` with the points it stores under the head rule:
    the head all of its contour, every later member its last point."""
    for index, member in enumerate(members):
        yield member, member.world_contour if index == 0 else member.world_contour[-1:]


class _SiteBox:
    """A site's stored points as nested-site removal last saw them, their
    bounding box (x0, y0)-(x1, y1), and that box grown by ``grow`` on every
    side, (gx0, gy0)-(gx1, gy1)."""

    __slots__ = ("points", "x0", "y0", "x1", "y1", "gx0", "gy0", "gx1", "gy1")

    def __init__(self, points: list[Point2], grow: float) -> None:
        xs, ys = zip(*points)
        self.points = points
        self.x0 = min(xs)
        self.y0 = min(ys)
        self.x1 = max(xs)
        self.y1 = max(ys)
        self.gx0 = self.x0 - grow
        self.gy0 = self.y0 - grow
        self.gx1 = self.x1 + grow
        self.gy1 = self.y1 + grow


def site_dimensions(site: RoadworkSite) -> tuple[float, float]:
    """(length, depth) of a site from its stored points.

    The reference point is the first point of the head member's contour;
    length is the largest distance from it along the dominant axis, depth
    the largest orthogonal distance from that axis.
    """
    points = site.stored_points()
    first = site.members[0].world_contour[0]
    far = max(points, key=lambda p: math.dist(first, p))
    length = math.dist(first, far)
    if length == 0.0:
        return 0.0, 0.0
    return length, max(point_to_axis_distance(p, first, far) for p in points)


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
) -> tuple[float, float]:
    """(longitudinal, lateral) between the nearest point pair, along and
    across a heading of cosine ``c`` and sine ``s``."""
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
    return abs(dx * c + dy * s), abs(-dx * s + dy * c)


def _rank(groups: Iterable[Sequence[TrackedObject]], pose: Pose2D) -> list[TrackedObject]:
    """The members of ``groups``, the first of each object id only, sorted
    rear to front along the heading.  Each is keyed by the points it stored
    in its own group under the head rule: all of its contour if it heads
    the group, its last point otherwise."""
    c = math.cos(pose.heading)
    s = math.sin(pose.heading)
    seen = set()
    ranked = []
    for group in groups:
        for member, stored in _stored(group):
            if member.object_id not in seen:
                seen.add(member.object_id)
                longitudinal = sum((x - pose.x) * c + (y - pose.y) * s
                                   for x, y in stored) / len(stored)
                ranked.append((longitudinal, member))
    ranked.sort(key=itemgetter(0))  # stable: equal keys keep their order
    return [member for _, member in ranked]


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
        self._boxes: dict[int, _SiteBox] = {}  # the box cache (see the module docstring)

    def step(self, promoted: Sequence[TrackedObject], matched_ids: Iterable[int],
             pose: Pose2D, timestamp: float, arc: float,
             anchor: UtmAnchor | None) -> list[SiteRecord]:
        """One cycle of site upkeep, after the tracker's update of the same
        cycle; returns the sites finished in it.

        ``promoted`` holds the entries the tracker promoted in this cycle
        and ``matched_ids`` the ids the detector matched.  The rules run in
        this order: each promotion joins its sites in turn, then nested
        sites are dropped, then countdowns are refreshed and sites
        finished.  The order is part of the output: each call reads what
        the ones before it stored.  With no active site and nothing
        promoted, every call is a no-op but nested-site removal's emptying
        of the box cache, so that is all this does.
        """
        if not self.active and not promoted:
            self._boxes = {}
            return []
        for obj in promoted:
            self.assign(obj, pose, timestamp, arc)
        self.remove_nested()
        return self.finalize_check(matched_ids, arc, timestamp, anchor)

    # -- membership ----------------------------------------------------

    def assign(self, obj: TrackedObject, pose: Pose2D, timestamp: float, arc: float) -> None:
        """Insert a newly promoted tracker entry into the site dictionary.

        The object joins every site holding a member within the class
        separation limits; with no qualifying site it founds a new one.
        Sites it joined fold at once into the one with the lowest id, in
        ascending id order: members ranked together, the earliest start,
        the latest detection and the largest arc.  The entry itself becomes
        the member, not a copy; a site that already holds its id keeps its
        own member.
        """
        contour, object_class = obj.world_contour, obj.object_class
        c = math.cos(pose.heading)
        s = math.sin(pose.heading)
        qualified: list[int] = []
        for site in self.active.values():
            for member, stored in _stored(site.members):
                lon, lat = _separation(contour, stored, c, s)
                limit = self.separation.longitudinal_for(object_class, member.object_class)
                if lon <= limit and lat <= self.separation.lateral:
                    qualified.append(site.site_id)
                    break

        if not qualified:
            self.active[self._next_site_id] = RoadworkSite(
                site_id=self._next_site_id,
                members=[obj],
                start_time=timestamp,
                last_detection_time=timestamp,
                arc_position=arc,
            )
            self._next_site_id += 1
            return

        for site_id in qualified:
            site = self.active[site_id]
            site.members = _rank((site.members, [obj]), pose)
            site.last_detection_time = timestamp
            site.arc_position = arc
        keep_id, *drop_ids = sorted(qualified)
        target = self.active[keep_id]
        for drop_id in drop_ids:
            source = self.active.pop(drop_id)
            target.members = _rank((target.members, source.members), pose)
            target.start_time = min(target.start_time, source.start_time)
            target.last_detection_time = max(target.last_detection_time,
                                             source.last_detection_time)
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
        more than that from the hull.  One filter over the candidate outer
        sites, in index order, makes the four box comparisons.  Each outer
        hull is built at most once per call, and only for a pair that
        passes the box test.

        Only pairs with a changed site (see the module docstring) are
        tested: a changed inner site against every box that holds its box,
        an unchanged one against the changed ones only.  After a call no
        surviving site lies inside another (a mutual loser is dropped
        whichever of the two is visited first), and the hull test reads the
        two point lists only through comparisons, sums, products and
        ``hypot``, on which -0.0 and 0.0 act alike; so two sites whose points
        are equal in value to those a call kept are not nested now, and
        skipping their test keeps every drop.  With no changed site the call
        returns at once; with fewer than two sites nothing can be nested and
        the cache is emptied.
        """
        if len(self.active) < 2:
            self._boxes = {}
            return []
        sites = list(self.active.values())
        points = [site.stored_points() for site in sites]
        cache = self._boxes
        grow = self.hull_inflation + _BOX_SLACK
        boxes, changed = [], []
        for site, pts in zip(sites, points):
            box = cache.get(site.site_id)
            changed.append(box is None or box.points != pts)
            boxes.append(_SiteBox(pts, grow) if changed[-1] else box)
        self._boxes = {site.site_id: box for site, box in zip(sites, boxes)}
        if True not in changed:
            return []

        # holders[i]: in index order, the candidate outer sites whose grown
        # box holds the box of site i: every site for a changed site i, the
        # changed ones for an unchanged site i.
        outers = ([j for j, c in enumerate(changed) if c], range(len(sites)))
        holders = []
        for i, box in enumerate(boxes):
            x0, y0, x1, y1 = box.x0, box.y0, box.x1, box.y1
            holders.append([j for j in outers[changed[i]] if (o := boxes[j]).gx0 <= x0
                            and o.gy0 <= y0 and x1 <= o.gx1 and y1 <= o.gy1 and j != i])

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
                px, py = member.world_contour[-1]
                longitudinal = (px - pose.x) * c + (py - pose.y) * s
                if -self.ghost_retention <= longitudinal <= 0.0:
                    ghosts.append((member.object_id, member.object_class, site.site_id))
        return ghosts

    # -- finishing -----------------------------------------------------

    def finalize_check(
        self, matched_ids: Iterable[int], arc: float, timestamp: float,
        anchor: UtmAnchor | None
    ) -> list[SiteRecord]:
        """Refresh the finish countdown of each site with a member matched
        this cycle, and finish every other site the vehicle has driven more
        than ``finalize_distance`` past; returns the finished sites'
        records in the registry's order."""
        matched = set(matched_ids)
        finished = []
        for site in self.active.values():
            if matched and not matched.isdisjoint(site.member_ids()):
                site.last_detection_time = timestamp
                site.arc_position = arc
            elif arc - site.arc_position > self.finalize_distance:
                finished.append(site.site_id)
        return [self._build_record(self.active.pop(site_id), timestamp, anchor)
                for site_id in finished]

    def _build_record(
        self, site: RoadworkSite, timestamp: float, anchor: UtmAnchor | None
    ) -> SiteRecord:
        raw = site.stored_points()
        hull = convex_hull(raw)
        length, depth = site_dimensions(site)
        if anchor is not None:
            raw = [local_to_utm(p, anchor) for p in raw]
            hull = [local_to_utm(p, anchor) for p in hull]
        return SiteRecord(
            site_id=site.site_id,
            raw_polygon=tuple(raw),
            hull_polygon=tuple(hull),
            length=length,
            depth=depth,
            class_counts=site.class_counts(),
            start_time=site.start_time,
            end_time=site.last_detection_time,
            frame="utm" if anchor is not None else "local",
            utm_zone=anchor.zone if anchor is not None else None,
        )
