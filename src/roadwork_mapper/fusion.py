"""Frame-level matching of CNN detections to LiDAR contour boxes.

Both sensors describe the same objects in image space, so a detection
and a contour box belong together when they overlap strongly.  Several
contour boxes can overlap one detection (objects partially occluding
each other project close together); the bottom edge breaks the tie
because the contour bottom line of the truly matching object sits on
the detection's lower box edge.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import itemgetter
from typing import Sequence

from .detections import BARRIER, Detection
from .lidar import ContourBoxImage
from .records import Record


class MatchParams(Record):
    __slots__ = ("iou_threshold", "size_ratio_limit", "tracking_range")

    def __init__(self, iou_threshold: float = 0.5, size_ratio_limit: float = 2.0,
                 tracking_range: float = 50.0) -> None:
        self.iou_threshold = iou_threshold  # overlap must exceed this (strict)
        self.size_ratio_limit = size_ratio_limit  # contour box area vs detection area
        self.tracking_range = tracking_range  # meters; objects beyond are ignored


class Match(Record):
    """An accepted detection/contour pairing within one frame."""

    __slots__ = ("detection_index", "object_id", "object_class", "confidence", "iou",
                 "bottom_gap")

    def __init__(self, detection_index: int, object_id: int, object_class: str,
                 confidence: float, iou: float, bottom_gap: float) -> None:
        self.detection_index = detection_index
        self.object_id = object_id
        self.object_class = object_class
        self.confidence = confidence
        self.iou = iou
        self.bottom_gap = bottom_gap


def _bottom_y(box: ContourBoxImage) -> float:
    """Mean image row of the contour bottom line, or the box's lower edge."""
    if box.bottom_line:
        return sum(v for _, v in box.bottom_line) / len(box.bottom_line)
    return box.box.y_max


def match_frame(
    detections: Sequence[Detection],
    boxes: Sequence[ContourBoxImage],
    params: MatchParams = MatchParams(),
) -> list[Match]:
    """Greedy one-to-one assignment, most confident detections first.

    A contour box is a candidate for a detection when their IoU exceeds
    ``iou_threshold``, which lies in [0, 1], and, unless the detection is
    a barrier, the box is at most ``size_ratio_limit`` times the
    detection's area (an oversized box means the LiDAR merged several
    objects; barriers really are long).  Each detection takes the
    remaining candidate with the smallest bottom gap; ties fall back to
    higher IoU, then lower object id.

    The boxes come from ``lidar.build_contour_boxes``: their corners are
    finite and inside the image, and their bottom rows are finite; the
    stream reader holds detection corners to finite numbers too.  Box
    corners, areas and bottom rows are read once per frame, and each IoU
    is computed inline with the float operations of ``geometry.iou``, so
    it matches that function exactly.

    A pair that does not overlap in x or y has IoU 0, which the threshold
    rejects, so it is skipped.  So the boxes are sorted by left edge once,
    with the running maximum of their right edges, and a detection visits
    only the boxes from the first whose running maximum passes its left
    edge up to the last whose left edge lies before its right edge: every
    box before that range ends at or before the detection's left edge, and
    every box after it starts at or after its right edge.  The range is
    found by comparisons alone, and it never holds more than the boxes
    whose left edge lies in ``[x_min - widest box, x_max)``.  Every IoU,
    bottom gap and key is a number and a key ends with the object id, so
    the smallest key does not depend on the order of the visit.
    """
    if not detections or not boxes:
        return []
    threshold = params.iou_threshold
    candidates = []
    for b in boxes:
        p = b.box
        candidates.append((p.x_min, p.y_min, p.x_max, p.y_max, p.area(), _bottom_y(b),
                           b.object_id))
    by_left = sorted(candidates, key=itemgetter(0))
    lefts = [c[0] for c in by_left]
    reach = list(accumulate([c[2] for c in by_left], max))

    order = sorted(range(len(detections)), key=lambda i: (-detections[i].confidence, i))
    taken: set[int] = set()
    matches: list[Match] = []
    for det_index in order:
        detection = detections[det_index]
        d = detection.box
        x_min, y_min, x_max, y_max = d.x_min, d.y_min, d.x_max, d.y_max
        area = (x_max - x_min) * (y_max - y_min)
        visited = by_left[bisect_right(reach, x_min):bisect_left(lefts, x_max)]
        size_limit = params.size_ratio_limit * area
        sized = detection.object_class != BARRIER
        best = None
        for bx_min, by_min, bx_max, by_max, box_area, y, oid in visited:
            # min() and max() of geometry.iou, spelled out: each picks the
            # same operand as the builtin does.
            ix = ((bx_max if bx_max < x_max else x_max)
                  - (bx_min if bx_min > x_min else x_min))
            iy = ((by_max if by_max < y_max else y_max)
                  - (by_min if by_min > y_min else y_min))
            if ix <= 0.0 or iy <= 0.0:
                continue
            inter = ix * iy
            union = area + box_area - inter
            overlap = inter / union if union > 0.0 else 0.0
            if overlap <= threshold or (sized and box_area > size_limit) or oid in taken:
                continue
            key = (abs(y - y_max), -overlap, oid)
            if best is None or key < best:
                best = key
        if best is None:
            continue
        gap, neg_iou, oid = best
        taken.add(oid)
        matches.append(Match(det_index, oid, detection.object_class, detection.confidence,
                             -neg_iou, gap))
    return matches
