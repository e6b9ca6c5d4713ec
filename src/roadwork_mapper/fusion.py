"""Frame-level matching of CNN detections to LiDAR contour boxes.

Both sensors describe the same objects in image space, so a detection
and a contour box belong together when they overlap strongly.  Several
contour boxes can overlap one detection (objects partially occluding
each other project close together); the bottom edge breaks the tie
because the contour bottom line of the truly matching object sits on
the detection's lower box edge.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .detections import BARRIER, Detection
from .lidar import ContourBoxImage


@dataclass(frozen=True)
class MatchParams:
    iou_threshold: float = 0.5        # overlap must exceed this (strict)
    size_ratio_limit: float = 2.0     # contour box area vs detection area
    tracking_range: float = 50.0      # meters; objects beyond are ignored


@dataclass(frozen=True)
class Match:
    """An accepted detection/contour pairing within one frame."""

    detection_index: int
    object_id: int
    object_class: str
    confidence: float
    iou: float
    bottom_gap: float


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
    the threshold and, unless the detection is a barrier, the box is at
    most ``size_ratio_limit`` times the detection's area (an oversized
    box means the LiDAR merged several objects; barriers really are
    long).  Each detection takes the remaining candidate with the
    smallest bottom gap; ties fall back to higher IoU, then lower object
    id.  Box corners, areas and bottom rows are read once per frame, and
    each IoU is computed inline with the float operations of
    ``geometry.iou``, so it matches that function exactly.
    """
    if not detections or not boxes:
        return []
    threshold = params.iou_threshold
    # A pair that does not overlap has IoU 0, which a threshold of 0 or
    # more rejects; a NaN or negative threshold rejects nothing, so such
    # pairs are only skipped early when the threshold allows it.
    skip_disjoint = 0.0 <= threshold
    candidates = []
    for b in boxes:
        p = b.box
        area = (p.x_max - p.x_min) * (p.y_max - p.y_min)
        candidates.append((p.x_min, p.y_min, p.x_max, p.y_max, area, _bottom_y(b), b.object_id))

    order = sorted(range(len(detections)), key=lambda i: (-detections[i].confidence, i))
    taken: set[int] = set()
    matches: list[Match] = []
    for det_index in order:
        detection = detections[det_index]
        d = detection.box
        x_min, y_min, x_max, y_max = d.x_min, d.y_min, d.x_max, d.y_max
        area = (x_max - x_min) * (y_max - y_min)
        # Both tests reject, as the rules are worded, so a NaN limit from a
        # config rejects nothing.
        size_limit = params.size_ratio_limit * area
        sized = detection.object_class != BARRIER
        best = None
        for bx_min, by_min, bx_max, by_max, box_area, y, oid in candidates:
            # min() and max() of geometry.iou, spelled out: each picks the
            # same operand as the builtin does.
            ix = ((bx_max if bx_max < x_max else x_max)
                  - (bx_min if bx_min > x_min else x_min))
            iy = ((by_max if by_max < y_max else y_max)
                  - (by_min if by_min > y_min else y_min))
            if ix <= 0.0 or iy <= 0.0:
                if skip_disjoint:
                    continue
                inter = 0.0
            else:
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
        matches.append(
            Match(
                detection_index=det_index,
                object_id=oid,
                object_class=detection.object_class,
                confidence=detection.confidence,
                iou=-neg_iou,
                bottom_gap=gap,
            )
        )
    return matches
