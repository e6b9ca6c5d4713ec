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

import numpy as np

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
    id.  The detection x box IoU matrix is computed once, with the
    operation order of ``geometry.iou``, so every IoU matches it exactly.
    """
    if not detections or not boxes:
        return []
    n = len(detections)
    pixel_boxes = [d.box for d in detections] + [b.box for b in boxes]
    corners = np.array([(p.x_min, p.y_min, p.x_max, p.y_max) for p in pixel_boxes],
                       dtype=float)
    sides = corners[:, 2:] - corners[:, :2]
    area = sides[:, 0] * sides[:, 1]
    det, box = corners[:n, None, :], corners[n:]
    # (detections, boxes, 2): overlap width and height of every pair
    inter_wh = np.minimum(det[..., 2:], box[:, 2:]) - np.maximum(det[..., :2], box[:, :2])
    inter = inter_wh[..., 0] * inter_wh[..., 1]
    inter[(inter_wh <= 0.0).any(axis=2)] = 0.0
    union = area[:n, None] + area[n:] - inter
    ious = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)
    oversized = area[n:] > params.size_ratio_limit * area[:n, None]
    oversized[[d.object_class == BARRIER for d in detections]] = False
    # Both tests reject, as the rules are worded, so a NaN limit from a
    # config rejects nothing.
    eligible = (~((ious <= params.iou_threshold) | oversized)).tolist()
    ious = ious.tolist()
    bottom_ys = [_bottom_y(b) for b in boxes]
    ids = [b.object_id for b in boxes]

    order = sorted(range(n), key=lambda i: (-detections[i].confidence, i))
    taken: set[int] = set()
    matches: list[Match] = []
    for det_index in order:
        detection = detections[det_index]
        lower_edge = detection.box.y_max
        best = None
        for oid, y, overlap, ok in zip(ids, bottom_ys, ious[det_index], eligible[det_index]):
            if ok and oid not in taken:
                key = (abs(y - lower_edge), -overlap, oid)
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
