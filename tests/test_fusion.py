"""Matching tests, including an exhaustive small-instance oracle.

The oracle enumerates every processing trace that respects the candidate
rules (one choice per detection, in confidence order, skipping only when
nothing is available) and keeps the trace whose per-step key sequence is
lexicographically smallest.  The production matcher is greedy; greedy
picks the smallest key at every step, so the two must agree exactly.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadwork_mapper.detections import (
    BARRIER,
    OBJECT_CLASSES,
    PANEL_PASS_RIGHT,
    TRAFFIC_CONE,
    Detection,
)
from roadwork_mapper.fusion import Match, MatchParams, match_frame
from roadwork_mapper.geometry import PixelBox, iou
from roadwork_mapper.lidar import ContourBoxImage


def det(confidence, box, object_class=TRAFFIC_CONE):
    return Detection(object_class=object_class, confidence=confidence, box=box)


def cbox(object_id, box, bottom_y=None):
    if bottom_y is None:
        bottom_line = ()
    else:
        bottom_line = ((box.x_min, bottom_y), (box.x_max, bottom_y))
    return ContourBoxImage(object_id=object_id, box=box, bottom_line=bottom_line)


# --- reference implementations, deliberately separate from the package ---


def iou_ref(a, b):
    w = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    h = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = max(w, 0.0) * max(h, 0.0)
    union = a.area() + b.area() - inter
    return inter / union if union > 0.0 else 0.0


def gap_ref(detection, box):
    ys = [v for _, v in box.bottom_line]
    mean = sum(ys) / len(ys) if ys else box.box.y_max
    return abs(mean - detection.box.y_max)


def candidates_ref(detection, boxes, params):
    out = []
    for box in boxes:
        overlap = iou_ref(detection.box, box.box)
        if overlap <= params.iou_threshold:
            continue
        if (
            detection.object_class != BARRIER
            and box.box.area() > params.size_ratio_limit * detection.box.area()
        ):
            continue
        out.append((box.object_id, overlap))
    return out


def oracle_match(detections, boxes, params):
    """Assignment with the lexicographically smallest key trace."""
    order = sorted(
        range(len(detections)), key=lambda i: (-detections[i].confidence, i)
    )
    by_id = {b.object_id: b for b in boxes}
    skip_key = (math.inf, math.inf, math.inf)
    best = None

    def recurse(step, taken, trace, assignment):
        nonlocal best
        if step == len(order):
            entry = (tuple(trace), dict(assignment))
            if best is None or entry[0] < best[0]:
                best = entry
            return
        det_index = order[step]
        available = [
            (oid, ov)
            for oid, ov in candidates_ref(detections[det_index], boxes, params)
            if oid not in taken
        ]
        if not available:
            trace.append(skip_key)
            recurse(step + 1, taken, trace, assignment)
            trace.pop()
            return
        for oid, overlap in available:
            key = (gap_ref(detections[det_index], by_id[oid]), -overlap, oid)
            taken.add(oid)
            assignment[det_index] = oid
            trace.append(key)
            recurse(step + 1, taken, trace, assignment)
            trace.pop()
            del assignment[det_index]
            taken.discard(oid)

    recurse(0, set(), [], {})
    return best[1]


# --- directed cases ---


def test_single_clear_match():
    d = det(0.9, PixelBox(0.0, 0.0, 100.0, 100.0))
    b = cbox(4, PixelBox(0.0, 0.0, 100.0, 90.0), bottom_y=90.0)
    matches = match_frame([d], [b])
    assert len(matches) == 1
    assert matches[0].object_id == 4
    assert matches[0].detection_index == 0
    assert matches[0].iou == pytest.approx(0.9)


def test_below_threshold_is_unmatched():
    d = det(0.9, PixelBox(0.0, 0.0, 100.0, 100.0))
    b = cbox(1, PixelBox(0.0, 0.0, 100.0, 50.0), bottom_y=50.0)  # iou 0.5 exactly
    assert match_frame([d], [b]) == []


def test_lower_iou_with_closer_bottom_edge_wins():
    # The candidate with the smaller bottom gap beats the higher-IoU one.
    d = det(0.9, PixelBox(0.0, 0.0, 100.0, 100.0))
    far = cbox(1, PixelBox(0.0, 0.0, 100.0, 70.0), bottom_y=70.0)
    near = cbox(2, PixelBox(0.0, 30.0, 100.0, 104.0), bottom_y=104.0)
    assert iou_ref(d.box, far.box) > iou_ref(d.box, near.box) > 0.5
    matches = match_frame([d], [far, near])
    assert len(matches) == 1
    assert matches[0].object_id == 2
    assert matches[0].bottom_gap == pytest.approx(4.0)


def test_bottom_gap_tie_falls_back_to_iou_then_id():
    d = det(0.9, PixelBox(0.0, 0.0, 100.0, 100.0))
    a = cbox(7, PixelBox(0.0, 0.0, 100.0, 80.0), bottom_y=90.0)
    b = cbox(3, PixelBox(0.0, 0.0, 100.0, 90.0), bottom_y=90.0)  # higher iou
    assert match_frame([d], [a, b])[0].object_id == 3
    # equal iou and gap: lower object id
    twin_a = cbox(9, PixelBox(0.0, 0.0, 100.0, 90.0), bottom_y=90.0)
    twin_b = cbox(5, PixelBox(0.0, 0.0, 100.0, 90.0), bottom_y=90.0)
    assert match_frame([d], [twin_a, twin_b])[0].object_id == 5


def test_higher_confidence_claims_contested_box():
    shared = PixelBox(0.0, 0.0, 100.0, 100.0)
    strong = det(0.95, shared)
    weak = det(0.80, shared)
    box = cbox(1, PixelBox(0.0, 0.0, 100.0, 90.0), bottom_y=90.0)
    matches = match_frame([weak, strong], [box])
    assert len(matches) == 1
    assert matches[0].detection_index == 1
    # confidence tie: earlier detection index goes first
    matches = match_frame([det(0.9, shared), det(0.9, shared)], [box])
    assert matches[0].detection_index == 0


def test_size_filter_excludes_oversized_contour():
    # Panel 1000 px^2; candidates 1.8x and 2.5x its area.  The oversized
    # one has the closer bottom line, so the filter is what decides.
    params = MatchParams(iou_threshold=0.3)
    d = det(0.9, PixelBox(0.0, 0.0, 40.0, 25.0), object_class=PANEL_PASS_RIGHT)
    good = cbox(1, PixelBox(0.0, 0.0, 45.0, 40.0), bottom_y=40.0)
    huge = cbox(2, PixelBox(0.0, 0.0, 50.0, 50.0), bottom_y=25.0)
    assert good.box.area() == pytest.approx(1800.0)
    assert huge.box.area() == pytest.approx(2500.0)
    assert iou_ref(d.box, good.box) > 0.3 and iou_ref(d.box, huge.box) > 0.3
    matches = match_frame([d], [good, huge], params)
    assert len(matches) == 1
    assert matches[0].object_id == 1
    unfiltered = match_frame(
        [d.__class__(d.object_class, d.confidence, d.box)], [huge], params
    )
    assert unfiltered == []  # the 2.5x candidate alone still can't match


def test_barrier_exempt_from_size_filter():
    # A contour box five times the detection area caps union IoU at 0.2,
    # so the exemption is observable below that threshold.
    params = MatchParams(iou_threshold=0.15)
    barrier = det(0.9, PixelBox(0.0, 0.0, 40.0, 25.0), object_class=BARRIER)
    panel = det(0.9, PixelBox(0.0, 0.0, 40.0, 25.0), object_class=PANEL_PASS_RIGHT)
    big = cbox(1, PixelBox(0.0, 0.0, 100.0, 50.0), bottom_y=25.0)
    assert big.box.area() == pytest.approx(5.0 * barrier.box.area())
    assert iou_ref(barrier.box, big.box) == pytest.approx(0.2)
    assert len(match_frame([barrier], [big], params)) == 1
    assert match_frame([panel], [big], params) == []


def test_empty_bottom_line_falls_back_to_box_edge():
    d = det(0.9, PixelBox(0.0, 0.0, 100.0, 100.0))
    b = cbox(1, PixelBox(0.0, 0.0, 100.0, 90.0), bottom_y=None)
    assert match_frame([d], [b])[0].bottom_gap == pytest.approx(10.0)


# --- randomized oracle comparison ---


def _random_box(rng, base=None):
    if base is not None and rng.random() < 0.7:
        # jittered copy of a detection box, sometimes inflated
        dx, dy = rng.integers(-3, 4, size=2)
        grow = float(rng.choice([0.0, 0.0, 8.0, 20.0]))
        return PixelBox(
            base.x_min + dx - grow,
            base.y_min + dy - grow,
            base.x_max + dx + grow,
            base.y_max + dy + grow,
        )
    x0, y0 = rng.integers(0, 25, size=2)
    w, h = rng.integers(5, 21, size=2)
    return PixelBox(float(x0), float(y0), float(x0 + w), float(y0 + h))


def _random_instance(rng):
    n_det = int(rng.integers(1, 7))
    n_box = int(rng.integers(1, 7))
    dets = []
    for _ in range(n_det):
        dets.append(
            det(
                float(rng.choice([0.75, 0.80, 0.85, 0.90, 0.95])),
                _random_box(rng),
                object_class=OBJECT_CLASSES[rng.integers(len(OBJECT_CLASSES))],
            )
        )
    boxes = []
    for i in range(n_box):
        base = dets[rng.integers(n_det)].box
        shape = _random_box(rng, base)
        bottom = None if rng.random() < 0.15 else float(shape.y_max - rng.integers(0, 3))
        boxes.append(cbox(i + 1, shape, bottom_y=bottom))
    return dets, boxes


@pytest.mark.parametrize("threshold", [0.5, 0.3])
def test_greedy_equals_exhaustive_oracle(threshold):
    rng = np.random.default_rng(int(threshold * 100))
    params = MatchParams(iou_threshold=threshold)
    checked = 0
    for _ in range(250):
        dets, boxes = _random_instance(rng)
        got = {m.detection_index: m.object_id for m in match_frame(dets, boxes, params)}
        want = oracle_match(dets, boxes, params)
        assert got == want
        for m in match_frame(dets, boxes, params):
            assert m.iou > params.iou_threshold
            assert m.iou == pytest.approx(iou_ref(dets[m.detection_index].box,
                                                  boxes[m.object_id - 1].box))
            assert m.bottom_gap == pytest.approx(
                gap_ref(dets[m.detection_index], boxes[m.object_id - 1])
            )
        # one-to-one on both sides
        ids = [m.object_id for m in match_frame(dets, boxes, params)]
        assert len(ids) == len(set(ids))
        checked += len(want)
    assert checked > 50  # the generator must actually produce matches


# --- the per-detection matcher, recomputing geometry.iou, kept as an exact oracle ---


def _bottom_gap_reference(detection, box):
    if box.bottom_line:
        mean_y = sum(v for _, v in box.bottom_line) / len(box.bottom_line)
    else:
        mean_y = box.box.y_max
    return abs(mean_y - detection.box.y_max)


def _candidate_ids_reference(detection, boxes, params, ious):
    det_area = detection.box.area()
    out = []
    for box in boxes:
        if ious[box.object_id] <= params.iou_threshold:
            continue
        if (
            detection.object_class != BARRIER
            and box.box.area() > params.size_ratio_limit * det_area
        ):
            continue
        out.append(box.object_id)
    return out


def match_frame_reference(detections, boxes, params=MatchParams()):
    """Greedy matching that recomputes ``geometry.iou`` per detection."""
    by_id = {box.object_id: box for box in boxes}
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].confidence, i))
    taken = set()
    matches = []
    for det_index in order:
        d = detections[det_index]
        ious = {box.object_id: iou(d.box, box.box) for box in boxes}
        best_id = None
        best_key = None
        for oid in _candidate_ids_reference(d, boxes, params, ious):
            if oid in taken:
                continue
            key = (_bottom_gap_reference(d, by_id[oid]), -ious[oid], oid)
            if best_key is None or key < best_key:
                best_key = key
                best_id = oid
        if best_id is None:
            continue
        taken.add(best_id)
        matches.append(Match(det_index, best_id, d.object_class, d.confidence,
                             ious[best_id], best_key[0]))
    return matches


# Boxes on a coarse integer grid: IoUs land exactly on the thresholds,
# bottom gaps tie, and zero-width or zero-height boxes occur.  Some frames
# scale the grid by a factor that makes every difference round.
@st.composite
def _grid_box(draw, scale):
    x0, y0 = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    w, h = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return PixelBox(x0 * scale, y0 * scale, (x0 + w) * scale, (y0 + h) * scale)


@st.composite
def _near_box(draw, base, scale):
    """A shifted and sometimes grown copy of ``base``, as a contour box would be."""
    dx, dy = draw(st.integers(-1, 1)) * scale, draw(st.integers(-1, 1)) * scale
    grow = draw(st.sampled_from([0, 0, 1, 3])) * scale
    return PixelBox(base.x_min + dx - grow, base.y_min + dy - grow,
                    base.x_max + dx + grow, base.y_max + dy + grow)


@st.composite
def _touching_box(draw, base, scale):
    """A box whose right edge is ``base``'s left edge, or whose left edge
    is its right edge: the pair touches and does not overlap in x."""
    width = draw(st.integers(0, 4)) * scale
    dy = draw(st.integers(-1, 1)) * scale
    if draw(st.booleans()):
        x_min, x_max = base.x_min - width, base.x_min
    else:
        x_min, x_max = base.x_max, base.x_max + width
    return PixelBox(x_min, base.y_min + dy, x_max, base.y_max + dy)


@st.composite
def _wide_box(draw, scale):
    """A box far wider than the grid, starting left of it or on it."""
    x0, y0 = draw(st.integers(-60, 8)), draw(st.integers(0, 8))
    h = draw(st.integers(0, 6))
    return PixelBox(x0 * scale, y0 * scale, (x0 + 80) * scale, (y0 + h) * scale)


@st.composite
def _frames(draw):
    scale = draw(st.sampled_from([1.0, 1.0, 0.1, 0.37]))
    detections = draw(st.lists(st.builds(
        Detection,
        object_class=st.sampled_from(OBJECT_CLASSES),
        confidence=st.sampled_from([0.75, 0.8, 0.9]),
        box=_grid_box(scale),
    ), max_size=6))
    shape = st.one_of(_grid_box(scale), _grid_box(scale), _grid_box(scale),
                      _wide_box(scale))
    if detections:
        shape = st.one_of(
            shape, st.sampled_from(detections).flatmap(lambda d: _near_box(d.box, scale)),
            st.sampled_from(detections).flatmap(lambda d: _touching_box(d.box, scale)))
    shapes = draw(st.lists(shape, max_size=6))
    ids = draw(st.permutations(range(1, len(shapes) + 1)))
    boxes = []
    for oid, box in zip(ids, shapes):
        # none, one row on the grid, three rows whose mean rounds, or a
        # line long enough that summation order would show
        ys = draw(st.one_of(
            st.sampled_from([(), (box.y_max,), (box.y_max - scale,), (1.0, 2.0, 4.0)]),
            st.lists(st.floats(0.0, 12.0), min_size=9, max_size=14),
        ))
        line = tuple((box.x_min + i, y) for i, y in enumerate(ys))
        boxes.append(ContourBoxImage(object_id=oid, box=box, bottom_line=line))
    return detections, boxes, draw(_params)


# Values a session config may set: matching.iou lies in [0, 1] and
# matching.size_ratio is > 0.
_params = st.builds(
    MatchParams,
    iou_threshold=st.sampled_from([0.0, -0.0, 0.25, 1.0 / 3.0, 0.5, 0.5]),
    size_ratio_limit=st.sampled_from([1.0, 2.0, 2.0, 4.0]),
)


def _dense_frame(seed, params):
    """15-30 detections and as many boxes on a wide grid, from a seed.

    Half the boxes are shifted or grown copies of a detection, the rest
    lie anywhere on the grid, so most pairs are disjoint; up to three
    touching or far wider boxes follow them.  Drawn with numpy rather
    than hypothesis, which would take ~1,000 draws a frame.
    """
    rng = np.random.default_rng(seed)
    scale = float(rng.choice([1.0, 0.1, 0.37]))

    def grid_box():
        x0, y0 = rng.integers(0, 50, size=2).tolist()
        w, h = rng.integers(0, 7, size=2).tolist()
        return PixelBox(x0 * scale, y0 * scale, (x0 + w) * scale, (y0 + h) * scale)

    detections = [det(float(rng.choice([0.75, 0.8, 0.9])), grid_box(),
                      OBJECT_CLASSES[int(rng.integers(len(OBJECT_CLASSES)))])
                  for _ in range(int(rng.integers(15, 31)))]
    boxes = []
    for oid in (rng.permutation(len(detections)) + 1).tolist():
        shape = grid_box()
        if rng.random() < 0.5:
            base = detections[int(rng.integers(len(detections)))].box
            dx, dy = rng.integers(-1, 2, size=2).tolist()
            grow = int(rng.choice([0, 0, 1, 3]))
            shape = PixelBox(base.x_min + (dx - grow) * scale, base.y_min + (dy - grow) * scale,
                             base.x_max + (dx + grow) * scale, base.y_max + (dy + grow) * scale)
        ys = [(), (shape.y_max,), (shape.y_max - scale,), (1.0, 2.0, 4.0)][int(rng.integers(4))]
        boxes.append(ContourBoxImage(object_id=oid, box=shape,
                                     bottom_line=tuple((shape.x_min, y) for y in ys)))
    # Up to three more boxes, drawn after the rest: one touching a
    # detection's left or right edge, or one far wider than the grid.
    for oid in range(len(boxes) + 1, len(boxes) + 1 + int(rng.integers(0, 4))):
        kind = int(rng.integers(2))
        x0, y0 = rng.integers(0, 50, size=2).tolist()
        w, h = rng.integers(1, 7, size=2).tolist()
        corners = [x0 * scale, y0 * scale, (x0 + w) * scale, (y0 + h) * scale]
        if kind == 0:
            base = detections[int(rng.integers(len(detections)))].box
            if rng.random() < 0.5:
                corners[0], corners[2] = base.x_min - w * scale, base.x_min
            else:
                corners[0], corners[2] = base.x_max, base.x_max + w * scale
        else:
            corners[0], corners[2] = (x0 - 200) * scale, (x0 + 60) * scale
        shape = PixelBox(*corners)
        ys = [(), (shape.y_max,), (1.0, 2.0, 4.0)][int(rng.integers(3))]
        boxes.append(ContourBoxImage(object_id=oid, box=shape,
                                     bottom_line=tuple((shape.x_min, y) for y in ys)))
    return detections, boxes, params


_UNIT = PixelBox(0.0, 0.0, 4.0, 4.0)
_HALF = PixelBox(0.0, 0.0, 4.0, 2.0)  # IoU with _UNIT is exactly 0.5
_WIDE = PixelBox(0.0, 0.0, 10.0, 8.0)  # five times _UNIT's area, IoU 0.2


@settings(max_examples=400)
@given(frame=st.one_of(_frames(), st.builds(_dense_frame, st.integers(0, 2**32 - 1), _params)))
@example(frame=([], [cbox(1, _UNIT, 4.0)], MatchParams()))
@example(frame=([det(0.9, _UNIT)], [], MatchParams()))
@example(frame=([det(0.9, _UNIT)], [cbox(1, _HALF, 2.0)], MatchParams()))
@example(frame=(  # equal bottom gaps: IoU, then the lower id decides
    [det(0.9, _UNIT)],
    [cbox(7, PixelBox(0.0, 0.0, 4.0, 3.0), 4.0), cbox(3, _UNIT, 4.0), cbox(2, _UNIT, 4.0)],
    MatchParams(),
))
@example(frame=(  # the barrier size exemption
    [det(0.9, _UNIT, object_class=BARRIER), det(0.8, _UNIT)],
    [cbox(1, _WIDE, 4.0), cbox(2, _WIDE, 4.0)],
    MatchParams(iou_threshold=0.15),
))
@example(frame=(  # zero-area boxes on both sides
    [det(0.9, PixelBox(1.0, 1.0, 1.0, 3.0))],
    [cbox(1, PixelBox(1.0, 1.0, 1.0, 3.0)), cbox(2, PixelBox(2.0, 2.0, 2.0, 2.0))],
    MatchParams(iou_threshold=0.0),
))
@example(frame=(  # boxes touching the left and the right edge, threshold 0
    [det(0.9, PixelBox(4.0, 0.0, 8.0, 4.0))],
    [cbox(1, PixelBox(0.0, 0.0, 4.0, 4.0), 4.0), cbox(2, PixelBox(8.0, 0.0, 12.0, 4.0), 4.0)],
    MatchParams(iou_threshold=0.0),
))
@example(frame=(  # a box far wider than the rest must stay in reach
    [det(0.9, PixelBox(90.0, 0.0, 94.0, 4.0), object_class=BARRIER),
     det(0.8, PixelBox(10.0, 0.0, 14.0, 4.0))],
    [cbox(1, PixelBox(-100.0, 0.0, 100.0, 4.0), 4.0), cbox(2, PixelBox(10.0, 0.0, 14.0, 4.0), 4.0),
     cbox(3, PixelBox(20.0, 0.0, 24.0, 4.0), 4.0)],
    MatchParams(iou_threshold=0.0),
))
def test_matrix_matching_equals_per_detection_reference(frame):
    detections, boxes, params = frame
    # Match equality compares iou and bottom_gap with ==, to the bit.
    assert match_frame(detections, boxes, params) == match_frame_reference(
        detections, boxes, params)
