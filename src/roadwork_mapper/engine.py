"""Replay engine: drives the full fusion pipeline over recorded streams.

Streams are loaded up front (ingest is allowed to prefetch; files are
session-sized), then every LiDAR frame triggers one processing cycle:

  pose lookup -> camera pairing/gating -> contour boxes -> matching
  -> tracking -> site dictionary upkeep -> outputs

``PoseTimeline`` answers every pose query.  The camera frame comes from one
callable, live or recorded, and both are held to the same pairing window.

The two image-space steps run once per frame, not once per object:
``build_contour_boxes`` projects all in-range contours in one loop that
also keeps each contour's box bounds and in-image test, so a contour
wholly in view gets its box without a second pass and only the others
are clipped; ``match_frame`` reads the box corners once, sorts the boxes
by left edge, and lets each detection visit only the boxes that can
overlap it in x.  The tracker keeps the world contour lists
``contour_to_world`` builds, uncopied, and a site's members are the
tracker's own entries, so the tracker's update is the one place that
refreshes an object's contour and class.  The output step gathers plain
tuples per object and the registry's ghosts, and ``AnnotationWriter``
formats the frame's line from them in one pass.  The records passed
between the steps are slotted classes (``records.Record``), and so are the
settings (``SessionConfig`` and its parts), the tracker's
``TrackedObject``, the registry's ``RoadworkSite`` and ``SiteRecord``, and
the ``Summary`` and ``ReplayResult`` of a run.  The whole cycle is plain
Python: a file replay imports neither numpy nor the simulator, nor
``dataclasses``.

A cycle pays for what its frame holds.  The engine calls each step on
every cycle, and a step returns at once when its inputs make it a no-op,
judged inside the step from current state: a frame with no contour gets no
projection pass; a registry with no site and nothing promoted does no
upkeep and has no ghosts; and fewer than two sites are not tested for
nesting.  The pose lookup compares its two candidate samples directly.
Most of the cost left in an empty cycle is camera pairing, the promotion
threshold and the annotation line.

A replay writes every output, as the CLI does: the annotation line of each
cycle, the record of each finished site and, at the end, the summary.
Cycle latency is measured from the pose lookup until the cycle's finished
sites are written, so it holds the processing and the cycle's outputs; a
skipped cycle adds none.  Stream ingest is not in it, which mirrors live
operation where detections arrive precomputed from the camera pipeline.
"""
from __future__ import annotations

import bisect
import math
import time
from pathlib import Path
from typing import Callable, Sequence

from . import jsonio
from .config import SessionConfig
from .detections import DetectionFrame, gate_detections, pair_with_lidar
from .fusion import match_frame
from .lidar import build_contour_boxes, contour_to_world, object_range
from .outputs import (
    AnnotationWriter,
    BoxedEntry,
    GhostEntry,
    Summary,
    summarize,
    write_site_record,
    write_summary,
)
from .records import Record
from .sites import SiteRecord, SiteRegistry
from .streams import LidarFrame, OdometrySample
from .tracking import ObjectTracker, detection_threshold
from .geometry import Pose2D

DetectionSource = Callable[[int, float], "DetectionFrame | None"]


class ReplayResult(Record):
    __slots__ = ("summary", "site_records", "cycles", "skipped_cycles", "latencies")

    def __init__(self, summary: Summary, site_records: list[SiteRecord], cycles: int = 0,
                 skipped_cycles: int = 0, latencies: list[float] | None = None) -> None:
        self.summary = summary
        self.site_records = site_records
        self.cycles = cycles
        self.skipped_cycles = skipped_cycles
        self.latencies = [] if latencies is None else latencies

    @property
    def latency_max(self) -> float:
        return max(self.latencies) if self.latencies else 0.0

    @property
    def latency_mean(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank percentile of the cycle latencies, q in (0, 100]."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        return ordered[max(0, math.ceil(len(ordered) * q / 100.0) - 1)]


class PoseTimeline:
    """The odometry stream as the replay's one time base.  ``nearest`` gives
    the sample closest to ``t`` within ``window`` (the earlier one on a tie)
    as its pose relative to ``origin``, its speed and its path length."""

    def __init__(self, odometry: Sequence[OdometrySample]):
        self._samples = odometry
        self._times = [s.timestamp for s in odometry]
        self.origin = (odometry[0].x, odometry[0].y) if odometry else (0.0, 0.0)
        self._arcs = arcs = [0.0] if odometry else []
        for previous, sample in zip(odometry, odometry[1:]):
            arcs.append(arcs[-1] + math.dist((sample.x, sample.y), (previous.x, previous.y)))

    def nearest(self, t: float, window: float) -> tuple[Pose2D, float, float] | None:
        # The two candidates bracket ``t``: the last sample before it and
        # the first at or after it.  Each gap is |sample time - t| exactly,
        # as a float difference and its negation round alike.
        times = self._times
        i = bisect.bisect_left(times, t)
        best = None
        if i:
            before = t - times[i - 1]
            if before <= window:
                best = i - 1
        if i < len(times):
            after = times[i] - t
            if after <= window and (best is None or after < before):
                best = i
        if best is None:
            return None
        sample = self._samples[best]
        x0, y0 = self.origin
        return Pose2D(sample.x - x0, sample.y - y0, sample.heading), sample.speed, self._arcs[best]


class ReplayEngine:
    """One replay session over three recorded streams."""

    def __init__(self, config: SessionConfig,
                 detection_source: DetectionSource | None = None):
        self.config = config
        self.detection_source = detection_source
        self.tracker = ObjectTracker(config.eviction_timeout)
        self.registry = SiteRegistry(
            separation=config.separation,
            ghost_retention=config.ghost_retention,
            finalize_distance=config.finalize_distance,
            hull_inflation=config.hull_inflation,
        )

    def run(
        self,
        odometry: Sequence[OdometrySample],
        lidar_frames: Sequence[LidarFrame],
        detection_frames: Sequence[DetectionFrame],
        out_dir: Path,
    ) -> ReplayResult:
        """Replay the streams, writing every output into ``out_dir``, a
        directory the caller has made."""
        result = ReplayResult(summary=Summary(False, 0, ()), site_records=[])
        timeline = PoseTimeline(odometry)
        window = self.config.pairing_window
        camera = self.detection_source
        if camera is None:
            camera = lambda index, t: pair_with_lidar(detection_frames, t, window)

        path = out_dir / "annotations.jsonl"
        with jsonio.naming(path), open(path, "w") as annotations:
            annotation_writer = AnnotationWriter(annotations)
            for cycle_index, frame in enumerate(lidar_frames):
                started = time.perf_counter()
                sample = timeline.nearest(frame.timestamp, window)
                if sample is None:
                    result.skipped_cycles += 1
                    continue
                pose, speed, arc = sample

                records = self._cycle(cycle_index, frame, pose, speed, arc, camera,
                                      annotation_writer)
                for record in records:
                    result.site_records.append(record)
                    write_site_record(record, out_dir)
                result.cycles += 1
                result.latencies.append(time.perf_counter() - started)

        result.summary = summarize(list(self.registry.active.values()),
                                   result.site_records)
        write_summary(result.summary, out_dir)
        return result

    def _cycle(
        self,
        cycle_index: int,
        frame: LidarFrame,
        pose: Pose2D,
        speed: float,
        arc: float,
        camera: DetectionSource,
        annotation_writer: AnnotationWriter,
    ) -> list[SiteRecord]:
        config = self.config

        paired = camera(cycle_index, frame.timestamp)
        gated = gate_detections(paired.detections, config.confidence) if paired else []

        in_range = [
            contour
            for contour in frame.objects
            if object_range(contour) <= config.matching.tracking_range
        ]
        boxes = {b.object_id: b for b in build_contour_boxes(in_range, config.sensor)}

        matches = match_frame(gated, list(boxes.values()), config.matching)
        world = {c.object_id: contour_to_world(c, pose) for c in in_range}
        threshold = detection_threshold(speed, config.threshold)
        promoted = self.tracker.update(matches, world, threshold, frame.timestamp)

        records = self.registry.step(
            promoted, (m.object_id for m in matches),
            pose, frame.timestamp, arc, config.anchor,
        )
        if records and not self.registry.active:
            # The drive has left every known site behind: start fresh.
            self.tracker.reset()

        boxed, ghosts = self._annotate(boxes, matches, pose)
        annotation_writer.write(frame.timestamp, speed, threshold, boxed, ghosts)
        return records

    def _annotate(self, boxes, matches,
                  pose: Pose2D) -> tuple[list[BoxedEntry], list[GhostEntry]]:
        """The frame's boxed objects and ghosts, as the annotation writer
        takes them.  Each object is always a member of one site at most.
        A boxed object and a ghost both take the class of the tracker's
        entry, which is the site's member."""
        site_of = {member.object_id: site.site_id
                   for site in self.registry.active.values() for member in site.members}
        iou_of = {m.object_id: m.iou for m in matches}
        tracked = self.tracker.get

        boxed = []
        for oid, box in boxes.items():
            entry = tracked(oid)
            boxed.append((
                oid,
                entry.object_class if entry else None,
                site_of.get(oid),
                box.box,
                iou_of.get(oid),
            ))
        return boxed, self.registry.ghost_update(boxes.keys(), pose)
