"""Camera detector records: classes, confidence gating, frame pairing.

Detections come from a CNN running on downscaled camera frames, either
pre-recorded in a stream file or requested live from an external
detector process over a line protocol.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import IO, Sequence

from .geometry import PixelBox
from .records import Record

BARRIER = "Barrier"
TRAFFIC_CONE = "TrafficCone"
PANEL_PASS_LEFT = "PanelPassLeft"
PANEL_PASS_RIGHT = "PanelPassRight"

OBJECT_CLASSES = (BARRIER, TRAFFIC_CONE, PANEL_PASS_LEFT, PANEL_PASS_RIGHT)


class Detection(Record):
    """One CNN detection in image coordinates."""

    __slots__ = ("object_class", "confidence", "box")

    def __init__(self, object_class: str, confidence: float, box: PixelBox) -> None:
        self.object_class = object_class
        self.confidence = confidence
        self.box = box


class DetectionFrame(Record):
    """All detections reported for one camera frame."""

    __slots__ = ("timestamp", "detections")

    def __init__(self, timestamp: float, detections: tuple[Detection, ...]) -> None:
        self.timestamp = timestamp
        self.detections = detections


class ConfidencePolicy(Record):
    """Per-class minimum confidences (inclusive)."""

    __slots__ = ("barrier_threshold", "other_threshold")

    def __init__(self, barrier_threshold: float = 0.75, other_threshold: float = 0.70) -> None:
        self.barrier_threshold = barrier_threshold
        self.other_threshold = other_threshold

    def threshold_for(self, object_class: str) -> float:
        if object_class == BARRIER:
            return self.barrier_threshold
        return self.other_threshold


def gate_detections(
    detections: Sequence[Detection], policy: ConfidencePolicy
) -> list[Detection]:
    """Keep detections at or above their class confidence threshold."""
    return [d for d in detections if d.confidence >= policy.threshold_for(d.object_class)]


# Maximum camera/LiDAR timestamp offset for a frame pairing, seconds.
PAIRING_WINDOW = 0.100

_timestamp = attrgetter("timestamp")


def pair_with_lidar(
    frames: Sequence[DetectionFrame],
    lidar_timestamp: float,
    window: float = PAIRING_WINDOW,
) -> DetectionFrame | None:
    """Pick the most recent detection frame within the pairing window.

    ``frames`` must be sorted by timestamp.  Returns None when no frame
    lies within the window; the LiDAR cycle then runs without camera
    input.
    """
    lo = bisect_left(frames, lidar_timestamp - window, key=_timestamp)
    hi = bisect_right(frames, lidar_timestamp + window, lo=lo, key=_timestamp)
    for i in range(hi - 1, lo - 1, -1):
        if abs(frames[i].timestamp - lidar_timestamp) <= window:
            return frames[i]
    return None


class DetectorError(OSError):
    """The live detector could not be started, or its link broke."""


class ExternalDetectorLink:
    """Line protocol to an external live detector.

    The engine writes one frame-reference line and reads back exactly one
    ``detections`` stream record (same schema as file ingest), whose
    timestamp must lie within ``window`` seconds of the request's, as a
    recorded frame must to be paired.
    """

    def __init__(self, writer: IO[str], reader: IO[str], window: float = PAIRING_WINDOW):
        self._writer = writer
        self._reader = reader
        self._window = window

    def request(self, timestamp: float, frame_ref: str) -> DetectionFrame:
        from . import jsonio, streams

        try:
            self._writer.write(
                jsonio.dumps({"type": "frame_request", "t": timestamp, "frame": frame_ref})
                + "\n"
            )
            self._writer.flush()
            line = self._reader.readline()
        except OSError as err:
            raise DetectorError(f"link to the external detector failed: {err}") from err
        except UnicodeDecodeError as err:
            raise DetectorError(
                f"external detector answered frame request {frame_ref!r} "
                f"with invalid UTF-8 ({err.reason})") from err
        if not line:
            raise DetectorError("external detector closed the stream")
        try:
            record = streams.parse_line(line, lineno=0)
        except streams.StreamFormatError as err:
            raise DetectorError(
                f"external detector answered frame request {frame_ref!r} "
                f"with a malformed record: {err.message}") from err
        if not isinstance(record, DetectionFrame):
            raise DetectorError("external detector answered with a non-detections record")
        if not abs(record.timestamp - timestamp) <= self._window:
            raise DetectorError(
                f"external detector answered frame request {frame_ref!r} at t={timestamp!r} "
                f"with t={record.timestamp!r}, outside the pairing window of "
                f"{self._window!r} s")
        return record
