"""Output documents: frame annotations, site records, session summary.

Annotations stream out as one JSON line per LiDAR cycle; every finished
site becomes its own JSON document; the summary is written once at the
end of a session.  All floats use fixed 17-significant-digit formatting
so identical replays produce identical bytes.
"""
from __future__ import annotations

import math
import os
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import IO, Iterable, Sequence

from . import jsonio
from .geometry import PixelBox
from .records import Record
from .sites import RoadworkSite, SiteRecord, site_dimensions
from .streams import StreamFormatError, document_integer, document_number, read_document


# One boxed object: (object_id, class, site_id, box, iou); iou is None
# unless the object was matched in this frame.
BoxedEntry = tuple[int, str | None, int | None, PixelBox, float | None]
# One ghost: (object_id, class, site_id).
GhostEntry = tuple[int, str | None, int]


class AnnotationWriter:
    """Appends frame annotations to a JSON-lines file.

    Each line is formatted in one pass from the cycle's plain values: keys
    in a fixed order, every float through ``jsonio.format_float`` (which
    rejects NaN and infinity), classes escaped as ``jsonio.dumps`` escapes
    strings.  The text is what ``jsonio.dumps`` gives for the same line.
    """

    def __init__(self, stream: IO[str]):
        self._stream = stream

    def write(
        self,
        timestamp: float,
        speed: float,
        detection_threshold: int,
        boxed: Iterable[BoxedEntry],
        ghosts: Iterable[GhostEntry],
    ) -> None:
        fmt, enc = jsonio.format_float, _encode_str
        # The header is formatted first, so a non-finite value is reported
        # in document order.
        head = (f'{{"t": {fmt(timestamp)}, "speed": {fmt(speed)}, '
                f'"detection_threshold": {detection_threshold!s}, "objects": [')
        items = []
        for object_id, object_class, site_id, box, iou in boxed:
            item = (
                f'{{"object_id": {object_id!s}, '
                f'"class": {"null" if object_class is None else enc(object_class)}, '
                f'"site_id": {"null" if site_id is None else str(site_id)}, '
                f'"ghost": false, "box": [{fmt(box.x_min)}, {fmt(box.y_min)}, '
                f'{fmt(box.x_max)}, {fmt(box.y_max)}]'
            )
            items.append(item + "}" if iou is None else f'{item}, "iou": {fmt(iou)}}}')
        for object_id, object_class, site_id in ghosts:
            items.append(
                f'{{"object_id": {object_id!s}, '
                f'"class": {"null" if object_class is None else enc(object_class)}, '
                f'"site_id": {site_id!s}, "ghost": true}}'
            )
        self._stream.write(head + ", ".join(items) + "]}\n")


def site_record_to_dict(record: SiteRecord) -> dict:
    return {
        "site_id": record.site_id,
        "frame": record.frame,
        "utm_zone": record.utm_zone,
        "raw_polygon": [[x, y] for x, y in record.raw_polygon],
        "hull_polygon": [[x, y] for x, y in record.hull_polygon],
        "length": record.length,
        "depth": record.depth,
        "class_counts": record.class_counts,
        "start_time": record.start_time,
        "end_time": record.end_time,
    }


def site_record_from_dict(data: dict) -> SiteRecord:
    def polygon(name: str) -> tuple[tuple[float, float], ...]:
        points = tuple((document_number(x, f"{name}[{i}][0]"),
                        document_number(y, f"{name}[{i}][1]"))
                       for i, (x, y) in enumerate(data[name]))
        if not points:  # every finished site has at least one point
            raise StreamFormatError(f"field {name!r} must not be empty", None)
        return points

    return SiteRecord(
        site_id=document_integer(data["site_id"], "site_id"),
        raw_polygon=polygon("raw_polygon"),
        hull_polygon=polygon("hull_polygon"),
        length=document_number(data["length"], "length"),
        depth=document_number(data["depth"], "depth"),
        class_counts={str(k): document_integer(v, f"class_counts.{k}")
                      for k, v in data["class_counts"].items()},
        start_time=document_number(data["start_time"], "start_time"),
        end_time=document_number(data["end_time"], "end_time"),
        frame=str(data["frame"]),
        utm_zone=None if data.get("utm_zone") is None else str(data["utm_zone"]),
    )


def write_site_record(record: SiteRecord, out_dir: Path) -> Path:
    sites_dir = out_dir / "sites"
    sites_dir.mkdir(parents=True, exist_ok=True)
    path = sites_dir / f"site_{record.site_id:06d}.json"
    with jsonio.naming(path):
        path.write_text(jsonio.dumps(site_record_to_dict(record)) + "\n")
    return path


def load_site_records(out_dir: Path) -> list[SiteRecord]:
    """The site records in a replay's output directory, which must exist."""
    sites_dir = Path(out_dir) / "sites"
    if not sites_dir.is_dir():
        try:
            os.listdir(out_dir)  # a replay that finished no site wrote no sites/
        except OSError as err:
            raise StreamFormatError(f"cannot open ({err.strerror})", None, Path(out_dir)) from err
        return []
    return [
        read_document(p, site_record_from_dict, "site record")
        for p in sorted(sites_dir.glob("site_*.json"))
    ]


class Summary(Record):
    __slots__ = ("roadworks_present", "count", "sites")

    def __init__(self, roadworks_present: bool, count: int,
                 sites: tuple[tuple[int, float, float], ...]) -> None:
        self.roadworks_present = roadworks_present
        self.count = count
        self.sites = sites  # (site_id, length, depth), 0.1 m steps


def _round_decimeter(x: float) -> float:
    return math.floor(x * 10.0 + 0.5) / 10.0


def summarize(
    active: Sequence[RoadworkSite], finished: Sequence[SiteRecord]
) -> Summary:
    """Condense a session's sites, finished and still active, into a summary."""
    entries = []
    for record in finished:
        entries.append((record.site_id, _round_decimeter(record.length), _round_decimeter(record.depth)))
    for site in active:
        length, depth = site_dimensions(site)
        entries.append((site.site_id, _round_decimeter(length), _round_decimeter(depth)))
    entries.sort()
    return Summary(
        roadworks_present=bool(entries),
        count=len(entries),
        sites=tuple(entries),
    )


def summary_to_dict(summary: Summary) -> dict:
    return {
        "roadworks_present": summary.roadworks_present,
        "count": summary.count,
        "sites": [
            {"site_id": sid, "length": length, "depth": depth}
            for sid, length, depth in summary.sites
        ],
    }


def write_summary(summary: Summary, out_dir: Path) -> Path:
    path = Path(out_dir) / "summary.json"
    with jsonio.naming(path):
        path.write_text(jsonio.dumps(summary_to_dict(summary)) + "\n")
    text_path = Path(out_dir) / "summary.txt"
    with jsonio.naming(text_path):
        text_path.write_text(summary_text(summary) + "\n")
    return path


def summary_text(summary: Summary) -> str:
    """One human-readable line, e.g. '2 roadworks; 20.0 m x 1.4 m; 7.4 m x 0.3 m'."""
    if not summary.roadworks_present:
        return "no roadworks"
    parts = [f"{summary.count} roadwork{'s' if summary.count != 1 else ''}"]
    for _, length, depth in summary.sites:
        parts.append(f"{length:.1f} m x {depth:.1f} m")
    return "; ".join(parts)
