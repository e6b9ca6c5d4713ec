"""Every metric the benchmark reports, with its unit, direction and (for
end-to-end metrics) bound.  ``BENCHMARK.json`` is written from these tables;
README.md defines each metric."""
from __future__ import annotations

import json
from pathlib import Path

from workloads import WORKLOADS

RUN_SECONDS = 45

# name, unit, better, bound (share of the parent's median a metric may worsen)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("replay_s", "s", "lower", 0.25),
    ("cycle_p50_ms", "ms", "lower", 0.25),
    ("cycle_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# name, unit, better
PER_LAYER = (
    ("setup.import_s", "s", "lower"),
    ("config.load_s", "s", "lower"),
    ("streams.read_s", "s", "lower"),
    ("streams.records", "count", "lower"),
    ("streams.bytes_in", "bytes", "lower"),
    ("detections.pair_s", "s", "lower"),
    ("detections.gate_s", "s", "lower"),
    ("detections.paired_ratio", "ratio", "higher"),
    ("detections.gated_ratio", "ratio", "higher"),
    ("detections.link_s", "s", "lower"),
    ("detections.link_requests", "count", "lower"),
    ("lidar.range_s", "s", "lower"),
    ("lidar.box_s", "s", "lower"),
    ("lidar.box_calls", "count", "lower"),
    ("lidar.box_yield", "ratio", "higher"),
    ("lidar.to_world_s", "s", "lower"),
    ("fusion.match_s", "s", "lower"),
    ("fusion.dets_in", "count", "lower"),
    ("fusion.boxes_in", "count", "lower"),
    ("fusion.iou_calls", "count", "lower"),
    ("fusion.matches", "count", "higher"),
    ("fusion.match_yield", "ratio", "higher"),
    ("tracking.update_s", "s", "lower"),
    ("tracking.promotions", "count", "higher"),
    ("tracking.tracked_peak", "count", "lower"),
    ("sites.refresh_members_s", "s", "lower"),
    ("sites.assign_s", "s", "lower"),
    ("sites.merge_split_sites_s", "s", "lower"),
    ("sites.remove_nested_s", "s", "lower"),
    ("sites.record_member_detections_s", "s", "lower"),
    ("sites.ghost_update_s", "s", "lower"),
    ("sites.finalize_check_s", "s", "lower"),
    ("sites.hull_calls", "count", "lower"),
    ("sites.active_peak", "count", "lower"),
    ("sites.nested_removed", "count", "lower"),
    ("sites.records", "count", "higher"),
    ("outputs.annotation_s", "s", "lower"),
    ("outputs.record_write_s", "s", "lower"),
    ("outputs.summary_s", "s", "lower"),
    ("outputs.bytes_out", "bytes", "lower"),
    ("engine.cycles", "count", "higher"),
    ("engine.skipped_cycles", "count", "lower"),
    ("engine.annotate_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.cycle_max_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("corner_error_mean_m", "m", "lower"),
    ("sites_missed", "count", "lower"),
    ("sites_spurious", "count", "lower"),
    ("failed_share", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write_manifest(path: Path) -> None:
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
