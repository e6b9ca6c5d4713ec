"""Span tracing of one replay, installed from outside the program.

``install`` wraps the public names the replay pipeline calls (module
attributes that ``engine``, ``cli``, ``fusion`` and ``sites`` look up at
call time, ``streams.read_stream``, and methods of the pipeline classes,
``ExternalDetectorLink.request`` among them) with recorders.  One span
is kept per wrapped call: name, start, end, parent span and cycle index.
The two hottest leaves, ``fusion.iou`` and ``sites.convex_hull``, are
counted rather than spanned; they run up to millions of times per replay.
Spans stay in memory and are written out once, when the replay ends.

``self_times`` reads a span file back: a layer's time is the self time of
its spans (duration minus the time covered by their child spans).
"""
from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

# Span name -> per-layer time metric that receives its self time.
SPAN_LAYERS = {
    "cli.load_config": "config.load_s",
    "streams.read_stream": "streams.read_s",
    "engine.pair_with_lidar": "detections.pair_s",
    "engine.gate_detections": "detections.gate_s",
    "engine.object_range": "lidar.range_s",
    "engine.build_contour_box": "lidar.box_s",
    "engine.contour_to_world": "lidar.to_world_s",
    "engine.match_frame": "fusion.match_s",
    "ObjectTracker.update": "tracking.update_s",
    "SiteRegistry.refresh_members": "sites.refresh_members_s",
    "SiteRegistry.assign": "sites.assign_s",
    "SiteRegistry.merge_split_sites": "sites.merge_split_sites_s",
    "SiteRegistry.remove_nested": "sites.remove_nested_s",
    "SiteRegistry.record_member_detections": "sites.record_member_detections_s",
    "SiteRegistry.ghost_update": "sites.ghost_update_s",
    "SiteRegistry.finalize_check": "sites.finalize_check_s",
    "AnnotationWriter.write": "outputs.annotation_s",
    "engine.write_site_record": "outputs.record_write_s",
    "engine.summarize": "outputs.summary_s",
    "engine.write_summary": "outputs.summary_s",
    "ReplayEngine._annotate": "engine.annotate_s",
    "ReplayEngine.run": "engine.self_s",
    "ReplayEngine._cycle": "engine.self_s",
}
SETUP_SPANS = ("cli.load_config", "streams.read_stream")
# Only a replay with ``--detector-cmd`` calls the link; its self time is
# the wait for the detector's answer and gives ``detections.link_s``.
LINK_SPAN = "ExternalDetectorLink.request"


class Tracer:
    """Spans, counters and peak values of one replay process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.cycle = -1
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = defaultdict(int)
        self.unwrapped: list[str] = []

    def span(self, owner, attr: str, name: str, on_result=None, on_call=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.unwrapped.append(name)
            return
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.cycle)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts calls."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.unwrapped.append(name)
            return
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps({
                "counts": self.counts, "peaks": self.peaks,
                "unwrapped": self.unwrapped,
            }) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the pipeline's public names; call before ``cli.main``."""
    from roadwork_mapper import cli, engine, fusion, sites, streams
    from roadwork_mapper.detections import ExternalDetectorLink
    from roadwork_mapper.outputs import AnnotationWriter

    counts, peaks = tracer.counts, tracer.peaks

    def add(name, value):
        counts[name] += value

    def peak(name, value):
        if value > peaks[name]:
            peaks[name] = value

    def read_done(args, result):
        add("streams.records", len(result))
        add("streams.bytes_in", os.path.getsize(args[0]))

    def paired(args, result):
        add("detections.pair_calls", 1)
        add("detections.paired", result is not None)

    def gated(args, result):
        add("detections.gate_in", len(args[0]))
        add("detections.gate_out", len(result))

    def requested(args, result):
        add("detections.link_requests", 1)

    def boxed(args, result):
        add("lidar.box_calls", 1)
        add("lidar.boxes", result is not None)

    def matched(args, result):
        add("fusion.dets_in", len(args[0]))
        add("fusion.boxes_in", len(args[1]))
        add("fusion.matches", len(result))

    def tracked(args, result):
        add("tracking.promotions", len(result))
        peak("tracking.tracked_peak", len(args[0]))

    def registry(args, result):
        peak("sites.active_peak", len(args[0].active))

    def nested(args, result):
        add("sites.nested_removed", len(result))
        registry(args, result)

    def finalized(args, result):
        add("sites.records", len(result))
        registry(args, result)

    def enter_cycle(args):
        tracer.cycle = args[1]

    tracer.span(cli, "load_config", "cli.load_config")
    tracer.span(streams, "read_stream", "streams.read_stream", read_done)
    tracer.span(engine.ReplayEngine, "run", "ReplayEngine.run")
    tracer.span(engine.ReplayEngine, "_cycle", "ReplayEngine._cycle", on_call=enter_cycle)
    tracer.span(engine.ReplayEngine, "_annotate", "ReplayEngine._annotate")
    tracer.span(engine, "pair_with_lidar", "engine.pair_with_lidar", paired)
    tracer.span(engine, "gate_detections", "engine.gate_detections", gated)
    tracer.span(ExternalDetectorLink, "request", LINK_SPAN, requested)
    tracer.span(engine, "object_range", "engine.object_range")
    tracer.span(engine, "build_contour_box", "engine.build_contour_box", boxed)
    tracer.span(engine, "contour_to_world", "engine.contour_to_world")
    tracer.span(engine, "match_frame", "engine.match_frame", matched)
    tracer.count(fusion, "iou", "fusion.iou_calls")
    tracer.span(engine.ObjectTracker, "update", "ObjectTracker.update", tracked)
    for method in ("refresh_members", "assign", "merge_split_sites",
                   "record_member_detections", "ghost_update"):
        tracer.span(engine.SiteRegistry, method, f"SiteRegistry.{method}", registry)
    tracer.span(engine.SiteRegistry, "remove_nested", "SiteRegistry.remove_nested", nested)
    tracer.span(engine.SiteRegistry, "finalize_check", "SiteRegistry.finalize_check",
                finalized)
    tracer.count(sites, "convex_hull", "sites.hull_calls")
    tracer.span(AnnotationWriter, "write", "AnnotationWriter.write")
    tracer.span(engine, "write_site_record", "engine.write_site_record")
    tracer.span(engine, "summarize", "engine.summarize")
    tracer.span(engine, "write_summary", "engine.write_summary")


def self_times(path: str) -> tuple[dict[str, float], dict]:
    """Self seconds per span name, and the counters, from a span file."""
    with open(path) as handle:
        header = json.loads(handle.readline())
        spans = [json.loads(line) for line in handle]
    covered = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), child in zip(spans, covered):
        totals[name] += (end - start - child) / 1e9
    return dict(totals), header
