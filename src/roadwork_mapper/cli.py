"""Command-line front end.

Verbs:
  replay     run the fusion pipeline over recorded streams
  simulate   generate synthetic streams plus ground truth from a scenario
  evaluate   score replay site records against ground truth

Exit codes: 0 success, 2 configuration error (also an ``--out-dir``
that cannot be created, which is checked before the streams are read),
3 input format error (a stream, ground-truth or site-record file that
cannot be read or is malformed), 4 live detector error (it could not be
started, its pipe broke or it closed the stream mid-session, or it
answered with a malformed or non-detections record, or with a frame
whose timestamp lies outside the pairing window of the request).
"""
from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from . import jsonio, streams
from .config import ConfigError, SessionConfig, default_config, load_config, read_settings
from .detections import DetectionFrame, DetectorError, ExternalDetectorLink
from .engine import ReplayEngine
from .outputs import load_site_records, summary_text
from .streams import LidarFrame, OdometrySample, StreamFormatError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FORMAT = 3
EXIT_DETECTOR = 4

STREAM_FILES = {
    "odometry": "odometry.jsonl",
    "lidar_objects": "lidar_objects.jsonl",
    "detections": "detections.jsonl",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadwork-mapper",
        description="Detect, track and measure roadwork sites from recorded drives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    replay = sub.add_parser("replay", help="replay recorded streams through the pipeline")
    replay.add_argument("--config", type=Path, help="session config YAML")
    replay.add_argument("--in-dir", type=Path,
                        help="directory holding odometry.jsonl, lidar_objects.jsonl, detections.jsonl")
    replay.add_argument("--out-dir", type=Path, required=True)
    replay.add_argument("--latency-report", action="store_true",
                        help="write latency.json and print per-cycle latency statistics")
    replay.add_argument("--detector-cmd",
                        help="run this command as a live detector over the line protocol")

    simulate = sub.add_parser("simulate", help="generate synthetic streams from a scenario")
    simulate.add_argument("--scenario", type=Path, required=True)
    simulate.add_argument("--out-dir", type=Path, required=True)
    simulate.add_argument("--seed", type=int, help="override the scenario seed")

    evaluate = sub.add_parser("evaluate", help="score site records against ground truth")
    evaluate.add_argument("--records", type=Path, required=True,
                          help="replay output directory containing sites/")
    evaluate.add_argument("--ground-truth", type=Path, required=True)
    return parser


def _resolve_inputs(
    config: SessionConfig, in_dir: Path | None, live_detector: bool
) -> dict[str, Path]:
    """Paths of the streams to read; a live detector replaces detections.jsonl."""
    needed = [key for key in STREAM_FILES if not (live_detector and key == "detections")]
    inputs = {key: config.inputs[key] for key in needed if key in config.inputs}
    if in_dir is not None:
        for key in needed:
            inputs.setdefault(key, in_dir / STREAM_FILES[key])
    missing = [key for key in needed if key not in inputs]
    if missing:
        raise ConfigError(
            "missing input streams: " + ", ".join(sorted(missing))
            + " (set inputs.* in the config or pass --in-dir)"
        )
    return inputs


def _make_out_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"--out-dir {path}: cannot create ({err.strerror})") from err


def run_replay(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else default_config()
    live = bool(args.detector_cmd)
    inputs = _resolve_inputs(config, args.in_dir, live)
    _make_out_dir(args.out_dir)
    # The collector policy: the streams hold no reference cycles, so no
    # collection should walk them.  They are read with the collector off,
    # then frozen (moved out of every generation) before it is turned back
    # on; the replay's own garbage is still collected.  The finally below
    # unfreezes them, so that an in-process caller gets its heap back.
    collecting = gc.isenabled()
    gc.disable()
    try:
        odometry = streams.read_stream(inputs["odometry"], OdometrySample)
        lidar = streams.read_stream(inputs["lidar_objects"], LidarFrame)
        detections = [] if live else streams.read_stream(inputs["detections"], DetectionFrame)
        gc.freeze()
    finally:
        if collecting:
            gc.enable()

    detector_proc = None
    detection_source = None
    try:
        if live:
            import shlex  # imported here, so that a file replay does not load them
            import subprocess

            try:
                detector_proc = subprocess.Popen(
                    shlex.split(args.detector_cmd),
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, encoding="utf-8",
                )
            except OSError as err:
                raise DetectorError(f"cannot start {args.detector_cmd!r}: {err}") from err
            link = ExternalDetectorLink(detector_proc.stdin, detector_proc.stdout,
                                        config.pairing_window)
            detection_source = lambda index, t: link.request(t, f"frame:{index}")
        engine = ReplayEngine(config, detection_source=detection_source)
        result = engine.run(odometry, lidar, detections, out_dir=args.out_dir)
    finally:
        gc.unfreeze()
        if detector_proc is not None:
            try:
                detector_proc.stdin.close()
            except BrokenPipeError:
                pass  # the detector is gone; a failed request has said so already
            detector_proc.stdout.close()
            detector_proc.wait()

    print(summary_text(result.summary))
    print(f"{result.cycles} cycles, {result.skipped_cycles} skipped, "
          f"{len(result.site_records)} site records")
    if args.latency_report:
        stats = {
            "cycles": result.cycles,
            "max_seconds": result.latency_max,
            "mean_seconds": result.latency_mean,
            "p50_seconds": result.latency_percentile(50),
            "p95_seconds": result.latency_percentile(95),
            "per_cycle_seconds": result.latencies,
        }
        (args.out_dir / "latency.json").write_text(jsonio.dumps(stats) + "\n")
        print(f"latency max {result.latency_max * 1000.0:.2f} ms, "
              f"mean {result.latency_mean * 1000.0:.2f} ms, "
              f"p50 {stats['p50_seconds'] * 1000.0:.2f} ms, "
              f"p95 {stats['p95_seconds'] * 1000.0:.2f} ms")
    return EXIT_OK


def run_simulate(args: argparse.Namespace) -> int:
    from . import simulator  # imported here, so that a replay loads neither it nor numpy

    scenario = simulator.load_scenario(args.scenario)
    if args.seed is not None:
        scenario = read_settings({"seed": args.seed}, scenario, simulator.SCENARIO_KEYS, "--")
    out_dir: Path = args.out_dir
    _make_out_dir(out_dir)
    drive = simulator.generate_streams(scenario)
    streams.write_stream(out_dir / STREAM_FILES["odometry"], drive.odometry)
    streams.write_stream(out_dir / STREAM_FILES["lidar_objects"], drive.lidar)
    streams.write_stream(out_dir / STREAM_FILES["detections"], drive.detections)
    simulator.write_ground_truth(drive.ground_truth, out_dir / "ground_truth.json")
    print(f"{len(drive.odometry)} odometry samples, {len(drive.lidar)} lidar frames, "
          f"{len(drive.detections)} detection frames, "
          f"{len(drive.ground_truth.sites)} ground-truth sites")
    return EXIT_OK


def run_evaluate(args: argparse.Namespace) -> int:
    from . import simulator

    records = load_site_records(args.records)
    truth = simulator.load_ground_truth(args.ground_truth)
    evaluation = simulator.evaluate(records, truth)
    for gi, corner, error in evaluation.corner_errors:
        print(f"site {gi} {corner}: {error:.3f} m")
    if evaluation.corner_errors:
        print(f"mean {evaluation.mean_error:.3f} m, sd {evaluation.std_error:.3f} m "
              f"over {len(evaluation.corner_errors)} corners")
    print(f"{evaluation.matched_sites} sites matched, {evaluation.missed_sites} missed")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "replay": run_replay,
        "simulate": run_simulate,
        "evaluate": run_evaluate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except StreamFormatError as err:
        print(f"input format error: {err}", file=sys.stderr)
        return EXIT_FORMAT
    except DetectorError as err:
        print(f"detector error: {err}", file=sys.stderr)
        return EXIT_DETECTOR


if __name__ == "__main__":
    sys.exit(main())
