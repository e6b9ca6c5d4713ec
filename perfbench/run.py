"""Replay benchmark for roadwork-mapper.

One run generates a seeded synthetic drive for one workload, replays it
through ``roadwork_mapper.cli.main`` in fresh processes for about
``--seconds`` seconds, checks the outputs, and prints its metrics; the
last line of standard output is one JSON object.

  python3 perfbench/run.py --workload stress50 --seed 5 --seconds 22 --trace 0
  python3 perfbench/run.py --all        # every workload, both modes; writes BENCHMARK.json

``--trace 0`` reports the end-to-end metrics from untraced replays.
``--trace 1`` alternates untraced and traced replays and reports the
per-layer metrics.  See perfbench/README.md for every metric.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170.0  # a run must end within 180 s
MIN_REPLAYS = 3
STREAMS = ("odometry.jsonl", "lidar_objects.jsonl", "detections.jsonl")
FINGERPRINTS = HERE / "fingerprints.json"
SESSION = HERE / "session.yaml"


class Deadline(Exception):
    """The run's time limit would be overrun."""


# -- host -------------------------------------------------------------------


def reference_loop_ms() -> float:
    """Median time of five repeats of a fixed pure-Python loop; shows host speed drift."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(times)


def host_record() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


# -- inputs -----------------------------------------------------------------


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def prepare_inputs(workload, seed: int, scale: float, in_dir: Path) -> dict:
    """Simulate the drive once and write the three streams and ground truth."""
    from roadwork_mapper import simulator, streams

    drive = simulator.generate_streams(workload.build(seed, scale))
    in_dir.mkdir(parents=True, exist_ok=True)
    for name, records in zip(STREAMS, (drive.odometry, drive.lidar, drive.detections)):
        streams.write_stream(in_dir / name, records)
    simulator.write_ground_truth(drive.ground_truth, in_dir / "ground_truth.json")
    return {
        "dir": in_dir,
        "frames": len(drive.lidar),
        "sha256": {name: sha256_file(in_dir / name)
                   for name in STREAMS + ("ground_truth.json",)},
    }


def fingerprint_status(workload: str, seed: int, digests: dict) -> str:
    recorded = json.loads(FINGERPRINTS.read_text()).get(workload, {})
    if recorded.get("seed") != seed:
        return "unrecorded seed"
    return "match" if recorded.get("sha256") == digests else "inputs changed"


# -- one replay -------------------------------------------------------------


def replay(in_dir: Path, out_dir: Path, live: bool, spans: Path | None,
           deadline: float) -> dict:
    """Run one replay in a fresh process; returns the child's record."""
    result_path = out_dir.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), str(result_path),
           str(spans) if spans else "-", "--",
           "replay", "--config", str(SESSION),
           "--in-dir", str(in_dir), "--out-dir", str(out_dir)]
    if live:
        from roadwork_mapper.config import load_config

        cmd += ["--detector-cmd", shlex.join(
            [sys.executable, str(HERE / "stub_detector.py"), str(in_dir / STREAMS[2]),
             str(load_config(SESSION).pairing_window)])]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Deadline()
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=remaining)
    except BaseException as err:  # the time limit, or this run being stopped
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(err, subprocess.TimeoutExpired):
            raise Deadline() from err
        raise
    record = {"exit_code": proc.returncode, "stderr": stderr}
    if result_path.exists():
        record.update(json.loads(result_path.read_text()))
        record["setup_s"] = record["run_enter"] - spawned
        record["replay_s"] = record["run_exit"] - record["run_enter"]
    return record


def output_digest(out_dir: Path) -> str:
    """sha256 over annotations.jsonl, sites/* and summary.*, names included."""
    files = [out_dir / "annotations.jsonl", *sorted((out_dir / "sites").glob("*")),
             *sorted(out_dir.glob("summary.*"))]
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(out_dir)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def replay_error(record: dict, out_dir: Path, frames: int) -> str | None:
    """Why a replay failed its checks, or None."""
    if record["exit_code"] != 0:
        return f"exit code {record['exit_code']}: {record['stderr'].strip()[-300:]}"
    if "Traceback" in record["stderr"]:
        return "traceback on stderr"
    if "run_exit" not in record:
        return "replay did not finish"
    if record["cycles"] + record["skipped_cycles"] != frames:
        return f"{record['cycles']} + {record['skipped_cycles']} cycles for {frames} frames"
    with open(out_dir / "annotations.jsonl") as handle:
        lines = [json.loads(line) for line in handle]
    if len(lines) != record["cycles"]:
        return f"{len(lines)} annotation lines for {record['cycles']} cycles"
    summary = json.loads((out_dir / "summary.json").read_text())
    records = len(list((out_dir / "sites").glob("site_*.json")))
    if summary["count"] != records + record["active_sites"]:
        return f"summary counts {summary['count']} sites, records+active " \
               f"{records + record['active_sites']}"
    return None


def accuracy(out_dir: Path, truth_path: Path) -> dict:
    from roadwork_mapper import outputs, simulator

    records = outputs.load_site_records(out_dir)
    evaluation = simulator.evaluate(records, simulator.load_ground_truth(truth_path))
    return {
        "corner_error_mean_m": evaluation.mean_error if evaluation.corner_errors else None,
        "sites_missed": evaluation.missed_sites,
        "sites_spurious": len(records) - evaluation.matched_sites,
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100.0) - 1)]


# -- one run ----------------------------------------------------------------


def measure(workload, seed: int, seconds: float, trace: bool, work: Path,
            scale: float = 1.0, inputs: dict | None = None,
            started: float | None = None) -> dict:
    """Replay one workload for about ``seconds`` and gather its report."""
    from catalog import END_TO_END, PER_LAYER

    started = time.monotonic() if started is None else started
    deadline = started + TIME_LIMIT_S
    if inputs is None:
        inputs = prepare_inputs(workload, seed, scale, work / "inputs")
    in_dir = inputs["dir"]
    work.mkdir(parents=True, exist_ok=True)
    report = {
        "workload": workload.name, "seed": seed, "scale": scale, "trace": trace,
        "host": host_record(), "reference_loop_ms_before": reference_loop_ms(),
        "inputs": inputs["sha256"], "errors": [],
    }
    report["fingerprints"] = (fingerprint_status(workload.name, seed, inputs["sha256"])
                              if scale == 1.0 else "reduced scale")

    runs: list[dict] = []  # one per replay: kind, record, output digest
    kept_out = None

    def one(kind: str) -> None:
        nonlocal kept_out
        out_dir = work / f"out{len(runs)}"
        # The live replay is traced with the traced replays, but only for
        # the link's metrics: its waits on the stub would skew the rest.
        spans = (work / f"spans{len(runs)}.jsonl"
                 if kind == "traced" or (trace and kind == "live") else None)
        record = replay(in_dir, out_dir, kind == "live", spans, deadline)
        error = replay_error(record, out_dir, inputs["frames"])
        if error:
            report["errors"].append(error)
        runs.append({"kind": kind, "record": record, "spans": spans,
                     "digest": None if error else output_digest(out_dir)})
        if kept_out is None and not error:
            kept_out = out_dir
        else:
            shutil.rmtree(out_dir, ignore_errors=True)

    try:
        began = time.monotonic()
        while len(runs) < MIN_REPLAYS or time.monotonic() - began < seconds:
            one("traced" if trace and len(runs) % 2 else "untraced")
        one("live")  # untimed; must write the same bytes as the file replays
    except Deadline:
        report["errors"].append("time limit reached")

    digests = [run["digest"] for run in runs if run["digest"] is not None]
    reference = digests[0] if digests else None
    failed = sum(1 for run in runs if run["digest"] != reference or reference is None)
    if any(d != reference for d in digests):
        report["errors"].append("output bytes differ between replays")
    report["output_digest"] = reference
    report["attempted"], report["failed"] = len(runs), failed
    good = [run for run in runs if run["digest"] is not None]
    timed = [run["record"] for run in good if run["kind"] == "untraced"]
    traced = [(run["record"], run["spans"]) for run in good if run["kind"] == "traced"]
    live = [run["spans"] for run in good if run["kind"] == "live"]
    report["replays"] = [
        {"kind": run["kind"], **{k: run["record"].get(k) for k in
                                 ("setup_s", "replay_s", "import_s", "maxrss_kb")}}
        for run in runs]
    report["reference_loop_ms_after"] = reference_loop_ms()

    quality = accuracy(kept_out, in_dir / "ground_truth.json") if kept_out else {}
    report["accuracy"] = quality
    # The default seed's inputs are fingerprinted and replays are
    # deterministic, so its accuracy is held to the recorded values.
    limits = (workload.default_accuracy if report["fingerprints"] == "match"
              else workload.accuracy_limits)
    if quality and quality["corner_error_mean_m"] is None:
        report["errors"].append("no site record matched ground truth")
    elif quality and scale == 1.0 and (quality["corner_error_mean_m"] > limits[0] + 1e-9
                                       or quality["sites_missed"] > limits[1]
                                       or quality["sites_spurious"] > limits[2]):
        report["errors"].append(f"accuracy {quality} outside limits {limits}")
    if report["fingerprints"] == "inputs changed":
        report["errors"].append("inputs changed: the simulator no longer makes "
                                "the recorded inputs, so numbers are not comparable")

    metrics = {}
    if timed:
        metrics.update(end_to_end(timed))
    if trace and traced and timed and live:
        metrics.update(per_layer(traced, timed, kept_out, live[0]))
        metrics.update(quality)
        metrics["failed_share"] = failed / max(1, len(runs))
    wanted = PER_LAYER if trace else END_TO_END
    report["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit, *_ in wanted if metrics.get(name) is not None}
    missing = [name for name, *_ in wanted if name not in report["metrics"]]
    if missing:
        report["errors"].append("metrics not measured: " + ", ".join(missing))
    report["correct"] = not report["errors"]
    report["sample_counts"] = {"replays": len(timed), "traced_replays": len(traced),
                               "cycles_per_replay": timed[0]["cycles"] if timed else 0}
    return report


def end_to_end(timed: list[dict]) -> dict:
    """The run's replays reduced to one value per metric.

    Interference from other tenants of a shared host only ever slows a
    replay, and it comes in bursts shorter than a replay.  Every replay
    does the same work cycle by cycle, so each cycle's latency is taken as
    its lowest over the replays; the cycle metrics are read from these
    best cycles, and ``replay_s`` is their sum plus the lowest time spent
    in ``ReplayEngine.run`` outside the cycles.  Between runs this spread
    about half as much as the fastest whole replay, which in turn spread
    half as much as the median replay.  ``setup_s`` and ``peak_rss_mb``
    are the lowest over the replays.
    """
    best_cycles = [min(cycle) for cycle in zip(*(r["latencies"] for r in timed))]
    outside_cycles = min(r["replay_s"] - sum(r["latencies"]) for r in timed)
    return {
        "setup_s": min(r["setup_s"] for r in timed),
        "replay_s": sum(best_cycles) + outside_cycles,
        "cycle_p50_ms": statistics.median(best_cycles) * 1e3,
        "cycle_p95_ms": percentile(best_cycles, 95) * 1e3,
        "peak_rss_mb": min(r["maxrss_kb"] / 1024.0 for r in timed),
    }


def per_layer(traced: list, timed: list[dict], out_dir: Path, live_spans: Path) -> dict:
    """Layer self times (best of the traced replays, as in ``end_to_end``) and counts.

    The link metrics come from the traced live replay alone.
    """
    import tracing

    layers: list[dict] = []
    for record, spans in traced:
        totals, header = tracing.self_times(str(spans))
        per = {"setup.import_s": record["import_s"]}
        for span, seconds in totals.items():
            metric = tracing.SPAN_LAYERS[span]
            per[metric] = per.get(metric, 0.0) + seconds
        layers.append(per)
        if len(layers) == 1:  # counts repeat exactly; keep the first replay's
            counts = {**header["counts"], **header["peaks"]}
    metrics = {name: min(per.get(name, 0.0) for per in layers)
               for name in set(tracing.SPAN_LAYERS.values()) | {"setup.import_s"}}
    record = traced[0][0]
    link_times, link_header = tracing.self_times(str(live_spans))

    def ratio(a, b):
        return counts.get(a, 0) / counts[b] if counts.get(b) else 0.0

    metrics.update({
        "streams.records": counts.get("streams.records", 0),
        "streams.bytes_in": counts.get("streams.bytes_in", 0),
        "detections.paired_ratio": ratio("detections.paired", "detections.pair_calls"),
        "detections.gated_ratio": ratio("detections.gate_out", "detections.gate_in"),
        "detections.link_s": link_times.get(tracing.LINK_SPAN, 0.0),
        "detections.link_requests": link_header["counts"].get("detections.link_requests", 0),
        "lidar.box_calls": counts.get("lidar.box_calls", 0),
        "lidar.box_yield": ratio("lidar.boxes", "lidar.box_calls"),
        "fusion.dets_in": counts.get("fusion.dets_in", 0),
        "fusion.boxes_in": counts.get("fusion.boxes_in", 0),
        "fusion.iou_calls": counts.get("fusion.iou_calls", 0),
        "fusion.matches": counts.get("fusion.matches", 0),
        "fusion.match_yield": ratio("fusion.matches", "fusion.dets_in"),
        "tracking.promotions": counts.get("tracking.promotions", 0),
        "tracking.tracked_peak": counts.get("tracking.tracked_peak", 0),
        "sites.hull_calls": counts.get("sites.hull_calls", 0),
        "sites.active_peak": counts.get("sites.active_peak", 0),
        "sites.nested_removed": counts.get("sites.nested_removed", 0),
        "sites.records": counts.get("sites.records", 0),
        "outputs.bytes_out": sum(p.stat().st_size for p in out_dir.rglob("*")
                                 if p.is_file()),
        "engine.cycles": record["cycles"],
        "engine.skipped_cycles": record["skipped_cycles"],
        "engine.cycle_max_ms": min(max(r["latencies"]) * 1e3 for r in timed),
        "trace.overhead_ratio": min(r["replay_s"] for r, _ in traced)
        / min(r["replay_s"] for r in timed),
    })
    return metrics


# -- command line -----------------------------------------------------------


def print_report(report: dict, reference: dict | None) -> None:
    from catalog import UNITS

    host = report["host"]
    print(f"== {report['workload']} seed {report['seed']}"
          f"{' (traced)' if report['trace'] else ''}")
    print(f"host: python {host['python']}, numpy {host['numpy']}, {host['cpu']}, "
          f"nproc {host['nproc']}; reference loop {report['reference_loop_ms_before']:.2f} ms "
          f"before, {report['reference_loop_ms_after']:.2f} ms after")
    print(f"inputs: {report['fingerprints']}")
    counts = report["sample_counts"]
    print(f"samples: {counts['replays']} untraced replays, {counts['traced_replays']} traced, "
          f"{counts['cycles_per_replay']} cycles each")
    theirs = reference.get("metrics", {}) if reference else {}
    for name, metric in report["metrics"].items():
        line = f"  {name:34s} {metric['value']:<12.6g} {metric['unit']}"
        if theirs.get(name, {}).get("value"):
            line += f"  (x{metric['value'] / theirs[name]['value']:.3f} of reference)"
        print(line)
    for name, value in report["accuracy"].items():
        if name not in report["metrics"] and value is not None:
            print(f"  {name:34s} {value:<12.6g} {UNITS[name]}")
    if "failed_share" not in report["metrics"]:
        print(f"  {'failed_share':34s} "
              f"{report['failed'] / max(1, report['attempted']):<12.6g} ratio")
    print(f"failed: {report['failed']} of {report['attempted']} replays")
    print(f"output digest: {report['output_digest']}")
    if reference is not None:
        if reference.get("seed") != report["seed"]:
            print(f"reference ran seed {reference.get('seed')}: digests are not comparable")
        same = reference.get("output_digest") == report["output_digest"]
        print(f"outputs identical to reference: {'yes' if same else 'no'}")
    for error in report["errors"]:
        print(f"error: {error}")


def load_reference(path: Path | None, workload: str) -> dict | None:
    if path is None:
        return None
    data = json.loads(path.read_text())
    return data.get(workload) if "workload" not in data else data


def run_all(args, workloads: dict) -> int:
    """Every workload, untraced then traced; prints all metrics, writes BENCHMARK.json."""
    import catalog

    base = ROOT / ".perfbench" / "all"
    reports = {}
    try:
        for name, workload in workloads.items():
            inputs = prepare_inputs(workload, workload.default_seed, 1.0, base / "inputs")
            for trace in (False, True):
                report = measure(workload, workload.default_seed, args.seconds, trace,
                                 base / name, inputs=inputs)
                print_report(report, load_reference(args.reference, name))
                if name not in reports:
                    reports[name] = report
                    continue
                merged = reports[name]
                merged["metrics"].update(report["metrics"])
                merged["errors"] += report["errors"]
                merged["correct"] = merged["correct"] and report["correct"]
    finally:
        shutil.rmtree(base, ignore_errors=True)
    catalog.write_manifest(ROOT / "BENCHMARK.json")
    print(f"wrote {ROOT / 'BENCHMARK.json'}")
    if args.report:
        args.report.write_text(json.dumps(reports, indent=1) + "\n")
    return 0 if all(r["correct"] for r in reports.values()) else 1


def record_fingerprints(workloads: dict) -> int:
    """Store the input digests of every workload's default seed."""
    recorded = {}
    base = ROOT / ".perfbench" / "fingerprints"
    try:
        for name, workload in workloads.items():
            inputs = prepare_inputs(workload, workload.default_seed, 1.0, base)
            recorded[name] = {"seed": workload.default_seed, "sha256": inputs["sha256"]}
            print(f"{name}: seed {workload.default_seed} recorded")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    FINGERPRINTS.write_text(json.dumps(recorded, indent=2) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    # Stopped from outside: unwind, so the replay in flight is killed and
    # the work files removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, help="default: the workload's own seed")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in both modes and write BENCHMARK.json")
    parser.add_argument("--record-fingerprints", action="store_true",
                        help="store the input digests of every workload's default seed")
    parser.add_argument("--report", type=Path, help="write the full report as JSON here")
    parser.add_argument("--reference", type=Path,
                        help="a --report file of another commit; compares output digests")
    args = parser.parse_args(argv)

    if not (SRC / "roadwork_mapper" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'roadwork_mapper'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import catalog
    from workloads import WORKLOADS

    if args.seconds is None:
        args.seconds = catalog.RUN_SECONDS
    if args.record_fingerprints:
        return record_fingerprints(WORKLOADS)
    if args.all:
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    work = ROOT / ".perfbench" / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        report = measure(workload, seed, args.seconds, bool(args.trace), work,
                         started=started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # other runs still use it
    print_report(report, load_reference(args.reference, workload.name))
    if args.report:
        args.report.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
