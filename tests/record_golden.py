"""Re-record the golden output digests that ``tests/test_golden.py`` checks.

    PYTHONPATH=src python tests/record_golden.py [--inputs]

replays each checked-in drive and writes ``tests/data/golden.json``.  With
``--inputs`` it first simulates the drives again and rewrites their streams
(gzipped with no timestamp, so equal streams give equal files) and the
sample drive's ground truth; the inputs are checked in so that the table
does not depend on the simulator's numpy.
"""
import argparse
import gzip
import json
import sys
import tempfile
from pathlib import Path

from roadwork_mapper import streams
from roadwork_mapper.cli import STREAM_FILES
from roadwork_mapper.simulator import generate_streams, load_scenario, write_ground_truth

from test_golden import DATA, DRIVES, GOLDEN, REPO, output_digests


def write_inputs() -> None:
    from test_properties import _BRIDGED

    drives = {
        "sample": generate_streams(load_scenario(REPO / "configs" / "sample_scenario.yaml")),
        "bridged": _BRIDGED,
    }
    for name, drive in drives.items():
        target = DATA / name
        target.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as work:
            for key, records in (("odometry", drive.odometry), ("lidar_objects", drive.lidar),
                                 ("detections", drive.detections)):
                plain = Path(work) / STREAM_FILES[key]
                streams.write_stream(plain, records)
                gzipped = gzip.compress(plain.read_bytes(), compresslevel=9, mtime=0)
                (target / f"{STREAM_FILES[key]}.gz").write_bytes(gzipped)
        if name == "sample":
            write_ground_truth(drive.ground_truth, target / "ground_truth.json")


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", action="store_true",
                        help="simulate the drives again and rewrite their inputs first")
    if parser.parse_args(argv).inputs:
        write_inputs()
    table = {}
    for drive in DRIVES:
        with tempfile.TemporaryDirectory() as work:
            table[drive] = output_digests(drive, Path(work))
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
