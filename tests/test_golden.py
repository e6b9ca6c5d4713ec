"""Golden output digests: replays of two checked-in drives write the
recorded bytes.

Each drive's streams are checked in gzipped under ``tests/data/<drive>/``,
so every Python and numpy version replays the same input bytes:

- ``sample``: the drive of ``configs/sample_scenario.yaml``, with its
  ``ground_truth.json``;
- ``bridged``: ``test_properties._BRIDGED``, on which object 4 joins two
  sites.

Each drive is replayed through ``cli.main`` with the sample config, and the
sha256 digest of every output file (``annotations.jsonl``, ``sites/*``,
``summary.*``), and of ``evaluate``'s stdout where the drive has a ground
truth, must equal the one in ``tests/data/golden.json``.  A change that
moves output bytes on purpose re-records the table with

    PYTHONPATH=src python tests/record_golden.py

and says which digests changed and why.
"""
import contextlib
import gzip
import hashlib
import io
import json
from pathlib import Path

import pytest

from roadwork_mapper.cli import STREAM_FILES, main

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "tests" / "data"
GOLDEN = DATA / "golden.json"
SAMPLE_CONFIG = REPO / "configs" / "sample_config.yaml"
DRIVES = ("bridged", "sample")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(drive: str, work: Path) -> dict[str, str]:
    """The digest of each output of a replay of the checked-in ``drive``
    in ``work``, by its path in the output directory, and of ``evaluate``'s
    stdout as ``evaluate stdout`` where the drive has a ground truth."""
    source, in_dir, out = DATA / drive, work / "in", work / "out"
    in_dir.mkdir(parents=True)
    for name in STREAM_FILES.values():
        (in_dir / name).write_bytes(gzip.decompress((source / f"{name}.gz").read_bytes()))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["replay", "--config", str(SAMPLE_CONFIG), "--in-dir", str(in_dir),
                     "--out-dir", str(out)]) == 0
    digests = {p.relative_to(out).as_posix(): _sha256(p.read_bytes())
               for p in sorted(out.rglob("*")) if p.is_file()}
    truth = source / "ground_truth.json"
    if truth.exists():
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main(["evaluate", "--records", str(out), "--ground-truth", str(truth)]) == 0
        digests["evaluate stdout"] = _sha256(printed.getvalue().encode())
    return digests


@pytest.mark.parametrize("drive", DRIVES)
def test_replay_writes_the_recorded_bytes(drive, tmp_path):
    assert output_digests(drive, tmp_path) == json.loads(GOLDEN.read_text())[drive]
