"""Self-tests of the benchmark on reduced-size drives.

Run with ``python3 -m pytest perfbench``.
"""
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import catalog  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCALE = 0.1


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    workload = WORKLOADS[name]
    report = run.measure(workload, workload.default_seed, 0.0, trace, tmp_path,
                         scale=SCALE)
    assert report["correct"], report["errors"]
    wanted = catalog.PER_LAYER if trace else catalog.END_TO_END
    assert {n: m["unit"] for n, m in report["metrics"].items()} == \
        {n: unit for n, unit, *_ in wanted}
    assert report["failed"] == 0 and report["attempted"] >= run.MIN_REPLAYS
    if trace:  # the traced live check replay asks the link once per cycle
        metrics = report["metrics"]
        assert metrics["detections.link_requests"]["value"] == \
            metrics["engine.cycles"]["value"]
        assert metrics["detections.link_s"]["value"] > 0.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_self_times_fit_in_replay(name, tmp_path):
    workload = WORKLOADS[name]
    inputs = run.prepare_inputs(workload, workload.default_seed, SCALE, tmp_path / "in")
    spans = tmp_path / "spans.jsonl"
    record = run.replay(tmp_path / "in", tmp_path / "out", False, spans,
                        time.monotonic() + 120)
    assert run.replay_error(record, tmp_path / "out", inputs["frames"]) is None
    totals, header = tracing.self_times(str(spans))
    assert not header["unwrapped"]
    in_replay = sum(s for span, s in totals.items() if span not in tracing.SETUP_SPANS)
    assert 0.0 < in_replay <= record["replay_s"]
    assert totals["engine.build_contour_box"] > 0.0


def test_live_stub_matches_file_replay(tmp_path):
    workload = WORKLOADS["corridor"]
    run.prepare_inputs(workload, workload.default_seed, SCALE, tmp_path / "in")
    digests = []
    for live in (False, True):
        out = tmp_path / f"out-{live}"
        record = run.replay(tmp_path / "in", out, live, None, time.monotonic() + 120)
        assert record["exit_code"] == 0, record["stderr"]
        digests.append(run.output_digest(out))
    assert digests[0] == digests[1]
