import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roadwork_mapper
from roadwork_mapper.cli import STREAM_FILES, main
from roadwork_mapper.config import load_config

SCENARIO = """\
path:
  - {x: 0.0, y: 0.0, speed: 10.0}
  - {x: 120.0, y: 0.0, speed: 10.0}
sites:
  - objects:
      - class: PanelPassRight
        footprint: [[30.0, -3.3], [30.4, -3.3], [30.4, -3.0], [30.0, -3.0]]
seed: 1
lidar_noise_sigma: 0.0
detector:
  box_sigma: 0.0
"""

REPO = Path(__file__).resolve().parents[1]
SAMPLE_CONFIG = str(REPO / "configs" / "sample_config.yaml")
SAMPLE_SCENARIO = str(REPO / "configs" / "sample_scenario.yaml")
STUB_DETECTOR = str(REPO / "perfbench" / "stub_detector.py")

RESPONDER = """\
import json
import sys

for line in sys.stdin:
    request = json.loads(line)
    reply = {"type": "detections", "t": request["t"], "items": []}
    print(json.dumps(reply), flush=True)
"""


@pytest.fixture()
def sim_dir(tmp_path):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO)
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(out)]) == 0
    return out


def _sample_drive(tmp_path):
    """The sample scenario's drive, simulated into ``tmp_path / "drive"``."""
    drive = tmp_path / "drive"
    assert main(["simulate", "--scenario", SAMPLE_SCENARIO, "--out-dir", str(drive)]) == 0
    return drive


def _files(out):
    """Every file under ``out``, by its relative path, with its bytes."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def _env_with_src(**extra):
    """The environment with the package's source on ``PYTHONPATH``."""
    src = str(Path(roadwork_mapper.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def test_simulate_writes_streams_and_truth(sim_dir, capsys):
    for name in ["odometry.jsonl", "lidar_objects.jsonl", "detections.jsonl",
                 "ground_truth.json"]:
        assert (sim_dir / name).is_file()
    truth = json.loads((sim_dir / "ground_truth.json").read_text())
    assert truth["frame"] == "local_world"
    assert len(truth["sites"]) == 1


def test_full_loop_replay_and_evaluate(sim_dir, tmp_path, capsys):
    out = tmp_path / "replay"
    assert main(["replay", "--in-dir", str(sim_dir), "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "1 roadwork" in printed
    assert (out / "summary.json").is_file()
    assert (out / "sites" / "site_000001.json").is_file()

    assert main([
        "evaluate",
        "--records", str(out),
        "--ground-truth", str(sim_dir / "ground_truth.json"),
    ]) == 0
    scored = capsys.readouterr().out
    assert "site 0 start: 0.000 m" in scored
    assert "mean 0.000 m" in scored
    assert "1 sites matched, 0 missed" in scored


def test_replay_loads_neither_numpy_nor_the_simulator(sim_dir, tmp_path):
    # Nor what only the simulator or a live detector needs.  A module that
    # the bare interpreter loads already (a site hook may) is not counted.
    unwanted = {"numpy", "roadwork_mapper.simulator", "dataclasses", "inspect", "subprocess",
                "shlex", "yaml"}
    report = f"print(*sorted({unwanted!r} & set(sys.modules)))\n"
    script = (
        "import sys\n"
        "from roadwork_mapper.cli import main\n"
        f"code = main(['replay', '--config', {SAMPLE_CONFIG!r},\n"
        f"             '--in-dir', {str(sim_dir)!r}, '--out-dir', {str(tmp_path / 'out')!r}])\n"
        "print(code)\n" + report
    )

    def run(code):
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_env_with_src(), check=True).stdout.splitlines()

    baseline = set(run("import sys\n" + report)[-1].split())
    *_, code, loaded = run(script)
    assert code == "0"
    assert set(loaded.split()) - baseline == set()
    assert (tmp_path / "out" / "summary.txt").exists()


def test_latency_report(sim_dir, tmp_path, capsys):
    out = tmp_path / "replay"
    assert main(["replay", "--in-dir", str(sim_dir), "--out-dir", str(out),
                 "--latency-report"]) == 0
    printed = capsys.readouterr().out
    assert "latency max" in printed
    stats = json.loads((out / "latency.json").read_text())
    cycles = stats["per_cycle_seconds"]
    assert stats["cycles"] == len(cycles) > 0
    assert stats["max_seconds"] >= stats["mean_seconds"] >= 0.0
    # Nearest rank: the smallest latency with at least q% of cycles at or below it.
    for q in (50, 95):
        value = stats[f"p{q}_seconds"]
        assert value == sorted(cycles)[math.ceil(len(cycles) * q / 100) - 1]
        assert f"p{q} {value * 1000.0:.2f} ms" in printed


def test_seed_override_changes_streams(tmp_path):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO.replace("lidar_noise_sigma: 0.0",
                                         "lidar_noise_sigma: 0.1"))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(out_a)]) == 0
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(out_b),
                 "--seed", "99"]) == 0
    assert (out_a / "lidar_objects.jsonl").read_bytes() != (
        out_b / "lidar_objects.jsonl"
    ).read_bytes()


def test_replay_with_external_detector(sim_dir, tmp_path, capsys):
    responder = tmp_path / "responder.py"
    responder.write_text(RESPONDER)
    out = tmp_path / "replay"
    code = main([
        "replay",
        "--in-dir", str(sim_dir),
        "--out-dir", str(out),
        "--detector-cmd", f"{sys.executable} {responder}",
    ])
    assert code == 0
    # the stand-in detector reports nothing, so no site may appear
    assert "no roadworks" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["count"] == 0


def test_live_replay_does_not_need_detections_file(sim_dir, tmp_path, capsys):
    responder = tmp_path / "responder.py"
    responder.write_text(RESPONDER)
    with_file = tmp_path / "with_file"
    assert main(["replay", "--in-dir", str(sim_dir), "--out-dir", str(with_file),
                 "--detector-cmd", f"{sys.executable} {responder}"]) == 0
    (sim_dir / "detections.jsonl").unlink()
    config = tmp_path / "session.yaml"
    config.write_text(f"inputs:\n  odometry: {sim_dir / 'odometry.jsonl'}\n"
                      f"  lidar_objects: {sim_dir / 'lidar_objects.jsonl'}\n")
    without = tmp_path / "without"
    assert main(["replay", "--config", str(config), "--out-dir", str(without),
                 "--detector-cmd", f"{sys.executable} {responder}"]) == 0
    for name in ("annotations.jsonl", "summary.json", "summary.txt"):
        assert (without / name).read_bytes() == (with_file / name).read_bytes()


# Closes its input before it answers the first request, so the second
# request always meets a pipe with no reader.
ONE_ANSWER_THEN_EXIT = """\
import json
import os
import sys

request = json.loads(sys.stdin.readline())
os.close(0)
print(json.dumps({"type": "detections", "t": request["t"], "items": []}), flush=True)
"""


def _replay_with_detector(sim_dir, tmp_path, command):
    return main([
        "replay",
        "--in-dir", str(sim_dir),
        "--out-dir", str(tmp_path / "replay"),
        "--detector-cmd", command,
    ])


def test_detector_that_exits_at_once_is_detector_error(sim_dir, tmp_path, capsys):
    code = _replay_with_detector(sim_dir, tmp_path, f'{sys.executable} -c "pass"')
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("detector error: ")
    assert err.count("\n") == 1


def test_detector_that_exits_mid_session_is_detector_error(sim_dir, tmp_path, capsys):
    responder = tmp_path / "once.py"
    responder.write_text(ONE_ANSWER_THEN_EXIT)
    code = _replay_with_detector(sim_dir, tmp_path, f"{sys.executable} {responder}")
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("detector error: link to the external detector failed")
    assert err.count("\n") == 1


@pytest.mark.parametrize("answer,reason", [
    pytest.param("print('x', flush=True)",
                 "with a malformed record: invalid JSON (Expecting value)", id="not-json"),
    pytest.param("sys.stdout.buffer.write(b'\\xff\\n'); sys.stdout.flush()",
                 "with invalid UTF-8", id="not-utf8"),
])
def test_detector_with_a_malformed_answer_is_detector_error(
        sim_dir, tmp_path, capsys, answer, reason):
    responder = tmp_path / "malformed.py"
    responder.write_text(f"import sys\nsys.stdin.readline()\n{answer}\nsys.stdin.read()\n")
    code = _replay_with_detector(sim_dir, tmp_path, f"{sys.executable} {responder}")
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith(f"detector error: external detector answered frame request "
                          f"'frame:0' {reason}")
    assert err.count("\n") == 1


def test_detector_answer_outside_the_pairing_window_is_detector_error(
        sim_dir, tmp_path, capsys):
    responder = tmp_path / "late.py"
    responder.write_text(RESPONDER.replace('request["t"]', 'request["t"] + 5.0'))
    code = _replay_with_detector(sim_dir, tmp_path, f"{sys.executable} {responder}")
    assert code == 4
    err = capsys.readouterr().err
    assert err == ("detector error: external detector answered frame request 'frame:0' "
                   "at t=0.0 with t=5.0, outside the pairing window of 0.1 s\n")


# Answers each request as file pairing would: the latest recorded frame
# within the window, else an empty frame at the request time.
FILE_PAIRING_RESPONDER = """\
import json
import sys

path, window = sys.argv[1], float(sys.argv[2])
with open(path) as handle:
    lines = [line.rstrip("\\n") for line in handle if line.strip()]
times = [json.loads(line)["t"] for line in lines]
for request in sys.stdin:
    t = json.loads(request)["t"]
    paired = [i for i, ti in enumerate(times) if abs(ti - t) <= window]
    answer = lines[paired[-1]] if paired else json.dumps(
        {"type": "detections", "t": t, "items": []})
    print(answer, flush=True)
"""


@pytest.mark.parametrize("window", [0.1, 0.03, pytest.param(None, id="stub-detector")])
def test_live_replay_writes_the_file_replay_bytes(sim_dir, tmp_path, window):
    if window is None:
        # The benchmark's stub detector, on the sample drive and config.
        drive, config, responder = _sample_drive(tmp_path), SAMPLE_CONFIG, STUB_DETECTOR
        window = load_config(Path(config)).pairing_window
        sites = {"sites/site_000001.json", "sites/site_000002.json"}
    else:
        # Every third camera frame is dropped, so that with the narrow
        # window some LiDAR frames pair with no camera frame at all.
        drive, config, responder = sim_dir, tmp_path / "session.yaml", tmp_path / "pairing.py"
        lines = (drive / "detections.jsonl").read_text().splitlines(keepends=True)
        (drive / "detections.jsonl").write_text(
            "".join(line for i, line in enumerate(lines) if i % 3))
        config.write_text(f"pairing_window: {window}\n")
        responder.write_text(FILE_PAIRING_RESPONDER)
        sites = {"sites/site_000001.json"}
    replay = ["replay", "--config", str(config), "--in-dir", str(drive), "--out-dir"]
    assert main([*replay, str(tmp_path / "file")]) == 0
    assert main([*replay, str(tmp_path / "live"), "--detector-cmd",
                 f"{sys.executable} {responder} {drive / 'detections.jsonl'} {window}"]) == 0
    written = {mode: _files(tmp_path / mode) for mode in ("file", "live")}
    assert written["live"] == written["file"]
    assert set(written["file"]) == {"annotations.jsonl", "summary.json", "summary.txt", *sites}


def test_detector_that_cannot_start_is_detector_error(sim_dir, tmp_path, capsys):
    code = _replay_with_detector(sim_dir, tmp_path, str(tmp_path / "no-such-detector"))
    assert code == 4
    assert capsys.readouterr().err.startswith("detector error: cannot start")


def test_missing_inputs_is_config_error(tmp_path, capsys):
    code = main(["replay", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "missing input streams" in capsys.readouterr().err


def test_unreadable_config_is_config_error(tmp_path, capsys):
    code = main(["replay", "--config", str(tmp_path / "absent.yaml"),
                 "--in-dir", str(tmp_path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["replay", "simulate"])
@pytest.mark.parametrize("layout,reason", [
    ("file", "File exists"),
    ("under-a-file", "Not a directory"),
])
def test_out_dir_that_cannot_be_created_is_config_error(sim_dir, tmp_path, capsys, verb,
                                                        layout, reason):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker if layout == "file" else blocker / "out"
    if verb == "replay":
        argv = ["replay", "--in-dir", str(sim_dir), "--out-dir", str(out)]
    else:
        argv = ["simulate", "--scenario", str(tmp_path / "scenario.yaml"), "--out-dir", str(out)]
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error: --out-dir {out}: cannot create ({reason})" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name,reason", [
    ("annotations.jsonl", "Is a directory"),
    ("sites", "File exists"),
    ("summary.json", "Is a directory"),
    ("latency.json", "Is a directory"),
])
def test_a_replay_output_that_cannot_be_written_is_config_error(sim_dir, tmp_path, capsys,
                                                                name, reason):
    out = tmp_path / "out"
    out.mkdir()
    if name == "sites":
        (out / name).write_text("")
    else:
        (out / name).mkdir()
    capsys.readouterr()
    code = main(["replay", "--in-dir", str(sim_dir), "--out-dir", str(out), "--latency-report"])
    assert code == 2
    assert capsys.readouterr().err == f"output error: {out / name}: cannot write ({reason})\n"


def test_a_stream_simulate_cannot_write_is_config_error(tmp_path, capsys):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO)
    blocked = tmp_path / "sim" / STREAM_FILES["odometry"]
    blocked.mkdir(parents=True)
    code = main(["simulate", "--scenario", str(scenario), "--out-dir", str(blocked.parent)])
    assert code == 2
    assert capsys.readouterr().err == f"output error: {blocked}: cannot write (Is a directory)\n"


FULL_DISK = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


@FULL_DISK
def test_a_replay_onto_a_full_disk_is_config_error(sim_dir, tmp_path, capsys):
    # A failed write names no file; the writer gives its path.
    out = tmp_path / "out"
    out.mkdir()
    (out / "annotations.jsonl").symlink_to("/dev/full")
    capsys.readouterr()
    code = main(["replay", "--in-dir", str(sim_dir), "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"output error: {out / 'annotations.jsonl'}: cannot write (No space left on device)\n")


@FULL_DISK
@pytest.mark.parametrize("name", ["sites/site_000001.json", "summary.json", "summary.txt",
                                  "latency.json"])
def test_each_replay_output_names_its_path_on_a_full_disk(sim_dir, tmp_path, capsys, name):
    out = tmp_path / "out"
    (out / "sites").mkdir(parents=True)
    (out / name).symlink_to("/dev/full")
    capsys.readouterr()
    code = main(["replay", "--in-dir", str(sim_dir), "--out-dir", str(out), "--latency-report"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"output error: {out / name}: cannot write (No space left on device)\n")


@FULL_DISK
@pytest.mark.parametrize("name", [*STREAM_FILES.values(), "ground_truth.json"])
def test_a_simulate_onto_a_full_disk_is_config_error(tmp_path, capsys, name):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO)
    out = tmp_path / "sim"
    out.mkdir()
    (out / name).symlink_to("/dev/full")
    code = main(["simulate", "--scenario", str(scenario), "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"output error: {out / name}: cannot write (No space left on device)\n")


@pytest.mark.parametrize("calibration,message", [
    ("{intrinsics: {fx: .inf}}", "calibration.intrinsics.fx must be finite"),
    ("{object_height: .nan}", "calibration.object_height must be finite"),
    ("{extrinsic: {translation: [.nan, 0.0, 0.0]}}",
     "calibration.extrinsic.translation[0] must be finite"),
])
def test_non_finite_calibration_is_config_error(sim_dir, tmp_path, capsys, calibration,
                                                message):
    config = tmp_path / "config.yaml"
    config.write_text(f"calibration: {calibration}\n")
    code = main(["replay", "--config", str(config), "--in-dir", str(sim_dir),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("calibration,message", [
    # PyYAML reads a float's exponent only with its sign.
    ("{intrinsics: {fx: 1.7e+308}}", "calibration.intrinsics.fx must be within 1e+09 in magnitude"),
    ("{extrinsic: {translation: [0, 1.0e+307, 0]}}",
     "calibration.extrinsic.translation[1] must be within 1e+09 in magnitude"),
    ("{object_height: 1.0e+307}", "calibration.object_height must be within 1e+09 in magnitude"),
])
def test_huge_calibration_is_config_error(sim_dir, tmp_path, capsys, calibration, message):
    config = tmp_path / "config.yaml"
    config.write_text(f"calibration: {calibration}\n")
    code = main(["replay", "--config", str(config), "--in-dir", str(sim_dir),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("threshold,expected", [("{divisor: 5.0e-324}", 5),
                                                ("{fps: 5.0e-324}", 2)])
def test_threshold_constants_that_overflow_the_curve_replay(sim_dir, tmp_path, threshold,
                                                            expected):
    config = tmp_path / "config.yaml"
    config.write_text(f"threshold: {threshold}\n")
    out = tmp_path / "out"
    assert main(["replay", "--config", str(config), "--in-dir", str(sim_dir),
                 "--out-dir", str(out)]) == 0
    lines = (out / "annotations.jsonl").read_text().splitlines()
    assert {json.loads(line)["detection_threshold"] for line in lines} == {expected}


@pytest.mark.parametrize("window", [".nan", "-1.0", "0.0", ".inf"])
def test_pairing_window_outside_its_domain_is_config_error(sim_dir, tmp_path, capsys, window):
    config = tmp_path / "config.yaml"
    config.write_text(f"pairing_window: {window}\n")
    code = main(["replay", "--config", str(config), "--in-dir", str(sim_dir),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    domain = "finite" if window in (".nan", ".inf") else "> 0"
    assert f"config error: pairing_window must be {domain}\n" in capsys.readouterr().err


@pytest.mark.parametrize("old,new", [
    ("[30.4, -3.0]", "[1.0e+7, -3.0]"),  # a footprint vertex beyond the contour bound
    ("lidar_noise_sigma: 0.0", "lidar_noise_sigma: 1.0e+300"),
])
def test_a_scenario_that_simulate_accepts_replay_accepts(tmp_path, old, new):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO.replace(old, new))
    drive = tmp_path / "drive"
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(drive)]) == 0
    assert main(["replay", "--in-dir", str(drive), "--out-dir", str(tmp_path / "out")]) == 0
    # the scenario's one object is left out of every frame, as it leaves the bound
    assert '"points"' not in (drive / "lidar_objects.jsonl").read_text()


def test_bad_scenario_is_config_error(tmp_path, capsys):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text("path: []\n")
    code = main(["simulate", "--scenario", str(scenario),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_scenario_list_with_a_bool_is_config_error(tmp_path, capsys):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO + "  confidence: [true, '0.9', extra]\n")
    code = main(["simulate", "--scenario", str(scenario),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert ("config error: scenario.detector.confidence must be a list of two numbers"
            in capsys.readouterr().err)


def test_scenario_with_a_negative_seed_is_config_error(tmp_path, capsys):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO.replace("seed: 1", "seed: -1"))
    code = main(["simulate", "--scenario", str(scenario), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "config error: scenario.seed must be >= 0\n"
    scenario.write_text(SCENARIO)
    code = main(["simulate", "--scenario", str(scenario), "--out-dir", str(tmp_path / "out"),
                 "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "config error: --seed must be >= 0\n"


def test_keys_outside_their_domain_are_config_errors_without_a_traceback(sim_dir, tmp_path,
                                                                         capsys):
    """A flow-style NaN and a negative distance in a session config, and
    the sample scenario with a negative seed, each end in a config error."""
    (tmp_path / "nan.yaml").write_text("separation: {lateral: .nan}\n")
    (tmp_path / "negative.yaml").write_text("sites: {finalize_distance: -5.0}\n")
    sample = Path(SAMPLE_SCENARIO).read_text()
    assert sample.count("\nseed: 1 ") == 1
    (tmp_path / "scenario.yaml").write_text(sample.replace("\nseed: 1 ", "\nseed: -1 "))
    errors = []
    for name in ("nan", "negative"):
        assert main(["replay", "--config", str(tmp_path / f"{name}.yaml"),
                     "--in-dir", str(sim_dir), "--out-dir", str(tmp_path / name)]) == 2
        errors.append(capsys.readouterr().err)
    assert main(["simulate", "--scenario", str(tmp_path / "scenario.yaml"),
                 "--out-dir", str(tmp_path / "seed")]) == 2
    errors.append(capsys.readouterr().err)
    assert "config error: separation.lateral must be finite" in errors[0]
    assert all(err.startswith("config error: ") and "Traceback" not in err for err in errors)


@pytest.mark.parametrize("min_range", ["30.0", "20.0"])
def test_detector_fall_off_that_does_not_fall_is_config_error(tmp_path, capsys, min_range):
    # full_probability_range is 30 m: the fall-off must end beyond it
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO + f"  min_probability_range: {min_range}\n")
    code = main(["simulate", "--scenario", str(scenario), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: scenario.detector: min_probability_range must be greater than "
        "full_probability_range\n")


@pytest.mark.parametrize("first,second,message", [
    ("{x: .inf, y: 0.0}", "{x: 10.0, y: 0.0}", "scenario.path[0].x must be finite"),
    ("{x: .nan, y: 0.0}", "{x: 10.0, y: 0.0}", "scenario.path[0].x must be finite"),
    ("{x: 0.0, y: 0.0}", "{x: 0.0, y: 0.0}", "scenario.path: path contains a zero-length segment"),
    ("{x: -1.0e+308, y: 0.0}", "{x: 1.0e+308, y: 0.0}",
     "scenario.path: path is too long to drive"),
    ("{x: 0.0, y: 0.0, speed: 1.0e-9}", "{x: 10.0, y: 0.0, speed: 1.0e-9}",
     "scenario.path: the drive takes 1e+10 s, so its 50 Hz stream would need more than"),
])
def test_scenario_with_an_undrivable_path_is_config_error(tmp_path, capsys, first, second,
                                                          message):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(f"path:\n  - {first}\n  - {second}\n")
    code = main(["simulate", "--scenario", str(scenario),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_malformed_stream_is_format_error(sim_dir, tmp_path, capsys):
    lidar = sim_dir / "lidar_objects.jsonl"
    lines = lidar.read_text().splitlines()
    lines[4] = '{"type": "lidar_objects", "t": "oops"}'
    lidar.write_text("\n".join(lines) + "\n")
    code = main(["replay", "--in-dir", str(sim_dir),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "input format error" in err
    assert "lidar_objects.jsonl:5" in err


@pytest.mark.parametrize("case", ["ok", "malformed-lidar", "collector-off"])
def test_replay_restores_the_collector(sim_dir, tmp_path, case):
    # A replay reads its streams with the collector off and freezes them;
    # an in-process caller gets the collector back as it was, nothing frozen.
    if case == "malformed-lidar":
        lidar = sim_dir / "lidar_objects.jsonl"
        lines = lidar.read_text().splitlines()
        lines[4] = '{"type": "lidar_objects", "t": "oops"}'
        lidar.write_text("\n".join(lines) + "\n")
    was_enabled = gc.isenabled()
    if case == "collector-off":
        gc.disable()
    try:
        before = gc.isenabled()
        code = main(["replay", "--in-dir", str(sim_dir), "--out-dir", str(tmp_path / "out")])
        assert gc.isenabled() is before
        assert gc.get_freeze_count() == 0
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert code == (3 if case == "malformed-lidar" else 0)


def test_lines_the_fast_decoder_refuses_replay_as_the_lines_it_takes(tmp_path, capsys):
    # The sample drive with one key more on every line, which the reader
    # does not read: orjson's path refuses every line, and json's path
    # reads it.  Then an object id of 2**64, which orjson reads as a float
    # and json as an int.
    drive = _sample_drive(tmp_path)
    noted, big_id = tmp_path / "noted", tmp_path / "big-id"
    noted.mkdir()
    big_id.mkdir()
    for name in STREAM_FILES.values():
        lines = (drive / name).read_text().splitlines()
        (noted / name).write_text(
            "".join(json.dumps({**json.loads(line), "note": 1}) + "\n" for line in lines))
        (big_id / name).write_bytes((drive / name).read_bytes())
    lidar = big_id / STREAM_FILES["lidar_objects"]
    lines = lidar.read_text().splitlines()
    record = json.loads(lines[99])
    record["objects"].append({"id": 2 ** 64, "points": [[10.0, 1.0], [11.0, 1.0]]})
    lines[99] = json.dumps(record)
    lidar.write_text("\n".join(lines) + "\n")

    written = {}
    for in_dir in (drive, noted):
        out = tmp_path / f"out-{in_dir.name}"
        assert main(["replay", "--config", SAMPLE_CONFIG, "--in-dir", str(in_dir),
                     "--out-dir", str(out)]) == 0
        written[in_dir.name] = _files(out)
    assert written["noted"] == written["drive"]
    assert any(name.startswith("sites") for name in written["drive"])
    capsys.readouterr()
    assert main(["replay", "--config", SAMPLE_CONFIG, "--in-dir", str(big_id),
                 "--out-dir", str(tmp_path / "out-big-id")]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_a_drive_with_no_detection_replays_with_every_cycle_empty(tmp_path, capsys):
    drive = _sample_drive(tmp_path)
    (drive / STREAM_FILES["detections"]).write_text("")
    out = tmp_path / "replay"
    capsys.readouterr()
    assert main(["replay", "--config", SAMPLE_CONFIG, "--in-dir", str(drive),
                 "--out-dir", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    annotations = (out / "annotations.jsonl").read_text().splitlines()
    assert len(annotations) == len(
        (drive / STREAM_FILES["lidar_objects"]).read_text().splitlines())
    assert all(item["site_id"] is None
               for line in annotations for item in json.loads(line)["objects"])
    assert json.loads((out / "summary.json").read_text())["count"] == 0
    assert not [name for name in _files(out) if name.startswith("sites")]


# One site of four classes, so that an output whose order followed a set
# of the classes would change with the hash seed.
MIXED_SITE_SCENARIO = """\
path:
  - {x: 0.0, y: 0.0, speed: 10.0}
  - {x: 160.0, y: 0.0, speed: 10.0}
sites:
  - objects:
      - {class: TrafficCone, footprint: [[40.0, -3.3], [40.4, -3.3], [40.4, -2.9], [40.0, -2.9]]}
      - {class: PanelPassRight, footprint: [[44.0, -3.3], [44.4, -3.3], [44.4, -3.0], [44.0, -3.0]]}
      - {class: Barrier, footprint: [[48.0, -3.3], [50.0, -3.3], [50.0, -3.0], [48.0, -3.0]]}
      - {class: PanelPassLeft, footprint: [[53.0, -3.3], [53.4, -3.3], [53.4, -3.0], [53.0, -3.0]]}
seed: 3
lidar_noise_sigma: 0.0
detector:
  box_sigma: 0.0
"""


def test_replays_do_not_depend_on_the_hash_seed(tmp_path):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(MIXED_SITE_SCENARIO)
    drive = tmp_path / "drive"
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(drive)]) == 0
    # Each replay runs in its own interpreter, as the seed is fixed at start.
    written = {}
    for seed in ("0", "12345"):
        out = tmp_path / f"seed{seed}"
        subprocess.run([sys.executable, "-m", "roadwork_mapper.cli", "replay",
                        "--config", SAMPLE_CONFIG, "--in-dir", str(drive), "--out-dir", str(out)],
                       env=_env_with_src(PYTHONHASHSEED=seed), capture_output=True, check=True)
        written[seed] = _files(out)
    assert written["12345"] == written["0"]
    sites = [json.loads(data) for name, data in written["0"].items() if name.startswith("sites")]
    assert max(len(site["class_counts"]) for site in sites) >= 3


@pytest.mark.parametrize("verb", ["replay", "simulate"])
def test_a_yaml_file_that_is_not_utf8_is_config_error(sim_dir, tmp_path, capsys, verb):
    document = tmp_path / "document.yaml"
    if verb == "replay":
        document.write_bytes(b"matching:\n  iou: 0.5 # \xff\n")
        argv = ["replay", "--config", str(document), "--in-dir", str(sim_dir)]
    else:
        document.write_bytes(SCENARIO.encode() + b"# \xff\n")
        argv = ["simulate", "--scenario", str(document)]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    line = document.read_bytes().count(b"\n")  # the last line holds the byte
    assert err == (f"config error: invalid YAML in {document}:{line}: "
                   "unacceptable character #x00ff: invalid start byte\n")
    assert not (tmp_path / "out").exists()


def test_a_value_yaml_cannot_build_is_config_error_at_its_line(sim_dir, tmp_path, capsys,
                                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("t.yaml").write_text("matching:\n  iou: 0.5\nstamp: 2020-02-30\n")
    argv = ["replay", "--config", "t.yaml", "--in-dir", str(sim_dir), "--out-dir", "out"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: invalid YAML in t.yaml:3: day is out of range for month\n")
    assert not Path("out").exists()


def test_duplicate_object_id_is_format_error(sim_dir, tmp_path, capsys):
    lidar = sim_dir / "lidar_objects.jsonl"
    lines = lidar.read_text().splitlines()
    lines[2] = ('{"type": "lidar_objects", "t": 0.2, "objects": '
                '[{"id": 7, "points": [[1.0, 0.0]]}, {"id": 7, "points": [[2.0, 0.0]]}]}')
    lidar.write_text("\n".join(lines) + "\n")
    code = main(["replay", "--in-dir", str(sim_dir),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "lidar_objects.jsonl:3: duplicate object id 7" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("points,message", [
    # 20 m away, so in range; the far point would project to u = -inf.
    pytest.param([[10.0, 1e308], [20.0, 0.0]], "field 'points.y' must be within 1e+06 in magnitude",
                 id="overflowing-projection"),
    pytest.param([[20.0, 0.0], [-1000000.5, 0.0]],
                 "field 'points.x' must be within 1e+06 in magnitude", id="just-beyond-the-bound"),
    pytest.param([[20.0, 0.0], [10, -10000000]],
                 "field 'points.y' must be within 1e+06 in magnitude", id="integer"),
])
def test_contour_coordinate_beyond_the_bound_is_format_error(sim_dir, tmp_path, capsys, points,
                                                              message):
    lidar = sim_dir / "lidar_objects.jsonl"
    lines = lidar.read_text().splitlines()
    record = json.loads(lines[10])
    record["objects"].append({"id": 999, "points": points})
    lines[10] = json.dumps(record)
    lidar.write_text("\n".join(lines) + "\n")
    code = main(["replay", "--in-dir", str(sim_dir), "--out-dir", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert f"lidar_objects.jsonl:11: {message}" in err
    assert "Traceback" not in err


def test_contour_coordinate_on_the_bound_is_accepted(sim_dir, tmp_path, capsys):
    lidar = sim_dir / "lidar_objects.jsonl"
    lines = lidar.read_text().splitlines()
    record = json.loads(lines[10])
    record["objects"].append({"id": 999, "points": [[20.0, 0.0], [1e6, -1e6]]})
    lines[10] = json.dumps(record)
    lidar.write_text("\n".join(lines) + "\n")
    assert main(["replay", "--in-dir", str(sim_dir), "--out-dir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("line,message", [
    pytest.param(
        b'{"type": "odometry", "t": 1' + b"0" * 400 + b', "x": 0, "y": 0, "heading": 0, "speed": 0}',
        "field 't' must be finite", id="t-beyond-double"),
    pytest.param(
        b'{"type": "odometry", "t": 1' + b"0" * 5000 + b', "x": 0, "y": 0, "heading": 0, "speed": 0}',
        "invalid JSON (Exceeds the limit (4300 digits)", id="t-beyond-int-string-limit"),
    pytest.param(b'{"type": "odometry", "t": 0.5, "note": "\xff"}',
                 "invalid UTF-8 (byte 0xff)", id="not-utf8"),
    pytest.param(b'{"type": "odometry", "t": 0.5, "x": 0, "y": 0, "heading": 0, "speed": -0.5}',
                 "field 'speed' must be non-negative", id="negative-speed"),
])
def test_unreadable_stream_line_is_format_error(sim_dir, tmp_path, capsys, line, message):
    odometry = sim_dir / "odometry.jsonl"
    lines = odometry.read_bytes().splitlines()
    lines[6] = line
    odometry.write_bytes(b"\n".join(lines) + b"\n")
    code = main(["replay", "--in-dir", str(sim_dir),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert f"odometry.jsonl:7: {message}" in err
    assert "Traceback" not in err


def test_missing_stream_file_is_format_error(sim_dir, tmp_path, capsys):
    (sim_dir / "detections.jsonl").unlink()
    code = main(["replay", "--in-dir", str(sim_dir),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert "input format error" in capsys.readouterr().err


def test_stream_path_that_is_a_directory_is_format_error(sim_dir, tmp_path, capsys):
    (sim_dir / "detections.jsonl").unlink()
    (sim_dir / "detections.jsonl").mkdir()
    code = main(["replay", "--in-dir", str(sim_dir),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert f"input format error: {sim_dir / 'detections.jsonl'}: cannot open" in err
    assert "Traceback" not in err


def test_evaluate_with_no_records(sim_dir, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main([
        "evaluate",
        "--records", str(empty),
        "--ground-truth", str(sim_dir / "ground_truth.json"),
    ]) == 0
    assert "0 sites matched, 1 missed" in capsys.readouterr().out


def _evaluate_format_error(capsys, records, truth):
    """The message of an ``evaluate`` run that must exit with a format error."""
    assert main(["evaluate", "--records", str(records), "--ground-truth", str(truth)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("content,message", [
    (None, "cannot open (No such file or directory)"),
    ("directory", "cannot open (Is a directory)"),
    ("site 1: start 0 0\n", "invalid JSON (Expecting value: line 1 column 1 (char 0))"),
    ('{"sites": [{"start": [0, 0], "end": [1, 0]}]}', "ground truth lacks field 'deepest'"),
    ('{"sites": [{"start": [0, 0], "end": [1], "deepest": [1, 1]}]}',
     "malformed ground truth (list index out of range)"),
    ('{"sites": [{"start": ["1", true], "end": [NaN, 0], "deepest": [1, 1]}]}',
     "malformed ground truth (field 'sites[0].start[0]' must be a number)"),
    ('{"sites": [{"start": [1, true], "end": [1, 0], "deepest": [1, 1]}]}',
     "malformed ground truth (field 'sites[0].start[1]' must be a number)"),
    ('{"sites": [{"start": [0, 0], "end": [NaN, 0], "deepest": [1, 1]}]}',
     "malformed ground truth (field 'sites[0].end[0]' must be finite)"),
    ('{"sites": [{"start": [0, 0], "end": [1, 0], "deepest": [1, -Infinity]}]}',
     "malformed ground truth (field 'sites[0].deepest[1]' must be finite)"),
], ids=["missing", "directory", "not-json", "missing-corner", "short-corner",
        "string-corner", "bool-corner", "nan-corner", "infinite-corner"])
def test_bad_ground_truth_is_format_error(sim_dir, tmp_path, capsys, content, message):
    truth = tmp_path / "truth.json"
    if content == "directory":
        truth.mkdir()
    elif content is not None:
        truth.write_text(content)
    err = _evaluate_format_error(capsys, tmp_path, truth)
    assert err == f"input format error: {truth}: {message}\n"


@pytest.mark.parametrize("layout,reason", [
    ("missing", "No such file or directory"),
    ("file", "Not a directory"),
])
def test_records_that_are_not_a_directory_are_format_error(sim_dir, tmp_path, capsys,
                                                           layout, reason):
    records = tmp_path / "no-such-dir"
    if layout == "file":
        records.write_text("")
    err = _evaluate_format_error(capsys, records, sim_dir / "ground_truth.json")
    assert err == f"input format error: {records}: cannot open ({reason})\n"


def test_site_record_with_a_non_finite_number_is_format_error(sim_dir, tmp_path, capsys):
    record = tmp_path / "out" / "sites" / "site_000001.json"
    record.parent.mkdir(parents=True)
    record.write_text(json.dumps({
        "site_id": 1, "frame": "local", "utm_zone": None,
        "raw_polygon": [[0.0, 0.0], [1.0, math.nan]],
        "hull_polygon": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], "length": 1.0, "depth": 1.0,
        "class_counts": {"Barrier": 1}, "start_time": 0.0, "end_time": 1.0,
    }))
    err = _evaluate_format_error(capsys, tmp_path / "out", sim_dir / "ground_truth.json")
    assert err == (f"input format error: {record}: malformed site record "
                   f"(field 'raw_polygon[1][1]' must be finite)\n")


_SITE_RECORD = {
    "site_id": 1, "frame": "local", "utm_zone": None,
    "raw_polygon": [[0.0, 0.0], [1.0, 0.0]],
    "hull_polygon": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], "length": 1.0, "depth": 1.0,
    "class_counts": {"Barrier": 1}, "start_time": 0.0, "end_time": 1.0,
}


@pytest.mark.parametrize("changes,field", [
    ({"site_id": True}, "site_id"),
    ({"site_id": "7"}, "site_id"),
    ({"site_id": 7.0}, "site_id"),
    ({"class_counts": {"Barrier": True}}, "class_counts.Barrier"),
    ({"class_counts": {"Barrier": "7"}}, "class_counts.Barrier"),
    ({"class_counts": {"Barrier": 7.0}}, "class_counts.Barrier"),
], ids=["site_id-bool", "site_id-string", "site_id-float",
        "count-bool", "count-string", "count-float"])
def test_site_record_with_a_non_integer_is_format_error(sim_dir, tmp_path, capsys,
                                                       changes, field):
    record = tmp_path / "out" / "sites" / "site_000001.json"
    record.parent.mkdir(parents=True)
    record.write_text(json.dumps({**_SITE_RECORD, **changes}))
    err = _evaluate_format_error(capsys, tmp_path / "out", sim_dir / "ground_truth.json")
    assert err == (f"input format error: {record}: malformed site record "
                   f"(field '{field}' must be an integer)\n")


def test_site_record_without_raw_polygon_is_format_error(sim_dir, tmp_path, capsys):
    record = tmp_path / "out" / "sites" / "site_000001.json"
    record.parent.mkdir(parents=True)
    record.write_text(json.dumps({
        "site_id": 1, "frame": "local", "utm_zone": None,
        "hull_polygon": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], "length": 1.0, "depth": 1.0,
        "class_counts": {"Barrier": 1}, "start_time": 0.0, "end_time": 1.0,
    }))
    err = _evaluate_format_error(capsys, tmp_path / "out", sim_dir / "ground_truth.json")
    assert err == f"input format error: {record}: site record lacks field 'raw_polygon'\n"


@pytest.mark.parametrize("field", ["hull_polygon", "raw_polygon"])
def test_site_record_with_an_empty_polygon_is_format_error(sim_dir, tmp_path, capsys, field):
    record = tmp_path / "out" / "sites" / "site_000001.json"
    record.parent.mkdir(parents=True)
    record.write_text(json.dumps({**_SITE_RECORD, field: []}))
    err = _evaluate_format_error(capsys, tmp_path / "out", sim_dir / "ground_truth.json")
    assert err == (f"input format error: {record}: malformed site record "
                   f"(field '{field}' must not be empty)\n")
