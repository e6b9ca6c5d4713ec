import dataclasses
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from roadwork_mapper import cli, simulator
from roadwork_mapper.config import (
    MAX_CALIBRATION_MAGNITUDE,
    SESSION_KEYS,
    ConfigError,
    _plain_yaml,
    config_from_dict,
    default_config,
    load_config,
)
from roadwork_mapper.records import Record
from roadwork_mapper.simulator import PathVertex, Scenario, load_scenario, scenario_from_dict

REPO = Path(__file__).resolve().parents[1]


def leaf_fields(obj, prefix=""):
    """Values of nested records and dataclasses by dotted field name; arrays
    as lists.  A record's fields are its slots."""
    if isinstance(obj, Record):
        names = type(obj).__slots__
    elif dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj)]
    else:
        return {prefix: obj.tolist() if isinstance(obj, np.ndarray) else obj}
    out = {}
    for name in names:
        out.update(leaf_fields(getattr(obj, name), f"{prefix}.{name}".lstrip(".")))
    return out


def test_leaf_fields_names_every_setting():
    sensor = {f"sensor.{name}" for name in (
        "extrinsic.rotation", "extrinsic.translation", "object_height", "sensor_mount_height",
        *(f"intrinsics.{key}" for key in ("fx", "fy", "cx", "cy", "width", "height")))}
    assert set(leaf_fields(default_config())) == sensor | {
        "anchor", "inputs", "pairing_window", "eviction_timeout", "ghost_retention",
        "finalize_distance", "hull_inflation",
        "confidence.barrier_threshold", "confidence.other_threshold",
        "matching.iou_threshold", "matching.size_ratio_limit", "matching.tracking_range",
        *(f"threshold.{key}" for key in ("scale", "divisor", "usable_range", "fps",
                                         "min_threshold", "max_threshold")),
        *(f"separation.{key}" for key in ("panel_panel_longitudinal", "lateral",
                                          "barrier_barrier_longitudinal",
                                          "barrier_other_longitudinal")),
    }
    assert set(leaf_fields(scenario_from_dict({"path": SCENARIO_PATH}))) == sensor | {
        "seed", "path", "sites", "lidar_hz", "camera_hz", "odometry_hz", "lidar_noise_sigma",
        "lidar_range",
        *(f"detector.{key}" for key in ("fov_deg", "max_range", "full_probability_range",
                                        "min_probability", "min_probability_range", "box_sigma",
                                        "confidence_low", "confidence_high", "visual_height")),
    }


def nested(sections, key, value):
    data = {key: value}
    for name in reversed(sections):
        data = {name: data}
    return data


def bumped(value):
    """A valid value different from ``value``, of the same kind."""
    return value + 1 if type(value) is int else value + 0.25


def test_defaults_reproduce_published_constants():
    cfg = default_config()
    assert cfg.confidence.barrier_threshold == 0.75
    assert cfg.confidence.other_threshold == 0.70
    assert cfg.matching.iou_threshold == 0.5
    assert cfg.matching.size_ratio_limit == 2.0
    assert cfg.matching.tracking_range == 50.0
    assert cfg.threshold.scale == 5.0
    assert cfg.threshold.divisor == 12.5
    assert cfg.threshold.usable_range == 50.0
    assert cfg.threshold.fps == 10.0
    assert (cfg.threshold.min_threshold, cfg.threshold.max_threshold) == (2, 5)
    assert cfg.separation.panel_panel_longitudinal == 12.0
    assert cfg.separation.barrier_barrier_longitudinal == 2.0
    assert cfg.separation.barrier_other_longitudinal == 6.0
    assert cfg.separation.lateral == 1.5
    assert cfg.eviction_timeout == 2.0
    assert cfg.ghost_retention == 15.0
    assert cfg.finalize_distance == 50.0
    assert cfg.hull_inflation == 1.5
    assert cfg.pairing_window == 0.100
    assert cfg.anchor is None
    assert cfg.sensor.object_height == 1.60


def test_empty_dict_equals_defaults():
    cfg = config_from_dict({})
    ref = default_config()
    assert cfg.confidence == ref.confidence
    assert cfg.matching == ref.matching
    assert cfg.threshold == ref.threshold
    assert cfg.separation == ref.separation
    assert cfg.sensor.intrinsics == ref.sensor.intrinsics


def test_overrides_and_utm_anchor():
    cfg = config_from_dict(
        {
            "confidence": {"barrier": 0.9},
            "matching": {"iou": 0.3},
            "separation": {"lateral": 2.5},
            "threshold": {"min": 1, "max": 9},
            "tracking": {"eviction_timeout": 4.0},
            "sites": {"finalize_distance": 75.0},
            "utm": {"easting": 500000.0, "northing": 4000000.0, "zone": "32U"},
        }
    )
    assert cfg.confidence.barrier_threshold == 0.9
    assert cfg.confidence.other_threshold == 0.70
    assert cfg.matching.iou_threshold == 0.3
    assert cfg.separation.lateral == 2.5
    assert cfg.threshold.max_threshold == 9
    assert cfg.eviction_timeout == 4.0
    assert cfg.finalize_distance == 75.0
    assert cfg.anchor.zone == "32U"
    assert cfg.anchor.heading_offset == 0.0


def test_calibration_overrides():
    cfg = config_from_dict(
        {
            "calibration": {
                "intrinsics": {"fx": 800.0, "width": 1280, "cx": 640.0},
                "sensor_mount_height": 0.4,
            }
        }
    )
    assert cfg.sensor.intrinsics.fx == 800.0
    assert cfg.sensor.intrinsics.fy == 500.0
    assert cfg.sensor.intrinsics.width == 1280
    assert cfg.sensor.sensor_mount_height == 0.4


@pytest.mark.parametrize(
    "data",
    [
        {"matching": "fast"},
        {"matching": {"iou": "high"}},
        {"matching": {"iou": True}},
        {"threshold": {"min": 2.5}},
        {"threshold": {"min": 6, "max": 2}},
        {"utm": {"easting": 500000.0, "northing": 4000000.0}},
        {"utm": {"easting": 1.0, "northing": 1.0, "zone": "32U"}},
        {"calibration": {"intrinsics": {"fx": -5.0}}},
        {"calibration": {"extrinsic": {"rotation": [[1, 0], [0, 1]]}}},
    ],
)
def test_invalid_config_raises(data):
    with pytest.raises(ConfigError):
        config_from_dict(data)


def test_input_paths_resolve_against_config_dir(tmp_path):
    cfg_path = tmp_path / "session.yaml"
    cfg_path.write_text(
        "inputs:\n"
        "  odometry: odometry.jsonl\n"
        "  lidar_objects: /abs/lidar.jsonl\n"
    )
    cfg = load_config(cfg_path)
    assert cfg.inputs["odometry"] == tmp_path / "odometry.jsonl"
    assert cfg.inputs["lidar_objects"] == Path("/abs/lidar.jsonl")
    assert "detections" not in cfg.inputs


def test_empty_yaml_file_is_default(tmp_path):
    cfg_path = tmp_path / "session.yaml"
    cfg_path.write_text("")
    cfg = load_config(cfg_path)
    assert cfg.matching == default_config().matching


def test_missing_or_invalid_yaml(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("matching: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(bad)


@pytest.mark.parametrize("name", ["configs/sample_config.yaml", "perfbench/session.yaml"])
def test_documented_default_configs_load_to_the_defaults(name):
    # Both files say that the values they write out are the defaults.
    assert leaf_fields(load_config(REPO / name)) == leaf_fields(default_config())
    assert load_config(REPO / name) == default_config()


# One misspelled key per section of the session config, and its document.
UNKNOWN_SESSION_KEYS = [
    ("pairing_windows", {"pairing_windows": 0.1}),
    ("sitez", {"sitez": {"hull_inflation": 3.0}}),
    ("calibration.intrinsic", {"calibration": {"intrinsic": {"fx": 1.0}}}),
    ("calibration.intrinsics.f_x", {"calibration": {"intrinsics": {"f_x": 1.0}}}),
    ("calibration.extrinsic.rotations", {"calibration": {"extrinsic": {"rotations": []}}}),
    ("confidence.barriers", {"confidence": {"barriers": 0.5}}),
    ("matching.iou_threshold", {"matching": {"iou_threshold": 0.5}}),
    ("threshold.min_threshold", {"threshold": {"min_threshold": 2}}),
    ("separation.laterl", {"separation": {"laterl": 0.5}}),
    ("tracking.eviction", {"tracking": {"eviction": 2.0}}),
    ("sites.hull_inflaton", {"sites": {"hull_inflaton": 3.0}}),
    ("utm.zones", {"utm": {"easting": 500000.0, "northing": 0.0, "zone": "32U", "zones": 1}}),
    ("inputs.lidar", {"inputs": {"lidar": "lidar.jsonl"}}),
]
_CONE = {"class": "TrafficCone", "footprint": [[20.0, -3.0], [20.3, -3.0], [20.3, -2.7]]}
UNKNOWN_SCENARIO_KEYS = [
    ("seeds", {"seeds": 1}),
    ("detector.fov", {"detector": {"fov": 65.0}}),
    ("calibration.intrinsics.fxx", {"calibration": {"intrinsics": {"fxx": 1.0}}}),
    ("path[1].sped", {"path": [{"x": 0.0, "y": 0.0}, {"x": 50.0, "y": 0.0, "sped": 20.0}]}),
    ("sites[0].name", {"sites": [{"objects": [_CONE], "name": "x"}]}),
    ("sites[1].objects[0].colour", {"sites": [{"objects": [_CONE]},
                                              {"objects": [{**_CONE, "colour": 1}]}]}),
]


@pytest.mark.parametrize("key,data", UNKNOWN_SESSION_KEYS + UNKNOWN_SCENARIO_KEYS,
                         ids=[key for key, _ in UNKNOWN_SESSION_KEYS + UNKNOWN_SCENARIO_KEYS])
def test_a_key_no_reader_reads_is_a_config_error(tmp_path, capsys, key, data):
    scenario = (key, data) in UNKNOWN_SCENARIO_KEYS
    document = tmp_path / "document.yaml"
    document.write_text(yaml.safe_dump({"path": SCENARIO_PATH, **data} if scenario else data))
    out = str(tmp_path / "out")
    argv = (["simulate", "--scenario", str(document), "--out-dir", out] if scenario else
            ["replay", "--config", str(document), "--in-dir", str(tmp_path), "--out-dir", out])
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: scenario.{key} is not a key of the scenario\n" if scenario else
        f"config error: {key} is not a key of the session config\n")


def test_a_value_outside_its_domain_is_named_before_an_unknown_key():
    with pytest.raises(ConfigError, match=r"^separation\.lateral must be >= 0$"):
        config_from_dict({"separation": {"laterl": 0.5, "lateral": -1.0}})
    with pytest.raises(ConfigError, match=r"^scenario\.seed must be >= 0$"):
        scenario_from_dict({"seeds": 1, "seed": -1, "path": SCENARIO_PATH})
    # Keys inside the lists come last: after every value, and after the
    # keys outside the lists.
    path = [{"x": 0.0, "y": 0.0, "sped": 20.0}, {"x": "far", "y": 0.0}]
    with pytest.raises(ConfigError, match=r"^scenario\.path\[1\]\.x must be a number$"):
        scenario_from_dict({"path": path})
    with pytest.raises(ConfigError, match=r"^scenario\.seeds is not a key of the scenario$"):
        scenario_from_dict({"seeds": 1, "path": [path[0], SCENARIO_PATH[1]]})
    with pytest.raises(ConfigError, match=r"^scenario\.sites\[0\]\.objects\[0\]: unknown"):
        scenario_from_dict({"path": SCENARIO_PATH,
                            "sites": [{"objects": [{**_CONE, "class": "Cone", "colour": 1}]}]})


_ROTATION = [[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]


@pytest.mark.parametrize("extrinsic,message", [
    ({"rotation": [[1, 0], [0, 1]]}, "rotation must be a 3x3 list of numbers"),
    ({"rotation": [[1, 0, 0], [0, 1, 0]]}, "rotation must be a 3x3 list of numbers"),
    ({"rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]},
     "rotation must be a 3x3 list of numbers"),
    ({"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1]}, "rotation must be a 3x3 list of numbers"),
    ({"rotation": "identity"}, "rotation must be a 3x3 list of numbers"),
    ({"rotation": "abc"}, "rotation must be a 3x3 list of numbers"),
    ({"rotation": {"a": 1, "b": 2, "c": 3}}, "rotation must be a 3x3 list of numbers"),
    ({"rotation": None}, "rotation must be a 3x3 list of numbers"),
    ({"rotation": [[1, 0, 0], [0, 1, 0], [0, 0, True]]}, r"rotation\[2\]\[2\] must be a number"),
    ({"rotation": [[1, 0, 0], ["0", 1, 0], [0, 0, 1]]}, r"rotation\[1\]\[0\] must be a number"),
    ({"rotation": [[1, 0, None], [0, 1, 0], [0, 0, 1]]}, r"rotation\[0\]\[2\] must be a number"),
    ({"rotation": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]}, "rotation matrix is not orthonormal"),
    ({"rotation": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}, "determinant must be"),
    ({"rotation": [[1, 0, 0], [0, 1, 0], [0, 0, float("nan")]]}, "not orthonormal"),
    ({"translation": [0, 0]}, "translation must be a list of 3 numbers"),
    ({"translation": "000"}, "translation must be a list of 3 numbers"),
    ({"translation": {"x": 0, "y": 0, "z": 0}}, "translation must be a list of 3 numbers"),
    ({"translation": None}, "translation must be a list of 3 numbers"),
    ({"translation": [0, False, 0]}, r"translation\[1\] must be a number"),
    ({"translation": [0, float("nan"), 0]}, r"translation\[1\] must be finite"),
    ({"translation": [float("-inf"), 0, 0]}, r"translation\[0\] must be finite"),
    ({"translation": [0, 1e307, 0]}, r"translation\[1\] must be within 1e\+09 in magnitude"),
    ({"translation": [0, 0, -1.7e308]}, r"translation\[2\] must be within 1e\+09 in magnitude"),
    ({"translation": [math.nextafter(1e9, math.inf), 0, 0]},
     r"translation\[0\] must be within 1e\+09 in magnitude"),
])
def test_malformed_extrinsic_names_its_field(extrinsic, message):
    with pytest.raises(ConfigError, match=r"^calibration\.extrinsic[.:].*" + message):
        config_from_dict({"calibration": {"extrinsic": extrinsic}})


CALIBRATION_NUMBERS = [
    *((("calibration", "intrinsics"), key) for key in ("fx", "fy", "cx", "cy")),
    (("calibration",), "sensor_mount_height"),
    (("calibration",), "object_height"),
    *((("threshold",), key) for key in ("scale", "divisor", "usable_range", "fps")),
    *((("utm",), key) for key in ("easting", "northing", "heading_offset")),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("sections,key", CALIBRATION_NUMBERS,
                         ids=[".".join((*s, k)) for s, k in CALIBRATION_NUMBERS])
def test_calibration_numbers_must_be_finite(sections, key, value):
    where = ".".join((*sections, key)).replace(".", r"\.")
    with pytest.raises(ConfigError, match=rf"^{where} must be finite$"):
        config_from_dict(nested(sections, key, value))


# Calibration numbers beyond the magnitude bound, by key; width and height
# are integers.
_HUGE = [1.7e308, -1e307, math.nextafter(MAX_CALIBRATION_MAGNITUDE, math.inf)]
_HUGE_INT = [10**9 + 1, 10**400]
CALIBRATION_BOUNDED = [
    *((("calibration", "intrinsics"), key, value) for key in ("fx", "fy", "cx", "cy")
      for value in _HUGE),
    *((("calibration", "intrinsics"), key, value) for key in ("width", "height")
      for value in _HUGE_INT),
    *((("calibration",), key, value) for key in ("sensor_mount_height", "object_height")
      for value in _HUGE),
]


@pytest.mark.parametrize("sections,key,value", CALIBRATION_BOUNDED,
                         ids=[f"{'.'.join((*s, k))}={v!r}" if type(v) is float
                              else f"{'.'.join((*s, k))}={len(str(v))}-digit-int"
                              for s, k, v in CALIBRATION_BOUNDED])
def test_calibration_numbers_must_be_within_the_bound(sections, key, value):
    where = ".".join((*sections, key)).replace(".", r"\.")
    with pytest.raises(ConfigError, match=rf"^{where} must be within 1e\+09 in magnitude$"):
        config_from_dict(nested(sections, key, value))


def test_calibration_numbers_at_the_bound_load():
    bound = MAX_CALIBRATION_MAGNITUDE
    cfg = config_from_dict({"calibration": {
        "intrinsics": {"fx": bound, "fy": bound, "width": int(bound), "height": int(bound),
                       "cx": 0.0, "cy": 0.0},
        "extrinsic": {"translation": [-bound, bound, -bound]},
        "sensor_mount_height": -bound, "object_height": bound}})
    assert cfg.sensor.intrinsics.fx == bound
    assert cfg.sensor.intrinsics.width == bound
    assert cfg.sensor.extrinsic.translation == (-bound, bound, -bound)
    assert (cfg.sensor.sensor_mount_height, cfg.sensor.object_height) == (-bound, bound)


def test_an_integer_too_large_for_a_float_is_infinite():
    # As in the stream reader: not finite where that is required.
    with pytest.raises(ConfigError, match=r"^calibration\.intrinsics\.fx must be finite$"):
        config_from_dict({"calibration": {"intrinsics": {"fx": 10**400}}})
    for key, value in (("size_ratio", 10**400), ("iou", -10**400)):
        with pytest.raises(ConfigError, match=rf"^matching\.{key} must be finite$"):
            config_from_dict({"matching": {key: value}})


@pytest.mark.parametrize("utm,key", [
    ({"northing": 4000000.0, "zone": "32U"}, "easting"),
    ({"easting": 500000.0, "zone": "32U"}, "northing"),
], ids=["no-easting", "no-northing"])
def test_missing_utm_coordinate_is_named_by_the_anchor(utm, key):
    with pytest.raises(ConfigError,
                       match=rf"^utm\.{key} is required when a UTM anchor is given$"):
        config_from_dict({"utm": utm})


@pytest.mark.parametrize("what,load", [("config", load_config), ("scenario", load_scenario)])
def test_yaml_files_share_one_reader(tmp_path, what, load):
    absent = tmp_path / "absent.yaml"
    with pytest.raises(ConfigError, match=rf"^cannot read {what} file {absent}: "):
        load(absent)
    broken = tmp_path / "broken.yaml"
    # not YAML, at its line; a date that does not exist and an integer
    # beyond the int-string limit, which PyYAML raises as a ValueError while
    # building their node, at the node's line; nesting too deep for PyYAML,
    # a RecursionError outside any node, at the line read up to
    for text, place in (("a: [1\n", ":2"), ("a: 2020-02-30\n", ":1"),
                        (f"a: {'1' * 5000}\n", ":1"), (f"a: {'[' * 600}{']' * 600}\n", ":1"),
                        (f"matching:\n  iou: {'[' * 3000}\n", ":2")):
        broken.write_text(text)
        with pytest.raises(ConfigError, match=rf"^invalid YAML in {broken}{place}: "):
            load(broken)
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    if what == "config":
        assert load(empty) == default_config()
    else:
        with pytest.raises(ConfigError, match="scenario.path must list at least two vertices"):
            load(empty)


@pytest.mark.parametrize("raw,line,problem", [
    (b"matching:\n  iou: 0.5 # \xff\n", 2, "unacceptable character #x00ff: invalid start byte"),
    (b"a: [1\n", 2, "expected ',' or ']', but got '<stream end>'"),
    # the reader counts characters, not bytes, up to a character YAML refuses
    ("a: " + "\u00e9" * 6 + "\nb: \x07\n", 2,
     "unacceptable character #x0007: special characters are not allowed"),
    # a value PyYAML cannot build names its own node's line, also inside a
    # flow mapping nested in a list
    ("matching:\n  iou: 0.5\nstamp: 2020-02-30\n", 3, "day is out of range for month"),
    ("a:\n  - 1\n  - {b: 2020-13-01}\nc: 2\n", 3, "month must be in 1..12"),
], ids=["not-utf8", "unclosed-list", "control-character", "no-such-date",
        "nested-no-such-date"])
def test_a_yaml_error_is_one_line_at_its_place(tmp_path, raw, line, problem):
    path = tmp_path / "broken.yaml"
    path.write_bytes(raw if isinstance(raw, bytes) else raw.encode())
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"invalid YAML in {path}:{line}: {problem}"


def test_matcher_limits_must_be_finite():
    with pytest.raises(ConfigError, match=r"^matching\.iou must be finite$"):
        config_from_dict({"matching": {"iou": math.nan}})
    with pytest.raises(ConfigError, match=r"^matching\.size_ratio must be finite$"):
        config_from_dict({"matching": {"size_ratio": math.inf}})


def test_extrinsic_loads_as_floats():
    cfg = config_from_dict({"calibration": {"extrinsic": {
        "rotation": [[0, -1, 0], [0, 0, -1], [1, 0, 0]], "translation": [0.5, 0, -1]}}})
    assert cfg.sensor.extrinsic.rotation == tuple(map(tuple, _ROTATION))
    assert cfg.sensor.extrinsic.translation == (0.5, 0.0, -1.0)


CONFIG_KEYS = [
    *((("calibration", "intrinsics"), key, f"sensor.intrinsics.{key}")
      for key in ("fx", "fy", "cx", "cy", "width", "height")),
    (("calibration",), "sensor_mount_height", "sensor.sensor_mount_height"),
    (("calibration",), "object_height", "sensor.object_height"),
    (("confidence",), "barrier", "confidence.barrier_threshold"),
    (("confidence",), "other", "confidence.other_threshold"),
    (("matching",), "iou", "matching.iou_threshold"),
    (("matching",), "size_ratio", "matching.size_ratio_limit"),
    (("matching",), "tracking_range", "matching.tracking_range"),
    (("threshold",), "scale", "threshold.scale"),
    (("threshold",), "divisor", "threshold.divisor"),
    (("threshold",), "usable_range", "threshold.usable_range"),
    (("threshold",), "fps", "threshold.fps"),
    (("threshold",), "min", "threshold.min_threshold"),
    (("threshold",), "max", "threshold.max_threshold"),
    (("separation",), "panel_panel", "separation.panel_panel_longitudinal"),
    (("separation",), "barrier_barrier", "separation.barrier_barrier_longitudinal"),
    (("separation",), "barrier_other", "separation.barrier_other_longitudinal"),
    (("separation",), "lateral", "separation.lateral"),
    (("tracking",), "eviction_timeout", "eviction_timeout"),
    (("sites",), "ghost_retention", "ghost_retention"),
    (("sites",), "finalize_distance", "finalize_distance"),
    (("sites",), "hull_inflation", "hull_inflation"),
    ((), "pairing_window", "pairing_window"),
]


@pytest.mark.parametrize("sections,key,field", CONFIG_KEYS,
                         ids=[".".join((*s, k)) for s, k, _ in CONFIG_KEYS])
def test_each_config_key_sets_only_its_field(sections, key, field):
    before = leaf_fields(default_config())
    value = bumped(before[field])
    after = leaf_fields(config_from_dict(nested(sections, key, value)))
    assert {name for name in before if after[name] != before[name]} == {field}
    assert after[field] == value


SCENARIO_PATH = [{"x": 0.0, "y": 0.0, "speed": 10.0}, {"x": 50.0, "y": 0.0, "speed": 10.0}]

SCENARIO_KEYS = [
    *((("detector",), key, f"detector.{key}")
      for key in ("fov_deg", "max_range", "full_probability_range", "min_probability",
                  "min_probability_range", "box_sigma", "visual_height")),
    *(((), key, key) for key in ("seed", "lidar_hz", "camera_hz", "odometry_hz",
                                  "lidar_noise_sigma", "lidar_range")),
]


def test_scenario_without_settings_takes_the_dataclass_defaults():
    loaded = scenario_from_dict({"path": SCENARIO_PATH})
    path = tuple(PathVertex(v["x"], v["y"], v["speed"]) for v in SCENARIO_PATH)
    assert leaf_fields(loaded) == leaf_fields(Scenario(path=path, sites=()))


@pytest.mark.parametrize("sections,key,field", SCENARIO_KEYS,
                         ids=[".".join((*s, k)) for s, k, _ in SCENARIO_KEYS])
def test_each_scenario_key_sets_only_its_field(sections, key, field):
    before = leaf_fields(scenario_from_dict({"path": SCENARIO_PATH}))
    value = bumped(before[field])
    data = {"path": SCENARIO_PATH, **nested(sections, key, value)}
    after = leaf_fields(scenario_from_dict(data))
    assert {name for name in before if after[name] != before[name]} == {field}
    assert after[field] == value


def test_scenario_confidence_pair_sets_low_and_high():
    scenario = scenario_from_dict({"path": SCENARIO_PATH, "detector": {"confidence": [0.5, 0.6]}})
    assert (scenario.detector.confidence_low, scenario.detector.confidence_high) == (0.5, 0.6)


# The probes each key is asked to take: NaN, a negative number, 0, the
# smallest subnormal, and the values that changed replays without a word
# before each key had a domain.
PROBES = [math.nan, -1.0, 0, 5e-324]
_EXTRA_PROBES = {"sites.finalize_distance": [-5.0], "calibration.object_height": [0.0]}
# Which of ``PROBES`` each key accepts, by its domain as FORMATS.md states it.
_POSITIVE = [5e-324]
_NON_NEGATIVE = [0, 5e-324]
_FINITE = [-1.0, 0, 5e-324]
_NONE = []
ACCEPTED = {
    "calibration.intrinsics.fx": _POSITIVE,
    "calibration.intrinsics.fy": _POSITIVE,
    "calibration.intrinsics.cx": _NON_NEGATIVE,
    "calibration.intrinsics.cy": _NON_NEGATIVE,
    "calibration.intrinsics.width": _NONE,  # an integer > 0
    "calibration.intrinsics.height": _NONE,
    "calibration.sensor_mount_height": _FINITE,
    "calibration.object_height": _POSITIVE,
    "confidence.barrier": _NON_NEGATIVE,  # within [0, 1]
    "confidence.other": _NON_NEGATIVE,
    "matching.iou": _NON_NEGATIVE,
    "matching.size_ratio": _POSITIVE,
    "matching.tracking_range": _POSITIVE,
    "threshold.scale": _POSITIVE,
    "threshold.divisor": _POSITIVE,
    "threshold.usable_range": _POSITIVE,
    "threshold.fps": _POSITIVE,
    "threshold.min": _NONE,  # an integer > 0
    "threshold.max": _NONE,
    "separation.panel_panel": _NON_NEGATIVE,
    "separation.barrier_barrier": _NON_NEGATIVE,
    "separation.barrier_other": _NON_NEGATIVE,
    "separation.lateral": _NON_NEGATIVE,
    "tracking.eviction_timeout": _NON_NEGATIVE,
    "sites.ghost_retention": _NON_NEGATIVE,
    "sites.finalize_distance": _NON_NEGATIVE,
    "sites.hull_inflation": _NON_NEGATIVE,
    "pairing_window": _POSITIVE,
    "utm.easting": _NONE,  # within [100000, 900000)
    "utm.northing": _NON_NEGATIVE,
    "utm.heading_offset": _FINITE,
}
SCENARIO_ACCEPTED = {
    "detector.fov_deg": _POSITIVE,
    "detector.max_range": _POSITIVE,
    "detector.full_probability_range": _NON_NEGATIVE,
    "detector.min_probability": _NON_NEGATIVE,  # within [0, 1]
    "detector.min_probability_range": _NONE,  # > full_probability_range (30)
    "detector.box_sigma": _NON_NEGATIVE,
    "detector.visual_height": _POSITIVE,
    "detector.confidence": _NON_NEGATIVE,  # both within [0, 1]
    "seed": [0],  # an integer >= 0
    "lidar_hz": _POSITIVE,
    "camera_hz": _POSITIVE,
    "odometry_hz": _POSITIVE,
    "lidar_noise_sigma": _NON_NEGATIVE,
    "lidar_range": _POSITIVE,
}
# The fields each key sets, from the lists of the tests above.
FIELDS = {
    **{".".join((*s, k)): (field,) for s, k, field in CONFIG_KEYS},
    **{f"utm.{key}": (f"anchor.{key}",) for key in ("easting", "northing", "heading_offset")},
}
SCENARIO_FIELDS = {
    **{".".join((*s, k)): (field,) for s, k, field in SCENARIO_KEYS},
    "detector.confidence": ("detector.confidence_low", "detector.confidence_high"),
}
_UTM = {"easting": 500000.0, "northing": 4000000.0, "zone": "32U"}


def _probe_document(key, value, scenario):
    *sections, name = key.split(".")
    if key == "detector.confidence":
        value = [value, value]
    data = nested(sections, name, value)
    if sections == ["utm"]:
        data["utm"] = {**_UTM, **data["utm"]}
    return {"path": SCENARIO_PATH, **data} if scenario else data


DOMAIN_CASES = [
    *((key, value, False) for key in ACCEPTED
      for value in PROBES + _EXTRA_PROBES.get(key, [])),
    *((key, value, True) for key in SCENARIO_ACCEPTED for value in PROBES),
]


def test_the_tables_hold_the_keys_the_tests_set():
    assert list(ACCEPTED) == [key for key, *_ in SESSION_KEYS]
    assert list(SCENARIO_ACCEPTED) == [key for key, *_ in simulator.SCENARIO_KEYS]
    assert set(FIELDS) == set(ACCEPTED)
    assert set(SCENARIO_FIELDS) == set(SCENARIO_ACCEPTED)


@pytest.mark.parametrize("key,value,scenario", DOMAIN_CASES,
                         ids=[f"{key}={value!r}" for key, value, _ in DOMAIN_CASES])
def test_each_key_takes_only_its_domain(tmp_path, capsys, key, value, scenario):
    data = _probe_document(key, value, scenario)
    if value in (SCENARIO_ACCEPTED if scenario else ACCEPTED)[key]:
        loaded = leaf_fields((scenario_from_dict if scenario else config_from_dict)(data))
        for field in (SCENARIO_FIELDS if scenario else FIELDS)[key]:
            assert loaded[field] == value
        return
    document = tmp_path / "document.yaml"
    document.write_text(yaml.safe_dump(data))
    out = str(tmp_path / "out")
    argv = (["simulate", "--scenario", str(document), "--out-dir", out] if scenario else
            ["replay", "--config", str(document), "--in-dir", str(tmp_path), "--out-dir", out])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    # the key, or its section and name around a record's cross-field message
    assert re.search(r"[.: ]+".join(map(re.escape, key.split("."))) + r"\b", err), err


@pytest.mark.parametrize("rows,sample", [
    (SESSION_KEYS, "configs/sample_config.yaml"),
    (simulator.SCENARIO_KEYS, "configs/sample_scenario.yaml"),
], ids=["session", "scenario"])
def test_every_key_is_documented_with_its_domain(rows, sample):
    formats = (REPO / "FORMATS.md").read_text().splitlines()
    # the sample's lines with their comment marks taken off, so that the
    # commented-out utm section counts
    lines = [line.lstrip("# ") for line in (REPO / sample).read_text().splitlines()]
    for key, _, *domains in rows:
        words = [words for _, words in domains]
        assert any(f"`{key}`" in line and all(w in line for w in words)
                   for line in formats), key
        leaf = key.rpartition(".")[2]
        assert any(line.startswith(f"{leaf}:") and all(w in line for w in words)
                   for line in lines), key


# The plain YAML reader: every text it takes, it reads as PyYAML does.

PLAIN_SOURCES = ["configs/sample_config.yaml", "configs/sample_scenario.yaml",
                 "perfbench/session.yaml"]

# Tokens that PyYAML reads otherwise than a plain number, key or line, or
# that sit at the subset's edge.
HOSTILE = [
    "\u00e9", "\u00a0", "\u2028", "\x85", "\ufeff", "\t", "\r", "\r\n", "\x7f", "\x00",
    "'0.5'", '"0.5"', "&a 1", "*a", "!!float 1", "{a: 1}", "%YAML 1.1", "? a", "- 1", "-",
    "---", "...", "+1", "1_000", "1_0.5", "010", "00.5", "0x10", "0b1", "0o10", "1:30",
    ".nan", ".inf", "-.inf", ".5", "-.5", "1e5", "1.0e5", "1.5E+3", "1.e+5", "1.", "-0", "-0.0",
    "0", "1.0e+400", "~", "null", "Null", "on", "Off", "yes", "No", "TRUE", "y", "n",
    "1" * 5000, "1" * 4300, "2020-02-30", "2001-12-14", "[1, 2]", "[1,]", "[[1], []]", "[ ]",
    "[1 2]", "[1, [2, 3.5]]", "[1, 2]#c", "[", "]", ",", ":", ": ", "#", " #c", "#c", "|", ">",
    "=", "<<", "@", "`", "a", "a_b", "_a", "key", "key:", "  ", "\n", "\n  b: 1", "\n    c: 2",
]
# Tokens inside the subset, so that a mutated file is often still read.
PLAIN_TOKENS = ["0.25", "-3", "12", "1.5e-3", "[0.5, -1]", "[[1, 2], [3]]", "k2", "x_y", " # note",
                "k3: 1", "# c"]


def _same_value(a, b) -> bool:
    """Equal with the same types throughout (``True`` is not ``1``) and the
    same float bits (``-0.0`` is not ``0.0``)."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return (list(a) == list(b) and all(_same_value(k, l) for k, l in zip(a, b))
                and all(_same_value(a[k], b[k]) for k in a))
    if type(a) is list:
        return len(a) == len(b) and all(map(_same_value, a, b))
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def _check_plain_reader(text: str) -> bool:
    """The plain reader defers on ``text`` or reads what PyYAML reads; True
    if it read it."""
    raw = text.encode("utf-8", "surrogatepass")
    plain = _plain_yaml(raw)
    if plain is not None:
        assert _same_value(plain, yaml.safe_load(raw)), text
    return plain is not None


@pytest.mark.parametrize("name", PLAIN_SOURCES)
def test_the_sample_files_read_as_pyyaml_reads_them(name):
    # the scenario's path and sites are flow mappings, left to PyYAML
    assert _check_plain_reader((REPO / name).read_text()) != name.endswith("scenario.yaml")


@pytest.mark.parametrize("token", HOSTILE, ids=map(repr, HOSTILE))
@pytest.mark.parametrize("template", [
    "a:\n  b: {}\n", "a:\n  {}: 1\n", "a: [0.5, {}]\n", "a: 1 {}\n", "{}a: 1\n",
    "a:\n  b: 1\n{}\n  c: 2\n",
])
def test_the_plain_reader_defers_or_agrees_on_each_token(template, token):
    _check_plain_reader(template.format(token))


# "value" and "key" twice: they keep a line's shape, so the text is often still read
_EDITS = ("value", "value", "key", "key", "insert", "line", "indent", "prefix")


def _mutate(text: str, edits) -> str:
    lines = text.split("\n")
    for position, kind, token in edits:
        i = position % len(lines)
        line = lines[i]
        body = line.lstrip(" ")
        indent = line[:len(line) - len(body)]
        key, colon, rest = body.partition(":")
        if kind == "value" and colon:
            lines[i] = f"{indent}{key}: {token}"
        elif kind == "key" and colon:
            lines[i] = f"{indent}{token}:{rest}"
        elif kind == "insert":
            at = position % (len(line) + 1)
            lines[i] = line[:at] + token + line[at:]
        elif kind == "line":
            lines.insert(i, indent + token)
        elif kind == "indent":
            lines[i] = " " * (position % 7) + body
        elif kind == "prefix":
            lines[0] = token + lines[0]
    return "\n".join(lines)


@settings(max_examples=400)
@given(name=st.sampled_from(PLAIN_SOURCES),
       edits=st.lists(st.tuples(st.integers(0, 10_000), st.sampled_from(_EDITS),
                                st.sampled_from(HOSTILE) | st.sampled_from(PLAIN_TOKENS)),
                      min_size=1, max_size=3))
def test_the_plain_reader_defers_or_agrees_with_pyyaml(name, edits):
    _check_plain_reader(_mutate((REPO / name).read_text(), edits))


@pytest.mark.parametrize("flow,block", [
    ('{matching: {iou: 0.5}, utm: {easting: 500000.0, northing: 0.0, zone: "32U"}}\n',
     'matching:\n  iou: 0.5\nutm:\n  easting: 500000.0\n  northing: 0.0\n  zone: "32U"\n'),
    ("{matching: {iou: 0.4, size_ratio: 3.0}, threshold: {min: 3}}\n",
     "matching:\n  iou: 0.4\n  size_ratio: 3.0\nthreshold:\n  min: 3\n"),
], ids=["utm", "plain-twin"])
def test_a_flow_style_config_loads_as_its_block_twin(tmp_path, flow, block):
    # A flow mapping is outside the plain subset, so PyYAML reads it.
    (tmp_path / "flow.yaml").write_text(flow)
    (tmp_path / "block.yaml").write_text(block)
    assert _plain_yaml(flow.encode()) is None
    assert (_plain_yaml(block.encode()) is None) == ('"' in block)
    loaded = load_config(tmp_path / "flow.yaml")
    assert loaded == load_config(tmp_path / "block.yaml")
    assert loaded != default_config()


def test_the_sample_config_in_flow_style_loads_as_itself(tmp_path):
    sample = REPO / "configs/sample_config.yaml"
    flow = tmp_path / "flow.yaml"
    flow.write_text(yaml.safe_dump(yaml.safe_load(sample.read_bytes()), default_flow_style=True))
    assert flow.read_text().startswith("{calibration: {")
    assert load_config(flow) == load_config(sample)
