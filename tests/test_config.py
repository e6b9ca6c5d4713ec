import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from roadwork_mapper.config import (
    MAX_CALIBRATION_MAGNITUDE,
    ConfigError,
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
    cfg = config_from_dict({"matching": {"size_ratio": 10**400, "iou": -10**400}})
    assert cfg.matching.size_ratio_limit == math.inf
    assert cfg.matching.iou_threshold == -math.inf


@pytest.mark.parametrize("utm,message", [
    ({"northing": 4000000.0, "zone": "32U"}, "anchor easting outside valid UTM range"),
    ({"easting": 500000.0, "zone": "32U"}, "anchor northing must be non-negative"),
], ids=["no-easting", "no-northing"])
def test_missing_utm_coordinate_is_named_by_the_anchor(utm, message):
    with pytest.raises(ConfigError, match=rf"^utm: {message}$"):
        config_from_dict({"utm": utm})


@pytest.mark.parametrize("what,load", [("config", load_config), ("scenario", load_scenario)])
def test_yaml_files_share_one_reader(tmp_path, what, load):
    absent = tmp_path / "absent.yaml"
    with pytest.raises(ConfigError, match=rf"^cannot read {what} file {absent}: "):
        load(absent)
    broken = tmp_path / "broken.yaml"
    broken.write_text("a: [1\n")
    with pytest.raises(ConfigError, match=rf"^invalid YAML in {broken}: "):
        load(broken)
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    if what == "config":
        assert load(empty) == default_config()
    else:
        with pytest.raises(ConfigError, match="scenario.path must list at least two vertices"):
            load(empty)


def test_matcher_limits_still_take_nan():
    cfg = config_from_dict({"matching": {"iou": math.nan, "size_ratio": math.inf}})
    assert math.isnan(cfg.matching.iou_threshold)
    assert cfg.matching.size_ratio_limit == math.inf


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
