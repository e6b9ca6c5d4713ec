"""Session configuration.

A single YAML document configures a replay.  Every constant defaults to
the published value of the original system, so an empty file (or empty
override sections) reproduces it exactly.  Calibration (intrinsics,
extrinsic mounting, scan plane height) has no universal default source
and is expected to come from the recording rig; placeholder values for a
forward-looking camera at the detector resolution are provided.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, TypeVar

import yaml

from .detections import PAIRING_WINDOW, ConfidencePolicy
from .fusion import MatchParams
from .geometry import CameraIntrinsics, RigidTransform3D, UtmAnchor
from .lidar import SensorModelParams
from .sites import FINALIZE_DISTANCE, GHOST_RETENTION, HULL_INFLATION, SeparationPolicy
from .tracking import EVICTION_TIMEOUT, ThresholdParams


class ConfigError(Exception):
    """Invalid or inconsistent session configuration."""


_T = TypeVar("_T")


# Canonical forward camera: robot +x maps to the optical axis.
DEFAULT_EXTRINSIC_ROTATION = (
    (0.0, -1.0, 0.0),
    (0.0, 0.0, -1.0),
    (1.0, 0.0, 0.0),
)

DEFAULT_INTRINSICS = dict(fx=500.0, fy=500.0, cx=320.0, cy=176.0, width=640, height=352)

# Largest magnitude B of a calibration number (intrinsics, extrinsic
# translation, mount and object height), so that no projection overflows.
# With contour coordinates within ``streams.MAX_CONTOUR_COORDINATE`` C = 1e6
# and rotation entries below 2 in magnitude (its rows are orthonormal), a
# camera-frame coordinate of a lifted contour point is below
# 2C + 2C (the point) + 2 * 2B (the row height) + B (the translation)
# < 5.1e9.  A projection, taken only at a depth above
# ``geometry.MIN_PROJECTION_DEPTH`` = 1e-6, is then below
# B * 5.1e9 / 1e-6 + B < 5.2e24, a difference of two projections (the
# clip's) below 1.1e25, and a box, whose corners lie in the image, has an
# area of about width * height <= B^2 = 1e18 at most: all far from the
# float maximum of 1.8e308.
MAX_CALIBRATION_MAGNITUDE = 1e9


@dataclass(frozen=True)
class SessionConfig:
    sensor: SensorModelParams
    confidence: ConfidencePolicy
    matching: MatchParams
    threshold: ThresholdParams
    separation: SeparationPolicy
    anchor: UtmAnchor | None = None
    eviction_timeout: float = EVICTION_TIMEOUT
    ghost_retention: float = GHOST_RETENTION
    finalize_distance: float = FINALIZE_DISTANCE
    hull_inflation: float = HULL_INFLATION
    pairing_window: float = PAIRING_WINDOW
    inputs: dict[str, Path] = field(default_factory=dict)


def default_config() -> SessionConfig:
    return SessionConfig(
        sensor=SensorModelParams(
            intrinsics=CameraIntrinsics(**DEFAULT_INTRINSICS),
            extrinsic=RigidTransform3D(DEFAULT_EXTRINSIC_ROTATION, (0.0, 0.0, 0.0)),
        ),
        confidence=ConfidencePolicy(),
        matching=MatchParams(),
        threshold=ThresholdParams(),
        separation=SeparationPolicy(),
    )


def _section(data: dict, name: str) -> dict:
    value = data.get(name, {})
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return value


def _number(value, where: str, finite: bool = False, bound: float = math.inf) -> float:
    """``value`` as a float; a bool, a string or a missing value is an error,
    and so is NaN or an infinity where ``finite`` is set, and a magnitude
    beyond ``bound``.  An integer too large for a float is infinite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf if value > 0 else -math.inf
    if finite and not math.isfinite(value):
        raise ConfigError(f"{where} must be finite")
    _check_bound(value, where, bound)
    return value


def _check_bound(value: float, where: str, bound: float) -> None:
    if abs(value) > bound:
        raise ConfigError(f"{where} must be within {bound:g} in magnitude")


def _is_list(value, length: int) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == length


def _get_number(section: dict, key: str, default: float | None, where: str,
                finite: bool = False, bound: float = math.inf) -> float:
    return _number(section.get(key, default), f"{where}.{key}", finite, bound)


def _get_int(section: dict, key: str, default: int, where: str,
             bound: float = math.inf) -> int:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer")
    _check_bound(value, f"{where}.{key}", bound)
    return value


def _replace_fields(base: _T, section: dict, where: str, keys: dict[str, str],
                    finite: bool = False, bound: float = math.inf) -> _T:
    """``base`` with the fields named in ``keys`` read from ``section``.

    ``keys`` maps each YAML key to its dataclass field.  A missing key
    keeps the field's value in ``base``; a field whose value there is an
    ``int`` takes an integer, every other field a number (a finite one
    where ``finite`` is set).  Either must lie within ``bound`` in magnitude.
    """
    values = {}
    for key, name in keys.items():
        default = getattr(base, name)
        if type(default) is int:
            values[name] = _get_int(section, key, default, where, bound)
        else:
            values[name] = _get_number(section, key, default, where, finite, bound)
    return replace(base, **values)


def sensor_params_from_dict(cal: dict) -> SensorModelParams:
    """Build the camera/LiDAR model from a 'calibration' config section.

    Every calibration number must be finite and within
    ``MAX_CALIBRATION_MAGNITUDE``.  The rotation needs no own check: NaN, an
    infinity or an entry beyond 1 + 1e-5 in magnitude fails its
    orthonormality test.
    """
    base = default_config().sensor
    bound = MAX_CALIBRATION_MAGNITUDE
    try:
        intrinsics = _replace_fields(
            base.intrinsics, _section(cal, "intrinsics"), "calibration.intrinsics",
            {key: key for key in ("fx", "fy", "cx", "cy", "width", "height")},
            finite=True, bound=bound,
        )
    except ValueError as err:
        raise ConfigError(f"calibration: {err}") from err
    ext_raw = _section(cal, "extrinsic")
    where = "calibration.extrinsic"
    rotation = ext_raw.get("rotation", base.extrinsic.rotation)
    if not _is_list(rotation, 3) or not all(_is_list(row, 3) for row in rotation):
        raise ConfigError(f"{where}.rotation must be a 3x3 list of numbers")
    translation = ext_raw.get("translation", base.extrinsic.translation)
    if not _is_list(translation, 3):
        raise ConfigError(f"{where}.translation must be a list of 3 numbers")
    try:
        extrinsic = RigidTransform3D(
            tuple(tuple(_number(v, f"{where}.rotation[{i}][{k}]") for k, v in enumerate(row))
                  for i, row in enumerate(rotation)),
            tuple(_number(v, f"{where}.translation[{k}]", finite=True, bound=bound)
                  for k, v in enumerate(translation)),
        )
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err
    return _replace_fields(
        replace(base, intrinsics=intrinsics, extrinsic=extrinsic),
        cal, "calibration",
        {"sensor_mount_height": "sensor_mount_height", "object_height": "object_height"},
        finite=True, bound=bound,
    )


def config_from_dict(data: dict[str, Any], base_dir: Path | None = None) -> SessionConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    base = default_config()

    sensor = sensor_params_from_dict(_section(data, "calibration"))
    confidence = _replace_fields(
        base.confidence, _section(data, "confidence"), "confidence",
        {"barrier": "barrier_threshold", "other": "other_threshold"},
    )
    matching = _replace_fields(
        base.matching, _section(data, "matching"), "matching",
        {"iou": "iou_threshold", "size_ratio": "size_ratio_limit",
         "tracking_range": "tracking_range"},
    )
    try:
        threshold = _replace_fields(
            base.threshold, _section(data, "threshold"), "threshold",
            {"scale": "scale", "divisor": "divisor", "usable_range": "usable_range",
             "fps": "fps", "min": "min_threshold", "max": "max_threshold"},
            finite=True,
        )
    except ValueError as err:
        raise ConfigError(f"threshold: {err}") from err
    separation = _replace_fields(
        base.separation, _section(data, "separation"), "separation",
        {"panel_panel": "panel_panel_longitudinal",
         "barrier_barrier": "barrier_barrier_longitudinal",
         "barrier_other": "barrier_other_longitudinal", "lateral": "lateral"},
    )

    anchor = None
    utm = _section(data, "utm")
    if utm:
        # A missing easting or northing is NaN, which the anchor's range checks reject.
        try:
            anchor = UtmAnchor(
                easting=_get_number(utm, "easting", math.nan, "utm", finite="easting" in utm),
                northing=_get_number(utm, "northing", math.nan, "utm", finite="northing" in utm),
                zone=str(utm.get("zone", "")),
                heading_offset=_get_number(utm, "heading_offset", UtmAnchor.heading_offset, "utm",
                                           finite=True),
            )
        except ValueError as err:
            raise ConfigError(f"utm: {err}") from err
        if not anchor.zone:
            raise ConfigError("utm.zone is required when a UTM anchor is given")

    inputs = {}
    inputs_raw = _section(data, "inputs")
    for key in ("odometry", "lidar_objects", "detections"):
        if key in inputs_raw:
            path = Path(str(inputs_raw[key]))
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            inputs[key] = path

    config = _replace_fields(base, _section(data, "tracking"), "tracking",
                             {"eviction_timeout": "eviction_timeout"})
    config = _replace_fields(config, _section(data, "sites"), "sites",
                             {"ghost_retention": "ghost_retention",
                              "finalize_distance": "finalize_distance",
                              "hull_inflation": "hull_inflation"})
    config = _replace_fields(config, data, "config", {"pairing_window": "pairing_window"})
    return replace(
        config,
        sensor=sensor,
        confidence=confidence,
        matching=matching,
        threshold=threshold,
        separation=separation,
        anchor=anchor,
        inputs=inputs,
    )


def _load_yaml(path: Path, what: str) -> Any:
    """The YAML document in ``path`` (an empty one reads as ``{}``); a file
    that cannot be read or parsed is a ConfigError naming ``what`` it holds."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read {what} file {path}: {err}") from err
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid YAML in {path}: {err}") from err
    return {} if data is None else data


def load_config(path: Path) -> SessionConfig:
    return config_from_dict(_load_yaml(path, "config"), base_dir=Path(path).resolve().parent)
