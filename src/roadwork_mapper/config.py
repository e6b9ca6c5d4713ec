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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .detections import PAIRING_WINDOW, ConfidencePolicy
from .fusion import MatchParams
from .geometry import CameraIntrinsics, RigidTransform3D, UtmAnchor
from .lidar import ASSUMED_OBJECT_HEIGHT, SensorModelParams
from .sites import FINALIZE_DISTANCE, GHOST_RETENTION, HULL_INFLATION, SeparationPolicy
from .tracking import EVICTION_TIMEOUT, ThresholdParams


class ConfigError(Exception):
    """Invalid or inconsistent session configuration."""


# Canonical forward camera: robot +x maps to the optical axis.
DEFAULT_EXTRINSIC_ROTATION = (
    (0.0, -1.0, 0.0),
    (0.0, 0.0, -1.0),
    (1.0, 0.0, 0.0),
)

DEFAULT_INTRINSICS = dict(fx=500.0, fy=500.0, cx=320.0, cy=176.0, width=640, height=352)


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
    out_dir: Path | None = None


def default_config() -> SessionConfig:
    return SessionConfig(
        sensor=SensorModelParams(
            intrinsics=CameraIntrinsics(**DEFAULT_INTRINSICS),
            extrinsic=RigidTransform3D(np.array(DEFAULT_EXTRINSIC_ROTATION), np.zeros(3)),
            sensor_mount_height=0.0,
            object_height=ASSUMED_OBJECT_HEIGHT,
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


def _get_number(section: dict, key: str, default: float, where: str) -> float:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number")
    return float(value)


def _get_int(section: dict, key: str, default: int, where: str) -> int:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer")
    return value


def sensor_params_from_dict(cal: dict) -> SensorModelParams:
    """Build the camera/LiDAR model from a 'calibration' config section."""
    intr_raw = _section(cal, "intrinsics")
    intr = dict(DEFAULT_INTRINSICS)
    intr.update(
        fx=_get_number(intr_raw, "fx", intr["fx"], "calibration.intrinsics"),
        fy=_get_number(intr_raw, "fy", intr["fy"], "calibration.intrinsics"),
        cx=_get_number(intr_raw, "cx", intr["cx"], "calibration.intrinsics"),
        cy=_get_number(intr_raw, "cy", intr["cy"], "calibration.intrinsics"),
        width=_get_int(intr_raw, "width", intr["width"], "calibration.intrinsics"),
        height=_get_int(intr_raw, "height", intr["height"], "calibration.intrinsics"),
    )
    ext_raw = _section(cal, "extrinsic")
    rotation = ext_raw.get("rotation", [list(r) for r in DEFAULT_EXTRINSIC_ROTATION])
    translation = ext_raw.get("translation", [0.0, 0.0, 0.0])
    try:
        intrinsics = CameraIntrinsics(**intr)
        extrinsic = RigidTransform3D(np.array(rotation, dtype=float),
                                     np.array(translation, dtype=float))
    except (ValueError, TypeError) as err:
        raise ConfigError(f"calibration: {err}") from err
    return SensorModelParams(
        intrinsics=intrinsics,
        extrinsic=extrinsic,
        sensor_mount_height=_get_number(cal, "sensor_mount_height", 0.0, "calibration"),
        object_height=_get_number(cal, "object_height", ASSUMED_OBJECT_HEIGHT, "calibration"),
    )


def config_from_dict(data: dict[str, Any], base_dir: Path | None = None) -> SessionConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    base = default_config()

    sensor = sensor_params_from_dict(_section(data, "calibration"))

    conf = _section(data, "confidence")
    confidence = ConfidencePolicy(
        barrier_threshold=_get_number(conf, "barrier", 0.75, "confidence"),
        other_threshold=_get_number(conf, "other", 0.70, "confidence"),
    )

    match_raw = _section(data, "matching")
    matching = MatchParams(
        iou_threshold=_get_number(match_raw, "iou", 0.5, "matching"),
        size_ratio_limit=_get_number(match_raw, "size_ratio", 2.0, "matching"),
        tracking_range=_get_number(match_raw, "tracking_range", 50.0, "matching"),
    )

    thr = _section(data, "threshold")
    try:
        threshold = ThresholdParams(
            scale=_get_number(thr, "scale", 5.0, "threshold"),
            divisor=_get_number(thr, "divisor", 12.5, "threshold"),
            usable_range=_get_number(thr, "usable_range", 50.0, "threshold"),
            fps=_get_number(thr, "fps", 10.0, "threshold"),
            min_threshold=_get_int(thr, "min", 2, "threshold"),
            max_threshold=_get_int(thr, "max", 5, "threshold"),
        )
    except ValueError as err:
        raise ConfigError(f"threshold: {err}") from err

    sep = _section(data, "separation")
    separation = SeparationPolicy(
        panel_panel_longitudinal=_get_number(sep, "panel_panel", 12.0, "separation"),
        barrier_barrier_longitudinal=_get_number(sep, "barrier_barrier", 2.0, "separation"),
        barrier_other_longitudinal=_get_number(sep, "barrier_other", 6.0, "separation"),
        lateral=_get_number(sep, "lateral", 1.5, "separation"),
    )

    anchor = None
    utm = _section(data, "utm")
    if utm:
        try:
            anchor = UtmAnchor(
                easting=_get_number(utm, "easting", math.nan, "utm"),
                northing=_get_number(utm, "northing", math.nan, "utm"),
                zone=str(utm.get("zone", "")),
                heading_offset=_get_number(utm, "heading_offset", 0.0, "utm"),
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

    tracking_raw = _section(data, "tracking")
    sites_raw = _section(data, "sites")
    return SessionConfig(
        sensor=sensor,
        confidence=confidence,
        matching=matching,
        threshold=threshold,
        separation=separation,
        anchor=anchor,
        eviction_timeout=_get_number(tracking_raw, "eviction_timeout",
                                     EVICTION_TIMEOUT, "tracking"),
        ghost_retention=_get_number(sites_raw, "ghost_retention",
                                    GHOST_RETENTION, "sites"),
        finalize_distance=_get_number(sites_raw, "finalize_distance",
                                      FINALIZE_DISTANCE, "sites"),
        hull_inflation=_get_number(sites_raw, "hull_inflation", HULL_INFLATION, "sites"),
        pairing_window=_get_number(data, "pairing_window", PAIRING_WINDOW, "config"),
        inputs=inputs,
        out_dir=Path(str(data["out_dir"])) if "out_dir" in data else base.out_dir,
    )


def load_config(path: Path) -> SessionConfig:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid YAML in {path}: {err}") from err
    if data is None:
        data = {}
    return config_from_dict(data, base_dir=Path(path).resolve().parent)
