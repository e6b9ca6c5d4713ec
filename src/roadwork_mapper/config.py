"""Session configuration.

A single YAML document configures a replay.  Every constant defaults to
the published value of the original system, so an empty file (or empty
override sections) reproduces it exactly.  Calibration (intrinsics,
extrinsic mounting, scan plane height) has no universal default source
and is expected to come from the recording rig; placeholder values for a
forward-looking camera at the detector resolution are provided.
"""
from __future__ import annotations

import json
import math
import re
from operator import attrgetter
from pathlib import Path
from typing import Any, TypeVar

from .detections import PAIRING_WINDOW, ConfidencePolicy
from .fusion import MatchParams
from .geometry import CameraIntrinsics, RigidTransform3D, UtmAnchor
from .lidar import SensorModelParams
from .records import Record
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


class SessionConfig(Record):
    __slots__ = ("sensor", "confidence", "matching", "threshold", "separation", "anchor",
                 "eviction_timeout", "ghost_retention", "finalize_distance", "hull_inflation",
                 "pairing_window", "inputs")

    def __init__(self, sensor: SensorModelParams, confidence: ConfidencePolicy,
                 matching: MatchParams, threshold: ThresholdParams,
                 separation: SeparationPolicy, anchor: UtmAnchor | None = None,
                 eviction_timeout: float = EVICTION_TIMEOUT,
                 ghost_retention: float = GHOST_RETENTION,
                 finalize_distance: float = FINALIZE_DISTANCE,
                 hull_inflation: float = HULL_INFLATION,
                 pairing_window: float = PAIRING_WINDOW,
                 inputs: dict[str, Path] | None = None) -> None:
        self.sensor = sensor
        self.confidence = confidence
        self.matching = matching
        self.threshold = threshold
        self.separation = separation
        self.anchor = anchor
        self.eviction_timeout = eviction_timeout
        self.ghost_retention = ghost_retention
        self.finalize_distance = finalize_distance
        self.hull_inflation = hull_inflation
        self.pairing_window = pairing_window
        self.inputs = {} if inputs is None else inputs


def replace(record: _T, **changes) -> _T:
    """A copy of ``record`` with the fields in ``changes``, built by its
    ``__init__``, so that its checks run, as ``dataclasses.replace`` does.
    ``record`` is a ``Record`` or one of the simulator's dataclasses."""
    names = getattr(record, "__dataclass_fields__", None) or record.__slots__
    return type(record)(**({name: getattr(record, name) for name in names} | changes))


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


# The domains a setting's number may be asked to lie in: a test the number
# passes, and the words of the config error when it does not.  Every number
# a row reads must be finite, and an integer setting an integer.
FINITE = (math.isfinite, "must be finite")
POSITIVE = ((lambda v: v > 0), "must be > 0")
NON_NEGATIVE = ((lambda v: v >= 0), "must be >= 0")
PROBABILITY = ((lambda v: 0 <= v <= 1), "must lie within [0, 1]")
CALIBRATION = ((lambda v: abs(v) <= MAX_CALIBRATION_MAGNITUDE),
               f"must be within {MAX_CALIBRATION_MAGNITUDE:g} in magnitude")
UTM_EASTING = ((lambda v: 100000.0 <= v < 900000.0), "must lie within [100000, 900000)")

# One row per key of the session config: the dotted YAML key, the dotted
# ``SessionConfig`` field it sets, and the domains of its value.
CALIBRATION_KEYS = (
    *((f"calibration.intrinsics.{key}", f"sensor.intrinsics.{key}", CALIBRATION, domain)
      for key, domain in (("fx", POSITIVE), ("fy", POSITIVE), ("cx", NON_NEGATIVE),
                          ("cy", NON_NEGATIVE), ("width", POSITIVE), ("height", POSITIVE))),
    ("calibration.sensor_mount_height", "sensor.sensor_mount_height", CALIBRATION),
    ("calibration.object_height", "sensor.object_height", CALIBRATION, POSITIVE),
)
SESSION_KEYS = (
    *CALIBRATION_KEYS,
    ("confidence.barrier", "confidence.barrier_threshold", PROBABILITY),
    ("confidence.other", "confidence.other_threshold", PROBABILITY),
    ("matching.iou", "matching.iou_threshold", PROBABILITY),
    ("matching.size_ratio", "matching.size_ratio_limit", POSITIVE),
    ("matching.tracking_range", "matching.tracking_range", POSITIVE),
    *((f"threshold.{key}", f"threshold.{key}", POSITIVE)
      for key in ("scale", "divisor", "usable_range", "fps")),
    ("threshold.min", "threshold.min_threshold", POSITIVE),
    ("threshold.max", "threshold.max_threshold", POSITIVE),
    *((f"separation.{key}", f"separation.{key}_longitudinal", NON_NEGATIVE)
      for key in ("panel_panel", "barrier_barrier", "barrier_other")),
    ("separation.lateral", "separation.lateral", NON_NEGATIVE),
    ("tracking.eviction_timeout", "eviction_timeout", NON_NEGATIVE),
    *((f"sites.{key}", key, NON_NEGATIVE)
      for key in ("ghost_retention", "finalize_distance", "hull_inflation")),
    ("pairing_window", "pairing_window", POSITIVE),
    ("utm.easting", "anchor.easting", UTM_EASTING),
    ("utm.northing", "anchor.northing", NON_NEGATIVE),
    ("utm.heading_offset", "anchor.heading_offset"),
)


def _within(value, where: str, domains) -> Any:
    for test, words in domains:
        if not test(value):
            raise ConfigError(f"{where} {words}")
    return value


def _number(value, where: str, *domains) -> float:
    """``value`` as a float in each of ``domains``; a bool, a string or a
    missing value is an error.  An integer too large for a float is infinite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf if value > 0 else -math.inf
    return _within(value, where, domains)


def _is_list(value, length: int) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == length


def _number_pair(value, where: str, *domains) -> tuple[float, float]:
    """A list of two finite numbers, such as a footprint point; each in ``domains``."""
    if not _is_list(value, 2):
        raise ConfigError(f"{where} must be a list of two numbers")
    pair = (_number(value[0], f"{where}[0]", FINITE), _number(value[1], f"{where}[1]", FINITE))
    for number in pair:
        _within(number, where, domains)
    return pair


def read_settings(data: dict, base: _T, rows, where: str = "") -> _T:
    """``base`` with the field of each row read from ``data``.

    A row is ``(key, field, *domains)``: a dotted YAML key, the dotted field
    of ``base`` it sets (or two, set from a list of two numbers), and the
    domains of its value.  A missing key keeps the value in ``base``, checked
    like a given one unless None (the caller tests for it).  An ``int``
    default takes an integer, any other a finite number.  Rows under a record
    that is None in ``base`` are skipped.  The records are rebuilt through
    ``replace``, inner ones first, so that their own checks run; a
    ``ValueError`` of one is a ConfigError named by its keys' top section.
    ``where`` prefixes each key in a message.
    """
    changes: dict = {}  # nested by field path, as the records are
    sections = {}  # record path -> the top section of its keys
    for key, field, *domains in rows:
        *path, name = key.split(".")
        section = data
        for part in path:
            section = _section(section, part)
        fields = (field,) if isinstance(field, str) else field
        record_path = fields[0].rpartition(".")[0]
        record = attrgetter(record_path)(base) if record_path else base
        if record is None:
            continue
        names = [f.rpartition(".")[2] for f in fields]
        default = getattr(record, names[0])
        if default is None and name not in section:
            continue
        if len(fields) == 2:
            values = _number_pair(section.get(name, [getattr(record, n) for n in names]),
                                  where + key, *domains)
        elif type(default) is int:
            value = section.get(name, default)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{where}{key} must be an integer")
            values = (_within(value, where + key, domains),)
        else:
            values = (_number(section.get(name, default), where + key, FINITE, *domains),)
        node = changes
        for part in record_path.split(".") if record_path else ():
            node = node.setdefault(part, {})
        node.update(zip(names, values))
        sections.setdefault(record_path, where + key.partition(".")[0])
    return _rebuild(base, changes, sections, "")


def _rebuild(record: _T, changes: dict, sections: dict, path: str) -> _T:
    fields = {}
    for name, value in changes.items():
        if type(value) is dict:
            value = _rebuild(getattr(record, name), value, sections, f"{path}.{name}".lstrip("."))
        fields[name] = value
    try:
        return replace(record, **fields)
    except ValueError as err:
        raise ConfigError(f"{sections[path]}: {err}") from err


def extrinsic_from_dict(cal: dict, where: str = "") -> RigidTransform3D:
    """The camera's mounting from a 'calibration' section.  The rotation's
    numbers need no domain: NaN, an infinity or an entry beyond 1 + 1e-5 in
    magnitude fails its orthonormality test."""
    ext_raw = _section(cal, "extrinsic")
    where += "calibration.extrinsic"
    base = default_config().sensor.extrinsic
    rotation = ext_raw.get("rotation", base.rotation)
    if not _is_list(rotation, 3) or not all(_is_list(row, 3) for row in rotation):
        raise ConfigError(f"{where}.rotation must be a 3x3 list of numbers")
    translation = ext_raw.get("translation", base.translation)
    if not _is_list(translation, 3):
        raise ConfigError(f"{where}.translation must be a list of 3 numbers")
    try:
        return RigidTransform3D(
            tuple(tuple(_number(v, f"{where}.rotation[{i}][{k}]") for k, v in enumerate(row))
                  for i, row in enumerate(rotation)),
            tuple(_number(v, f"{where}.translation[{k}]", FINITE, CALIBRATION)
                  for k, v in enumerate(translation)),
        )
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def config_from_dict(data: dict[str, Any], base_dir: Path | None = None) -> SessionConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    base = default_config()
    utm = _section(data, "utm")
    inputs = {}
    inputs_raw = _section(data, "inputs")
    for key in ("odometry", "lidar_objects", "detections"):
        if key in inputs_raw:
            path = Path(str(inputs_raw[key]))
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            inputs[key] = path
    config = read_settings(data, replace(
        base,
        sensor=replace(base.sensor, extrinsic=extrinsic_from_dict(_section(data, "calibration"))),
        anchor=UtmAnchor(None, None, str(utm.get("zone", ""))) if utm else None,
        inputs=inputs,
    ), SESSION_KEYS)
    for name in ("easting", "northing", "zone") if utm else ():
        if getattr(config.anchor, name) in (None, ""):
            raise ConfigError(f"utm.{name} is required when a UTM anchor is given")
    return config


# The plain subset of YAML that ``_plain_yaml`` reads without PyYAML.  A
# number is an int ``-?(0|[1-9][0-9]*)`` or a float with digits before the
# dot and a signed exponent, read by ``int`` and ``float`` as PyYAML reads
# them.
_PLAIN_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(\.[0-9]*(?:[eE][-+][0-9]+)?)?")
# What a flow list of numbers may hold; brackets, commas and spaces are
# read as JSON reads them.
_FLOW_CHARACTERS = frozenset("[], -+.0123456789eE")
# Words that PyYAML reads as a bool or null; a key in any case of them defers.
_YAML_WORDS = frozenset(("yes", "no", "y", "n", "true", "false", "on", "off", "null"))
# Deeper nesting defers, so that PyYAML, which recurses, reports its limit.
_PLAIN_MAX_DEPTH = 32


def _plain_number(text: str) -> int | float | None:
    match = _PLAIN_NUMBER.fullmatch(text)
    if match is None:
        return None
    if match[1]:
        return float(text)
    try:
        return int(text)
    except ValueError:  # beyond the int-string limit, where PyYAML fails too
        return None


def _json_number(text: str) -> int | float:
    number = _plain_number(text)
    if number is None:
        raise ValueError(f"{text} is not a plain number")
    return number


def _plain_list(text: str) -> list | None:
    """The one-line flow list ``text`` of plain numbers and such lists."""
    if not _FLOW_CHARACTERS.issuperset(text) or text.count("[") > _PLAIN_MAX_DEPTH:
        return None
    try:
        return json.loads(text, parse_int=_json_number, parse_float=_json_number)
    except ValueError:  # not JSON, or a number outside the subset
        return None


def _plain_yaml(raw: bytes) -> dict | None:
    """The mapping that ``yaml.safe_load(raw)`` gives, if ``raw`` lies in
    the plain subset, else None (PyYAML must read it).

    The subset: printable ASCII lines without tabs or carriage returns;
    comment lines, and comments after a space; nested block mappings whose
    keys are letters, digits and underscores, start with a letter, are at
    most 64 characters long (PyYAML refuses a key over 1024) and occur once;
    each nesting indented deeper than its key, and its siblings indented
    alike; and values that are plain numbers or one-line flow lists of them.
    Everything else, and anything in doubt, is left to PyYAML: quotes,
    anchors, tags, flow mappings, sequences, document markers, a key without
    children, a bool or null word as a key, a number that PyYAML might read
    otherwise (``1e5``, ``010``, ``1_000``, ``+1``, ``.nan``).
    """
    if not raw.isascii():
        return None
    root: dict = {}
    stack = [(0, root)]  # (indent, mapping) of each open block
    parent = None  # (indent, mapping) of a key still waiting for its children
    for line in raw.decode("ascii").split("\n"):
        body = line.lstrip(" ")
        if not body.isprintable():
            return None
        if not body or body[0] == "#":
            continue
        indent = len(line) - len(body)
        if parent is not None:
            if indent <= parent[0] or len(stack) >= _PLAIN_MAX_DEPTH:
                return None
            stack.append((indent, parent[1]))
            parent = None
        while stack[-1][0] > indent:
            stack.pop()
        key, colon, rest = body.partition(":")
        mapping = stack[-1][1]
        if (stack[-1][0] != indent or not colon or len(key) > 64
                or not key.replace("_", "a").isalnum() or not key[0].isalpha()
                or key.lower() in _YAML_WORDS or key in mapping
                or rest[:1] not in ("", " ")):
            return None
        value = rest.partition(" #")[0].strip(" ")
        if not value:
            mapping[key] = child = {}
            parent = (indent, child)
            continue
        leaf = _plain_list(value) if value[0] == "[" else _plain_number(value)
        if leaf is None:
            return None
        mapping[key] = leaf
    return root if root and parent is None else None


def _load_yaml(path: Path, what: str) -> Any:
    """The YAML document in ``path`` (an empty one reads as ``{}``); a file
    that cannot be read or parsed is a ConfigError naming ``what`` it holds.
    The file is UTF-8.  A text in the plain subset is read by
    ``_plain_yaml``; only another one imports PyYAML, which reads the bytes,
    so that an undecodable byte is its error too."""
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise ConfigError(f"cannot read {what} file {path}: {err}") from err
    data = _plain_yaml(raw)
    if data is not None:
        return data
    import yaml  # imported here, so that a plain config does not load it

    class Loader(yaml.SafeLoader):
        def construct_object(self, node, deep=False):
            # A value PyYAML cannot build, such as a date that does not
            # exist or an integer beyond the int-string limit, is a
            # ValueError with no place: give it the node's.
            try:
                return super().construct_object(node, deep)
            except ValueError as err:
                raise yaml.constructor.ConstructorError(
                    None, None, str(err), node.start_mark) from err

    try:
        data = yaml.load(raw, Loader)
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid YAML in {path}:{_yaml_problem(err, raw)}") from err
    except (ValueError, RecursionError) as err:
        # outside any node, such as nesting too deep: PyYAML gives no place
        raise ConfigError(f"invalid YAML in {path}: {err}") from err
    return {} if data is None else data


def _yaml_problem(err, raw: bytes) -> str:
    """``<line>: <problem>`` of a PyYAML load error, on one line."""
    mark = getattr(err, "problem_mark", None)
    if mark is not None:
        return f"{mark.line + 1}: {err.problem}"
    # A reader error gives only an offset: of a byte that is not UTF-8, or
    # (encoding "unicode") of a decoded character that YAML does not allow.
    if err.encoding == "unicode":
        line = raw.decode("utf-8", "replace").count("\n", 0, err.position) + 1
    else:
        line = raw.count(b"\n", 0, err.position) + 1
    return f"{line}: {str(err).partition(chr(10))[0]}"


def load_config(path: Path) -> SessionConfig:
    return config_from_dict(_load_yaml(path, "config"), base_dir=Path(path).resolve().parent)
