"""JSON serialization with fixed float formatting.

Every float is written with 17 significant digits, which is enough to
round-trip an IEEE-754 double exactly.  Replays compare output files
byte-for-byte, so the formatting must not depend on interpreter version
or platform repr() behaviour.  Strings are escaped to ASCII exactly as
``json.dumps`` escapes them.

Every writer of an output file writes it inside ``naming``, so that a
failed write names its file.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Any, Iterator


@contextmanager
def naming(path: Path) -> Iterator[None]:
    """Give ``path`` to an ``OSError`` raised inside that names no file, as
    a failed ``write()`` or closing flush does (a full disk).  An error the
    program raises itself, which has no ``errno`` (a live detector's), is
    left as it is."""
    try:
        yield
    except OSError as err:
        if err.filename is None and err.errno is not None:
            err.filename = path
        raise


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float in output: {x!r}")
    return f"{x:.17g}"


def dumps(obj: Any) -> str:
    """Serialize to a single-line JSON string with stable float text."""
    parts: list[str] = []
    _write(obj, parts)
    return "".join(parts)


def _write(obj: Any, parts: list[str]) -> None:
    # Each record converts its values when built, so every scalar is an
    # exact float, int or str (bool is its own type); a subclass is refused.
    kind = type(obj)
    if kind is float:
        parts.append(format_float(obj))
    elif kind is int:
        parts.append(str(obj))
    elif kind is str:
        parts.append(_encode_str(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        first = True
        for item in obj:
            if first:
                first = False
            else:
                parts.append(", ")
            _write(item, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        first = True
        for key, value in obj.items():
            if first:
                first = False
            else:
                parts.append(", ")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(_encode_str(key))
            parts.append(": ")
            _write(value, parts)
        parts.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")
