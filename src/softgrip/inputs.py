"""The input boundary: read a file once, decode its JSON, and build typed
dataclasses from the decoded objects.

Every failure is a SoftgripError naming the file or the block and field,
so no malformed input reaches the caller as a TypeError or KeyError.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing
from pathlib import Path

from .errors import ConfigError, ParseError

_FLOAT_MAX = sys.float_info.max


def read_bytes(path, error: type = ConfigError) -> bytes:
    """The bytes of a file; an unreadable path raises ``error`` naming it."""
    try:
        return Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise error(f"cannot read {path}: {exc}") from exc


def decode_json(data: bytes | str, what, error: type = ParseError):
    """The value JSON text decodes to; invalid text raises ``error`` naming ``what``."""
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; nesting too deep
        raise error(f"{what} is not valid JSON: {exc}") from exc


def read_json(path, error: type = ParseError):
    """Read and decode one JSON file."""
    return decode_json(read_bytes(path, error), path, error)


def from_dict(cls, raw, what: str):
    """Build dataclass ``cls`` from a decoded JSON object.

    The keys must be init fields of ``cls``, and every field without a
    default must be present.  Each value is checked against the field's type
    hint: ``float`` takes a finite number (int or float, not bool),
    ``int`` and ``str`` take exactly that type, ``Optional[X]`` also takes
    null, and ``tuple[float, float, float]`` takes a list of three finite
    numbers.  Any mismatch raises ConfigError naming ``what`` and the field.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(raw).__name__}")
    fields = [f for f in dataclasses.fields(cls) if f.init]
    names = {f.name for f in fields}
    unknown = [k for k in raw if k not in names]
    if unknown:
        raise ConfigError(f"{what} has unknown keys: {', '.join(map(repr, unknown))}")
    missing = [f.name for f in fields if f.name not in raw
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{what} is missing keys: {', '.join(map(repr, missing))}")
    hints = typing.get_type_hints(cls)
    return cls(**{k: _typed(hints[k], v, f"{what} key {k!r}") for k, v in raw.items()})


def _typed(hint, value, where: str):
    args = typing.get_args(hint)
    if type(None) in args:  # Optional[X]
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
    elif typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            raise ConfigError(f"{where} must be a list of {len(args)} numbers, got {value!r}")
        return tuple(_typed(a, v, where) for a, v in zip(args, value))
    if hint is float:
        # The range check also rejects NaN and ints too large for a float.
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return float(value)
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    if type(value) is not hint:  # exact, so a bool is not an int
        raise ConfigError(f"{where} must be {hint.__name__}, got {value!r}")
    return value
