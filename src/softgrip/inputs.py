"""The input boundary: read a file once, decode its JSON, and build typed
dataclasses from the decoded objects.

Every failure is a SoftgripError naming the file or the block and field,
so no malformed input reaches the caller as a TypeError or KeyError.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import stat
import sys
import typing
from pathlib import Path

from .errors import ConfigError, ParseError, SoftgripError

_FLOAT_MAX = sys.float_info.max

# hashlib loads OpenSSL's _hashlib: ~2.6 ms and ~3.5 MB of RSS per process.
# CPython's built-in SHA-256 hashes at ~3.9 ms/MiB and OpenSSL at ~0.81 ms/MiB
# (2-vCPU VM, Python 3.11), so the two break even near 0.8 MiB; a file up to
# this size costs at most ~0.7 ms more with the built-in and saves the 3.5 MB.
BUILTIN_SHA256_MAX_BYTES = 1 << 20


def _sha256(size: int):
    """A sha256 hash object for a file of ``size`` bytes: CPython's built-in
    one up to BUILTIN_SHA256_MAX_BYTES, else (or in a build without it)
    hashlib's.  Both give the same digest."""
    if size <= BUILTIN_SHA256_MAX_BYTES:
        for module in ("_sha2", "_sha256"):  # its name on Python 3.12+, on 3.10 and 3.11
            try:
                return __import__(module).sha256()
            except ImportError:
                pass
    import hashlib
    return hashlib.sha256()


class HashingReader:
    """A regular file read forward once, its sha256 updated as it is read.

    An unreadable path, or one naming anything else (a FIFO, a device),
    raises ConfigError naming it; the type is checked on the descriptor that
    is read.
    """

    def __init__(self, path):
        self.path = path
        try:  # without O_NONBLOCK a FIFO with no writer blocks in open
            self._file = open(path, "rb", buffering=0,
                              opener=lambda p, flags: os.open(p, flags | os.O_NONBLOCK))
            info = os.fstat(self._file.fileno())
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        if not stat.S_ISREG(info.st_mode):
            self._file.close()
            raise ConfigError(f"cannot read {path}: not a regular file")
        self.sha256 = _sha256(info.st_size)

    def read(self, size: int = -1) -> bytes:
        """At most ``size`` bytes (all that are left if negative); b"" at the end."""
        try:
            data = self._file.read(size)
        except OSError as exc:
            raise ConfigError(f"cannot read {self.path}: {exc}") from exc
        self.sha256.update(data)
        return data

    def __enter__(self) -> "HashingReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self._file.close()


def decode_json(data: bytes, what):
    """The value JSON text decodes to; invalid text raises ParseError naming ``what``."""
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; nesting too deep
        raise ParseError(f"{what} is not valid JSON: {exc}") from exc


def read_package_json(name: str):
    """Decode one JSON file shipped in ``softgrip.data``."""
    return decode_json((Path(__file__).parent / "data" / name).read_bytes(), name)


@functools.cache
def _schema(cls) -> tuple[dict, list]:
    """(checker of each init field, names of the fields without a default)."""
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    required = [f.name for f in fields if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    return {f.name: _checker(hints[f.name]) for f in fields}, required


def from_dict(cls, raw, what: str, error: type = ConfigError):
    """Build dataclass ``cls`` from a decoded JSON object.

    The keys must be init fields of ``cls``, and every field without a
    default must be present.  Each value is checked against the field's type
    hint: ``float`` takes a finite number (int or float, not bool), ``int``,
    ``bool``, ``str`` and ``dict`` take exactly that type, ``Optional[X]``
    also takes null, ``tuple[X, Y]`` takes a list of one value per element
    type, ``tuple[X, ...]`` a list of any length, and a dataclass an object
    built by this function.  Any mismatch raises ``error`` naming ``what``,
    the key and, inside a list, the item index; an error from ``cls``
    itself (an invariant its constructor checks) is prefixed with ``what``.
    """
    return _build(cls, raw, (what,), error)


def _name(path: tuple) -> str:
    """``what key 'k' item 3 ...`` for a path (what, key or item index, ...);
    built only to raise, since most values pass."""
    return f"{path[0]}" + "".join(
        f" item {step}" if isinstance(step, int) else f" key {step!r}" for step in path[1:]
    )


def _build(cls, raw, path: tuple, error: type):
    if not isinstance(raw, dict):
        raise error(f"{_name(path)} must be a JSON object, got {type(raw).__name__}")
    checkers, required = _schema(cls)
    unknown = [k for k in raw if k not in checkers]
    if unknown:
        raise error(f"{_name(path)} has unknown keys: {', '.join(map(repr, unknown))}")
    missing = [k for k in required if k not in raw]
    if missing:
        raise error(f"{_name(path)} is missing keys: {', '.join(map(repr, missing))}")
    kwargs = {k: checkers[k](v, path, k, error) for k, v in raw.items()}
    try:
        return cls(**kwargs)
    except SoftgripError as exc:
        raise type(exc)(f"{_name(path)}: {exc}") from exc


def _finite(value, path: tuple, step, error: type) -> float:
    # The range check also rejects NaN and ints too large for a float.
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return float(value)
    raise error(f"{_name((*path, step))} must be a finite number, got {value!r}")


def _checker(hint):
    """The check of a value against ``hint``, resolved once per field: a
    function (value, path, step, error) of a value that sits at ``path`` +
    ``step``, returning the value to store."""
    if hint is float:
        return _finite
    args = typing.get_args(hint)
    if type(None) in args:  # Optional[X]
        (inner,) = (a for a in args if a is not type(None))
        check = _checker(inner)
        return lambda value, path, step, error: (
            None if value is None else check(value, path, step, error))
    if typing.get_origin(hint) is tuple:
        variadic = args[1:] == (Ellipsis,)
        checks = [_checker(t) for t in (args[:1] if variadic else args)]
        size = "" if variadic else f" of {len(args)} values"

        def check_tuple(value, path, step, error):
            if not isinstance(value, list) or not variadic and len(value) != len(checks):
                raise error(f"{_name((*path, step))} must be a list{size}, got {value!r}")
            path = (*path, step)
            items = checks * len(value) if variadic else checks
            return tuple(c(v, path, i, error) for i, (c, v) in enumerate(zip(items, value)))
        return check_tuple

    nested = dataclasses.is_dataclass(hint)

    def check_exact(value, path, step, error):
        if type(value) is hint:  # exact, so a bool is not an int
            return value
        if nested:
            return _build(hint, value, (*path, step), error)
        raise error(f"{_name((*path, step))} must be {hint.__name__}, got {value!r}")
    return check_exact
