"""Checked readers for the JSON and JSON-lines files the pipeline takes in.

Each reader decodes a document, or one line at a time, requires a JSON
object and hands it to a `parse` function. Whatever goes wrong comes out as
one `LogFormatError` naming the file, and the line for JSON-lines files:
text that is not JSON, a document or line that is not an object, and any
KeyError, IndexError, TypeError or ValueError that `parse` raises. The
helpers below are what the parse functions check values with.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math

import numpy as np


class LogFormatError(ValueError):
    """A malformed input file; the message names the file, and the line or frame if any."""


def _parsed(where: str, obj, parse):
    if not isinstance(obj, dict):
        raise LogFormatError(f"{where}: not a JSON object")
    try:
        return parse(obj)
    except LogFormatError:  # from a file the object names, which that error locates
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        kind = obj.get("type")
        what = f"bad {kind} record" if isinstance(kind, str) else "malformed"
        raise LogFormatError(f"{where}: {what} ({type(exc).__name__}: {exc})") from exc


def _no_constant(name: str):
    raise ValueError(f"non-finite number {name}; numbers must be finite")


def _decoded(where: str, data: bytes):
    try:  # files are read as bytes: json decodes the text too
        return json.loads(data, parse_constant=_no_constant)
    except ValueError as exc:
        raise LogFormatError(f"{where}: {exc}") from exc


def read_json(path, parse):
    """`parse` of the JSON object held in the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    return _parsed(str(path), _decoded(str(path), data), parse)


def read_json_lines(path, parse) -> list:
    """`parse` of each non-blank line's JSON object, in file order.

    Each line is parsed as it is read; no decoded JSON outlives its line.
    """
    out = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                where = f"{path}:{lineno}"
                out.append(_parsed(where, _decoded(where, line), parse))
    return out


def read_last_json_line(path, parse):
    """`parse` of the last non-blank line's JSON object; no other line is decoded."""
    last, lineno = None, 0
    with open(path, "rb") as fh:
        for i, line in enumerate(fh, start=1):
            if line.strip():
                last, lineno = line, i
    if last is None:
        raise LogFormatError(f"{path}: no JSON lines")
    where = f"{path}:{lineno}"
    return _parsed(where, _decoded(where, last), parse)


# the JSON type of each Python type that json decodes to, and of tuples
_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "a list", tuple: "a list", dict: "an object"}


def typed(value, like, name: str):
    """`value` when its JSON type is that of `like`; TypeError naming `name` if not.

    An integer passes where `like` is a float; a float must be finite (json
    reads `1e400` as infinity). Where `like` is a non-empty list or tuple,
    each item of `value` is checked against `like`'s first: by the set of
    item types for strings, integers or booleans, item by item if it is wrong.
    """
    have, want = _JSON_TYPES.get(type(value), "null"), _JSON_TYPES[type(like)]
    if have != want and not (have == "an integer" and want == "a number"):
        raise TypeError(f"{name} must be {want}, not {have}")
    if have == "a number" and not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    if want == "a list" and len(like) and not (
            type(like[0]) in (str, int, bool) and set(map(type, value)) <= {type(like[0])}):
        for item in value:
            typed(item, like[0], name)
    return value


def required(obj: dict, like: dict) -> dict:
    """The keys of `like` taken from `obj`, each typed as `like`'s value.

    A KeyError names every missing key; keys `like` lacks are ignored.
    """
    missing = [key for key in like if key not in obj]
    if missing:
        raise KeyError(", ".join(missing))
    return {key: typed(obj[key], value, key) for key, value in like.items()}


def numbers(value, shape: tuple, name: str) -> np.ndarray:
    """Nested lists of finite JSON numbers as a float array of `shape`; None matches any length."""
    try:
        arr = np.array(value)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != len(shape) or arr.dtype.kind not in "if" or \
            any(n is not None and n != m for n, m in zip(shape, arr.shape)):
        want = "x".join("n" if n is None else str(n) for n in shape)
        raise ValueError(f"{name} must be {want} numbers")
    flat = value
    for _ in shape[1:]:
        flat = itertools.chain.from_iterable(flat)
    if not set(map(type, flat)) <= {int, float}:  # numpy reads a boolean as a number
        raise ValueError(f"{name} must hold numbers only")
    arr = arr.astype(float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def settings(obj: dict, names) -> dict:
    """`obj` less its optional "version", which must be 1; every other key must be in `names`."""
    obj = dict(obj)
    if typed(obj.pop("version", 1), 1, "version") != 1:
        raise ValueError("unsupported version")
    unknown = sorted(set(obj) - set(names))
    if unknown:
        raise ValueError(f"unknown key(s): {', '.join(unknown)}")
    return obj


def config_from_json(cls, obj: dict):
    """A `cls` dataclass from a flat JSON object of `settings`, one per field.

    Each value must have the JSON type of its field's default and becomes a
    tuple where the default is one. Absent fields keep their defaults.
    """
    obj = settings(obj, [f.name for f in dataclasses.fields(cls)])
    defaults = cls()
    values = {}
    for key, value in obj.items():
        like = getattr(defaults, key)
        typed(value, like, key)
        values[key] = tuple(value) if isinstance(like, tuple) else value
    return cls(**values)
