"""Canonical JSON with fixed-precision floats.

Records that must replay byte-identically are serialized here instead of
through ``json.dumps``: floats are always rendered with ``%.17g`` (which
round-trips every IEEE double), keys keep their insertion order, and there
is no whitespace variation.  Non-finite floats are rejected.  On the way
in, ``json_typed`` reads one field of a parsed JSON object as its own type,
never coerced.
"""

from __future__ import annotations

import hashlib
import math
import re
from typing import get_args, get_origin

__all__ = ["format_float", "canonical_json", "sha256_of", "json_typed"]


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("cannot serialize a non-finite float")
    # Fold -0.0 into 0.0: "-0" would come back from a JSON parser as the
    # integer 0 and the reserialized text would no longer match.
    return f"{x + 0.0:.17g}"


# The characters a JSON string must escape: the quote, the backslash and
# the control characters, which are written as \u00XX.
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')


def _escape(match: re.Match) -> str:
    ch = match.group()
    return "\\" + ch if ch in '"\\' else f"\\u{ord(ch):04x}"


def canonical_json(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return '"' + _NEEDS_ESCAPE.sub(_escape, obj) + '"'
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError("canonical JSON keys must be strings")
            parts.append(canonical_json(k) + ":" + canonical_json(v))
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def sha256_of(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def json_typed(data: dict, key: str, kind):
    """``data[key]`` if it is a JSON value of ``kind``, a TypeError otherwise.

    ``kind`` is bool; int, which a bool is not; float, which takes any number
    but a bool and returns it as a finite float, so an integer beyond the
    float range is refused, and so are the inf and nan that ``json.load``
    reads from 1e400, Infinity and NaN; str; or ``list[k]`` of such a kind,
    returned as a list.
    """
    return _typed(data[key], kind, key)


def _typed(value, kind, where: str):
    if get_origin(kind) is list:
        if not isinstance(value, list):
            raise TypeError(f"{where} must be a list, got {value!r}")
        (item,) = get_args(kind)
        return [_typed(v, item, f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, bool) != (kind is bool) or not isinstance(
        value, (int, float) if kind is float else kind
    ):
        raise TypeError(f"{where} must be {_KIND_NAMES[kind]}, got {value!r}")
    if kind is not float:
        return value
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise TypeError(f"{where} must be a number in the float range")
    return number
