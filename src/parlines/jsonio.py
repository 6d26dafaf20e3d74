"""Canonical JSON with fixed-precision floats.

Records that must replay byte-identically are serialized here instead of
through ``json.dumps``: floats are always rendered with ``%.17g`` (which
round-trips every IEEE double), keys keep their insertion order, and there
is no whitespace variation.  Non-finite floats are rejected.  The encoder
makes one pass over the value, dispatching on each part's exact type and
appending to one list; an instance of a subclass of a JSON type (a
``numpy.float64``, say) is encoded as that type, and any other type is
refused.  On the way in, ``json_typed`` reads one field of a parsed JSON
object as its own type, never coerced.
"""

from __future__ import annotations

import hashlib
import math
import re
from json.encoder import encode_basestring
from typing import get_args, get_origin

__all__ = ["canonical_json", "sha256_of", "json_typed"]


# The characters a JSON string must escape: the quote, the backslash and
# the control characters, which are written as \u00XX.
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')


def _escape(match: re.Match) -> str:
    ch = match.group()
    return "\\" + ch if ch in '"\\' else f"\\u{ord(ch):04x}"


def _quote(s: str) -> str:
    # json's escaper escapes the same characters, but writes five control
    # characters, such as \n, as short escapes; a printable string has no
    # control character, so there the two write the same text.
    if str.isprintable(s):
        return encode_basestring(s)
    return '"' + _NEEDS_ESCAPE.sub(_escape, s) + '"'


# The exact types the encoder knows; an instance of a subclass of one is
# encoded as the first of int, float, str, list or tuple, dict it is.
_EXACT = frozenset((str, int, float, list, tuple, dict, bool, type(None)))
_BASES = (int, float, str, list, tuple, dict)


def canonical_json(obj) -> str:
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


def _write(obj, out: list[str]) -> None:
    """Append the canonical JSON of ``obj`` to ``out``, in one pass over it."""
    kind = type(obj)
    if kind not in _EXACT:
        kind = next((base for base in _BASES if isinstance(obj, base)), None)
        if kind is None:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
    if kind is str:
        out.append(_quote(obj))
    elif kind is float:
        if not math.isfinite(obj):
            raise ValueError("cannot serialize a non-finite float")
        # Fold -0.0 into 0.0: "-0" would come back from a JSON parser as the
        # integer 0 and the reserialized text would no longer match.
        out.append(f"{obj + 0.0:.17g}")
    elif kind is int:
        out.append(str(obj))
    elif kind is dict:
        # Each member is followed by a comma, and the last comma becomes the
        # closing brace.
        out.append("{")
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError("canonical JSON keys must be strings")
            out.append(_quote(k) + ":")
            _write(v, out)
            out.append(",")
        if obj:
            out[-1] = "}"
        else:
            out.append("}")
    elif kind is list or kind is tuple:
        out.append("[")
        for v in obj:
            _write(v, out)
            out.append(",")
        if obj:
            out[-1] = "]"
        else:
            out.append("]")
    elif kind is bool:
        out.append("true" if obj else "false")
    else:
        out.append("null")


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
