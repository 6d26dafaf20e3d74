"""Canonical JSON with fixed-precision floats.

Records that must replay byte-identically are serialized here instead of
through ``json.dumps``: floats are always rendered with ``%.17g`` (which
round-trips every IEEE double), keys keep their insertion order, and there
is no whitespace variation.  Non-finite floats are rejected.
"""

from __future__ import annotations

import hashlib
import math
import re

__all__ = ["format_float", "canonical_json", "sha256_of"]


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
