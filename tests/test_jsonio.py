"""Canonical JSON: the one-pass encoder against the recursive one it
replaced, and the string escaper against a per-character loop."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parlines.jsonio import canonical_json


def _reference_string(s: str) -> str:
    # Each character on its own: the quote, the backslash and the control
    # characters escaped, every other code point kept as it is.
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


# Any code point, lone surrogates included, with the edge cases drawn often:
# the escaped characters, the first unescaped ones, DEL, a surrogate half and
# a character outside the BMP.
_SPECIAL = ['"', "\\", "\x00", "\x1f", " ", "\x7f", "\ud800", "\udfff", "\U0001f600"]
_TEXT = st.lists(
    st.one_of(st.sampled_from(_SPECIAL), st.integers(0, 0x10FFFF).map(chr))
).map("".join)


@settings(max_examples=500, deadline=None)
@given(_TEXT)
def test_string_escaping_matches_the_reference_loop(s):
    assert canonical_json(s) == _reference_string(s)
    assert canonical_json({s: [s]}) == "{" + _reference_string(s) + ":[" + _reference_string(s) + "]}"


def test_string_examples():
    assert canonical_json("plain text") == '"plain text"'
    assert canonical_json('a"b\\c\n') == '"a\\"b\\\\c\\u000a"'
    assert canonical_json("\x7f\U0001f600") == '"\x7f\U0001f600"'


# -- the one-pass encoder against the recursive one ------------------------------

_RECURSIVE_ESCAPE = re.compile(r'["\\\x00-\x1f]')


def _recursive_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("cannot serialize a non-finite float")
    return f"{x + 0.0:.17g}"


def _recursive_json(obj) -> str:
    # The encoder as it was: one call and one string join per value.
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _recursive_float(obj)
    if isinstance(obj, str):
        return '"' + _RECURSIVE_ESCAPE.sub(
            lambda m: "\\" + m.group() if m.group() in '"\\' else f"\\u{ord(m.group()):04x}",
            obj,
        ) + '"'
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_recursive_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError("canonical JSON keys must be strings")
            parts.append(_recursive_json(k) + ":" + _recursive_json(v))
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class _Str(str):
    pass


class _Dict(dict):
    pass


def _outcome(encode, obj):
    try:
        return encode(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308]),
)
_FLOATS = st.one_of(_FLOATS, _FLOATS.map(np.float64))
_STRINGS = st.one_of(_TEXT, _TEXT.map(_Str))
_SCALARS = st.one_of(_STRINGS, st.integers(), st.booleans(), st.none(), _FLOATS)
# What the encoder refuses: a non-finite float, a numpy bool or integer, and
# (below) a key that is not a string.
_REFUSED = st.sampled_from([math.inf, -math.inf, math.nan, np.float64("-inf"),
                            np.bool_(True), np.int64(3)])


def _nested(leaves, keys):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(keys, inner, max_size=4),
            st.dictionaries(keys, inner, max_size=4).map(_Dict),
        ),
        max_leaves=12,
    )


@settings(max_examples=200, deadline=None)
@given(_nested(_SCALARS, _STRINGS))
def test_one_pass_encoder_matches_the_recursive_one(obj):
    assert canonical_json(obj) == _recursive_json(obj)


@settings(max_examples=200, deadline=None)
@given(_nested(st.one_of(_SCALARS, _REFUSED), st.one_of(_STRINGS, st.integers(), st.none())))
def test_one_pass_encoder_refuses_as_the_recursive_one(obj):
    assert _outcome(canonical_json, obj) == _outcome(_recursive_json, obj)


@pytest.mark.parametrize(
    "obj, error",
    [
        (math.nan, ValueError),
        ([1.0, {"x": np.float64("inf")}], ValueError),
        ({1: "a"}, TypeError),
        ({"a": [np.bool_(False)]}, TypeError),
        ((np.int64(2),), TypeError),
    ],
)
def test_refusals(obj, error):
    with pytest.raises(error):
        canonical_json(obj)
    with pytest.raises(error):
        _recursive_json(obj)


def test_encoder_examples():
    assert canonical_json({"a": [1, 2.5, -0.0, None], "b": (), "c": {}, "d": True}) == (
        '{"a":[1,2.5,0,null],"b":[],"c":{},"d":true}'
    )
    assert canonical_json(_Dict(k=_Str("v\n"), f=np.float64(0.1))) == (
        '{"k":"v\\u000a","f":0.10000000000000001}'
    )
