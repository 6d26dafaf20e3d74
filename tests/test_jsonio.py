"""Canonical JSON: the regex string escaper against a per-character loop."""

from __future__ import annotations

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
