"""Byte-level edits of a valid file, for the property that a loader either
loads what it is given or raises one of the reported failure types."""

from hypothesis import strategies as st

_EDITS = ["replace", "insert", "delete", "truncate"]


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """``data`` after one to four edits, each at any offset: a byte replaced,
    inserted or deleted, or everything from there on cut off."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(out)))
        edit = draw(st.sampled_from(_EDITS))
        if edit == "insert":
            out.insert(at, draw(st.integers(0, 255)))
        elif edit == "truncate":
            del out[at:]
        elif at < len(out) and edit == "replace":
            out[at] = draw(st.integers(0, 255))
        elif at < len(out):
            del out[at]
    return bytes(out)
