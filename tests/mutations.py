"""Hypothesis strategies that damage valid inputs: one JSON value changed
or deleted at any depth, or one byte of a file replaced."""

from __future__ import annotations

import copy

from hypothesis import strategies as st

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutations(draw, payload):
    """A copy of `payload` with one value, at any depth, deleted or replaced."""
    payload = copy.deepcopy(payload)
    node = payload
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
        elif draw(st.booleans()):
            del node[key]
            return payload
        else:
            node[key] = draw(json_values)
            return payload


@st.composite
def byte_edits(draw, data: bytes):
    """A copy of `data` with one byte replaced by one or two arbitrary bytes."""
    pos = draw(st.integers(0, len(data) - 1))
    return data[:pos] + draw(st.binary(min_size=1, max_size=2)) + data[pos + 1:]
