"""Hypothesis strategies that damage valid inputs: one JSON value changed
or deleted at any depth, a lone surrogate put into any string, a new key
inserted into any object or a value appended to any list, or one byte of
a file replaced. `dumps` writes such a value as the text of a file."""

from __future__ import annotations

import copy
import json
import re
from typing import Iterator

from hypothesis import strategies as st

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

# A lone surrogate decodes from a valid `\u` escape but no UTF-8 writer can encode it.
lone_surrogates = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)
_SURROGATE = re.compile("[\ud800-\udfff]")


def dumps(value) -> str:
    """The JSON text of `value` with its non-ASCII characters as they are,
    apart from surrogates, which only a `\\u` escape can carry in a file."""
    return _SURROGATE.sub(lambda m: f"\\u{ord(m[0]):04x}", json.dumps(value, ensure_ascii=False))


def containers(payload) -> Iterator[dict | list]:
    """Every object and list in `payload`, depth first, `payload` first."""
    stack = [payload]
    while stack:
        node = stack.pop()
        yield node
        children = node.values() if isinstance(node, dict) else node
        stack.extend(reversed([c for c in children if isinstance(c, (dict, list))]))


def grow(node: dict | list, key: str, value) -> None:
    """Insert `value` into an object under `key`, which it lacks, or
    append `value` to a list."""
    if isinstance(node, dict):
        assert key not in node
        node[key] = value
    else:
        node.append(value)


@st.composite
def mutations(draw, payload):
    """A copy of `payload` with one edit at any depth: a value deleted or
    replaced, a lone surrogate put into a string, or the object or list the
    walk stops at grown by one value."""
    payload = copy.deepcopy(payload)
    node = payload
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        if not keys or draw(st.integers(0, 3)) == 0:
            fresh = st.text(max_size=4).filter(lambda k: k not in node)
            grow(node, draw(fresh) if isinstance(node, dict) else "", draw(json_values))
            return payload
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and draw(st.booleans()):
            node = child
        elif isinstance(child, str) and draw(st.integers(0, 3)) != 0:
            at = draw(st.integers(0, len(child)))
            node[key] = child[:at] + draw(lone_surrogates) + child[at:]
            return payload
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
