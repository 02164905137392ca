"""Every loader either parses its input or raises an `InputError` that
starts with the input's path and names a line of it, or no line. The
inputs are the bundled data files, damaged in one place: one JSON value
changed or deleted at any depth, a new key or list item at any depth, or
one byte replaced."""

from __future__ import annotations

import copy
import importlib
import json
import pkgutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import peyvand
from peyvand.corpus import load_corpus, load_predictions
from peyvand.errors import InputError, PeyvandError
from peyvand.evaluate import AlignmentError, DomainError
from peyvand.kb import load_kb
from peyvand.linker import ConfigError, LinkerConfig

from mutations import byte_edits, containers, dumps, grow, mutations

DATA = Path(__file__).resolve().parent.parent / "data"

LOADERS = {
    "corpus": ("mini_corpus.jsonl", load_corpus),
    "predictions": ("golden_predictions.jsonl", load_predictions),
    "kb-dump": ("mini_kb.jsonl", lambda path: load_kb(path, DATA / "reference_lists.json")),
    "kb-lists": ("reference_lists.json", lambda path: load_kb(DATA / "mini_kb.jsonl", path)),
    "config": ("default_config.json", LinkerConfig.from_file),  # through from_dict
}


def _decode(filename: str, text: str):
    """A JSON-lines file as the list of its records; a JSON file as its value."""
    if filename.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return json.loads(text)


def _encode(filename: str, payload) -> str:
    if filename.endswith(".jsonl"):
        return "".join(dumps(record) + "\n" for record in payload)
    return dumps(payload)


def _loads_or_raises_input_error(load, path: Path) -> None:
    try:
        load(path)
    except InputError as exc:
        assert str(exc).startswith(f"{path}:")
        assert exc.line is None or 1 <= exc.line <= len(path.read_bytes().splitlines())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("loaders")


@pytest.mark.parametrize("name", LOADERS)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_any_value_mutation_loads_or_raises_peyvand_error(workdir, name, data):
    filename, load = LOADERS[name]
    payload = _decode(filename, (DATA / filename).read_text(encoding="utf-8"))
    path = workdir / filename
    path.write_text(_encode(filename, data.draw(mutations(payload))), encoding="utf-8")
    _loads_or_raises_input_error(load, path)


@pytest.mark.parametrize("name", LOADERS)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_any_byte_edit_loads_or_raises_peyvand_error(workdir, name, data):
    filename, load = LOADERS[name]
    path = workdir / filename
    path.write_bytes(data.draw(byte_edits((DATA / filename).read_bytes())))
    _loads_or_raises_input_error(load, path)


# One value of each JSON kind. The test below also adds a copy of the
# container's first item, which passes the type checks and reaches the
# deeper ones (duplicate ids, overlapping spans).
_GROWN_VALUES = (None, False, 0, 1.5, "", [], {})


@pytest.mark.parametrize("name", LOADERS)
def test_every_growth_loads_or_raises_input_error(workdir, name):
    """A new key `new` in each object, or a value appended to each list."""
    filename, load = LOADERS[name]
    payload = _decode(filename, (DATA / filename).read_text(encoding="utf-8"))
    path = workdir / filename
    for index, node in enumerate(containers(payload)):
        items = list(node.values() if isinstance(node, dict) else node)
        for value in (*_GROWN_VALUES, *items[:1]):
            grown = copy.deepcopy(payload)
            grow(list(containers(grown))[index], "new", copy.deepcopy(value))
            path.write_text(_encode(filename, grown), encoding="utf-8")
            _loads_or_raises_input_error(load, path)


# Where each reader's file gets an escape: the line, and the text there
# that the escape follows. The config file has no string value, so its
# escape goes into a key.
_ESCAPE_SITES = {
    "corpus": (2, '"category": "'),
    "predictions": (2, '"id": "'),
    "kb-dump": (2, '"label": "'),
    "kb-lists": (51, '"و'),
    "config": (2, '"lambda'),
}
_PAIR = "\\ud83d\\ude00"


@pytest.mark.parametrize("escape", ["\\ud800", "\\uDC00", _PAIR], ids=["high", "low", "pair"])
@pytest.mark.parametrize("name", LOADERS)
def test_lone_surrogate_escape_is_invalid_json(workdir, name, escape):
    """A lone surrogate fails on its line; an escaped pair is one character."""
    filename, load = LOADERS[name]
    line, before = _ESCAPE_SITES[name]
    lines = (DATA / filename).read_text(encoding="utf-8").splitlines(keepends=True)
    assert before in lines[line - 1]
    lines[line - 1] = lines[line - 1].replace(before, before + escape, 1)
    path = workdir / filename
    path.write_text("".join(lines), encoding="utf-8")
    if escape != _PAIR:
        with pytest.raises(InputError) as info:
            load(path)
        assert str(info.value) == f"{path}:{line}: invalid JSON: lone surrogate {escape}"
    elif name == "config":
        with pytest.raises(InputError, match="unknown keys in config: \\['lambda\U0001f600'\\]"):
            load(path)
    else:
        load(path)


def test_package_errors_are_input_config_alignment_and_domain():
    """A reader reports a bad file as an `InputError`, not a class of its own."""
    for module in pkgutil.iter_modules(peyvand.__path__):
        if module.name != "__main__":  # importing it runs the command line
            importlib.import_module(f"peyvand.{module.name}")
    found, stack = set(), [PeyvandError]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("peyvand."):
                found.add(cls)
    assert found == {InputError, ConfigError, AlignmentError, DomainError}
    assert "InputError" in peyvand.__all__ and peyvand.InputError is InputError


def test_every_public_name_resolves():
    """`from peyvand import *` finds every name in `peyvand.__all__`."""
    namespace: dict = {}
    exec("from peyvand import *", namespace)
    assert [name for name in peyvand.__all__ if name not in namespace] == []
