"""Every loader either parses its input or raises `PeyvandError`. The inputs
are the bundled data files, damaged in one place: one JSON value changed
or deleted at any depth, or one byte replaced."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peyvand.corpus import load_corpus, load_predictions
from peyvand.errors import PeyvandError
from peyvand.kb import load_kb
from peyvand.linker import LinkerConfig

from mutations import byte_edits, mutations

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
        return "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in payload)
    return json.dumps(payload, ensure_ascii=False)


def _loads_or_raises_peyvand_error(load, path: Path) -> None:
    try:
        load(path)
    except PeyvandError:
        pass


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
    _loads_or_raises_peyvand_error(load, path)


@pytest.mark.parametrize("name", LOADERS)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_any_byte_edit_loads_or_raises_peyvand_error(workdir, name, data):
    filename, load = LOADERS[name]
    path = workdir / filename
    path.write_bytes(data.draw(byte_edits((DATA / filename).read_bytes())))
    _loads_or_raises_peyvand_error(load, path)

