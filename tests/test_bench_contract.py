"""The package surface the benchmark (`bench/run.py`) relies on.

The benchmark calls some package functions and wraps others in timing
spans by module and name. A renamed function, a changed signature, or a
layer that stops calling a wrapped name makes a span read zero or a run
fail without a word, so these tests pin each name, the call shape the
benchmark uses and the calls each span sees.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import peyvand.cli
from peyvand.cache import load_index, save_index
from peyvand.linker import LinkerConfig, link_document

_PATH, _KB, _LISTS, _CFG, _DOC = Path("x"), object(), object(), object(), object()

# (module, name, positional arguments of the benchmark's call)
BENCH_CALLS = [
    ("peyvand.cache", "load_index", (_PATH,)),
    ("peyvand.cache", "save_index", (_KB, _LISTS, _PATH)),
    ("peyvand.kb", "load_kb", (_PATH, _PATH)),
    ("peyvand.kb", "lookup_alias", (_KB, "surface")),
    ("peyvand.linker", "link_document", (_KB, _LISTS, _CFG, _DOC)),
    ("peyvand.linker", "LinkerConfig", ()),
    ("peyvand.linker", "tokenize", ("text",)),
    ("peyvand.linker", "lookup_alias", (_KB, "surface")),
    ("peyvand.corpus", "load_corpus", (_PATH,)),
    ("peyvand.corpus", "write_predictions", ([], [], _PATH)),
    ("peyvand.cli", "main", (["link"],)),
    ("oracles", "oracle_link_document", (_KB, _LISTS, _CFG, _DOC)),
]


@pytest.mark.parametrize(
    "module,name,args", BENCH_CALLS, ids=[f"{m}.{n}" for m, n, _ in BENCH_CALLS]
)
def test_name_resolves_and_takes_the_bench_call(module, name, args):
    fn = getattr(importlib.import_module(module), name, None)
    assert callable(fn), f"{module}.{name} is gone"
    inspect.signature(fn).bind(*args)


def _count_calls(monkeypatch, module: str, name: str, holders: list[str]) -> list[int]:
    """Replace `module.name`, as held under that name by each of `holders`,
    with a wrapper that counts its calls."""
    original = getattr(importlib.import_module(module), name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for holder in holders:
        assert getattr(sys.modules[holder], name) is original
        monkeypatch.setattr(sys.modules[holder], name, counted)
    return calls


def _peyvand_holders(module: str, name: str) -> list[str]:
    """The peyvand modules that hold `module.name` under that name, which
    the benchmark's spans on public functions wrap."""
    original = getattr(importlib.import_module(module), name)
    return [
        mod_name
        for mod_name, mod in list(sys.modules.items())
        if (mod_name == "peyvand" or mod_name.startswith("peyvand."))
        and getattr(mod, name, None) is original
    ]


def test_public_spans_see_the_cli_calls(tmp_path, data_dir, monkeypatch):
    spans = [
        ("peyvand.kb", "load_kb"),
        ("peyvand.cache", "save_index"),
        ("peyvand.cache", "load_index"),
        ("peyvand.corpus", "load_corpus"),
        ("peyvand.corpus", "write_predictions"),
    ]
    calls = {span: _count_calls(monkeypatch, *span, _peyvand_holders(*span)) for span in spans}
    index = tmp_path / "mini.idx"
    assert peyvand.cli.main(["build-index", "--kb", str(data_dir / "mini_kb.jsonl"),
                             "--lists", str(data_dir / "reference_lists.json"),
                             "--out", str(index)]) == 0
    assert peyvand.cli.main(["link", "--index", str(index),
                             "--corpus", str(data_dir / "mini_corpus.jsonl"),
                             "--out", str(tmp_path / "p.jsonl")]) == 0
    assert {span: n[0] for span, n in calls.items()} == dict.fromkeys(spans, 1)


def test_linker_calls_the_names_the_bench_wraps(kb, lists, mini_corpus, monkeypatch):
    # The benchmark wraps these two names in `peyvand.linker` alone.
    tokenize_calls = _count_calls(monkeypatch, "peyvand.linker", "tokenize", ["peyvand.linker"])
    lookup_calls = _count_calls(monkeypatch, "peyvand.linker", "lookup_alias", ["peyvand.linker"])
    for doc in mini_corpus:
        link_document(kb, lists, LinkerConfig(), doc)
    assert tokenize_calls[0] == len(mini_corpus)
    assert lookup_calls[0] == sum(len(doc.mentions) for doc in mini_corpus)


def test_loaded_records_expose_their_article_text(tmp_path, kb, lists):
    # `bench/run.py --trace 1` reads `article_text` of every record of a
    # loaded index.
    save_index(kb, lists, tmp_path / "mini.idx")
    loaded, _ = load_index(tmp_path / "mini.idx")
    texts = [record.article_text for record in loaded.entities.values()]
    assert all(type(text) is str for text in texts)
    assert texts == [kb.entities[entity_id].article_text for entity_id in loaded.entities]
    assert any(texts)
