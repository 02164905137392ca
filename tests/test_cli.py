from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peyvand.cache import CACHE_VERSION, load_index
from peyvand.cli import main
from peyvand.corpus import load_predictions

from mutations import byte_edits, mutations


def _assert_matches_golden(predictions, data_dir):
    got = load_predictions(predictions)
    golden = load_predictions(data_dir / "golden_predictions.jsonl")
    assert len(got) == len(golden)
    for g_doc, e_doc in zip(got, golden):
        assert g_doc.id == e_doc.id
        for g, e in zip(g_doc.mentions, e_doc.mentions):
            assert type(g.prediction) is type(e.prediction)
            if isinstance(g.prediction, str):
                assert g.prediction == e.prediction
            assert g.score == pytest.approx(e.score, abs=1e-9)
            assert [c.entity_id for c in g.ambiguity] == [c.entity_id for c in e.ambiguity]


@pytest.fixture(scope="module")
def index_path(tmp_path_factory, data_dir):
    path = tmp_path_factory.mktemp("index") / "mini.idx"
    assert main(["build-index", "--kb", str(data_dir / "mini_kb.jsonl"),
                 "--lists", str(data_dir / "reference_lists.json"),
                 "--out", str(path)]) == 0
    return path


class TestBuildIndex:
    def test_missing_kb_file_exits_one_and_names_path(self, tmp_path, data_dir, capsys):
        missing = tmp_path / "nowhere.jsonl"
        code = main(["build-index", "--kb", str(missing),
                     "--lists", str(data_dir / "reference_lists.json"),
                     "--out", str(tmp_path / "x.idx")])
        assert code == 1
        assert str(missing) in capsys.readouterr().err

    def test_malformed_dump_exits_one(self, tmp_path, data_dir, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{oops\n", encoding="utf-8")
        code = main(["build-index", "--kb", str(bad),
                     "--lists", str(data_dir / "reference_lists.json"),
                     "--out", str(tmp_path / "x.idx")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_rebuild_without_input_changes_is_byte_identical(self, tmp_path, data_dir):
        first = tmp_path / "a.idx"
        second = tmp_path / "b.idx"
        for out in (first, second):
            assert main(["build-index", "--kb", str(data_dir / "mini_kb.jsonl"),
                         "--lists", str(data_dir / "reference_lists.json"),
                         "--out", str(out)]) == 0
        digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
        assert digest(first) == digest(second)

    @staticmethod
    def _build_two_entities(tmp_path, data_dir, links):
        """`build-index` over two entities, E01 with `links`; returns the
        exit code, stderr and the index path."""
        dump = tmp_path / "kb.jsonl"
        records = [
            {"id": "E01", "label": "یک", "variants": [], "class": "city", "ner_type": "LOC",
             "pos": "PROPER_NOUN", "article": "", "links": links},
            {"id": "E02", "label": "دو", "variants": [], "class": "city", "ner_type": "LOC",
             "pos": "PROPER_NOUN", "article": "", "links": []},
        ]
        dump.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                        encoding="utf-8")
        out = tmp_path / "x.idx"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["build-index", "--kb", str(dump),
                         "--lists", str(data_dir / "reference_lists.json"),
                         "--out", str(out)])
        return code, err.getvalue(), out

    def test_repeated_link_is_not_reported_as_dropped(self, tmp_path, data_dir):
        code, err, out = self._build_two_entities(tmp_path, data_dir, ["E02", "E02"])
        assert code == 0
        assert "warning:" not in err
        kb, _ = load_index(out)
        assert kb.dropped_links == 0
        assert kb.entities["E01"].out_links == frozenset({"E02"})

    @pytest.mark.parametrize(
        "links, warnings",
        [
            (["E02", "E09", "E08"], ["dropped 2 out-link(s) pointing outside the dump"]),
            (["E01", "E02"], ["dropped 1 self-link(s) from an entity to itself"]),
            (
                ["E01", "E09"],
                ["dropped 1 out-link(s) pointing outside the dump",
                 "dropped 1 self-link(s) from an entity to itself"],
            ),
        ],
        ids=["missing-id", "self-link", "both"],
    )
    def test_each_cause_of_a_dropped_link_warns_apart(self, tmp_path, data_dir, links, warnings):
        code, err, out = self._build_two_entities(tmp_path, data_dir, links)
        assert code == 0
        assert [line for line in err.splitlines() if line.startswith("warning:")] == [
            f"warning: {w}" for w in warnings
        ]
        kb, _ = load_index(out)
        assert kb.dropped_links == len(set(links) - {"E02"})


class TestLink:
    def test_default_config_matches_golden_fixture(self, tmp_path, data_dir, index_path):
        out = tmp_path / "pred.jsonl"
        assert main(["link", "--index", str(index_path),
                     "--corpus", str(data_dir / "mini_corpus.jsonl"),
                     "--out", str(out)]) == 0
        _assert_matches_golden(out, data_dir)

    def test_nil_threshold_above_one_makes_everything_nil(self, tmp_path, data_dir, index_path):
        out = tmp_path / "pred.jsonl"
        assert main(["link", "--index", str(index_path),
                     "--corpus", str(data_dir / "mini_corpus.jsonl"),
                     "--out", str(out), "--nil-threshold", "1.1"]) == 0
        for doc in load_predictions(out):
            for mention in doc.mentions:
                assert not isinstance(mention.prediction, str)

    def test_empty_corpus_exits_zero_with_empty_prediction_file(self, tmp_path, index_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "pred.jsonl"
        assert main(["link", "--index", str(index_path),
                     "--corpus", str(empty), "--out", str(out)]) == 0
        assert out.read_bytes() == b""

    def test_invalid_corpus_exits_one(self, tmp_path, index_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"id": "d", "category": "x", "text": "اب",
                                   "mentions": [{"start": 0, "end": 9, "surface": "اب"}]},
                                  ensure_ascii=False), encoding="utf-8")
        code = main(["link", "--index", str(index_path),
                     "--corpus", str(bad), "--out", str(tmp_path / "p.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert _one_error_line(err) and f"{bad}:1: document 'd', mention 0: span [0, 9)" in err

    def test_manifest_written_with_matching_digests(self, tmp_path, data_dir, index_path):
        out = tmp_path / "pred.jsonl"
        corpus = data_dir / "mini_corpus.jsonl"
        assert main(["link", "--index", str(index_path),
                     "--corpus", str(corpus), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "pred.jsonl.manifest.json").read_text(encoding="utf-8"))
        assert manifest["tool"] == "peyvand"
        assert manifest["documents"] == 12
        assert manifest["mentions"] == 24
        assert set(manifest["timings_s"]) == {"load_index", "link", "write"}
        for name, path in (("index", index_path), ("corpus", corpus)):
            recomputed = hashlib.sha256(path.read_bytes()).hexdigest()
            assert manifest["inputs"][name]["sha256"] == recomputed

    def test_cli_flags_override_config_file(self, tmp_path, data_dir, index_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"lambda": 0.9, "nil_threshold": 0.4}), encoding="utf-8")
        out = tmp_path / "pred.jsonl"
        assert main(["link", "--index", str(index_path),
                     "--corpus", str(data_dir / "mini_corpus.jsonl"),
                     "--out", str(out), "--config", str(config),
                     "--lambda", "0.25"]) == 0
        manifest = json.loads((tmp_path / "pred.jsonl.manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["lambda"] == 0.25  # flag wins
        assert manifest["config"]["nil_threshold"] == 0.4  # file kept

    def test_stale_index_version_exits_one(self, tmp_path, data_dir, index_path, capsys):
        stale = tmp_path / "stale.idx"
        for version in (b"v2", b"v99"):
            header = b":%s\n" % version
            stale.write_bytes(index_path.read_bytes().replace(b":v%d\n" % CACHE_VERSION, header, 1))
            code = main(["link", "--index", str(stale),
                         "--corpus", str(data_dir / "mini_corpus.jsonl"),
                         "--out", str(tmp_path / "p.jsonl")])
            assert code == 1
            err = capsys.readouterr().err
            assert _one_error_line(err) and "rebuild it with `peyvand build-index`" in err


class TestEvaluate:
    def _write_perfect_predictions(self, tmp_path, data_dir):
        gold = tmp_path / "gold.jsonl"
        gold.write_text(
            json.dumps({"id": "d1", "category": "sport", "text": "الف ب",
                        "mentions": [{"start": 0, "end": 3, "surface": "الف", "gold": "E01"}]},
                       ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        pred = tmp_path / "pred.jsonl"
        pred.write_text(
            json.dumps({"id": "d1", "category": "sport", "text": "الف ب",
                        "mentions": [{"start": 0, "end": 3, "surface": "الف",
                                      "prediction": "E01", "score": 0.9, "ambiguity": []}]},
                       ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        return gold, pred

    def test_gold_equal_predictions_prints_f1_one(self, tmp_path, data_dir, capsys):
        gold, pred = self._write_perfect_predictions(tmp_path, data_dir)
        assert main(["evaluate", "--corpus", str(gold), "--predictions", str(pred)]) == 0
        out = capsys.readouterr().out
        assert "total" in out
        assert "1.0000" in out

    def test_records_format(self, tmp_path, data_dir, capsys):
        gold, pred = self._write_perfect_predictions(tmp_path, data_dir)
        assert main(["evaluate", "--corpus", str(gold), "--predictions", str(pred),
                     "--format", "records"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"]["tp"] == 1

    def test_mini_corpus_against_golden_predictions(self, data_dir, capsys):
        assert main(["evaluate", "--corpus", str(data_dir / "mini_corpus.jsonl"),
                     "--predictions", str(data_dir / "golden_predictions.jsonl"),
                     "--format", "records"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # 21 annotated-and-counted mentions; the engineered tie in d05 is
        # the single wrong link.
        assert payload["total"]["tp"] == 20
        assert payload["total"]["fp"] == 1
        assert payload["total"]["fn"] == 1

    def test_alignment_failure_exits_one(self, tmp_path, data_dir, capsys):
        gold, _ = self._write_perfect_predictions(tmp_path, data_dir)
        empty = tmp_path / "none.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["evaluate", "--corpus", str(gold), "--predictions", str(empty)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_prediction_span_names_the_predictions_file(self, tmp_path, data_dir, capsys):
        gold, pred = self._write_perfect_predictions(tmp_path, data_dir)
        record = json.loads(pred.read_text(encoding="utf-8"))
        record["mentions"][0]["end"] = 9
        pred.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        assert main(["evaluate", "--corpus", str(gold), "--predictions", str(pred)]) == 1
        err = capsys.readouterr().err
        assert _one_error_line(err)
        assert f"{pred}:1:" in err and "out of bounds" in err


class TestStats:
    def test_table_renders_every_statistic(self, data_dir, index_path, capsys):
        assert main(["stats", "--corpus", str(data_dir / "mini_corpus.jsonl"),
                     "--index", str(index_path)]) == 0
        out = capsys.readouterr().out
        for label in ("documents", "sentences", "words", "entities", "candidates",
                      "words per article", "entities per article", "candidates per mention"):
            assert label in out
        assert "per category" in out

    def test_records_format_matches_fixture_counts(self, data_dir, index_path, capsys):
        assert main(["stats", "--corpus", str(data_dir / "mini_corpus.jsonl"),
                     "--index", str(index_path), "--format", "records"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"]["documents"] == 12
        assert payload["total"]["words"] == 173
        assert payload["total"]["candidates"] == 33


def test_module_entry_point_smoke(tmp_path, data_dir):
    src = str(data_dir.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "peyvand", "--version"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert "peyvand" in result.stdout


def test_mini_pipeline_script_matches_golden_fixture(tmp_path, data_dir):
    src = str(data_dir.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, str(data_dir.parent / "scripts" / "run_mini_pipeline.py"), str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    _assert_matches_golden(tmp_path / "predictions.jsonl", data_dir)


def test_make_fixtures_regenerates_data_byte_for_byte(tmp_path, data_dir):
    # A copy without data/, run with no PYTHONPATH: the script must find the
    # package on its own and write every bundled file from scratch.
    root = data_dir.parent
    for part in ("scripts", "src", "tests"):
        shutil.copytree(root / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "scripts/make_fixtures.py"],
        cwd=tmp_path, capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    expected = sorted(p.name for p in data_dir.iterdir())
    assert sorted(p.name for p in (tmp_path / "data").iterdir()) == expected
    for name in expected:
        assert (tmp_path / "data" / name).read_bytes() == (data_dir / name).read_bytes(), name


def _link(index, corpus, out, *extra):
    return main(["link", "--index", str(index), "--corpus", str(corpus), "--out", str(out), *extra])


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1


def _rewrite_index_body(src, dest, edit):
    """`edit` the decoded body lines of an index: metadata, doc_freq, records."""
    header, *body = src.read_bytes().splitlines(keepends=True)
    values = [json.loads(line) for line in body]
    edit(values)
    lines = "".join(json.dumps(v, ensure_ascii=False) + "\n" for v in values)
    dest.write_bytes(header + lines.encode("utf-8"))


def _argv(command, flag, path, tmp_path, data_dir, index_path):
    """`command` over the bundled inputs, with `path` given for `flag`."""
    argv = {
        "build-index": ["--kb", str(data_dir / "mini_kb.jsonl"),
                        "--lists", str(data_dir / "reference_lists.json"),
                        "--out", str(tmp_path / "x.idx")],
        "link": ["--index", str(index_path), "--corpus", str(data_dir / "mini_corpus.jsonl"),
                 "--out", str(tmp_path / "p.jsonl")],
        "evaluate": ["--corpus", str(data_dir / "mini_corpus.jsonl"),
                     "--predictions", str(data_dir / "golden_predictions.jsonl")],
        "stats": ["--corpus", str(data_dir / "mini_corpus.jsonl"), "--index", str(index_path)],
    }[command]
    if flag in argv:
        argv[argv.index(flag) + 1] = str(path)
    else:
        argv += [flag, str(path)]
    return [command, *argv]


def _source(flag, data_dir, index_path):
    """The valid file each input flag reads: bundled data or a fresh index."""
    return {
        "--kb": data_dir / "mini_kb.jsonl",
        "--lists": data_dir / "reference_lists.json",
        "--index": index_path,
        "--corpus": data_dir / "mini_corpus.jsonl",
        "--config": data_dir / "default_config.json",
        "--predictions": data_dir / "golden_predictions.jsonl",
    }[flag]


_INPUTS = [("build-index", "--kb"), ("build-index", "--lists"), ("link", "--index"),
           ("link", "--corpus"), ("link", "--config"), ("evaluate", "--predictions")]


class TestMalformedInputExitsOne:
    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda lines: lines.pop(1), ": corrupt index cache: 32 records, not 33"),
            (lambda lines: lines.__setitem__(2, list(lines[2].values())),
             ":4: record must be a JSON object"),
            (lambda lines: next(r for r in lines[2:] if r["id"] == "E01").update(ner_type="XX"),
             ":4: ner_type 'XX' is invalid"),
            (lambda lines: lines[1].update(dict.fromkeys(list(lines[1])[::2], 0)),
             ":3: corrupt index cache: doc_freq"),
            (lambda lines: lines[1].update(
                dict.fromkeys(list(lines[1])[::2], sum(1 for r in lines[2:] if r["article"]) + 1)
            ), ":3: corrupt index cache: doc_freq"),
        ],
        ids=["missing-doc-freq", "entities-not-an-object", "bad-ner-type", "zero",
             "above-article-count"],
    )
    def test_corrupt_index_body(self, tmp_path, data_dir, index_path, capsys, edit, where):
        corrupt = tmp_path / "corrupt.idx"
        _rewrite_index_body(index_path, corrupt, edit)
        assert _link(corrupt, data_dir / "mini_corpus.jsonl", tmp_path / "p.jsonl") == 1
        err = capsys.readouterr().err
        assert _one_error_line(err)
        assert err.startswith(f"error: {corrupt}{where}")

    @pytest.mark.parametrize(
        "flags",
        [("--nil-threshold", "nan"), ("--nil-threshold", "inf"), ("--lambda", "nan")],
    )
    def test_non_finite_number_flag(self, tmp_path, data_dir, index_path, capsys, flags):
        out = tmp_path / "p.jsonl"
        assert _link(index_path, data_dir / "mini_corpus.jsonl", out, *flags) == 1
        assert _one_error_line(capsys.readouterr().err)
        assert not out.exists()

    def test_removed_config_keys_are_unknown(self, tmp_path, data_dir, index_path, capsys):
        # Even at their old defaults: the context is always the whole
        # document and the IDF always smoothed.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"context_window": None, "idf_smoothing": True}),
                          encoding="utf-8")
        out = tmp_path / "p.jsonl"
        assert _link(index_path, data_dir / "mini_corpus.jsonl", out, "--config", str(config)) == 1
        assert capsys.readouterr().err == (
            "error: unknown config keys: ['context_window', 'idf_smoothing']\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "config",
        [{"filters": 5}, {"filters": {"type": "false"}}, {"nil_threshold": True}],
        ids=["filters-int", "flag-string", "threshold-bool"],
    )
    def test_malformed_config_flags(self, tmp_path, data_dir, index_path, capsys, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "p.jsonl"
        assert _link(index_path, data_dir / "mini_corpus.jsonl", out, "--config", str(path)) == 1
        assert _one_error_line(capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flag",
        [("build-index", "--kb"), ("build-index", "--lists"), ("link", "--corpus"),
         ("link", "--config"), ("evaluate", "--predictions")],
    )
    def test_undecodable_file(self, tmp_path, data_dir, index_path, capsys, command, flag):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe{}\n")
        assert main(_argv(command, flag, bad, tmp_path, data_dir, index_path)) == 1
        err = capsys.readouterr().err
        assert _one_error_line(err)
        assert f"{bad}:1: not valid UTF-8" in err

    @pytest.mark.parametrize(
        "value",
        ["[" * 200_000, "1" * 5000, "NaN", "1e999"],
        ids=["deep-nesting", "long-integer", "nan", "huge-float"],
    )
    @pytest.mark.parametrize("command,flag", _INPUTS)
    def test_undecodable_json_value(
        self, tmp_path, data_dir, index_path, capsys, command, flag, value
    ):
        source = _source(flag, data_dir, index_path)
        bad = tmp_path / "bad"
        # An extra key in the first object: each loader ignores or rejects
        # it, but only after the value has been decoded.
        bad.write_bytes(source.read_bytes().replace(b"{", b'{"x":' + value.encode() + b",", 1))
        assert main(_argv(command, flag, bad, tmp_path, data_dir, index_path)) == 1
        err = capsys.readouterr().err
        assert _one_error_line(err)
        assert f"{bad}:" in err and "invalid JSON" in err

    def test_non_object_prediction_mention(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps({"id": "d1", "category": "x", "text": "الف",
                                    "mentions": [{"start": 0, "end": 3, "surface": "الف",
                                                  "gold": "E01"}]},
                                   ensure_ascii=False) + "\n", encoding="utf-8")
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({"id": "d1", "category": "x", "text": "الف", "mentions": [5]},
                                   ensure_ascii=False) + "\n", encoding="utf-8")
        assert main(["evaluate", "--corpus", str(gold), "--predictions", str(pred)]) == 1
        err = capsys.readouterr().err
        assert _one_error_line(err)
        assert f"{pred}:1:" in err


def _damaged(data, source):
    """The bytes of `source` with one byte edited, or with one JSON value
    changed or deleted at any depth. A JSON-lines file or an index body
    counts as the list of its lines, so a whole line may go."""
    raw = source.read_bytes()
    if data.draw(st.booleans(), label="byte edit"):
        return data.draw(byte_edits(raw))
    if source.suffix == ".json":
        return json.dumps(data.draw(mutations(json.loads(raw))), ensure_ascii=False).encode()
    lines = raw.splitlines(keepends=True)
    header = lines.pop(0) if source.suffix == ".idx" else b""
    values = data.draw(mutations([json.loads(line) for line in lines]))
    return header + "".join(json.dumps(v, ensure_ascii=False) + "\n" for v in values).encode()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged")


@pytest.mark.parametrize(
    "command,flag",
    [*_INPUTS, ("evaluate", "--corpus"), ("stats", "--corpus"), ("stats", "--index")],
)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_damaged_input_exits_zero_or_one_error_line(
    workdir, data_dir, index_path, command, flag, data
):
    bad = workdir / "bad"
    bad.write_bytes(_damaged(data, _source(flag, data_dir, index_path)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(_argv(command, flag, bad, workdir, data_dir, index_path))
    assert code == 0 or (code == 1 and _one_error_line(err.getvalue())), err.getvalue()


class TestIndexNormalizer:
    @pytest.fixture(scope="class")
    def identity_index(self, tmp_path_factory, data_dir):
        path = tmp_path_factory.mktemp("identity") / "identity.idx"
        assert main(["build-index", "--kb", str(data_dir / "mini_kb.jsonl"),
                     "--lists", str(data_dir / "reference_lists.json"),
                     "--out", str(path), "--normalizer", "identity"]) == 0
        return path

    @pytest.mark.parametrize(
        "config", [None, {"lambda": 0.4}], ids=["no-config", "config-without-normalizer"]
    )
    def test_link_uses_index_normalizer(
        self, tmp_path, data_dir, identity_index, capsys, config
    ):
        extra = []
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            extra = ["--config", str(path)]
        capsys.readouterr()
        assert _link(identity_index, data_dir / "mini_corpus.jsonl", tmp_path / "p.jsonl", *extra) == 0
        assert capsys.readouterr().err == ""
        manifest = json.loads((tmp_path / "p.jsonl.manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["normalizer"] == "identity"

    def test_config_that_sets_a_normalizer_exits_one(
        self, tmp_path, data_dir, identity_index, capsys
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"normalizer": "identity"}), encoding="utf-8")
        out = tmp_path / "p.jsonl"
        capsys.readouterr()
        assert _link(identity_index, data_dir / "mini_corpus.jsonl", out, "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert _one_error_line(err) and "normalizer" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [("--config", "cfg.json"), ("--normalizer", "klingon")],
        ids=["config", "unknown-normalizer"],
    )
    def test_build_index_usage_error_exits_two(self, tmp_path, data_dir, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["build-index", "--kb", str(data_dir / "mini_kb.jsonl"),
                  "--lists", str(data_dir / "reference_lists.json"),
                  "--out", str(tmp_path / "x.idx"), *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: peyvand")
        assert not (tmp_path / "x.idx").exists()
