"""Command-line front end: build-index, link, evaluate, stats.

Diagnostics go to stderr; data goes to files or stdout. Exit code 0 means
no error diagnostic was emitted. Nothing here consumes entropy, so
repeated runs over the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .cache import load_index, save_index
from .corpus import corpus_stats, load_corpus, load_predictions, stats_by_category, write_predictions
from .errors import InputError, PeyvandError
from .evaluate import AlignmentError, render_report, report_records, score_predictions
from .kb import load_kb
from .linker import LinkerConfig, link_document


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cmd_build_index(args: argparse.Namespace) -> int:
    kb, lists, (outside, self_links) = load_kb(args.kb, args.lists)
    if outside:
        print(f"warning: dropped {outside} out-link(s) pointing outside the dump", file=sys.stderr)
    if self_links:
        print(f"warning: dropped {self_links} self-link(s) from an entity to itself", file=sys.stderr)
    save_index(kb, lists, args.out)
    print(
        f"indexed {len(kb.entities)} entities, {len(kb.alias_index)} aliases -> {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_link(args: argparse.Namespace) -> int:
    # The config and corpus first: their errors should not wait for the index load.
    cfg = LinkerConfig.from_file(args.config) if args.config else LinkerConfig()
    docs = load_corpus(args.corpus)

    timings: dict[str, float] = {}
    started = time.perf_counter()
    kb, lists = load_index(args.index)
    timings["load_index"] = time.perf_counter() - started
    if cfg.lambda_weight > 0 and not kb.stopwords:
        print("warning: context scoring enabled but the stopword list is empty", file=sys.stderr)

    started = time.perf_counter()
    results = [link_document(kb, lists, cfg, doc) for doc in docs]
    timings["link"] = time.perf_counter() - started

    started = time.perf_counter()
    write_predictions(docs, results, args.out)
    timings["write"] = time.perf_counter() - started

    inputs = {
        "index": {"path": str(args.index), "sha256": _sha256(args.index)},
        "corpus": {"path": str(args.corpus), "sha256": _sha256(args.corpus)},
    }
    if args.config:
        inputs["config"] = {"path": str(args.config), "sha256": _sha256(args.config)}
    # The reproducibility sidecar written next to every prediction file.
    manifest = {
        "tool": "peyvand",
        "version": __version__,
        "config": cfg.to_dict(),
        "inputs": inputs,
        "timings_s": timings,
        "documents": len(docs),
        "mentions": sum(len(d.mentions) for d in docs),
    }
    Path(str(args.out) + ".manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )
    return 0


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def cmd_evaluate(args: argparse.Namespace) -> int:
    gold = load_corpus(args.corpus)
    predictions = load_predictions(args.predictions)
    try:
        report = score_predictions(gold, predictions)
    except AlignmentError as exc:
        raise InputError(args.predictions, None, str(exc)) from None
    if args.format == "records":
        _emit(json.dumps(report_records(report), ensure_ascii=False, indent=2), args.out)
    else:
        _emit(render_report(report), args.out)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    docs = load_corpus(args.corpus)
    kb, _ = load_index(args.index)
    total = corpus_stats(docs, kb)
    per_category = stats_by_category(docs, kb)
    if args.format == "records":
        payload = {
            "total": dataclasses.asdict(total),
            "categories": {cat: dataclasses.asdict(s) for cat, s in per_category.items()},
        }
        _emit(json.dumps(payload, ensure_ascii=False, indent=2), args.out)
        return 0

    lines = [
        f"documents               {total.documents}",
        f"sentences               {total.sentences}",
        f"words                   {total.words}",
        f"entities                {total.entities}",
        f"candidates              {total.candidates}",
        f"words per article       {total.words_per_article:.2f}",
        f"entities per article    {total.entities_per_article:.2f}",
        f"candidates per mention  {total.candidates_per_mention:.2f}",
        "",
        "per category (documents / sentences / words / entities / candidates):",
    ]
    for cat, s in per_category.items():
        lines.append(
            f"  {cat:<14} {s.documents:>4} / {s.sentences:>4} / {s.words:>5} / "
            f"{s.entities:>4} / {s.candidates:>5}"
        )
    _emit("\n".join(lines), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="peyvand", description=__doc__)
    parser.add_argument("--version", action="version", version=f"peyvand {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-index", help="load a KB dump and serialize the index cache")
    p.add_argument("--kb", required=True, help="KB dump (JSON lines)")
    p.add_argument("--lists", required=True, help="reference lists file")
    p.add_argument("--out", required=True, help="index cache output path")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("link", help="link every mention of a corpus")
    p.add_argument("--index", required=True, help="index cache from build-index")
    p.add_argument("--corpus", required=True, help="annotated corpus (JSON lines)")
    p.add_argument("--out", required=True, help="prediction file output path")
    p.add_argument("--config", help="linker config file")
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("evaluate", help="score predictions against gold annotations")
    p.add_argument("--corpus", required=True, help="gold corpus")
    p.add_argument("--predictions", required=True, help="prediction file from link")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("table", "records"), default="table")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stats", help="dataset statistics for a corpus")
    p.add_argument("--corpus", required=True, help="annotated corpus")
    p.add_argument("--index", required=True, help="index cache (for candidate counts)")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("table", "records"), default="table")
    p.set_defaults(func=cmd_stats)

    return parser


def _file(path: str) -> object:
    """The device and inode of the file `path` names, or its resolved path if none."""
    st = os.stat(path) if os.path.exists(path) else None
    return (st.st_dev, st.st_ino) if st else os.path.realpath(path)


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse an `--out`, or the `link` manifest, that is an input file, even by a hard link."""
    names = ("kb", "lists", "index", "corpus", "config", "predictions")
    inputs = {_file(p): name for name in names if (p := getattr(args, name, None))}
    outputs = [args.out, f"{args.out}.manifest.json"] if args.command == "link" else [args.out]
    for out in filter(None, outputs):
        if name := inputs.get(_file(out)):
            raise PeyvandError(f"{out}: refusing to overwrite the --{name} input")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except PeyvandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        name = getattr(exc, "filename", None)
        print(f"error: {exc.strerror or exc}: {name}" if name else f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
