#!/usr/bin/env python3
"""End-to-end demo on the bundled data: build the index, link the mini
corpus, evaluate against gold, and print dataset statistics.

    python3 scripts/run_mini_pipeline.py [workdir]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from peyvand.cli import main

DATA = ROOT / "data"


def run(argv: list[str]) -> None:
    print(f"$ peyvand {' '.join(argv)}", flush=True)
    code = main(argv)
    if code != 0:
        sys.exit(code)
    print(flush=True)


if __name__ == "__main__":
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="peyvand-"))
    workdir.mkdir(parents=True, exist_ok=True)
    index = workdir / "mini.idx"
    predictions = workdir / "predictions.jsonl"

    run(["build-index", "--kb", str(DATA / "mini_kb.jsonl"),
         "--lists", str(DATA / "reference_lists.json"), "--out", str(index)])
    run(["link", "--index", str(index), "--corpus", str(DATA / "mini_corpus.jsonl"),
         "--out", str(predictions)])
    run(["evaluate", "--corpus", str(DATA / "mini_corpus.jsonl"),
         "--predictions", str(predictions)])
    run(["stats", "--corpus", str(DATA / "mini_corpus.jsonl"), "--index", str(index)])
    print(f"artifacts in {workdir}")
