"""The benchmark's workloads give the same predictions, byte for byte.

Each workload of `bench/workloads.py`, generated from seed 11, is indexed
and linked through `peyvand.cli.main`, and the SHA-256 of its prediction
file must start with the prefix that the benchmark has reported for it.
A change that moves a score by one bit, on any supported Python, moves
that hash.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from peyvand import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

SEED = 11
SHA256_PREFIX = {
    "longtail": "e241acdca89d",
    "firehose": "924746fca8a1",
    "longform": "22fe36427fc6",
}


@pytest.mark.parametrize("name", SHA256_PREFIX)
def test_seed_11_predictions_keep_their_sha256(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import WORKLOADS, generate

    data = generate(WORKLOADS[name], SEED, tmp_path / "data")
    index, out = tmp_path / "index.idx", tmp_path / "predictions.jsonl"
    assert cli.main(["build-index", "--kb", str(data.kb), "--lists", str(data.lists),
                     "--out", str(index)]) == 0
    assert cli.main(["link", "--index", str(index), "--corpus", str(data.corpus),
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:12] == SHA256_PREFIX[name]
