#!/usr/bin/env python3
"""Self-test of the benchmark at toy scale.

    python3 bench/selftest.py

Checks that `BENCHMARK.json` names exactly the workloads and metrics the
benchmark reports, that two runs with one seed give identical counts and
predictions SHA-256, that every metric is present with its unit, and that
a deliberately wrong prediction makes the error rate positive. Exits 0
when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
TOY = 0.05


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def counts(report: dict) -> dict:
    """Everything in a report that must repeat exactly for one seed."""
    exact = {
        name: m["value"]
        for name, m in report["metrics"].items()
        if m["unit"] in ("count", "bytes") and name != "cli.workers"
    }
    return {
        "attempted": report["attempted"],
        "failed": report["failed"],
        "sizes": report["sizes"],
        "f1": report["f1"],
        "predictions_sha256": report["predictions_sha256"],
        "metrics": exact,
    }


def main() -> int:
    spec_file = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check({w["name"] for w in spec_file["workloads"]} == set(WORKLOADS), "workload names")
    check(
        {m["name"]: m["unit"] for m in spec_file["end_to_end"]} == bench.END_TO_END_UNITS,
        "end-to-end metrics and units",
    )
    check(
        {m["name"]: m["unit"] for m in spec_file["per_layer"]} == bench.PER_LAYER_UNITS,
        "per-layer metrics and units",
    )

    scratch = BENCH / ".work" / f"selftest-{os.getpid()}"
    try:
        for name, spec in WORKLOADS.items():
            toy = spec.scaled(TOY)
            plain = bench.run_workload(toy, SEED, 0, False, scratch / f"{name}-plain")
            first = bench.run_workload(toy, SEED, 0, True, scratch / f"{name}-trace-1")
            second = bench.run_workload(toy, SEED, 0, True, scratch / f"{name}-trace-2")
            for report, units in ((plain, bench.END_TO_END_UNITS), (first, bench.PER_LAYER_UNITS)):
                check(report["correct"] and report["error_rate"] == 0, f"{name}: {report['failures']}")
                check(
                    {k: m["unit"] for k, m in report["metrics"].items()} == units,
                    f"{name}: metrics with units",
                )
                check(all(m["value"] == m["value"] for m in report["metrics"].values()), "NaN metric")
            check(counts(first) == counts(second), f"{name}: counts differ between runs of one seed")
            check(
                plain["predictions_sha256"] == first["predictions_sha256"] and plain["f1"] == first["f1"],
                f"{name}: traced and untraced runs disagree",
            )
            print(f"ok {name}: {counts(first)['sizes']} sha256 {first['predictions_sha256'][:12]}")

        # A wrong decision in the library path must show as failed mentions.
        import peyvand.linker as linker

        original = linker.link_document

        def wrong(kb, lists, cfg, doc):
            results = original(kb, lists, cfg, doc)
            if doc.id == "d1" and results:
                flipped = "Q1" if results[0].decision != "Q1" else "Q2"
                results[0] = dataclasses.replace(results[0], decision=flipped)
            return results

        linker.link_document = wrong
        try:
            broken = bench.run_workload(
                WORKLOADS["firehose"].scaled(TOY), SEED, 0, False, scratch / "broken"
            )
        finally:
            linker.link_document = original
        check(not broken["correct"] and broken["error_rate"] > 0, "a wrong prediction went unnoticed")
        print(f"ok fault: error_rate {broken['error_rate']:.4f} ({broken['failures'][0]})")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
