#!/usr/bin/env python3
"""Seeded end-to-end benchmark for peyvand.

    python3 bench/run.py --workload longtail --seed 1 --seconds 20 --trace 0

Generates a workload from the seed, then runs the pipeline from outside,
the way users do: `python -m peyvand build-index`, `python -m peyvand link`
with no `--jobs` flag, and a serial library pass that calls
`link_document` once per document on an already loaded index. After an
untimed warm-up, those three are repeated in rounds for `--seconds`
seconds; command times are medians over the rounds and each document's
time is its best round. Outputs are checked against the serial pass and the
independent oracle in `tests/oracles.py`; `peyvand evaluate` gives `f1`.

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` it carries per-layer metrics from spans the benchmark
puts around calls into the peyvand modules (see `spans.py`). Earlier lines
and `bench/results/` hold the full report: every metric, the error rate,
the predictions SHA-256 and the provenance. The exit code is 1 when any
mention failed a check and 2 when the checkout has no peyvand sources.

See `bench/README.md` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, WorkloadSpec, generate  # noqa: E402

# End-to-end metrics are medians or bests over rounds, so a run makes at
# least five rounds; per-layer spans carry no bound and one traced round
# is enough.
MIN_ROUNDS = {False: 5, True: 1}
CHILD_TIMEOUT_S = 150
SCORE_TOLERANCE = 1e-9  # same tolerance as the acceptance test against the oracle

END_TO_END_UNITS = {
    "setup_s": "s",
    "mentions_per_s": "mentions/s",
    "serial_mentions_per_s": "mentions/s",
    "doc_p50_ms": "ms",
    "doc_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "index_mb": "MiB",
    "f1": "ratio",
}
PER_LAYER_UNITS = {
    "textnorm.tokenize.setup_s": "s",
    "textnorm.tokenize.setup_calls": "count",
    "textnorm.tokenize.link_s": "s",
    "textnorm.tokenize.link_calls": "count",
    "kb.load_kb_s": "s",
    "kb.load_kb_self_s": "s",
    "kb.entities": "count",
    "kb.aliases": "count",
    "kb.lookup_alias_s": "s",
    "kb.lookup_alias_calls": "count",
    "kb.link_exists_s": "s",
    "kb.link_exists_calls": "count",
    "cache.save_index_s": "s",
    "cache.load_index_s": "s",
    "corpus.load_corpus_s": "s",
    "corpus.write_predictions_s": "s",
    "corpus.predictions_bytes": "bytes",
    "linker.link_document_s": "s",
    "linker.self_s": "s",
    "linker.candidates": "count",
    "linker.kept": "count",
    "linker.filter_yield": "ratio",
    "linker.nil": "count",
    "linker.article_tokenize_calls": "count",
    "linker.article_distinct": "count",
    "linker.article_reuse": "ratio",
    "cli.link_s": "s",
    "cli.workers": "count",
    "cli.parallel_speedup": "ratio",
    "trace.overhead_pct": "%",
}


class CommandFailed(Exception):
    pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it."""
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def _decision(result) -> str | None:
    return result.decision if isinstance(result.decision, str) else None


class Run:
    """One workload generated from one seed, in its own work directory."""

    def __init__(self, spec: WorkloadSpec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.data = generate(spec, seed, workdir / "data")
        self.index = workdir / "index.idx"
        self.cli_out = workdir / "cli.jsonl"
        self.serial_out = workdir / "serial.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env
        with open(self.data.corpus, encoding="utf-8") as fh:
            self.mentions = {
                (d, m) for d, line in enumerate(fh) for m in range(len(json.loads(line)["mentions"]))
            }
        self.failed: set[tuple[int, int]] = set()
        self.failures: list[str] = []
        self.kb = self.lists = self.docs = None
        self.results = None  # the first serial pass: the reference output

    # -- the program, from outside --------------------------------------

    def peyvand(self, *argv: str, peak_rss: bool = False) -> tuple[float, int | None, str]:
        """Run `python -m peyvand ...`; returns wall seconds, the peak RSS
        in KiB of that process when asked for, and its stdout."""
        out_path = self.workdir / "child.out"
        err_path = self.workdir / "child.err"
        rss_path = self.workdir / "child.rss"
        entry = [str(BENCH / "peak_rss.py"), str(rss_path)] if peak_rss else ["-m", "peyvand"]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *entry, *argv],
                stdout=out, stderr=err, env=self.env, cwd=self.workdir,
            )
            # A blocking wait ends when the child does; `wait(timeout=...)`
            # polls with sleeps of up to 50 ms, which would quantize the time.
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = perf_counter() - started
        if proc.returncode != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
            raise CommandFailed(
                f"`peyvand {argv[0]}` exited {proc.returncode}: {tail[-1] if tail else ''}"
            )
        rss_kib = int(rss_path.read_text()) if peak_rss else None
        return wall, rss_kib, out_path.read_text(encoding="utf-8")

    def build_index(self) -> float:
        wall, _, _ = self.peyvand(
            "build-index", "--kb", str(self.data.kb), "--lists", str(self.data.lists),
            "--out", str(self.index),
        )
        return wall

    def cli_link(self) -> tuple[float, int]:
        wall, rss_kib, _ = self.peyvand(
            "link", "--index", str(self.index), "--corpus", str(self.data.corpus),
            "--out", str(self.cli_out), peak_rss=True,
        )
        self.check_predictions(self.cli_out)
        return wall, rss_kib

    def evaluate_f1(self) -> float:
        _, _, out = self.peyvand(
            "evaluate", "--corpus", str(self.data.corpus), "--predictions", str(self.cli_out),
            "--format", "records",
        )
        return json.loads(out)["total"]["f1"]

    # -- the library, in process ----------------------------------------

    def load(self) -> None:
        from peyvand.cache import load_index
        from peyvand.corpus import load_corpus
        from peyvand.linker import LinkerConfig

        self.kb, self.lists = load_index(self.index)
        self.docs = load_corpus(self.data.corpus)
        self.cfg = LinkerConfig()

    def serial_pass(self) -> tuple[list[float], list]:
        """Per-document `link_document` seconds and the results. The first
        pass loads the index and writes the reference predictions."""
        import peyvand.linker as linker

        if self.kb is None:
            self.load()
        times, results = [], []
        for doc in self.docs:
            started = perf_counter()
            res = linker.link_document(self.kb, self.lists, self.cfg, doc)
            times.append(perf_counter() - started)
            results.append(res)
        if self.results is None:
            from peyvand.corpus import write_predictions

            self.results = results
            write_predictions(self.docs, results, self.serial_out)
        return times, results

    def in_process_cli(self, *argv: str) -> None:
        from peyvand import cli

        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(list(argv))
        if code != 0:
            raise CommandFailed(f"in-process `peyvand {argv[0]}` returned {code}: {err.getvalue()}")

    # -- correctness ------------------------------------------------------

    def fail(self, keys, reason: str) -> None:
        self.failed.update(keys)
        if len(self.failures) < 20:
            self.failures.append(reason)

    def check_predictions(self, path: Path) -> None:
        """CLI predictions must equal the serial pass byte for byte; on a
        difference, every mention whose record differs fails."""
        cli_bytes = path.read_bytes()
        serial_bytes = self.serial_out.read_bytes()
        if cli_bytes == serial_bytes:
            return
        cli_lines = cli_bytes.decode("utf-8", "replace").splitlines()
        serial_lines = serial_bytes.decode("utf-8", "replace").splitlines()
        if len(cli_lines) != len(serial_lines):
            self.fail(self.mentions, "CLI predictions have a different document count")
            return
        for d, (a, b) in enumerate(zip(cli_lines, serial_lines)):
            if a == b:
                continue
            try:
                ma, mb = json.loads(a)["mentions"], json.loads(b)["mentions"]
            except (ValueError, KeyError, TypeError):
                ma, mb = [], None
            n = len(self.docs[d].mentions)
            bad = [m for m in range(n) if len(ma) != n or mb is None or ma[m] != mb[m]]
            self.fail({(d, m) for m in bad}, f"doc {self.docs[d].id}: CLI differs from serial pass")

    def check_oracle(self) -> int:
        """Compare a seeded sample of documents with `oracle_link_document`:
        decision, score and ambiguity order. Returns mentions checked."""
        import oracles

        rng = random.Random(f"oracle:{self.spec.name}:{self.seed}")
        sample = sorted(rng.sample(range(len(self.docs)), min(self.spec.oracle_docs, len(self.docs))))
        checked = 0
        for d in sample:
            doc = self.docs[d]
            expected = oracles.oracle_link_document(self.kb, self.lists, self.cfg, doc)
            for m, (got, want) in enumerate(zip(self.results[d], expected)):
                checked += 1
                same = (
                    _decision(got) == _decision(want)
                    and abs(got.score - want.score) <= SCORE_TOLERANCE
                    and [c.entity_id for c in got.ambiguity] == [c.entity_id for c in want.ambiguity]
                    and all(
                        abs(a.combined - b.combined) <= SCORE_TOLERANCE
                        for a, b in zip(got.ambiguity, want.ambiguity)
                    )
                )
                if not same:
                    self.fail({(d, m)}, f"doc {doc.id} mention {m}: differs from the oracle")
        return checked

    # -- sizes ------------------------------------------------------------

    def sizes(self) -> dict:
        from peyvand.kb import lookup_alias

        mentions = [m for doc in self.docs for m in doc.mentions]
        candidates = sum(len(lookup_alias(self.kb, m.surface)) for m in mentions)
        return {
            "entities": len(self.kb.entities),
            "aliases": len(self.kb.alias_index),
            "documents": len(self.docs),
            "mentions": len(mentions),
            "candidates_per_mention": candidates / len(mentions),
        }


# -- tracing ----------------------------------------------------------------


def _holders(module: str, attr: str) -> list[str]:
    """The peyvand modules that hold `module.attr`, under the same name.
    The CLI is imported first: imported while a wrapper is in place, it
    would keep that wrapper."""
    importlib.import_module("peyvand.cli")
    original = getattr(importlib.import_module(module), attr, None)
    if original is None:
        return []
    return [
        name
        for name, mod in list(sys.modules.items())
        if (name == "peyvand" or name.startswith("peyvand.")) and getattr(mod, attr, None) is original
    ]


def _public(tracer: Tracer, module: str, attr: str, name: str):
    """Targets that wrap a public function wherever a peyvand module holds
    it, so the span sees calls whichever module makes them."""
    return [(h, attr, lambda fn: tracer.wrap(name, fn)) for h in _holders(module, attr)]


def _imported(tracer: Tracer, module: str, attr: str, name: str, **kw):
    """Target that wraps the name `module` imported from another layer."""
    return [(module, attr, lambda fn: tracer.wrap(name, fn, leaf=True, **kw))]


def traced_setup(run: Run) -> dict:
    tracer = Tracer()
    targets = (
        _public(tracer, "peyvand.kb", "load_kb", "kb.load_kb")
        + _public(tracer, "peyvand.cache", "save_index", "cache.save_index")
        + _imported(tracer, "peyvand.kb", "tokenize", "textnorm.tokenize")
    )
    with tracer.patched(targets):
        run.in_process_cli(
            "build-index", "--kb", str(run.data.kb), "--lists", str(run.data.lists),
            "--out", str(run.index),
        )
    calls, tok_s, _ = tracer.total("textnorm.tokenize")
    _, load_s, load_self_s = tracer.total("kb.load_kb")
    return {
        "textnorm.tokenize.setup_s": tok_s,
        "textnorm.tokenize.setup_calls": calls,
        "kb.load_kb_s": load_s,
        "kb.load_kb_self_s": load_self_s,
        "cache.save_index_s": tracer.total("cache.save_index")[1],
    }


def traced_serial(run: Run) -> tuple[dict, float]:
    tracer = Tracer()
    articles = {e.article_text for e in run.kb.entities.values()}
    article_calls = [0]
    article_seen: set[str] = set()
    candidates = [0]

    def on_tokenize(args, _result):
        if args and args[0] in articles:
            article_calls[0] += 1
            article_seen.add(args[0])

    def on_lookup(_args, result):
        candidates[0] += len(result)

    targets = (
        _public(tracer, "peyvand.linker", "link_document", "linker.link_document")
        + _imported(tracer, "peyvand.linker", "tokenize", "textnorm.tokenize", observe=on_tokenize)
        + _imported(tracer, "peyvand.linker", "lookup_alias", "kb.lookup_alias", observe=on_lookup)
        + _imported(tracer, "peyvand.linker", "link_exists", "kb.link_exists")
    )
    with tracer.patched(targets):
        times, results = run.serial_pass()
    kept = nil = 0
    for doc_results in results:
        for res in doc_results:
            if _decision(res) is None:
                nil += 1
                kept += len(res.ambiguity)
            else:
                kept += 1 + len(res.ambiguity)
    tok_calls, tok_s, _ = tracer.total("textnorm.tokenize")
    lookup_calls, lookup_s, _ = tracer.total("kb.lookup_alias")
    exists_calls, exists_s, _ = tracer.total("kb.link_exists")
    _, link_s, link_self_s = tracer.total("linker.link_document")
    metrics = {
        "textnorm.tokenize.link_s": tok_s,
        "textnorm.tokenize.link_calls": tok_calls,
        "kb.lookup_alias_s": lookup_s,
        "kb.lookup_alias_calls": lookup_calls,
        "kb.link_exists_s": exists_s,
        "kb.link_exists_calls": exists_calls,
        "linker.link_document_s": link_s,
        "linker.self_s": link_self_s,
        "linker.candidates": candidates[0],
        "linker.kept": kept,
        "linker.filter_yield": kept / candidates[0] if candidates[0] else 0.0,
        "linker.nil": nil,
        "linker.article_tokenize_calls": article_calls[0],
        "linker.article_distinct": len(article_seen),
        "linker.article_reuse": article_calls[0] / len(article_seen) if article_seen else 0.0,
    }
    return metrics, sum(times)


def traced_cli_link(run: Run, out: Path) -> dict:
    """In-process `peyvand link` with spans around the layers it calls."""
    tracer = Tracer()
    targets = (
        _public(tracer, "peyvand.cache", "load_index", "cache.load_index")
        + _public(tracer, "peyvand.corpus", "load_corpus", "corpus.load_corpus")
        + _public(tracer, "peyvand.corpus", "write_predictions", "corpus.write_predictions")
    )
    with tracer.patched(targets), tracer.span("cli.link"):
        run.in_process_cli(
            "link", "--index", str(run.index), "--corpus", str(run.data.corpus), "--out", str(out)
        )
    run.check_predictions(out)
    return {
        "cache.load_index_s": tracer.total("cache.load_index")[1],
        "corpus.load_corpus_s": tracer.total("corpus.load_corpus")[1],
        "corpus.write_predictions_s": tracer.total("corpus.write_predictions")[1],
        "corpus.predictions_bytes": out.stat().st_size,
        "cli.link_s": tracer.total("cli.link")[1],
    }


def probe_workers(run: Run) -> int:
    """Workers the CLI uses by default: the threads seen running
    `link_document` over a few documents per core. Each call first sleeps
    a little, so every idle worker takes a document before one worker can
    drain the queue; outputs are unaffected."""
    probe = run.workdir / "probe.jsonl"
    lines = run.data.corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    probe.write_text("".join(lines[: 4 * (os.cpu_count() or 1)]), encoding="utf-8")

    def slowed(fn):
        def call(*args, **kwargs):
            time.sleep(0.005)
            return fn(*args, **kwargs)

        return tracer.wrap("linker.link_document", call)

    tracer = Tracer()
    targets = [(h, "link_document", slowed) for h in _holders("peyvand.linker", "link_document")]
    with tracer.patched(targets):
        run.in_process_cli(
            "link", "--index", str(run.index), "--corpus", str(probe),
            "--out", str(run.workdir / "probe.out.jsonl"),
        )
    return tracer.threads("linker.link_document")


# -- a run ------------------------------------------------------------------


def _keep_going(deadline: float, first_round: float, rounds: int, trace: bool) -> bool:
    """True while the minimum is not met or another round of average
    length still ends before `deadline`."""
    if rounds < MIN_ROUNDS[trace]:
        return True
    now = perf_counter()
    return now + (now - first_round) / rounds <= deadline


def measure_end_to_end(run: Run, seconds: float) -> dict:
    deadline = perf_counter() + seconds
    # Warm-up, untimed: the first index, the reference predictions, the
    # bytecode caches and the page cache.
    run.build_index()
    run.serial_pass()
    run.cli_link()
    rounds = []
    passes: list[list[float]] = []
    first_round = perf_counter()
    while _keep_going(deadline, first_round, len(rounds), False):
        # Set-up runs every other round: on the large KB it costs more than
        # linking, and its spread is not held to a bound.
        setup_s = run.build_index() if len(rounds) % 2 == 0 else None
        times, _ = run.serial_pass()
        link_s, rss_kib = run.cli_link()
        passes.append(times)
        rounds.append({"setup_s": setup_s, "link_s": link_s, "rss_kib": rss_kib, "serial_s": sum(times)})

    mentions = sum(len(doc.mentions) for doc in run.docs)
    # Other load on a shared host slows the CPU by up to 2x, in spells from
    # milliseconds to minutes. Each document of the serial pass is a short
    # sample, and the best of a document's rounds is the time it takes when
    # the host lets it run; the sum of those bests is steady. `peyvand link`
    # is one sample of seconds, and the best of a dozen of those is one
    # lucky draw: the median over the rounds is steadier there, as it is
    # for set-up.
    doc_ms = sorted(min(ts) * 1000.0 for ts in zip(*passes))
    return {
        "rounds": rounds,
        "doc_samples": len(doc_ms),
        "metrics": {
            "setup_s": statistics.median(r["setup_s"] for r in rounds if r["setup_s"] is not None),
            "mentions_per_s": mentions / statistics.median(r["link_s"] for r in rounds),
            "serial_mentions_per_s": mentions / (sum(doc_ms) / 1000.0),
            "doc_p50_ms": _percentile(doc_ms, 0.5),
            "doc_p90_ms": _percentile(doc_ms, 0.9),
            "peak_rss_mb": statistics.median(r["rss_kib"] for r in rounds) / 1024.0,
            "index_mb": run.index.stat().st_size / 2**20,
        },
    }


def measure_per_layer(run: Run, seconds: float) -> dict:
    rounds = []
    started = perf_counter()
    while _keep_going(started + seconds, started, len(rounds), True):
        metrics = traced_setup(run)
        plain_s = sum(run.serial_pass()[0])
        serial_metrics, traced_s = traced_serial(run)
        metrics.update(serial_metrics)
        run.cli_link()
        manifest = json.loads(Path(str(run.cli_out) + ".manifest.json").read_text(encoding="utf-8"))
        cli_metrics = traced_cli_link(run, run.workdir / "traced.jsonl")
        metrics.update(cli_metrics)
        pool_s = manifest.get("timings_s", {}).get("link", cli_metrics["cli.link_s"])
        metrics["cli.parallel_speedup"] = plain_s / pool_s
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
        rounds.append(metrics)

    result = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    result["kb.entities"] = len(run.kb.entities)
    result["kb.aliases"] = len(run.kb.alias_index)
    return {"rounds": rounds, "metrics": result}


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host ran this
    process just then. Other load on a shared host moves it by tens of
    percent for minutes at a time, and every timing in the run with it."""
    samples = []
    for _ in range(9):
        started = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        samples.append(perf_counter() - started)
    return statistics.median(samples) * 1000.0


def provenance(seed: int, workers: int, host_ms: list[float]) -> dict:
    head = ROOT / ".git" / "HEAD"
    revision = None
    if head.is_file():
        ref = head.read_text().strip()
        revision = ref
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                revision = ref_path.read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "peyvand").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cli.workers": workers,
        "seed": seed,
        "host_loop_ms": host_ms,
    }


def run_workload(spec: WorkloadSpec, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Generate, measure and check one workload; returns the full report."""
    run = Run(spec, seed, workdir)
    report: dict = {"workload": spec.name, "seed": seed, "trace": int(trace)}
    host_ms = [host_loop_ms()]
    try:
        measured = measure_per_layer(run, seconds) if trace else measure_end_to_end(run, seconds)
        host_ms.append(host_loop_ms())
        workers = probe_workers(run)
        oracle_checked = run.check_oracle()
        f1 = run.evaluate_f1()
    except Exception as exc:  # the program failed: every mention counts as failed
        run.fail(run.mentions, str(exc) if isinstance(exc, CommandFailed) else repr(exc))
        report.update(correct=False, attempted=len(run.mentions), failed=len(run.failed),
                      error_rate=1.0, failures=run.failures)
        return report
    attempted = len(run.mentions)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = dict(measured["metrics"])
    if trace:
        metrics["cli.workers"] = workers
    else:
        metrics["f1"] = f1
    report.update(
        correct=not run.failed,
        attempted=attempted,
        failed=len(run.failed),
        error_rate=len(run.failed) / attempted,
        failures=run.failures,
        oracle_mentions_checked=oracle_checked,
        f1=f1,
        predictions_sha256=_sha256(run.serial_out),
        rounds=measured["rounds"],
        doc_samples=measured.get("doc_samples"),
        sizes=run.sizes(),
        provenance=provenance(seed, workers, host_ms),
        metrics={name: {"value": metrics[name], "unit": units[name]} for name in units},
    )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "peyvand" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no peyvand sources (src/peyvand, tests/oracles.py) under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]

    # A terminated run still removes its work directory and its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = WORKLOADS[args.workload]
    workdir = BENCH / ".work" / f"{spec.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        report = run_workload(spec, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{spec.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(report, indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    for name, metric in report.get("metrics", {}).items():
        print(f"{name:<34} {metric['value']:>14.6g} {metric['unit']}")
    for key in ("attempted", "failed", "error_rate", "f1", "predictions_sha256", "doc_samples",
                "sizes", "provenance", "failures"):
        if report.get(key) is not None:
            print(f"{key}: {json.dumps(report[key], ensure_ascii=False)}")
    print(f"rounds: {len(report.get('rounds', []))}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report.get("metrics", {}),
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
