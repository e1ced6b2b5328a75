"""genrevec benchmark: one workload, one seed, one measurement window.

    python3 perfbench/run.py --workload graph-heavy --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Inputs are generated from the seed (``perfbench/gen.py``) into
``.perfbench/data`` before anything is timed. Over the window a run then
alternates

1. builds: read the raw inputs and run the pipeline to its ``EvalReport``
   (``perfbench/pipeline.py``), at least three times and for half of the
   window; and after each build
2. serving: load the saved graph and retrofitted matrix as
   ``genrevec translate`` does, and send ``translate()`` queries in a
   closed loop with one client, in one-second chunks.

Every report and every query result is checked against an independent
reference (``perfbench/checks.py``), and a smoke-size CLI parity check runs
first (``perfbench/parity.py``). The last line of standard output is one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics from
in-memory spans with ``--trace 1``. The exit code is 0 only when every
operation succeeded and every check passed.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy is imported, so BLAS runs the same on every machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import json
import logging
import platform
import resource
import shutil
import statistics
import subprocess
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# Builds get this share of the window and query chunks the rest, so both
# sample the whole window.
BUILD_SHARE = 0.5
MIN_BUILDS = 3
# Enough samples that ten lie beyond the reported high percentile.
MIN_EMBED_QUERIES = 1200
MIN_BASELINE_QUERIES = 120
HARD_STOP_S = 150.0
QUERY_CHUNK_S = 1.0
KEPT_DATASETS = 3


class _WarningCounter(logging.Handler):
    """Counts the library's warnings per logger instead of printing thousands of them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts: Counter = Counter()

    def emit(self, record):
        self.counts[record.name] += 1


def _subprocess_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _dataset(workload: str, sizes, seed: int) -> Path:
    """Generate the inputs once per (parameters, seed); keep the few most recent datasets."""
    data = STATE / "data"
    target = data / f"{workload}-{gen.cache_key(sizes, seed)}"
    if not (target / "DONE.json").is_file():
        pending = target.with_name(target.name + ".tmp")
        shutil.rmtree(pending, ignore_errors=True)
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed), "--out", str(pending)],
            check=True, stdout=subprocess.DEVNULL, timeout=120, env=_subprocess_env(),
        )
        shutil.rmtree(target, ignore_errors=True)
        pending.rename(target)
    os.utime(target)
    older = sorted(data.glob(f"{workload}-*"), key=lambda p: p.stat().st_mtime, reverse=True)[KEPT_DATASETS:]
    for stale in older:
        shutil.rmtree(stale, ignore_errors=True)
    return target


def _parity(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "parity.py"), "--seed", str(seed), "--out", str(STATE / "parity")],
        capture_output=True, text=True, timeout=120, env=_subprocess_env(),
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"attempted": 1, "failures": [f"parity check crashed: {proc.stderr.strip()[-300:]}"]}
    return json.loads(lines[-1])


def _environment(seed: int) -> dict:
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


@dataclass
class _Served:
    graph: object
    embeddings: object
    targets: list
    concepts: set
    scores: object
    hops: object
    queries: list


class Run:
    """State of one benchmark run: samples, failures and the tracer."""

    def __init__(self, trace: bool):
        import pipeline

        self.tracer = pipeline.Tracer(enabled=trace)
        self.failures: list[str] = []
        self.failed = 0
        self.attempted_extra = 0
        self.setup_s: list[float] = []
        self.pipeline_s: list[float] = []
        self.latency_ms: dict[str, list[float]] = {"embed": [], "baseline": []}
        self.dropped_sources = [0, 0]  # source ids dropped, source ids sent (avg/sum queries)
        self.counts: dict[str, float] = {}
        self.report = None
        self.sent = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    # -- measurement --------------------------------------------------------

    def measure(self, config, workdir: Path, queries: list[dict], deadline: float, hard_stop: float) -> None:
        """Alternate builds and query chunks so both sample the whole window.

        A build runs whenever builds have had less than their share of the
        time so far; otherwise a chunk of queries runs. After the
        window, whatever is short of the minimum sample counts is made up.
        """
        start = time.perf_counter()
        build_time = 0.0
        served = None
        while True:
            now = time.perf_counter()
            builds = len(self.pipeline_s)
            short_queries = (len(self.latency_ms["embed"]) < MIN_EMBED_QUERIES
                             or len(self.latency_ms["baseline"]) < MIN_BASELINE_QUERIES)
            if self.failed and now >= deadline:
                break
            if now > hard_stop or (now >= deadline and builds >= MIN_BUILDS and not short_queries):
                break
            in_window = now < deadline
            if served is None or (builds < MIN_BUILDS and not in_window) or (
                    in_window and build_time <= BUILD_SHARE * (now - start)):
                served = None  # release the served graph and matrix before the next build
                if not self.build(config, workdir):
                    return
                build_time += time.perf_counter() - now
                served = self.load_served(config, workdir, queries)
            else:
                self.serve(served, min(now + QUERY_CHUNK_S, deadline))

    def build(self, config, workdir: Path) -> bool:
        """One build; returns False when it failed before any build succeeded."""
        import checks
        import pipeline

        iteration = len(self.pipeline_s) + 1
        gc.collect()  # start every build from the same collector state
        try:
            with self.tracer.root(f"build-{iteration}", "build"):
                start = time.perf_counter()
                inputs = pipeline.load_inputs(config, self.tracer)
                loaded = time.perf_counter()
                built = pipeline.run_pipeline(config, inputs, workdir, self.tracer)
                done = time.perf_counter()
        except Exception as exc:  # a failed stage ends this build; the run reports it
            self.fail(f"build {iteration}: {type(exc).__name__}: {exc}")
            return bool(self.pipeline_s)
        self.setup_s.append(loaded - start)
        self.pipeline_s.append(done - loaded)
        for problems in (checks.check_retrofit(built, config.tolerance),
                         checks.check_report(built.report, inputs.corpus, built.folds, built.embeddings, config)):
            if problems:
                self.fail(f"build {iteration}: {'; '.join(problems)}")
        report = built.report.to_dict()
        if self.report is None:
            self.report = report
            self.counts = _build_counts(config, inputs, built)
        elif report != self.report:
            self.fail(f"build {iteration}: report differs from the first build's")
        return True

    def load_served(self, config, workdir: Path, queries: list[dict]) -> "_Served":
        """Load what ``genrevec translate`` loads, then prepare queries and references untimed."""
        import checks
        import pipeline

        with self.tracer.root(f"serve-{len(self.pipeline_s)}", "serve"):
            graph, embeddings, targets = pipeline.load_served(workdir, config.target_system, self.tracer)
        prepared = []
        for record in queries:
            scorer, sources = record["scorer"], record["sources"]
            if scorer == "baseline":  # the baseline scorer needs graph nodes
                sources = [s for s in sources if graph.has_node(s)]
            if sources:
                prepared.append((sources, scorer))
        gc.collect()
        return _Served(graph, embeddings, targets, set(embeddings.concepts),
                       checks.ScoreReference(embeddings, targets), checks.HopReference(graph), prepared)

    def serve(self, served: "_Served", until: float) -> None:
        """Closed loop, one client: send queries until `until`, at least one."""
        import checks
        import pipeline

        embed, baseline = self.latency_ms["embed"], self.latency_ms["baseline"]
        while True:
            sources, scorer = served.queries[self.sent % len(served.queries)]
            self.sent += 1
            try:
                with self.tracer.root(f"query-{self.sent}", "query"):
                    start = time.perf_counter()
                    result = pipeline.query(sources, served.targets, scorer, served.graph, served.embeddings, self.tracer)
                    elapsed = time.perf_counter() - start
            except Exception as exc:  # a failed query is counted and the stream goes on
                self.fail(f"query {self.sent}: {type(exc).__name__}: {exc}")
            else:
                (baseline if scorer == "baseline" else embed).append(elapsed * 1e3)
                if scorer != "baseline":
                    distinct = set(sources)
                    self.dropped_sources[0] += len(distinct - served.concepts)
                    self.dropped_sources[1] += len(distinct)
                problems = checks.check_translation(result, sources, served.targets, scorer, served.scores, served.hops)
                if problems:
                    self.fail(f"query {self.sent}: {'; '.join(problems)}")
            if time.perf_counter() >= until:
                return

    # -- results ----------------------------------------------------------

    def end_to_end(self) -> dict:
        embed, baseline = self.latency_ms["embed"], self.latency_ms["baseline"]
        return {
            "setup_s": (statistics.median(self.setup_s), "s", len(self.setup_s)),
            "pipeline_s": (statistics.median(self.pipeline_s), "s", len(self.pipeline_s)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1),
            "ok_rate": (1.0 - self.failed / self.attempted, "ratio", self.attempted),
            "mean_auc": (self.report["mean_auc"], "AUC", len(self.pipeline_s)),
            "translate_p50_ms": (float(np.percentile(embed, 50)), "ms", len(embed)),
            "translate_p99_ms": (float(np.percentile(embed, 99)), "ms", len(embed)),
            "baseline_p50_ms": (float(np.percentile(baseline, 50)), "ms", len(baseline)),
            "baseline_p90_ms": (float(np.percentile(baseline, 90)), "ms", len(baseline)),
        }

    @property
    def attempted(self) -> int:
        return self.tracer.calls + self.attempted_extra

    def per_layer(self) -> dict:
        return _layer_metrics(self.tracer, self.counts, self.dropped_sources)


def _build_counts(config, inputs, built) -> dict:
    """Sizes and ratios of one build, taken outside the timed region."""
    graph = built.graph
    used = {(node.language, token) for node in graph.nodes.values() for token in node.tokens}
    rows = sum(len(store) for store in inputs.stores.values())
    used_rows = sum(1 for lang, store in inputs.stores.items() for word in store.words if (lang, word) in used)
    tags = [node.id for node in graph.nodes.values() if node.system is not None]
    linked = sum(1 for node_id in tags if graph.degree(node_id) > 0)
    per_tag = [value for values in built.report.per_tag.values() for value in values]
    return {
        "wordvec.rows": rows,
        "wordvec.used_row_ratio": used_rows / rows,
        "genregraph.nodes": graph.node_count,
        "genregraph.edges": graph.edge_count,
        "genregraph.sameas_linked_ratio": linked / len(tags),
        "compose.known_ratio": float(built.composed.known.mean()),
        "retrofit.iterations": built.result.iterations,
        "retrofit.converged": int(built.result.final_delta <= config.tolerance),
        "evaluation.items": len(inputs.corpus),
        "evaluation.target_tags": len(inputs.corpus.system_vocabulary(config.target_system)),
        "evaluation.auc_defined_ratio": sum(v is not None for v in per_tag) / len(per_tag),
        "input.raw_nodes": inputs.graph.node_count,
        "input.raw_edges": inputs.graph.edge_count,
    }


LAYERS = ("wordvec", "genregraph", "compose", "retrofit", "evaluation", "translate")


def _layer_metrics(tracer, counts: dict, dropped_sources: list[int]) -> dict:
    """Per-layer metrics from the spans: per-build medians of stage time, busy and self time."""
    by_trace: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    per_call: dict[str, list[float]] = defaultdict(list)
    busy: dict[str, float] = defaultdict(float)
    scorer_busy: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    roots = []
    for trace, span_id, parent, name, start, end, attrs in tracer.spans:
        duration = end - start
        if parent is None:
            roots.append((span_id, duration))
            continue
        child_time[parent] += duration
        if trace.startswith("build-"):
            by_trace[trace][name] += duration
        per_call[name].append(duration)
        busy[name.split(".")[0]] += duration
        if attrs:
            scorer_busy["baseline" if attrs["scorer"] == "baseline" else "embed"] += duration

    builds = list(by_trace.values())

    def stage(*names: str) -> float:
        return statistics.median(sum(trace[n] for n in names) for trace in builds)

    def one_call(name: str) -> float:
        return statistics.median(per_call[name])

    wordvec_load = stage("wordvec.load_vectors")
    retrofit_total = stage("retrofit.retrofit")
    metrics = {
        "wordvec.load_s": (wordvec_load, "s"),
        "wordvec.rows": (counts["wordvec.rows"], "count"),
        "wordvec.us_per_row": (wordvec_load / counts["wordvec.rows"] * 1e6, "us"),
        "wordvec.used_row_ratio": (counts["wordvec.used_row_ratio"], "ratio"),
        "genregraph.load_s": (stage("genregraph.load_lemma_table", "genregraph.load_graph"), "s"),
        "genregraph.filter_s": (stage("genregraph.filter_graph"), "s"),
        "genregraph.attach_s": (stage("genregraph.attach_tag_system"), "s"),
        "genregraph.nodes": (counts["genregraph.nodes"], "count"),
        "genregraph.edges": (counts["genregraph.edges"], "count"),
        "genregraph.sameas_linked_ratio": (counts["genregraph.sameas_linked_ratio"], "ratio"),
        "genregraph.save_s": (one_call("genregraph.save_graph"), "s"),
        "genregraph.reload_s": (one_call("genregraph.load_saved_graph"), "s"),
        "compose.save_s": (one_call("compose.save_matrix"), "s"),
        "compose.reload_s": (one_call("compose.load_matrix"), "s"),
        "compose.compose_s": (stage("compose.compose_sif", "compose.compose_avg"), "s"),
        "compose.known_ratio": (counts["compose.known_ratio"], "ratio"),
        "retrofit.total_s": (retrofit_total, "s"),
        "retrofit.iterations": (counts["retrofit.iterations"], "count"),
        "retrofit.sweep_ms": (retrofit_total / counts["retrofit.iterations"] * 1e3, "ms"),
        "retrofit.objective_s": (stage("retrofit.objective"), "s"),
        "retrofit.converged": (counts["retrofit.converged"], "bool"),
        "evaluation.corpus_load_s": (stage("evaluation.load_corpus"), "s"),
        "evaluation.split_s": (stage("evaluation.stratified_split"), "s"),
        "evaluation.evaluate_s": (stage("evaluation.evaluate"), "s"),
        "evaluation.items": (counts["evaluation.items"], "count"),
        "evaluation.target_tags": (counts["evaluation.target_tags"], "count"),
        "evaluation.auc_defined_ratio": (counts["evaluation.auc_defined_ratio"], "ratio"),
        "translate.embed_busy_s": (scorer_busy["embed"], "s"),
        "translate.baseline_busy_s": (scorer_busy["baseline"], "s"),
        "translate.calls": (len(per_call["translate.translate"]), "count"),
        "translate.dropped_source_ratio": (dropped_sources[0] / max(1, dropped_sources[1]), "ratio"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = (busy[layer], "s")
    total = sum(duration for _, duration in roots)
    metrics["harness.self_s"] = (sum(duration - child_time[span_id] for span_id, duration in roots), "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.overhead_share"] = (tracer.own_s / total if total else 0.0, "ratio")
    return metrics


def _write_spans(path: Path, spans: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for trace, span_id, parent, name, start, end, attrs in spans:
            record = {"trace": trace, "id": span_id, "parent": parent, "name": name, "start": start, "end": end}
            if attrs:
                record["attrs"] = attrs
            handle.write(json.dumps(record) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="genrevec benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "genrevec" / "__init__.py").is_file():
        print(f"error: {SRC / 'genrevec'} not found; run from the root of a genrevec checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import genrevec

    if Path(genrevec.__file__).resolve().parent != SRC / "genrevec":
        print(f"error: imported genrevec from {genrevec.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from genrevec.cli import PipelineConfig

    warnings = _WarningCounter()
    logging.basicConfig(level=logging.WARNING, handlers=[warnings], force=True)

    sizes = gen.WORKLOADS[args.workload]
    data = _dataset(args.workload, sizes, args.seed)
    with open(data / "queries.jsonl", encoding="utf-8") as handle:
        queries = [json.loads(line) for line in handle]
    config = PipelineConfig.from_file(data / "config.json")
    workdir = STATE / "work" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    run = Run(bool(args.trace))
    parity = _parity(args.seed)
    run.attempted_extra += parity["attempted"]
    for message in parity["failures"]:
        run.fail(f"CLI parity: {message}")

    start = time.perf_counter()
    hard_stop = start + HARD_STOP_S
    run.measure(config, workdir, queries, start + args.seconds, hard_stop)
    shutil.rmtree(workdir, ignore_errors=True)

    correct = run.failed == 0
    if not run.pipeline_s or not run.latency_ms["embed"] or not run.latency_ms["baseline"]:
        for message in run.failures:
            print(f"failure: {message}", file=sys.stderr)
        print("error: no complete build or query stream to report", file=sys.stderr)
        return 1
    end_to_end = run.end_to_end()
    chosen = run.per_layer() if args.trace else {name: (v, unit) for name, (v, unit, _) in end_to_end.items()}

    env = _environment(args.seed)
    inputs = {key: run.counts[key] for key in (
        "input.raw_nodes", "input.raw_edges", "genregraph.nodes", "genregraph.edges",
        "wordvec.rows", "evaluation.items", "evaluation.target_tags")}
    out = STATE / "out"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "inputs": inputs, "library_warnings": dict(warnings.counts),
        "end_to_end": {name: {"value": v, "unit": unit, "samples": n} for name, (v, unit, n) in end_to_end.items()},
        "samples": {"setup_s": run.setup_s, "pipeline_s": run.pipeline_s},
        "failures": run.failures,
    }
    if args.trace:
        record["per_layer"] = {name: {"value": v, "unit": unit} for name, (v, unit) in chosen.items()}
        _write_spans(out / f"{stem}-spans.jsonl", run.tracer.spans)
    with open(out / f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)

    print(f"workload {args.workload}, seed {args.seed}, window {args.seconds:g} s, trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(inputs, sort_keys=True))
    for name, (value, unit, samples) in end_to_end.items():
        print(f"{name:<18} {value:14.6g} {unit:<6} samples={samples}")
    if args.trace:
        untraced = out / f"{stem}-trace0.json"
        if untraced.is_file():
            with open(untraced, encoding="utf-8") as handle:
                before = json.load(handle)["end_to_end"]
            for name, (value, unit, _) in end_to_end.items():
                if unit in ("s", "ms"):
                    print(f"tracing overhead {name:<18} {value - before[name]['value']:+.6g} {unit}")
        for name, (value, unit) in chosen.items():
            print(f"{name:<32} {value:14.6g} {unit}")
    for message in run.failures:
        print(f"failure: {message}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
