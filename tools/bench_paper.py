"""Paper-size timings of every pipeline stage, written to BENCH_paper.json.

Generates the paper-size synthetic dataset once with ``perfbench/gen.py``
(cached under ``.perfbench/data/``), then times the four CLI commands as
subprocesses and each library stage in the CLI's order, three times in one
process with BLAS at one thread. The output holds each stage's median
seconds, peak RSS, the input sizes, the retrofit sweep count, ``mean_auc``
per scorer and the environment.

    python3 tools/bench_paper.py                  # paper size, writes BENCH_paper.json
    python3 tools/bench_paper.py --size smoke --out /tmp/bench.json --data /tmp/bench-data
"""

from __future__ import annotations

import os

# Fixed before numpy is imported, as perfbench/run.py does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import dataclasses
import json
import multiprocessing
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
from genrevec.cli import PipelineConfig  # noqa: E402
from genrevec.compose import compose_avg, compose_sif, load_matrix, save_matrix  # noqa: E402
from genrevec.evaluation import evaluate, load_corpus, stratified_split  # noqa: E402
from genrevec.genregraph import (  # noqa: E402
    attach_tag_system,
    filter_graph,
    load_graph,
    load_lemma_table,
    load_saved_graph,
    save_graph,
)
from genrevec.retrofit import retrofit  # noqa: E402
from genrevec.wordvec import VectorSpace, load_vectors  # noqa: E402

# The paper's setting: the graph-heavy workload grown to tens of thousands of
# graph nodes, 60,000 vector rows per language, 12,000 items and 400 target tags.
SIZES = {
    "paper": dataclasses.replace(
        gen.WORKLOADS["graph-heavy"], concepts=9000, vocab_rows=60000, items=12000, target_tags=400,
    ),
    "smoke": gen.WORKLOADS["smoke"],
}
SEED = 1
REPEATS = 3
SCORERS = ("avg", "sum", "baseline")
CLI_COMMANDS = ("build-graph", "embed", "retrofit", "evaluate")


def dataset(data: Path, size: str) -> Path:
    """The dataset directory, generated unless a complete one is cached.

    A child process generates it, so the peak RSS of this process, which its
    CLI children inherit until they exec, is not the generator's.
    """
    target = data / f"{size}-{gen.cache_key(SIZES[size], SEED)}"
    if not (target / "DONE.json").is_file():
        child = multiprocessing.get_context("spawn").Process(target=gen.generate, args=(target, SIZES[size], SEED))
        child.start()
        child.join()
        if child.exitcode:
            raise RuntimeError(f"generating {target} failed with exit code {child.exitcode}")
    return target


class Timer:
    """Calls a function and keeps its wall-clock seconds under a stage name."""

    def __init__(self):
        self.seconds: dict[str, list[float]] = {}

    def __call__(self, stage: str, fn, *args, **kwargs):
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        self.seconds.setdefault(stage, []).append(time.perf_counter() - start)
        return value


def one_pass(config: PipelineConfig, work: Path, timed: Timer) -> dict:
    """Every library stage of build-graph, embed, retrofit and evaluate, in that order; returns what it measured."""
    lemma = timed("build-graph.load_lemma_table", load_lemma_table, config.lemma_table) if config.lemma_table else {}
    graph = timed("build-graph.load_graph", load_graph, config.graph_nodes, config.graph_edges, lemma)
    if config.high_confidence is not None:
        graph = timed("build-graph.filter_graph", filter_graph, graph, config.high_confidence)
    corpus = timed("build-graph.load_corpus", load_corpus, config.corpus, min_tag_count=config.min_tag_count)
    for system in config.tag_systems:
        tags = corpus.system_vocabulary(system.name)
        graph = timed(f"build-graph.attach_tag_system.{system.name}", attach_tag_system,
                      graph, system.name, tags, system.language)
    timed("build-graph.save_graph", save_graph, graph, work / "graph.json")

    graph = timed("embed.load_saved_graph", load_saved_graph, work / "graph.json")
    stores = {lang: timed(f"embed.load_vectors.{lang}", load_vectors, path) for lang, path in config.vectors.items()}
    space = VectorSpace(stores)
    tokens = {node.id: list(node.tokens) for node in graph.nodes.values()}
    languages = {node.id: node.language for node in graph.nodes.values()}
    composed = {
        "avg": timed("embed.compose_avg", compose_avg, tokens, space, languages),
        "sif": timed("embed.compose_sif", compose_sif, tokens, space, languages, a=config.sif_a),
    }[config.composition]
    timed("embed.save_matrix", save_matrix, composed, work / "embeddings.npz")

    q_hat, _ = timed("retrofit.load_matrix", load_matrix, work / "embeddings.npz")
    result = timed("retrofit.retrofit", retrofit, q_hat, graph, config.retrofit_config())
    timed("retrofit.save_matrix", save_matrix, result.matrix, work / "retrofitted.npz")

    corpus = timed("evaluate.load_corpus", load_corpus, config.corpus, min_tag_count=config.min_tag_count)
    folds = timed("evaluate.stratified_split", stratified_split, corpus, k=config.folds, seed=config.seed)
    mean_auc = {}
    for scorer in SCORERS:
        # each scorer starts from freshly loaded artifacts, as one `genrevec evaluate` process does
        scored_graph = load_saved_graph(work / "graph.json")
        embeddings = None if scorer == "baseline" else load_matrix(work / "retrofitted.npz")[0]
        report = timed(f"evaluate.evaluate.{scorer}", evaluate, corpus, folds, config.target_system,
                       config.source_systems, scorer=scorer, embeddings=embeddings, graph=scored_graph)
        mean_auc[scorer] = report.mean_auc
    return {
        "graph_nodes": graph.node_count,
        "graph_edges": graph.edge_count,
        "known_concepts": int(composed.known.sum()),
        "items": len(corpus),
        "target_tags": len(corpus.system_vocabulary(config.target_system)),
        "sweeps": result.iterations,
        "converged": result.converged,
        "mean_auc": mean_auc,
    }


def run_cli(config_path: Path) -> tuple[dict[str, float], float]:
    """Wall-clock seconds of each CLI command run as its own process, in pipeline order, and the largest peak RSS.

    Run before the library stages: a child's peak RSS counts this process's
    peak until the child execs.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    seconds, peak = {}, 0
    for command in CLI_COMMANDS:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "genrevec.cli", command, "--config", str(config_path)],
                                 stdout=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        seconds[command] = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode:
            raise subprocess.CalledProcessError(child.returncode, child.args)
        peak = max(peak, usage.ru_maxrss)
    return seconds, round(peak / 1024, 1)  # Linux reports KiB


def _blas() -> dict:
    """The BLAS numpy was built with, and the core type OpenBLAS picked at run time when it can be asked."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"), "config": blas.get("openblas configuration")}
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            path = next(line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1])
        library = ctypes.CDLL(path)
    except (OSError, StopIteration):
        return record
    for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
        if hasattr(library, symbol):
            getter = getattr(library, symbol)
            getter.restype = ctypes.c_char_p
            record["core"] = getter().decode()
            break
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(SIZES), default="paper")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_paper.json")
    parser.add_argument("--data", type=Path, default=ROOT / ".perfbench" / "data", help="dataset cache directory")
    args = parser.parse_args(argv)

    root = dataset(args.data, args.size)
    cli, cli_rss = run_cli(root / "config.json")
    config = PipelineConfig.from_file(root / "config.json")
    work = root / "bench-work"
    work.mkdir(exist_ok=True)
    timed = Timer()
    passes = [one_pass(config, work, timed) for _ in range(REPEATS)]
    summary = json.loads((root / "DONE.json").read_text(encoding="utf-8"))

    result = {
        "size": args.size,
        "seed": SEED,
        "repeats": REPEATS,
        "sizes": summary["sizes"],
        "inputs": {
            "vector_rows": summary["vector_rows"],
            "nodes_written": summary["nodes_written"],
            "edges_written": summary["edges_written"],
            "items_written": summary["items_written"],
            **{key: passes[-1][key]
               for key in ("graph_nodes", "graph_edges", "known_concepts", "items", "target_tags")},
        },
        "stage_median_s": {stage: statistics.median(runs) for stage, runs in timed.seconds.items()},
        "stage_runs_s": timed.seconds,
        "cli_s": cli,
        "peak_rss_mib": {
            "in_process": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),  # Linux reports KiB
            "largest_cli_command": cli_rss,
        },
        "retrofit": {"sweeps": passes[-1]["sweeps"], "converged": passes[-1]["converged"]},
        "mean_auc": passes[-1]["mean_auc"],
        "environment": {**run._environment(SEED), "blas": _blas()},
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")  # stages stay in CLI order
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
