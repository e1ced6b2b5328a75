"""tools/bench_paper.py run at the smoke size, and the committed BENCH_paper.json it writes at paper size."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_paper.py"
KEYS = {"size", "seed", "repeats", "sizes", "inputs", "stage_median_s", "stage_runs_s", "cli_s", "peak_rss_mib",
        "retrofit", "mean_auc", "environment"}
# Library stages in the CLI's order: build-graph, embed, retrofit, evaluate.
STAGES = [
    "build-graph.load_lemma_table", "build-graph.load_graph", "build-graph.filter_graph", "build-graph.load_corpus",
    "build-graph.attach_tag_system.en", "build-graph.attach_tag_system.fr", "build-graph.save_graph",
    "embed.load_saved_graph", "embed.load_vectors.en", "embed.load_vectors.fr", "embed.compose_avg",
    "embed.compose_sif", "embed.save_matrix",
    "retrofit.load_matrix", "retrofit.retrofit", "retrofit.save_matrix",
    "evaluate.load_corpus", "evaluate.stratified_split", "evaluate.evaluate.avg", "evaluate.evaluate.sum",
    "evaluate.evaluate.baseline",
]


def check_record(result: dict, size: str, repeats: int) -> None:
    assert set(result) == KEYS
    assert (result["size"], result["repeats"]) == (size, repeats)
    assert list(result["stage_median_s"]) == STAGES
    assert [len(runs) for runs in result["stage_runs_s"].values()] == [repeats] * len(STAGES)
    assert all(seconds > 0 for seconds in result["stage_median_s"].values())
    assert list(result["cli_s"]) == ["build-graph", "embed", "retrofit", "evaluate"]
    assert set(result["peak_rss_mib"]) == {"in_process", "largest_cli_command"}
    assert result["retrofit"]["sweeps"] > 0
    assert set(result["mean_auc"]) == {"avg", "sum", "baseline"}
    assert all(0.5 < auc <= 1 for auc in result["mean_auc"].values())
    assert {"vector_rows", "graph_nodes", "graph_edges", "items", "target_tags"} <= set(result["inputs"])
    assert {"python", "numpy", "scipy", "blas", "blas_threads", "nproc", "cpu_model"} <= set(result["environment"])
    assert result["environment"]["blas_threads"] == 1


def test_smoke_run_writes_every_key(tmp_path):
    out = tmp_path / "bench.json"
    command = [sys.executable, str(TOOL), "--size", "smoke", "--out", str(out), "--data", str(tmp_path / "data")]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL, timeout=120)
    check_record(json.loads(out.read_text(encoding="utf-8")), "smoke", 3)


def test_committed_paper_record_has_every_key():
    result = json.loads((ROOT / "BENCH_paper.json").read_text(encoding="utf-8"))
    check_record(result, "paper", 3)
    assert result["inputs"]["graph_nodes"] > 20_000
