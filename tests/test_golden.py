"""Golden outputs: ``build-graph`` writes the recorded ``graph.json`` bytes.

Two datasets: the demo data (``write_demo_dataset``, seed 7) and perfbench's
smoke dataset at seed 1. ``graph.json`` holds no floats, so its digest does
not depend on the BLAS build. A change meant to alter the graph updates the
digest here and says which one moved and why.
"""

import hashlib
import importlib
from pathlib import Path

import pytest

from genrevec.cli import PipelineConfig, main
from genrevec.fixtures import write_demo_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

GRAPH_DIGESTS = {
    "demo": "3c4d7fc96812614cf4e15622790c7f06ea196c75785ff87e35b8ae770a376f1f",
    "smoke": "75c4181530342eeaa89ce1b79b06ca48530eb436d7a1286c23da8410ba7e2a16",
}


def write_dataset(name: str, root: Path, monkeypatch) -> Path:
    """Write the named dataset under `root` and return its config path."""
    if name == "demo":
        return write_demo_dataset(root, seed=7)["config"]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    gen.generate(root, gen.WORKLOADS["smoke"], 1)
    return root / "config.json"


@pytest.mark.parametrize("dataset", sorted(GRAPH_DIGESTS))
def test_build_graph_writes_the_recorded_graph(dataset, tmp_path, monkeypatch):
    config = write_dataset(dataset, tmp_path / dataset, monkeypatch)
    assert main(["build-graph", "--config", str(config)]) == 0
    graph_json = Path(PipelineConfig.from_file(config).workdir) / "graph.json"
    assert hashlib.sha256(graph_json.read_bytes()).hexdigest() == GRAPH_DIGESTS[dataset]
