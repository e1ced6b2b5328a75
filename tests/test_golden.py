"""Golden outputs: recorded sha256 digests of what the CLI writes.

Two datasets: the demo data (``write_demo_dataset``, seed 7) and perfbench's
smoke dataset at seed 1. Recorded are ``graph.json`` from ``build-graph``,
the stdout of ``translate --scorer baseline`` for two source sets,
``report.json`` from ``evaluate --scorer baseline``, ``embeddings.npz`` from
``embed --composition avg``, and ``retrofitted.npz`` and ``convergence.json``
from ``retrofit`` with each scheme. None of them depends on the BLAS build:
``graph.json`` holds no floats; the baseline scorer reads hop counts,
``1/(1+h)`` and the sort-based fold AUC, no matrix product; and the ``avg``
embeddings and their retrofits read the same bytes under every OpenBLAS core
type tried (SkylakeX, Haswell, Prescott) and with numpy's AVX512 dispatch
off. Not recorded, because their bytes do differ across OpenBLAS core types:
``embed --composition sif`` and whatever reads its matrix, and ``translate``
and ``evaluate`` with the ``avg`` and ``sum`` scorers. A change meant to
alter one of these outputs updates its digest here and says which one moved
and why.
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

# dataset -> (source tag ids, digest of the baseline `translate` stdout) per source set
BASELINE_TRANSLATIONS = {
    "demo": [
        (["en:Hard_rock"], "2464831817a3066b4f7eb3289f5b0dfc994e345df2438701d1bae9f4ca552d65"),
        (["en:Rock", "en:Jazz", "en:Sludge_metal"], "3aa5fbbbd2c80e201216d3773d57672cbbf92490c121e4148353fb88975c3654"),
    ],
    "smoke": [
        (["en:lube kabe bobe"], "4e4650502228f59225d18e940b6fce9a5b5e2ae73484e552ba3383a92c412129"),
        (["en:gebe gube babe", "en:bebe", "en:gebekabebobe", "en:mobe bibe"], "044ae8332734139608896f2fcf6b8095190f062c4ef4b12bc66a79d3c9427bd9"),
    ],
}

BASELINE_REPORT_DIGESTS = {
    "demo": "4478ff59312904953015195860a01b573714494ce8f239442c47e60a64ad6ccd",
    "smoke": "6a8041926d92e5b4acb0ad28a05045fc9f404b0c831ac98e2502fe17071e5431",
}

# dataset -> digest of `embed --composition avg`'s embeddings.npz, and per retrofit
# scheme the digests of retrofitted.npz and convergence.json
AVG_EMBEDDING_DIGESTS = {
    "demo": "078553af57280b2c82abb6cc8cf6c8164dc7114aeb073188d1b241dfaebd794f",
    "smoke": "7c81765587dda138d491a3e5382b600b82c29ae8c57945558baf12a1224c99fa",
}
RETROFIT_DIGESTS = {
    "demo": {
        "typed": ("40b9f81f6f291cc2c357ef2be52e7d8c70309a6935752d87c6116614b5337799",
                  "15d1597913043b785e2f35288d5206ebc6f6705c781015ac52694b6b35c8beba"),
        "uniform": ("d36b2ec511ec028927caf62caedacc3b15cce9e9d725e9ba4492440c02f5e7cc",
                    "d11ab9607ebc9937c5f899da520d91886377d02505e239eb4082a7b6c7edd025"),
    },
    "smoke": {
        "typed": ("91b4fc18da81c993707e738d622edc8d15925c5dd04b772600f6f8fa14de9398",
                  "72b1c9177340af0ad5a4f9566b01495d7e588e6ad1be6ba08826b5f12774c0a0"),
        "uniform": ("238501b8f2fd4315f6b3bfc2b35b910799609832fde9f1021e97b74157dabb7f",
                    "0c8e04c90c997f07dd0d403186cf6c6d6d5f8693bc32aedefe902f637371aec7"),
    },
}


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    assert sha256_of(graph_json) == GRAPH_DIGESTS[dataset]


@pytest.mark.parametrize("dataset", sorted(BASELINE_REPORT_DIGESTS))
def test_baseline_scorer_prints_and_reports_the_recorded_outputs(dataset, tmp_path, monkeypatch, capsys):
    config = str(write_dataset(dataset, tmp_path / dataset, monkeypatch))
    assert main(["build-graph", "--config", config]) == 0
    capsys.readouterr()
    for sources, digest in BASELINE_TRANSLATIONS[dataset]:
        command = ["translate", *sources, "--target-system", "fr", "--scorer", "baseline", "--config", config]
        assert main(command) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest, sources
    assert main(["evaluate", "--scorer", "baseline", "--config", config]) == 0
    report = Path(PipelineConfig.from_file(config).workdir) / "report.json"
    assert sha256_of(report) == BASELINE_REPORT_DIGESTS[dataset]


@pytest.mark.parametrize("dataset", sorted(RETROFIT_DIGESTS))
def test_avg_embeddings_and_their_retrofits_are_the_recorded_files(dataset, tmp_path, monkeypatch):
    config = str(write_dataset(dataset, tmp_path / dataset, monkeypatch))
    workdir = Path(PipelineConfig.from_file(config).workdir)
    assert main(["build-graph", "--config", config]) == 0
    assert main(["embed", "--composition", "avg", "--config", config]) == 0
    assert sha256_of(workdir / "embeddings.npz") == AVG_EMBEDDING_DIGESTS[dataset]
    for scheme, (matrix_digest, log_digest) in RETROFIT_DIGESTS[dataset].items():
        assert main(["retrofit", "--scheme", scheme, "--config", config]) == 0
        assert sha256_of(workdir / "retrofitted.npz") == matrix_digest, scheme
        assert sha256_of(workdir / "convergence.json") == log_digest, scheme
