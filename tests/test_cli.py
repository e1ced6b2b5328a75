"""End-to-end tests of the command-line pipeline on the demo dataset."""

import json
from pathlib import Path

import pytest

from genrevec import cli
from genrevec.cli import PipelineConfig, main
from genrevec.evaluation import EvalReport
from genrevec.fixtures import write_demo_dataset


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo")
    paths = write_demo_dataset(root)
    config = str(paths["config"])
    assert main(["build-graph", "--config", config]) == 0
    assert main(["embed", "--config", config]) == 0
    assert main(["retrofit", "--config", config]) == 0
    return root, config


def out_dir(root: Path) -> Path:
    return root / "out"


class TestPipeline:
    def test_artifacts_exist(self, demo):
        root, _ = demo
        for name in ("graph.json", "embeddings.vec", "embeddings.vec.meta.json",
                     "retrofitted.vec", "retrofitted.vec.meta.json", "convergence.json"):
            assert (out_dir(root) / name).exists(), name

    def test_convergence_log_contents(self, demo):
        root, _ = demo
        log = json.loads((out_dir(root) / "convergence.json").read_text())
        assert log["iterations"] >= 1
        assert log["final_delta"] <= 1e-5
        assert log["converged"] is True
        assert len(log["deltas"]) == log["iterations"]
        assert log["objective_final"] <= log["objective_initial"]

    def test_translate_ranks_sameas_twin_first(self, demo, capsys):
        _, config = demo
        assert main(["translate", "en:Hard_rock", "--target-system", "fr",
                     "--config", config]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        first_rank, first_tag, _ = lines[0].split("\t")
        assert first_rank == "1"
        assert first_tag == "fr:Rock_dur"

    def test_translate_top_flag_limits_output(self, demo, capsys):
        _, config = demo
        assert main(["translate", "en:Rock", "--target-system", "fr",
                     "--config", config, "--top", "3"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 3

    def test_translate_baseline_scorer(self, demo, capsys):
        _, config = demo
        assert main(["translate", "en:Hard_rock", "--target-system", "fr",
                     "--config", config, "--scorer", "baseline"]) == 0
        lines = capsys.readouterr().out.splitlines()
        top_tag = lines[0].split("\t")[1]
        assert top_tag == "fr:Rock_dur"  # path length 3 via the sameAs chain

    def test_translate_unknown_source_warns_and_zeroes(self, demo, capsys, caplog):
        _, config = demo
        with caplog.at_level("WARNING"):
            assert main(["translate", "en:Zeuhl", "--target-system", "fr",
                         "--config", config]) == 0
        scores = [float(l.split("\t")[2]) for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert all(s == 0.0 for s in scores)

    def test_evaluate_writes_report(self, demo, capsys):
        root, config = demo
        assert main(["evaluate", "--config", config]) == 0
        output = capsys.readouterr().out
        assert "macro-AUC" in output
        report = json.loads((out_dir(root) / "report.json").read_text())
        assert len(report["fold_aucs"]) == 4
        assert 0.5 < report["mean_auc"] <= 1.0  # sameAs chains make this easy

    def test_commands_are_idempotent(self, demo):
        root, config = demo
        artifacts = ["graph.json", "embeddings.vec", "retrofitted.vec", "convergence.json"]
        before = {name: (out_dir(root) / name).read_bytes() for name in artifacts}
        for command in (["build-graph"], ["embed"], ["retrofit"]):
            assert main(command + ["--config", config]) == 0
        after = {name: (out_dir(root) / name).read_bytes() for name in artifacts}
        assert before == after

    def test_interrupted_report_writes_keep_previous_files(self, demo, monkeypatch):
        root, config = demo
        assert main(["evaluate", "--config", config]) == 0
        before = {entry.name: entry.read_bytes() for entry in out_dir(root).iterdir()}
        # json.dump writes the leading keys before it reaches the unserializable value
        monkeypatch.setattr(EvalReport, "to_dict", lambda self: {"fold_aucs": [], "zzz": object()})
        with pytest.raises(TypeError):
            main(["evaluate", "--config", config])
        monkeypatch.setattr(cli, "objective", lambda *args: object())
        with pytest.raises(TypeError):
            main(["retrofit", "--config", config])
        assert {entry.name: entry.read_bytes() for entry in out_dir(root).iterdir()} == before


class TestNonConvergence:
    def test_reported_in_log_and_message(self, tmp_path, capsys, caplog):
        paths = write_demo_dataset(tmp_path / "data")
        config_path = Path(paths["config"])
        payload = json.loads(config_path.read_text())
        payload["max_iters"] = 1
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        config = str(config_path)
        assert main(["build-graph", "--config", config]) == 0
        assert main(["embed", "--config", config]) == 0
        capsys.readouterr()
        with caplog.at_level("WARNING"):
            assert main(["retrofit", "--config", config]) == 0
        output = capsys.readouterr().out
        assert "not converged after 1 iterations" in output
        assert "not converged" in caplog.text
        workdir = Path(PipelineConfig.from_file(config).workdir)
        log = json.loads((workdir / "convergence.json").read_text())
        assert log["converged"] is False
        assert log["iterations"] == 1


class TestErrors:
    def test_missing_config_file(self, capsys):
        assert main(["embed", "--config", "/nonexistent/config.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "\n" not in err.strip()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"vectorz": {}}), encoding="utf-8")
        assert main(["embed", "--config", str(bad)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_bad_enum_rejected(self, tmp_path, capsys):
        config = {
            "vectors": {"en": "v.vec"}, "graph_nodes": "n", "graph_edges": "e",
            "corpus": "c", "workdir": "out", "composition": "neural",
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["embed", "--config", str(path)]) == 2
        assert "composition" in capsys.readouterr().err

    def test_translate_without_graph_artifact(self, tmp_path, capsys):
        root = tmp_path / "fresh"
        paths = write_demo_dataset(root)
        assert main(["translate", "en:Rock", "--target-system", "fr",
                     "--config", str(paths["config"])]) == 2
        assert "error: " in capsys.readouterr().err


class TestConfig:
    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        paths = write_demo_dataset(tmp_path / "data")
        config = PipelineConfig.from_file(paths["config"])
        assert Path(config.corpus).is_absolute()
        assert Path(config.corpus).exists()

    def test_retrofit_config_passthrough(self, tmp_path):
        paths = write_demo_dataset(tmp_path / "data")
        config = PipelineConfig.from_file(paths["config"])
        cfg = config.retrofit_config()
        assert cfg.scheme == "typed"
        assert cfg.max_iters == 100
