"""End-to-end tests of the command-line pipeline on the demo dataset."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from genrevec import cli
from genrevec.cli import PipelineConfig, main
from genrevec.compose import DEFAULT_SIF_A, load_matrix, save_matrix
from genrevec.evaluation import DEFAULT_MIN_TAG_COUNT, EvalReport
from genrevec.fixtures import write_demo_dataset
from genrevec.retrofit import RetrofitConfig

README = Path(__file__).resolve().parent.parent / "README.md"
STAGES = (["build-graph"], ["embed"], ["retrofit"], ["evaluate"], ["translate", "en:Hard_rock", "--target-system", "fr"])


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


def edit_config(path: Path, **changes) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.update(changes)
    path.write_text(json.dumps(payload), encoding="utf-8")


def run_stages(root: Path, capsys, flags: dict[str, list[str]] | None = None) -> tuple[list[str], dict[str, bytes]]:
    """Stdout of each of STAGES on the dataset under `root` (stage -> extra flags), then every artifact."""
    outputs = []
    for stage in STAGES:
        assert main([*stage, "--config", str(root / "config.json"), *(flags or {}).get(stage[0], [])]) == 0, stage
        outputs.append(capsys.readouterr().out.replace(str(root), "<root>"))
    return outputs, {entry.name: entry.read_bytes() for entry in sorted(out_dir(root).iterdir())}


class TestPipeline:
    def test_artifacts_exist(self, demo):
        root, _ = demo
        for name in ("graph.json", "embeddings.npz", "retrofitted.npz", "convergence.json"):
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

    def test_translate_negative_top_rejected(self, demo, capsys):
        _, config = demo
        assert main(["translate", "en:Rock", "--target-system", "fr", "--config", config, "--top", "-8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--top" in captured.err

    def test_seed_is_an_evaluate_flag_only(self, demo, capsys):
        root, config = demo
        for command in (["build-graph"], ["embed"], ["retrofit"], ["translate", "en:Rock", "--target-system", "fr"]):
            with pytest.raises(SystemExit) as exit_info:
                main([*command, "--config", config, "--seed", "3"])
            assert exit_info.value.code == 2
        assert main(["evaluate", "--config", config, "--seed", "3"]) == 0
        reseeded = (out_dir(root) / "report.json").read_text()
        assert main(["evaluate", "--config", config]) == 0
        assert (out_dir(root) / "report.json").read_text() != reseeded  # the config's seed is 7

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
        artifacts = ["graph.json", "embeddings.npz", "retrofitted.npz", "convergence.json"]
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
        real_retrofit = cli.retrofit

        def unserializable(*args):
            return dataclasses.replace(real_retrofit(*args), objective_final=object())

        monkeypatch.setattr(cli, "retrofit", unserializable)
        with pytest.raises(TypeError):
            main(["retrofit", "--config", config])
        assert {entry.name: entry.read_bytes() for entry in out_dir(root).iterdir()} == before


class TestOverrides:
    @pytest.mark.parametrize(
        "key, value, stages",
        [
            ("composition", "avg", ["embed"]),
            ("scheme", "uniform", ["retrofit"]),
            ("scorer", "sum", ["evaluate", "translate"]),
            ("scorer", "baseline", ["evaluate", "translate"]),
            ("seed", 3, ["evaluate"]),
        ],
    )
    def test_flag_equals_editing_the_config_key(self, tmp_path, capsys, key, value, stages):
        for name in ("plain", "flag", "edited"):
            write_demo_dataset(tmp_path / name)
        edit_config(tmp_path / "edited" / "config.json", **{key: value})
        plain = run_stages(tmp_path / "plain", capsys)
        flagged = run_stages(tmp_path / "flag", capsys, {stage: [f"--{key}", str(value)] for stage in stages})
        edited = run_stages(tmp_path / "edited", capsys)
        assert flagged == edited
        assert flagged != plain  # the key changes what the run writes or prints


class TestGraphPairing:
    @pytest.fixture()
    def embedded(self, tmp_path):
        paths = write_demo_dataset(tmp_path / "data")
        config = str(paths["config"])
        assert main(["build-graph", "--config", config]) == 0
        assert main(["embed", "--config", config]) == 0
        return paths, config, Path(PipelineConfig.from_file(config).workdir)

    def test_matrices_record_the_graph_digest(self, embedded):
        _, config, workdir = embedded
        assert main(["retrofit", "--config", config]) == 0
        digest = hashlib.sha256((workdir / "graph.json").read_bytes()).hexdigest()
        _, embedded_metadata = load_matrix(workdir / "embeddings.npz")
        _, retrofitted_metadata = load_matrix(workdir / "retrofitted.npz")
        assert embedded_metadata["graph_sha256"] == digest
        assert retrofitted_metadata == {**embedded_metadata, "scheme": "typed"}

    def test_edited_edge_makes_later_stages_reject_the_matrix(self, embedded, capsys):
        paths, config, workdir = embedded
        assert main(["retrofit", "--config", config]) == 0
        lines = paths["edges"].read_text(encoding="utf-8").splitlines()
        edge = json.loads(lines[-1])
        edge["rel"] = "musicSubgenre" if edge["rel"] == "derivative" else "derivative"
        paths["edges"].write_text("\n".join(lines[:-1] + [json.dumps(edge)]) + "\n", encoding="utf-8")
        assert main(["build-graph", "--config", config]) == 0
        capsys.readouterr()
        # each stage rejects the matrix it reads: retrofit its input, evaluate and translate retrofit's output
        for command, matrix in (
            (["retrofit"], "embeddings.npz"),
            (["evaluate"], "retrofitted.npz"),
            (["translate", "en:Rock", "--target-system", "fr"], "retrofitted.npz"),
        ):
            assert main(command + ["--config", config]) == 2, command
            err = capsys.readouterr().err
            assert str(workdir / matrix) in err and str(workdir / "graph.json") in err, command
        assert main(["embed", "--config", config]) == 0
        assert main(["retrofit", "--config", config]) == 0

    def test_unretrofitted_matrix_is_read_only_when_named(self, embedded, capsys):
        _, config, workdir = embedded
        capsys.readouterr()
        for command in (["evaluate"], ["translate", "en:Rock", "--target-system", "fr"]):
            assert main(command + ["--config", config]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(workdir / "retrofitted.npz") in err, command
            assert main(command + ["--config", config, "--matrix", str(workdir / "embeddings.npz")]) == 0, command
            capsys.readouterr()
        assert not (workdir / "retrofitted.npz").exists()

    def test_matrix_without_graph_digest_rejected(self, embedded, capsys):
        _, config, workdir = embedded
        matrix, metadata = load_matrix(workdir / "embeddings.npz")
        del metadata["graph_sha256"]
        save_matrix(matrix, workdir / "embeddings.npz", metadata=metadata)
        capsys.readouterr()
        assert main(["retrofit", "--config", config]) == 2
        err = capsys.readouterr().err
        assert str(workdir / "embeddings.npz") in err and str(workdir / "graph.json") in err

    def test_text_matrix_from_an_older_run_rejected(self, embedded, capsys):
        _, config, workdir = embedded
        (workdir / "embeddings.npz").write_text("1 2\nen:Rock 1 0\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["retrofit", "--config", config]) == 2
        err = capsys.readouterr().err
        assert str(workdir / "embeddings.npz") in err and "rerun `genrevec embed`" in err


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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("high_confidence", "dbp_en_rock"),  # a string, whose set() would be its characters
            ("folds", "4"),
            ("folds", 4.0),
            ("min_tag_count", None),
            ("seed", True),
            ("sif_a", "0.001"),
            ("vectors", ["vectors_en.vec", "vectors_fr.vec"]),
            ("vectors", {"en": 1}),
            ("source_systems", "en"),
            ("tag_systems", [{"name": 5, "language": "en"}]),
        ],
    )
    def test_mistyped_config_value_rejected(self, tmp_path, capsys, key, value):
        paths = write_demo_dataset(tmp_path / "data")
        config = json.loads(paths["config"].read_text(encoding="utf-8"))
        config[key] = value
        paths["config"].write_text(json.dumps(config), encoding="utf-8")
        assert main(["build-graph", "--config", str(paths["config"])]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths['config']}: config key ") and key in err
        assert not (tmp_path / "data" / "out" / "graph.json").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("tolerance", 0, "tolerance must be positive"),
            ("tolerance", -1e-5, "tolerance must be positive"),
            ("tolerance", float("nan"), "tolerance must be positive"),
            ("max_iters", 0, "max_iters must be a positive integer"),
            ("scheme", "fancy", "scheme must be one of"),
        ],
    )
    def test_unusable_retrofit_setting_rejected_before_build_graph(self, tmp_path, capsys, key, value, message):
        paths = write_demo_dataset(tmp_path / "data")
        config = json.loads(paths["config"].read_text(encoding="utf-8"))
        config[key] = value
        paths["config"].write_text(json.dumps(config), encoding="utf-8")
        assert main(["build-graph", "--config", str(paths["config"])]) == 2
        assert capsys.readouterr().err.startswith(f"error: {paths['config']}: {message}")
        assert not (tmp_path / "data" / "out" / "graph.json").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0, -1])
    def test_unusable_sif_a_rejected_before_build_graph(self, tmp_path, capsys, value):
        paths = write_demo_dataset(tmp_path / "data")
        config = json.loads(paths["config"].read_text(encoding="utf-8"))
        config["sif_a"] = value  # json writes NaN and Infinity, which json.load reads back
        paths["config"].write_text(json.dumps(config), encoding="utf-8")
        assert main(["build-graph", "--config", str(paths["config"])]) == 2
        message = "smoothing constant a must be positive and finite"
        assert capsys.readouterr().err.startswith(f"error: {paths['config']}: {message}")
        assert not (tmp_path / "data" / "out" / "graph.json").exists()

    def test_negative_min_tag_count_rejected_before_graph_is_written(self, tmp_path, capsys):
        paths = write_demo_dataset(tmp_path / "data")
        edit_config(paths["config"], min_tag_count=-5)
        assert main(["build-graph", "--config", str(paths["config"])]) == 2
        assert capsys.readouterr().err == "error: min_tag_count must be nonnegative, got -5\n"
        assert not (tmp_path / "data" / "out" / "graph.json").exists()

    def test_tag_system_language_missing_from_graph_rejected_before_graph_is_written(self, tmp_path, capsys):
        paths = write_demo_dataset(tmp_path / "data")
        edit_config(paths["config"], tag_systems=[{"name": "en", "language": "en"}, {"name": "fr", "language": "french"}])
        assert main(["build-graph", "--config", str(paths["config"])]) == 2
        assert capsys.readouterr().err == (
            "error: tag system 'fr' has language 'french'; the graph has ['en', 'fr']\n"
        )
        assert not (tmp_path / "data" / "out" / "graph.json").exists()

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"nodes": [{"id": "en:Rock", "label": "Rock", "tokens": ["rock"], "system": "en"}], "edges": []},
             "nodes[0]: missing key 'lang'"),
            ([1, 2], "expected a JSON object, got list"),
            ({"vocabulary": [], "nodes": [], "edges": None}, "'edges' must be a list, got null"),
            ({"nodes": [{"id": "en:Rock", "lang": "en", "label": "Rock", "tokens": "rock"}], "edges": []},
             "nodes[0]: node 'en:Rock': tokens must be a list of non-empty strings, got 'rock'"),
        ],
    )
    def test_malformed_graph_artifact_rejected(self, tmp_path, capsys, payload, message):
        paths = write_demo_dataset(tmp_path / "data")
        graph_path = tmp_path / "data" / "out" / "graph.json"
        graph_path.parent.mkdir()
        graph_path.write_text(json.dumps(payload), encoding="utf-8")
        for command in (["embed"], ["translate", "en:Rock", "--target-system", "fr", "--scorer", "baseline"]):
            assert main([*command, "--config", str(paths["config"])]) == 2, command
            assert capsys.readouterr().err == f"error: {graph_path}: {message}\n", command

    @pytest.mark.parametrize(
        "edge",
        [
            {"src": ["dbp_en_rock"], "dst": "dbp_fr_rock", "rel": "sameAs"},
            {"src": "dbp_en_rock", "dst": {"id": "dbp_fr_rock"}, "rel": "sameAs"},
            {"src": "dbp_en_rock", "dst": "dbp_fr_rock", "rel": ["sameAs"]},
        ],
    )
    def test_non_string_edge_field_rejected_before_graph_is_written(self, tmp_path, capsys, edge):
        paths = write_demo_dataset(tmp_path / "data")
        lines = paths["edges"].read_text(encoding="utf-8").splitlines()
        paths["edges"].write_text("\n".join([*lines, json.dumps(edge)]) + "\n", encoding="utf-8")
        assert main(["build-graph", "--config", str(paths["config"])]) == 2
        err = capsys.readouterr().err
        problem = "edge src, dst and relation must be strings, got "
        assert err.startswith(f"error: {paths['edges']}: edges line {len(lines) + 1}: {problem}")
        assert not (tmp_path / "data" / "out" / "graph.json").exists()

    @pytest.mark.parametrize(
        "tag_systems, message",
        [
            ([{"name": "fr", "language": "fr"}], "source system 'en' has no 'tag_systems' entry"),
            ([{"name": "en", "language": "en"}], "target system 'fr' has no 'tag_systems' entry"),
        ],
    )
    def test_evaluated_system_that_is_not_attached_rejected(self, tmp_path, capsys, tag_systems, message):
        # with 'en' unattached, every source tag would be dropped and evaluate would report AUC 0.5
        paths = write_demo_dataset(tmp_path / "data")
        edit_config(paths["config"], tag_systems=tag_systems)
        for stage in STAGES:
            assert main([*stage, "--config", str(paths["config"])]) == 2, stage
            err = capsys.readouterr().err
            assert err == f"error: {paths['config']}: {message}, so none of its tags is attached\n", stage
        assert not (tmp_path / "data" / "out").exists()

    @pytest.mark.parametrize("key", ["lemma_table", "vectors.en", "graph_nodes", "graph_edges", "corpus", "workdir"])
    def test_empty_path_rejected_naming_its_key(self, tmp_path, capsys, key):
        # "" would resolve to the config file's own directory; null, or no key, means no lemma table
        paths = write_demo_dataset(tmp_path / "data")
        config = json.loads(paths["config"].read_text(encoding="utf-8"))
        edited = json.loads(json.dumps(config))
        if key == "vectors.en":
            edited["vectors"]["en"] = ""
        else:
            edited[key] = ""
        paths["config"].write_text(json.dumps(edited), encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        assert main(["build-graph", "--config", str(paths["config"])]) == 2
        assert capsys.readouterr().err == f"error: {paths['config']}: config key {key!r} must not be an empty path\n"
        assert sorted(tmp_path.rglob("*")) == before  # nothing written anywhere, graph.json included
        edit_config(paths["config"], **{**config, "lemma_table": None})
        assert main(["build-graph", "--config", str(paths["config"])]) == 0

    @pytest.mark.parametrize(
        "write, message",
        [
            (lambda config: json.dumps(config)[:-1], "{path}: invalid JSON ("),
            (lambda config: json.dumps([config]), "{path}: config must be a JSON object"),
            (lambda config: json.dumps({**config, "tag_systems": [{"language": "en"}]}),
             "{path}: tag_systems entries need 'name' and 'language'"),
            (lambda config: json.dumps({**config, "tag_systems": [{"name": "en", "language": "en", "lang": "x"}]}),
             "{path}: unknown tag_systems entry keys ['lang']"),
            (lambda config: json.dumps({**config, "tag_systems": {"name": "en", "language": "en"}}),
             '{path}: tag_systems must be a list of objects, got {{"name": "en", "language": "en"}}'),
            # The id keeps the name this case had when the message was Python's own TypeError text.
            pytest.param(lambda config: json.dumps({key: value for key, value in config.items() if key != "corpus"}),
                         "{path}: config key 'corpus' is required",
                         id="<lambda>-{path}: PipelineConfig missing required key 'corpus'"),
            # These ids keep the names the cases had before every config error began with the path.
            pytest.param(lambda config: json.dumps({**config, "vectors": {}}),
                         "{path}: config needs at least one entry under 'vectors'",
                         id="<lambda>-config needs at least one entry under 'vectors'"),
            pytest.param(lambda config: json.dumps({**config, "scorer": "cosine"}),
                         "{path}: scorer must be one of ('sum', 'avg', 'baseline')",
                         id="<lambda>-scorer must be one of ('sum', 'avg', 'baseline')"),
            pytest.param(lambda config: json.dumps({**config, "folds": 1}), "{path}: folds must be at least 2",
                         id="<lambda>-folds must be at least 2"),
        ],
    )
    def test_malformed_config_rejected_before_graph_is_written(self, tmp_path, capsys, write, message):
        paths = write_demo_dataset(tmp_path / "data")
        config = json.loads(paths["config"].read_text(encoding="utf-8"))
        paths["config"].write_text(write(config), encoding="utf-8")
        assert main(["build-graph", "--config", str(paths["config"])]) == 2
        assert capsys.readouterr().err.startswith("error: " + message.format(path=paths["config"]))
        assert not (tmp_path / "data" / "out").exists()

    def test_embed_with_no_known_concept_rejected(self, tmp_path, capsys):
        paths = write_demo_dataset(tmp_path / "data")
        assert main(["build-graph", "--config", str(paths["config"])]) == 0
        for language in ("en", "fr"):
            (tmp_path / "data" / f"vectors_{language}.vec").write_text("1 3\nqqq 1 0 0\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["embed", "--config", str(paths["config"]), "--composition", "avg"]) == 2
        assert capsys.readouterr().err == "error: no concept has any in-vocabulary word; check the vector files\n"
        assert not (tmp_path / "data" / "out" / "embeddings.npz").exists()

    def test_translate_into_a_system_with_no_attached_tags_rejected(self, demo, capsys):
        _, config = demo
        assert main(["translate", "en:Rock", "--target-system", "de", "--config", config]) == 2
        assert capsys.readouterr().err == "error: no tags attached for target system 'de'\n"

    @pytest.mark.parametrize("changes", [{"target_system": None}, {"source_systems": []}])
    def test_evaluate_needs_target_and_source_systems(self, tmp_path, capsys, changes):
        paths = write_demo_dataset(tmp_path / "data")
        edit_config(paths["config"], **changes)
        assert main(["evaluate", "--config", str(paths["config"])]) == 2
        assert capsys.readouterr().err == (
            "error: evaluate needs 'target_system' and 'source_systems' in the config\n"
        )
        assert not (tmp_path / "data" / "out").exists()

    def test_tag_system_without_corpus_tags_rejected_before_graph_is_written(self, tmp_path, capsys):
        paths = write_demo_dataset(tmp_path / "data")
        systems = [{"name": "en", "language": "en"}, {"name": "fr", "language": "fr"}, {"name": "de", "language": "en"}]
        edit_config(paths["config"], tag_systems=systems)
        assert main(["build-graph", "--config", str(paths["config"])]) == 2
        assert capsys.readouterr().err == (
            "error: tag system 'de' has no tags in the corpus, whose systems are ['en', 'fr']\n"
        )
        assert not (tmp_path / "data" / "out" / "graph.json").exists()

    @pytest.mark.parametrize(
        "ids, message",
        [
            (["dbp_en_rokc"], "'high_confidence' id 'dbp_en_rokc' is not a node of the graph"),
            (["dbp_en_rock", "dbp_en_jaz", "dbp_en_rokc"], "'high_confidence' id 'dbp_en_jaz' is not a node"),
            ([], "'high_confidence' is empty"),
        ],
    )
    def test_unusable_high_confidence_rejected_before_graph_is_written(self, tmp_path, capsys, ids, message):
        paths = write_demo_dataset(tmp_path / "data")
        config = json.loads(paths["config"].read_text(encoding="utf-8"))
        config["high_confidence"] = ids
        paths["config"].write_text(json.dumps(config), encoding="utf-8")
        assert main(["build-graph", "--config", str(paths["config"])]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "data" / "out" / "graph.json").exists()

    @pytest.mark.parametrize("sources", [["xx"], ["en", "xx"]])
    def test_source_system_without_tags_rejected(self, demo, capsys, sources):
        root, config = demo
        payload = json.loads(Path(config).read_text(encoding="utf-8"))
        payload["source_systems"] = sources
        payload["tag_systems"].append({"name": "xx", "language": "en"})  # attached, but the corpus has no xx tags
        edited = root / "config_unknown_source.json"
        edited.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["evaluate", "--config", str(edited)]) == 2
        assert capsys.readouterr().err == (
            "error: tag system 'xx' has no tags in the corpus, whose systems are ['en', 'fr']\n"
        )

    def test_translate_without_graph_artifact(self, tmp_path, capsys):
        root = tmp_path / "fresh"
        paths = write_demo_dataset(root)
        assert main(["translate", "en:Rock", "--target-system", "fr",
                     "--config", str(paths["config"])]) == 2
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["translate", "en:Hard_rock", "--target-system", "fr"], ["evaluate"]])
    def test_missing_explicit_matrix_rejected(self, demo, tmp_path, capsys, command):
        # an explicit --matrix never falls back to another matrix file
        _, config = demo
        missing = tmp_path / "typo.npz"
        assert main([*command, "--config", config, "--matrix", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err


class TestCorpusTagsWithoutTokens:
    def test_reports_match_the_clean_corpus(self, tmp_path, capsys, caplog):
        for name in ("clean", "polluted"):
            write_demo_dataset(tmp_path / name)
        corpus = tmp_path / "polluted" / "corpus.jsonl"
        records = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
        for index, record in enumerate(records):
            if index % 2 == 0:
                record["annotations"]["fr"].append("!!!")
            if index % 3 == 0:
                record["annotations"]["en"].append("???")
        corpus.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
        with caplog.at_level("WARNING"):
            clean, polluted = (run_stages(tmp_path / name, capsys) for name in ("clean", "polluted"))
        assert polluted == clean
        assert "dropped 2 distinct tags with no alphanumeric content" in caplog.text
        for name in ("clean", "polluted"):
            assert main(["evaluate", "--config", str(tmp_path / name / "config.json"), "--scorer", "baseline"]) == 0
        capsys.readouterr()
        assert (out_dir(tmp_path / "polluted") / "report.json").read_bytes() == (
            out_dir(tmp_path / "clean") / "report.json"
        ).read_bytes()


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

    def test_defaults_are_the_library_defaults(self):
        defaults = {f.name: f.default for f in dataclasses.fields(PipelineConfig)}
        retrofit_defaults = RetrofitConfig()
        assert defaults["sif_a"] == DEFAULT_SIF_A
        assert defaults["min_tag_count"] == DEFAULT_MIN_TAG_COUNT
        for key in ("scheme", "tolerance", "max_iters"):
            assert defaults[key] == getattr(retrofit_defaults, key), key

    def test_readme_config_block_lists_every_key(self, tmp_path):
        section = README.read_text(encoding="utf-8").split("### Config file\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert set(json.loads(block)) == {f.name for f in dataclasses.fields(PipelineConfig)}
        path = tmp_path / "config.json"
        path.write_text(block, encoding="utf-8")
        PipelineConfig.from_file(path)


class TestReadme:
    def test_quickstart_entry_points_run_as_processes(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
        for args in (
            ["-m", "genrevec.fixtures", str(tmp_path)],
            ["-m", "genrevec.cli", "build-graph", "--config", str(tmp_path / "config.json")],
        ):
            done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, (args, done.stderr)
        assert (out_dir(tmp_path) / "graph.json").exists()

    def test_library_use_block_runs_on_the_demo_data(self, tmp_path, monkeypatch, capsys):
        section = README.read_text(encoding="utf-8").split("## Library use\n", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        write_demo_dataset(tmp_path)
        monkeypatch.chdir(tmp_path)
        exec(block, {})
        assert capsys.readouterr().out == block.rsplit("# ", 1)[1]  # the printed line the block states
