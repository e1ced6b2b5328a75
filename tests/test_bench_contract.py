"""The benchmark harness in perfbench/ still runs against the library.

``parity.check`` runs the CLI stages and the harness's own pipeline on a
smoke-size dataset and compares their reports, so a public name the harness
imports (``objective``, ``load_vectors(path)``, ``graph.degree``, ...) cannot
disappear without this test failing. The serve-phase test sends the smoke
dataset's queries through the harness and its per-query checks, so a wrong
score or ranking fails here rather than only in a benchmark run; it also
checks that ranking ties break lexicographically, which the harness's
checks do not. The smoke build's ``evaluate`` report passes the harness's
1e-12 AUC check for every scorer. A tag system with no corpus tags is
rejected by the harness's pipeline too, through the library call that owns
that rule.
"""

import dataclasses
import importlib
import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from genrevec.cli import PipelineConfig, TagSystemSpec
from genrevec.evaluation import evaluate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_parity_check_passes_at_smoke_size(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    parity = importlib.import_module("parity")
    outcome = parity.check(1, tmp_path / "parity")
    assert outcome["failures"] == []
    assert outcome["attempted"] == 5


def test_served_queries_pass_the_benchmark_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen, pipeline, checks = (importlib.import_module(name) for name in ("gen", "pipeline", "checks"))
    gen.generate(tmp_path, gen.WORKLOADS["smoke"], 1)
    config = PipelineConfig.from_file(tmp_path / "config.json")
    tracer = pipeline.Tracer(enabled=False)
    workdir = tmp_path / "work"
    workdir.mkdir()
    pipeline.run_pipeline(config, pipeline.load_inputs(config, tracer), workdir, tracer)
    graph, embeddings, targets = pipeline.load_served(workdir, config.target_system, tracer)
    scores, hops = checks.ScoreReference(embeddings, targets), checks.HopReference(graph)
    with open(tmp_path / "queries.jsonl", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    queries = []
    for record in records:  # prepared as perfbench/run.py does: baseline sources must be graph nodes
        sources = record["sources"]
        if record["scorer"] == "baseline":
            sources = [s for s in sources if graph.has_node(s)]
        if sources:
            queries.append((sources, record["scorer"]))
    assert len(queries) == len(records) and {scorer for _, scorer in queries} == {"avg", "sum", "baseline"}
    # Halfway through the first pass the graph is reloaded, as the benchmark
    # reloads it after each build: on the fresh graph the first baseline query
    # searches its own sources and a later one fills the hop table from the
    # targets. The second pass reads the target and hop memos the first one
    # left. The system's tags come sorted, so a third pass sends them
    # reversed: ties broken by list position would then differ from
    # lexicographic ties.
    reloaded = pipeline.load_served(workdir, config.target_system, tracer)[0]
    reversed_targets = targets[::-1]
    passes = [(targets, scores), (targets, scores), (reversed_targets, checks.ScoreReference(embeddings, reversed_targets))]
    problems, misranked = [], []
    for n, (order, reference) in enumerate(passes):
        for i, (sources, scorer) in enumerate(queries):
            if (n, i) == (0, len(queries) // 2):
                assert graph._target_memo.table.levels is not None and reloaded._target_memo is None
                graph = reloaded
            result = pipeline.query(sources, order, scorer, graph, embeddings, tracer)
            problems += checks.check_translation(result, sources, order, scorer, reference, hops)
            # the benchmark checks score order only; ties must also break lexicographically
            if result.ranking != sorted(order, key=lambda t: (-result.scores[t], t)):
                misranked.append((scorer, sources))
    assert problems == []
    assert misranked == []
    assert graph is reloaded and graph._target_memo.table.levels is not None


def test_evaluate_reports_pass_the_benchmark_auc_check(tmp_path, monkeypatch):
    # a score that rounds differently from the harness's reference can flip a tie, which moves an AUC by far more
    # than the check's 1e-12
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen, pipeline, checks = (importlib.import_module(name) for name in ("gen", "pipeline", "checks"))
    gen.generate(tmp_path, gen.WORKLOADS["smoke"], 1)
    config = PipelineConfig.from_file(tmp_path / "config.json")
    tracer = pipeline.Tracer(enabled=False)
    workdir = tmp_path / "work"
    workdir.mkdir()
    inputs = pipeline.load_inputs(config, tracer)
    built = pipeline.run_pipeline(config, inputs, workdir, tracer)
    for scorer in ("sum", "avg", "baseline"):
        if scorer == "baseline":
            # check_report scores every report by cosine; for the baseline it takes the harness's hop reference
            hops = checks.HopReference(built.graph)
            monkeypatch.setattr(checks, "ScoreReference", lambda _, targets: SimpleNamespace(
                scores=lambda sources, _: hops.scores(sources, targets)))
        report = evaluate(inputs.corpus, built.folds, config.target_system, config.source_systems,
                          scorer=scorer, embeddings=built.embeddings, graph=built.graph)
        problems = checks.check_report(report, inputs.corpus, built.folds, built.embeddings,
                                       dataclasses.replace(config, scorer=scorer))
        assert problems == []


def test_pipeline_rejects_a_tag_system_without_corpus_tags(tmp_path, monkeypatch):
    # the rule is checked by the library function the harness calls, not by a CLI command
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen, pipeline = (importlib.import_module(name) for name in ("gen", "pipeline"))
    gen.generate(tmp_path, gen.WORKLOADS["smoke"], 1)
    config = PipelineConfig.from_file(tmp_path / "config.json")
    config.tag_systems.append(TagSystemSpec(name="xx", language="en"))
    tracer = pipeline.Tracer(enabled=False)
    inputs = pipeline.load_inputs(config, tracer)
    message = f"tag system 'xx' has no tags in the corpus, whose systems are {list(inputs.corpus.systems)}"
    workdir = tmp_path / "work"
    workdir.mkdir()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pipeline.run_pipeline(config, inputs, workdir, tracer)
