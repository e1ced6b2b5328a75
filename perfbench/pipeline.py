"""The pipeline as the CLI runs it, driven through the public library functions.

Every call into a library layer goes through :meth:`Tracer.call`, which
records a span when tracing is on and is a plain call otherwise. Stage order
and the artifacts written and read back follow ``genrevec.cli``'s
``cmd_build_graph``, ``cmd_embed``, ``cmd_retrofit`` and ``cmd_evaluate``;
``perfbench/parity.py`` checks that both paths give the same report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from genrevec.cli import PipelineConfig
from genrevec.compose import ConceptEmbeddingMatrix, compose_avg, compose_sif, load_matrix, save_matrix
from genrevec.evaluation import EvalReport, FoldAssignment, ParallelCorpus, evaluate, load_corpus, stratified_split
from genrevec.genregraph import (
    GenreGraph,
    attach_tag_system,
    filter_graph,
    load_graph,
    load_lemma_table,
    load_saved_graph,
    save_graph,
)
from genrevec.retrofit import RetrofitResult, objective, retrofit
from genrevec.translate import TranslationResult, translate
from genrevec.wordvec import VectorSpace, WordVectorStore, load_vectors


class Tracer:
    """In-memory spans around the harness's calls into the library.

    A span is (trace id, span id, parent span id, name, start, end, attrs).
    Spans of one pipeline run or one query share a trace id. With tracing
    off, :meth:`call` only counts calls and :meth:`root` does nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.calls = 0
        self.spans: list[tuple] = []
        self.own_s = 0.0  # time spent in the tracer's own bookkeeping
        self._trace = ""
        self._parent: int | None = None

    def call(self, name: str, fn, *args, attrs: dict | None = None, **kwargs):
        self.calls += 1
        if not self.enabled:
            return fn(*args, **kwargs)
        entered = time.perf_counter()
        span_id = len(self.spans)
        self.spans.append(None)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.spans[span_id] = (self._trace, span_id, self._parent, name, start, end, attrs)
            self.own_s += (start - entered) + (time.perf_counter() - end)

    def root(self, trace: str, name: str) -> "_Root":
        return _Root(self, trace, name)


class _Root:
    def __init__(self, tracer: Tracer, trace: str, name: str):
        self.tracer, self.trace, self.name = tracer, trace, name

    def __enter__(self):
        tracer = self.tracer
        if tracer.enabled:
            self.span_id = len(tracer.spans)
            tracer.spans.append(None)
            tracer._trace, tracer._parent = self.trace, self.span_id
            self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        if tracer.enabled:
            end = time.perf_counter()
            tracer.spans[self.span_id] = (self.trace, self.span_id, None, self.name, self.start, end, None)
            tracer._trace, tracer._parent = "", None
        return False


@dataclass
class Inputs:
    stores: dict[str, WordVectorStore]
    graph: GenreGraph
    corpus: ParallelCorpus


@dataclass
class Built:
    graph: GenreGraph
    composed: ConceptEmbeddingMatrix
    q_hat: ConceptEmbeddingMatrix
    result: RetrofitResult
    objective_initial: float
    objective_final: float
    folds: FoldAssignment
    embeddings: ConceptEmbeddingMatrix
    report: EvalReport


def load_inputs(config: PipelineConfig, tracer: Tracer) -> Inputs:
    """Read the raw inputs into library objects: vectors, lemma table, graph, corpus."""
    stores = {lang: tracer.call("wordvec.load_vectors", load_vectors, path) for lang, path in config.vectors.items()}
    lemma = tracer.call("genregraph.load_lemma_table", load_lemma_table, config.lemma_table) if config.lemma_table else {}
    graph = tracer.call("genregraph.load_graph", load_graph, config.graph_nodes, config.graph_edges, lemma)
    corpus = tracer.call("evaluation.load_corpus", load_corpus, config.corpus, min_tag_count=config.min_tag_count)
    return Inputs(stores=stores, graph=graph, corpus=corpus)


def run_pipeline(config: PipelineConfig, inputs: Inputs, workdir: Path, tracer: Tracer) -> Built:
    """From loaded inputs to the final report, writing and re-reading each artifact."""
    call = tracer.call
    corpus = inputs.corpus
    graph_path = workdir / "graph.json"
    embeddings_path = workdir / "embeddings.vec"
    retrofitted_path = workdir / "retrofitted.vec"

    # build-graph
    graph = inputs.graph
    if config.high_confidence is not None:
        graph = call("genregraph.filter_graph", filter_graph, graph, config.high_confidence)
    for system in config.tag_systems:
        tags = call("evaluation.system_vocabulary", corpus.system_vocabulary, system.name)
        graph = call("genregraph.attach_tag_system", attach_tag_system, graph, system.name, tags, system.language)
    call("genregraph.save_graph", save_graph, graph, graph_path)

    # embed
    graph = call("genregraph.load_saved_graph", load_saved_graph, graph_path)
    space = call("wordvec.VectorSpace", VectorSpace, inputs.stores)
    tokens = {node.id: list(node.tokens) for node in graph.nodes.values()}
    languages = {node.id: node.language for node in graph.nodes.values()}
    if config.composition == "avg":
        composed = call("compose.compose_avg", compose_avg, tokens, space, languages=languages)
    else:
        composed = call("compose.compose_sif", compose_sif, tokens, space, a=config.sif_a, languages=languages)
    if not composed.known.any():
        raise ValueError("no concept has any in-vocabulary word")
    metadata = {"composition": config.composition, "sif_a": config.sif_a}
    call("compose.save_matrix", save_matrix, composed, embeddings_path, metadata=metadata)

    # retrofit
    q_hat, metadata = call("compose.load_matrix", load_matrix, embeddings_path)
    retrofit_config = config.retrofit_config()
    result = call("retrofit.retrofit", retrofit, q_hat, graph, retrofit_config)
    call("compose.save_matrix", save_matrix, result.matrix, retrofitted_path, metadata={**metadata, "scheme": config.scheme})
    objective_initial = call("retrofit.objective", objective, q_hat, q_hat, graph, retrofit_config)
    objective_final = call("retrofit.objective", objective, result.matrix, q_hat, graph, retrofit_config)

    # evaluate
    folds = call("evaluation.stratified_split", stratified_split, corpus, k=config.folds, seed=config.seed)
    embeddings, _ = call("compose.load_matrix", load_matrix, retrofitted_path)
    report = call(
        "evaluation.evaluate", evaluate, corpus, folds, config.target_system, config.source_systems,
        scorer=config.scorer, embeddings=embeddings, graph=graph,
    )
    return Built(
        graph=graph, composed=composed, q_hat=q_hat, result=result,
        objective_initial=objective_initial, objective_final=objective_final,
        folds=folds, embeddings=embeddings, report=report,
    )


def load_served(workdir: Path, target_system: str, tracer: Tracer) -> tuple[GenreGraph, ConceptEmbeddingMatrix, list[str]]:
    """What ``cmd_translate`` loads: the saved graph, the retrofitted matrix and the target tags."""
    graph = tracer.call("genregraph.load_saved_graph", load_saved_graph, workdir / "graph.json")
    embeddings, _ = tracer.call("compose.load_matrix", load_matrix, workdir / "retrofitted.vec")
    targets = tracer.call("genregraph.system_tags", graph.system_tags, target_system)
    return graph, embeddings, targets


def query(sources: list[str], targets: list[str], scorer: str, graph: GenreGraph,
          embeddings: ConceptEmbeddingMatrix, tracer: Tracer) -> TranslationResult:
    return tracer.call(
        "translate.translate", translate, sources, targets,
        embeddings=None if scorer == "baseline" else embeddings, scorer=scorer, graph=graph,
        attrs={"scorer": scorer},
    )
