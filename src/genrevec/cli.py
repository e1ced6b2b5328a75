"""Command-line pipeline: build-graph, embed, retrofit, translate, evaluate.

All commands read a declarative JSON config; selected keys can be overridden
by flags. Outputs are deterministic for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from ._lines import atomic_write
from .compose import compose_avg, compose_sif, load_matrix, save_matrix
from .evaluation import EvalReport, evaluate, load_corpus, stratified_split
from .genregraph import attach_tag_system, filter_graph, load_graph, load_lemma_table, load_saved_graph, save_graph
from .retrofit import RetrofitConfig, objective, retrofit
from .translate import translate
from .wordvec import VectorSpace, load_vectors

logger = logging.getLogger(__name__)

COMPOSITIONS = ("avg", "sif")


class ConfigError(ValueError):
    """The pipeline config file is malformed."""


@dataclass
class TagSystemSpec:
    name: str
    language: str


@dataclass
class PipelineConfig:
    vectors: dict[str, str]  # language -> vector file
    graph_nodes: str
    graph_edges: str
    corpus: str
    workdir: str
    lemma_table: str | None = None
    composition: str = "sif"
    sif_a: float = 1e-3
    scheme: str = "typed"
    tolerance: float = 1e-5
    max_iters: int = 100
    scorer: str = "avg"
    folds: int = 4
    seed: int = 0
    min_tag_count: int = 16
    tag_systems: list[TagSystemSpec] = field(default_factory=list)
    target_system: str | None = None
    source_systems: list[str] = field(default_factory=list)
    high_confidence: list[str] | None = None

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from None
        if not isinstance(payload, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        known_keys = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known_keys)
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {unknown}")
        systems = payload.pop("tag_systems", [])
        try:
            payload["tag_systems"] = [TagSystemSpec(**entry) for entry in systems]
        except TypeError:
            raise ConfigError(f"{path}: tag_systems entries need 'name' and 'language'") from None
        try:
            config = cls(**payload)
        except TypeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        config._validate()
        # Relative paths resolve against the config file's directory.
        base = path.parent
        config.vectors = {lang: str(_resolve(base, p)) for lang, p in config.vectors.items()}
        config.graph_nodes = str(_resolve(base, config.graph_nodes))
        config.graph_edges = str(_resolve(base, config.graph_edges))
        config.corpus = str(_resolve(base, config.corpus))
        config.workdir = str(_resolve(base, config.workdir))
        if config.lemma_table:
            config.lemma_table = str(_resolve(base, config.lemma_table))
        return config

    def _validate(self) -> None:
        if not self.vectors:
            raise ConfigError("config needs at least one entry under 'vectors'")
        if self.composition not in COMPOSITIONS:
            raise ConfigError(f"composition must be one of {COMPOSITIONS}")
        if self.scorer not in ("sum", "avg", "baseline"):
            raise ConfigError("scorer must be 'sum', 'avg', or 'baseline'")
        if self.scheme not in ("uniform", "typed"):
            raise ConfigError("scheme must be 'uniform' or 'typed'")
        if self.folds < 2:
            raise ConfigError("folds must be at least 2")

    def retrofit_config(self) -> RetrofitConfig:
        return RetrofitConfig(scheme=self.scheme, tolerance=self.tolerance, max_iters=self.max_iters)


def _resolve(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else base / p


def _workdir(config: PipelineConfig) -> Path:
    out = Path(config.workdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _graph_path(config: PipelineConfig) -> Path:
    return _workdir(config) / "graph.json"


def _embeddings_path(config: PipelineConfig) -> Path:
    return _workdir(config) / "embeddings.vec"


def _retrofitted_path(config: PipelineConfig) -> Path:
    return _workdir(config) / "retrofitted.vec"


def cmd_build_graph(config: PipelineConfig) -> Path:
    """Load, filter, and attach tag systems; write the merged graph."""
    lemma = load_lemma_table(config.lemma_table) if config.lemma_table else {}
    graph = load_graph(config.graph_nodes, config.graph_edges, lemma)
    logger.info("loaded graph: %d nodes, %d edges", graph.node_count, graph.edge_count)
    if config.high_confidence is not None:
        graph = filter_graph(graph, config.high_confidence)
        logger.info("after confidence filter: %d nodes, %d edges", graph.node_count, graph.edge_count)
    corpus = load_corpus(config.corpus, min_tag_count=config.min_tag_count)
    for system in config.tag_systems:
        tags = corpus.system_vocabulary(system.name)
        graph = attach_tag_system(graph, system.name, tags, system.language)
        logger.info("attached %d tags for system %r", len(tags), system.name)
    destination = _graph_path(config)
    save_graph(graph, destination)
    print(f"graph written to {destination} ({graph.node_count} nodes, {graph.edge_count} edges)")
    return destination


def cmd_embed(config: PipelineConfig) -> Path:
    """Compose initial embeddings for every graph node; write the matrix."""
    graph = load_saved_graph(_graph_path(config))
    stores = {lang: load_vectors(path) for lang, path in config.vectors.items()}
    space = VectorSpace(stores)
    tokens = {node.id: list(node.tokens) for node in graph.nodes.values()}
    languages = {node.id: node.language for node in graph.nodes.values()}
    if config.composition == "avg":
        matrix = compose_avg(tokens, space, languages=languages)
    else:
        matrix = compose_sif(tokens, space, a=config.sif_a, languages=languages)
    if not matrix.known.any():
        raise ValueError("no concept has any in-vocabulary word; check the vector files")
    destination = _embeddings_path(config)
    save_matrix(matrix, destination, metadata={"composition": config.composition, "sif_a": config.sif_a})
    known = int(matrix.known.sum())
    print(f"embeddings written to {destination} ({known}/{len(matrix)} concepts known)")
    return destination


def cmd_retrofit(config: PipelineConfig) -> Path:
    """Refine the composed embeddings against the graph; write matrix and log."""
    graph = load_saved_graph(_graph_path(config))
    q_hat, metadata = load_matrix(_embeddings_path(config))
    cfg = config.retrofit_config()
    result = retrofit(q_hat, graph, cfg)
    destination = _retrofitted_path(config)
    save_matrix(result.matrix, destination, metadata={**metadata, "scheme": config.scheme})
    convergence = {
        "scheme": config.scheme,
        "iterations": result.iterations,
        "converged": result.converged,
        "final_delta": result.final_delta,
        "deltas": list(result.deltas),
        "pinned": list(result.pinned),
        "objective_initial": objective(q_hat, q_hat, graph, cfg),
        "objective_final": objective(result.matrix, q_hat, graph, cfg),
    }
    log_path = _workdir(config) / "convergence.json"
    with atomic_write(log_path) as handle:
        json.dump(convergence, handle, indent=2, sort_keys=True)
        handle.write("\n")
    outcome = "converged in" if result.converged else "not converged after"
    print(
        f"retrofitted embeddings written to {destination} "
        f"({outcome} {result.iterations} iterations, delta={result.final_delta:.3e})"
    )
    return destination


def _load_translation_inputs(config: PipelineConfig, scorer: str, matrix_path: str | None):
    graph = load_saved_graph(_graph_path(config))
    embeddings = None
    if scorer != "baseline":
        path = Path(matrix_path) if matrix_path else _retrofitted_path(config)
        if not path.exists():
            path = _embeddings_path(config)
        embeddings, _ = load_matrix(path)
    return graph, embeddings


def cmd_translate(
    config: PipelineConfig,
    source_tags: list[str],
    target_system: str,
    scorer: str | None = None,
    matrix_path: str | None = None,
    top: int = 0,
) -> None:
    """Print the ranked target-system tags for the given source tag ids."""
    scorer = scorer or config.scorer
    graph, embeddings = _load_translation_inputs(config, scorer, matrix_path)
    targets = graph.system_tags(target_system)
    if not targets:
        raise ValueError(f"no tags attached for target system {target_system!r}")
    result = translate(source_tags, targets, embeddings=embeddings, scorer=scorer, graph=graph)
    ranking = result.ranking[:top] if top else result.ranking
    for position, tag in enumerate(ranking, start=1):
        print(f"{position}\t{tag}\t{result.scores[tag]:.6f}")


def cmd_evaluate(
    config: PipelineConfig,
    scorer: str | None = None,
    matrix_path: str | None = None,
) -> EvalReport:
    """Run the stratified translation experiment; write and print the report."""
    scorer = scorer or config.scorer
    if not config.target_system or not config.source_systems:
        raise ConfigError("evaluate needs 'target_system' and 'source_systems' in the config")
    corpus = load_corpus(config.corpus, min_tag_count=config.min_tag_count)
    folds = stratified_split(corpus, k=config.folds, seed=config.seed)
    graph, embeddings = _load_translation_inputs(config, scorer, matrix_path)
    report = evaluate(
        corpus,
        folds,
        config.target_system,
        config.source_systems,
        scorer=scorer,
        embeddings=embeddings,
        graph=graph,
    )
    destination = _workdir(config) / "report.json"
    with atomic_write(destination) as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(report.render_table())
    print(f"report written to {destination}")
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="genrevec", description=__doc__)
    parser.add_argument("--version", action="version", version=f"genrevec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--verbose", action="store_true", help="log progress to stderr")
        p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("build-graph", help="ingest, filter, and attach tag systems")
    common(p)

    p = sub.add_parser("embed", help="compose initial concept embeddings")
    common(p)
    p.add_argument("--composition", choices=COMPOSITIONS, help="override the composition strategy")

    p = sub.add_parser("retrofit", help="refine embeddings against the graph")
    common(p)
    p.add_argument("--scheme", choices=("uniform", "typed"), help="override the coefficient scheme")

    p = sub.add_parser("translate", help="rank target tags for source tag ids")
    common(p)
    p.add_argument("source_tags", nargs="+", help="source tag node ids (system:tag)")
    p.add_argument("--target-system", required=True, help="tag system to rank")
    p.add_argument("--scorer", choices=("sum", "avg", "baseline"), help="override the scorer")
    p.add_argument("--matrix", help="embedding matrix file (default: retrofitted)")
    p.add_argument("--top", type=int, default=0, help="print only the best N targets")

    p = sub.add_parser("evaluate", help="run the stratified translation experiment")
    common(p)
    p.add_argument("--scorer", choices=("sum", "avg", "baseline"), help="override the scorer")
    p.add_argument("--matrix", help="embedding matrix file (default: retrofitted)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = PipelineConfig.from_file(args.config)
        if args.seed is not None:
            config.seed = args.seed
        if args.command == "build-graph":
            cmd_build_graph(config)
        elif args.command == "embed":
            if args.composition:
                config.composition = args.composition
            cmd_embed(config)
        elif args.command == "retrofit":
            if args.scheme:
                config.scheme = args.scheme
            cmd_retrofit(config)
        elif args.command == "translate":
            cmd_translate(
                config,
                args.source_tags,
                args.target_system,
                scorer=args.scorer,
                matrix_path=args.matrix,
                top=args.top,
            )
        elif args.command == "evaluate":
            cmd_evaluate(config, scorer=args.scorer, matrix_path=args.matrix)
    except (ValueError, OSError) as exc:
        message = " ".join(str(exc).split()) or exc.__class__.__name__
        print(f"error: {message}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
