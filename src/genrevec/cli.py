"""Command-line pipeline: build-graph, embed, retrofit, translate, evaluate.

All commands read a declarative JSON config; the flags --composition,
--scheme, --scorer and --seed override the config key of the same name for
one run. Outputs are deterministic for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from ._lines import atomic_write, read_json, reading
from .compose import DEFAULT_SIF_A, ConceptEmbeddingMatrix, check_sif_a, compose_avg, compose_sif
from .compose import load_matrix, save_matrix
from .evaluation import DEFAULT_MIN_TAG_COUNT, EvalReport, evaluate, load_corpus, stratified_split
from .genregraph import attach_tag_system, filter_graph, load_graph, load_lemma_table, load_saved_graph, save_graph
from .retrofit import SCHEMES, RetrofitConfig, retrofit
from .translate import SCORERS, translate
from .wordvec import VectorSpace, load_vectors

logger = logging.getLogger(__name__)

COMPOSITIONS = ("avg", "sif")
# Config keys that a flag of the same name overrides for one run.
OVERRIDES = ("composition", "scheme", "scorer", "seed")


class ConfigError(ValueError):
    """The pipeline config file is malformed."""


# The JSON values each field annotation admits (annotations are strings under
# postponed evaluation); "X | None" also admits null, and a bool is not a number.
_ADMITS = {
    "str": lambda v: isinstance(v, str),
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) in (int, float),
    "list[str]": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "dict[str, str]": lambda v: isinstance(v, dict) and all(isinstance(x, str) for x in v.values()),
}


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
    sif_a: float = DEFAULT_SIF_A
    scheme: str = RetrofitConfig.scheme
    tolerance: float = RetrofitConfig.tolerance
    max_iters: int = RetrofitConfig.max_iters
    scorer: str = "avg"
    folds: int = 4
    seed: int = 0
    min_tag_count: int = DEFAULT_MIN_TAG_COUNT
    tag_systems: list[TagSystemSpec] = field(default_factory=list)
    target_system: str | None = None
    source_systems: list[str] = field(default_factory=list)
    high_confidence: list[str] | None = None

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        """The config in the JSON file at `path`; ConfigError names the path, then the problem."""
        path = Path(path)
        with reading(path, ConfigError):
            payload = read_json(path, ConfigError)
            if not isinstance(payload, dict):
                raise ConfigError("config must be a JSON object")
            unknown, missing = _key_problems(cls, payload)
            if unknown:
                raise ConfigError(f"unknown config keys {unknown}")
            if missing:
                raise ConfigError(f"config key {missing!r} is required")
            systems = payload.pop("tag_systems", [])
            if not isinstance(systems, list) or not all(isinstance(entry, dict) for entry in systems):
                raise ConfigError(f"tag_systems must be a list of objects, got {json.dumps(systems)}")
            for entry in systems:
                unknown, missing = _key_problems(TagSystemSpec, entry)
                if unknown:
                    raise ConfigError(f"unknown tag_systems entry keys {unknown}")
                if missing:
                    raise ConfigError("tag_systems entries need 'name' and 'language'")
            config = cls(**payload, tag_systems=[TagSystemSpec(**entry) for entry in systems])
            config._validate()
            # Relative paths resolve against the config file's directory.
            config.vectors = {lang: _resolve(path.parent, f"vectors.{lang}", p) for lang, p in config.vectors.items()}
            for key in ("graph_nodes", "graph_edges", "corpus", "workdir", "lemma_table"):
                if getattr(config, key) is not None:
                    setattr(config, key, _resolve(path.parent, key, getattr(config, key)))
        return config

    def _validate(self) -> None:
        for record in (self, *self.tag_systems):
            for f in dataclasses.fields(record):
                value, kind = getattr(record, f.name), f.type.removesuffix(" | None")
                if kind in _ADMITS and not (value is None and kind != f.type) and not _ADMITS[kind](value):
                    key = f.name if record is self else f"tag_systems[].{f.name}"
                    raise ConfigError(f"config key {key!r} must be of type {kind}, got {json.dumps(value)}")
        if not self.vectors:
            raise ConfigError("config needs at least one entry under 'vectors'")
        if self.composition not in COMPOSITIONS:
            raise ConfigError(f"composition must be one of {COMPOSITIONS}")
        if self.scorer not in SCORERS:
            raise ConfigError(f"scorer must be one of {SCORERS}")
        if self.folds < 2:
            raise ConfigError("folds must be at least 2")
        attached = {system.name for system in self.tag_systems}
        for role, name in [("target", self.target_system), *(("source", name) for name in self.source_systems)]:
            if name is not None and name not in attached:
                raise ConfigError(f"{role} system {name!r} has no 'tag_systems' entry, so none of its tags is attached")
        try:
            check_sif_a(self.sif_a)  # whatever the composition: embed --composition sif can switch to it
            self.retrofit_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def retrofit_config(self) -> RetrofitConfig:
        return RetrofitConfig(scheme=self.scheme, tolerance=self.tolerance, max_iters=self.max_iters)


def _key_problems(record: type, payload: dict) -> tuple[list[str], str | None]:
    """The keys of `payload` that name no field of the dataclass `record`, sorted, and the first required field it lacks."""
    fields = dataclasses.fields(record)
    unknown = sorted(set(payload) - {f.name for f in fields})
    required = (f.name for f in fields if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
    return unknown, next((name for name in required if name not in payload), None)


def _resolve(base: Path, key: str, value: str) -> str:
    if not value:  # Path("") is the current directory, which would resolve to `base` itself
        raise ConfigError(f"config key {key!r} must not be an empty path")
    p = Path(value)
    return str(p if p.is_absolute() else base / p)


def _artifact(config: PipelineConfig, name: str) -> Path:
    """Path of the named artifact in the work directory, which is created if missing."""
    workdir = Path(config.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    return workdir / name


def _write_json(path: Path, payload: dict) -> None:
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_paired_matrix(matrix_path: Path, graph_path: Path) -> tuple[ConceptEmbeddingMatrix, dict]:
    """Load a matrix file, rejecting it unless it was built against the current graph file."""
    matrix, metadata = load_matrix(matrix_path)
    if metadata.get("graph_sha256") != _sha256(graph_path):
        raise ValueError(
            f"{matrix_path} was not built against the current {graph_path}; "
            "rerun `genrevec embed` (and `genrevec retrofit`) after `genrevec build-graph`"
        )
    return matrix, metadata


def cmd_build_graph(config: PipelineConfig) -> Path:
    """Load, filter, and attach tag systems; write the merged graph."""
    lemma = load_lemma_table(config.lemma_table) if config.lemma_table is not None else {}
    graph = load_graph(config.graph_nodes, config.graph_edges, lemma)
    logger.info("loaded graph: %d nodes, %d edges", graph.node_count, graph.edge_count)
    if config.high_confidence is not None:
        if not config.high_confidence:
            raise ConfigError("'high_confidence' is empty; it would filter out the whole graph")
        missing = next((nid for nid in config.high_confidence if not graph.has_node(nid)), None)
        if missing is not None:
            raise ConfigError(f"'high_confidence' id {missing!r} is not a node of the graph")
        graph = filter_graph(graph, config.high_confidence)
        logger.info("after confidence filter: %d nodes, %d edges", graph.node_count, graph.edge_count)
    languages = sorted({node.language for node in graph.nodes.values()})
    stray = next((system for system in config.tag_systems if system.language not in languages), None)
    if stray is not None:
        raise ConfigError(f"tag system {stray.name!r} has language {stray.language!r}; the graph has {languages}")
    corpus = load_corpus(config.corpus, min_tag_count=config.min_tag_count)
    for system in config.tag_systems:
        tags = corpus.system_vocabulary(system.name)
        graph = attach_tag_system(graph, system.name, tags, system.language)
        logger.info("attached %d tags for system %r", len(tags), system.name)
    destination = _artifact(config, "graph.json")
    save_graph(graph, destination)
    print(f"graph written to {destination} ({graph.node_count} nodes, {graph.edge_count} edges)")
    return destination


def cmd_embed(config: PipelineConfig) -> Path:
    """Compose initial embeddings for every graph node; write the matrix."""
    graph_path = _artifact(config, "graph.json")
    graph = load_saved_graph(graph_path)
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
    destination = _artifact(config, "embeddings.npz")
    metadata = {"composition": config.composition, "sif_a": config.sif_a, "graph_sha256": _sha256(graph_path)}
    save_matrix(matrix, destination, metadata=metadata)
    known = int(matrix.known.sum())
    print(f"embeddings written to {destination} ({known}/{len(matrix)} concepts known)")
    return destination


def cmd_retrofit(config: PipelineConfig) -> Path:
    """Refine the composed embeddings against the graph; write the matrix and, as
    convergence.json, the scheme and every field of the retrofit result but the matrix."""
    graph_path = _artifact(config, "graph.json")
    graph = load_saved_graph(graph_path)
    q_hat, metadata = _load_paired_matrix(_artifact(config, "embeddings.npz"), graph_path)
    result = retrofit(q_hat, graph, config.retrofit_config())
    destination = _artifact(config, "retrofitted.npz")
    save_matrix(result.matrix, destination, metadata={**metadata, "scheme": config.scheme})
    log = {f.name: getattr(result, f.name) for f in dataclasses.fields(result) if f.name != "matrix"}
    _write_json(_artifact(config, "convergence.json"), {"scheme": config.scheme, **log})
    outcome = "converged in" if result.converged else "not converged after"
    print(
        f"retrofitted embeddings written to {destination} "
        f"({outcome} {result.iterations} iterations, delta={result.final_delta:.3e})"
    )
    return destination


def _load_translation_inputs(config: PipelineConfig, matrix_path: str | None):
    graph_path = _artifact(config, "graph.json")
    graph = load_saved_graph(graph_path)
    embeddings = None
    if config.scorer != "baseline":
        path = Path(matrix_path) if matrix_path else _artifact(config, "retrofitted.npz")
        embeddings, _ = _load_paired_matrix(path, graph_path)
    return graph, embeddings


def cmd_translate(
    config: PipelineConfig,
    source_tags: list[str],
    target_system: str,
    matrix_path: str | None = None,
    top: int = 0,
) -> None:
    """Print the ranked target-system tags for the given source tag ids."""
    if top < 0:
        raise ValueError(f"--top must be nonnegative, got {top}")
    graph, embeddings = _load_translation_inputs(config, matrix_path)
    targets = graph.system_tags(target_system)
    if not targets:
        raise ValueError(f"no tags attached for target system {target_system!r}")
    result = translate(source_tags, targets, embeddings=embeddings, scorer=config.scorer, graph=graph)
    ranking = result.ranking[:top] if top else result.ranking
    for position, tag in enumerate(ranking, start=1):
        print(f"{position}\t{tag}\t{result.scores[tag]:.6f}")


def cmd_evaluate(config: PipelineConfig, matrix_path: str | None = None) -> EvalReport:
    """Run the stratified translation experiment; write and print the report."""
    if not config.target_system or not config.source_systems:
        raise ConfigError("evaluate needs 'target_system' and 'source_systems' in the config")
    corpus = load_corpus(config.corpus, min_tag_count=config.min_tag_count)
    folds = stratified_split(corpus, k=config.folds, seed=config.seed)
    graph, embeddings = _load_translation_inputs(config, matrix_path)
    report = evaluate(
        corpus,
        folds,
        config.target_system,
        config.source_systems,
        scorer=config.scorer,
        embeddings=embeddings,
        graph=graph,
    )
    destination = _artifact(config, "report.json")
    _write_json(destination, report.to_dict())
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

    p = sub.add_parser("build-graph", help="ingest, filter, and attach tag systems")
    common(p)

    p = sub.add_parser("embed", help="compose initial concept embeddings")
    common(p)
    p.add_argument("--composition", choices=COMPOSITIONS, help="override the composition strategy")

    p = sub.add_parser("retrofit", help="refine embeddings against the graph")
    common(p)
    p.add_argument("--scheme", choices=SCHEMES, help="override the coefficient scheme")

    p = sub.add_parser("translate", help="rank target tags for source tag ids")
    common(p)
    p.add_argument("source_tags", nargs="+", help="source tag node ids (system:tag)")
    p.add_argument("--target-system", required=True, help="tag system to rank")
    p.add_argument("--scorer", choices=SCORERS, help="override the scorer")
    p.add_argument("--matrix", help="embedding matrix file (default: retrofitted)")
    p.add_argument("--top", type=int, default=0, help="print only the best N targets")

    p = sub.add_parser("evaluate", help="run the stratified translation experiment")
    common(p)
    p.add_argument("--scorer", choices=SCORERS, help="override the scorer")
    p.add_argument("--matrix", help="embedding matrix file (default: retrofitted)")
    p.add_argument("--seed", type=int, help="override the config seed of the fold split")
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
        for key in OVERRIDES:
            if getattr(args, key, None) is not None:
                setattr(config, key, getattr(args, key))
        if args.command == "translate":
            cmd_translate(config, args.source_tags, args.target_system, matrix_path=args.matrix, top=args.top)
        elif args.command == "evaluate":
            cmd_evaluate(config, matrix_path=args.matrix)
        else:
            {"build-graph": cmd_build_graph, "embed": cmd_embed, "retrofit": cmd_retrofit}[args.command](config)
    except (ValueError, OSError) as exc:
        message = " ".join(str(exc).split()) or exc.__class__.__name__
        print(f"error: {message}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
