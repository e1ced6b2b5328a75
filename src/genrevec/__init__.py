"""Multilingual music genre tag embeddings.

Composes tag embeddings from pre-trained aligned word vectors, refines them
against a typed genre knowledge graph, translates tag sets across tag
systems and languages, and evaluates translations with macro-averaged
ranking AUC over stratified folds.
"""

__version__ = "0.1.0"

from .compose import (
    ConceptEmbeddingMatrix,
    compose_avg,
    compose_sif,
    load_matrix,
    principal_direction,
    save_matrix,
)
from .evaluation import (
    EvalReport,
    FoldAssignment,
    ParallelCorpus,
    auc_binary,
    evaluate,
    load_corpus,
    stratified_split,
)
from .genregraph import (
    EQUIVALENCE_RELATIONS,
    RELATIONS,
    GenreEdge,
    GenreGraph,
    GenreNode,
    attach_tag_system,
    filter_graph,
    load_graph,
    load_lemma_table,
    load_saved_graph,
    normalize_tag,
    save_graph,
    tag_node_id,
)
from .retrofit import (
    RetrofitConfig,
    RetrofitResult,
    objective,
    objective_gradient,
    retrofit,
    solve_direct,
)
from .translate import TranslationResult, cosine, translate
from .wordvec import VectorSpace, WordVectorStore, estimate_frequency, load_vectors

__all__ = [
    "ConceptEmbeddingMatrix",
    "EQUIVALENCE_RELATIONS",
    "EvalReport",
    "FoldAssignment",
    "GenreEdge",
    "GenreGraph",
    "GenreNode",
    "ParallelCorpus",
    "RELATIONS",
    "RetrofitConfig",
    "RetrofitResult",
    "TranslationResult",
    "VectorSpace",
    "WordVectorStore",
    "attach_tag_system",
    "auc_binary",
    "compose_avg",
    "compose_sif",
    "cosine",
    "estimate_frequency",
    "evaluate",
    "filter_graph",
    "load_corpus",
    "load_graph",
    "load_lemma_table",
    "load_matrix",
    "load_saved_graph",
    "load_vectors",
    "normalize_tag",
    "objective",
    "objective_gradient",
    "principal_direction",
    "retrofit",
    "save_graph",
    "save_matrix",
    "solve_direct",
    "stratified_split",
    "tag_node_id",
    "translate",
]
