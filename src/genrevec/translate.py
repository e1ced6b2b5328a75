"""Scoring and ranking of target tags for a set of source tags.

Scores are cosine similarities over concept embeddings, aggregated by sum or
mean across the source set, or shortest-path relatedness over the genre
graph for the baseline. :func:`score_sets` scores many source sets against
one target list in one pass, as evaluation does; :func:`translate` is its
one-set call, with ranking. The row-normalized target rows are memoized on
the embedding matrix for the latest target list, as ``hop_counts`` memoizes
hop rows on the graph, so repeated calls with one target list pay only for
their sources. The scalar :func:`cosine` gives the same similarity for one
pair of vectors.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .compose import ConceptEmbeddingMatrix
from .genregraph import GenreGraph, hop_counts

logger = logging.getLogger(__name__)

SCORERS = ("sum", "avg", "baseline")


@dataclass
class TranslationResult:
    scores: dict[str, float]
    ranking: list[str]


def cosine(u, v) -> float:
    """Cosine similarity, defined as 0 when either vector has zero norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    norm_u = np.linalg.norm(u)
    norm_v = np.linalg.norm(v)
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    value = float(np.dot(u, v) / (norm_u * norm_v))
    return max(-1.0, min(1.0, value))


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    return matrix / safe[:, None]


def _lex_rank(targets: Sequence[str]) -> np.ndarray:
    """Each target's position in lexicographic order: the ranking's tie-break key."""
    rank = np.empty(len(targets), dtype=np.intp)
    rank[sorted(range(len(targets)), key=targets.__getitem__)] = np.arange(len(targets))
    return rank


def _target_block(embeddings: ConceptEmbeddingMatrix, targets: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The row-normalized rows of `targets` and their lexicographic ranks, both read-only.

    Memoized on the matrix for the latest target list; the matrix's vectors
    are read-only, so the memo cannot go stale. Another list replaces it.
    """
    key = tuple(targets)
    memo = embeddings._target_memo
    if memo is not None and memo[0] == key:
        return memo[1], memo[2]
    try:
        target_index = [embeddings.index_of(t) for t in targets]
    except KeyError:
        missing = next(t for t in targets if t not in embeddings)
        raise ValueError(f"unresolvable target tag {missing!r}") from None
    block = _normalize_rows(embeddings.vectors[target_index])
    lex_rank = _lex_rank(key)
    block.flags.writeable = lex_rank.flags.writeable = False
    embeddings._target_memo = key, block, lex_rank
    return block, lex_rank


def score_sets(
    source_sets: Sequence[Iterable[str]],
    targets: Sequence[str],
    embeddings: ConceptEmbeddingMatrix | None = None,
    scorer: str = "avg",
    graph: GenreGraph | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Score every target tag for each source tag set, in one pass.

    `targets` must be distinct. Returns a (sets x targets) score matrix,
    columns in the order of `targets`, and per set the number of distinct
    source tags dropped as missing from the embedding matrix (always 0 for
    "baseline"). Each set is scored as its sorted distinct tags, exactly as
    :func:`translate` scores it.

    "sum"/"avg": targets are checked and row-normalized once, and that block
    is memoized on the matrix for the latest target list, so a later call
    with the same targets reuses it; each distinct source is normalized
    once; each distinct tuple of resolved sources is multiplied against the
    targets once and its cosine rows summed, and divided by its size for
    "avg"; later sets with the same resolved tuple copy that row. A set
    with no resolved source scores 0 everywhere.
    "baseline" takes one hop row per distinct source from
    :func:`~genrevec.genregraph.hop_counts`, which searches only sources the
    graph has not memoized for these targets, and averages 1/(1 + hops) over
    the set, requiring every id to be a graph node.
    """
    if scorer not in SCORERS:
        raise ValueError(f"scorer must be one of {SCORERS}, got {scorer!r}")
    rows = [sorted(set(tags)) for tags in source_sets]
    if not all(rows):
        raise ValueError("source tag set must be nonempty")
    scores = np.zeros((len(rows), len(targets)))
    dropped = np.zeros(len(rows), dtype=np.int64)
    if not rows:
        return scores, dropped

    if scorer == "baseline":
        if graph is None:
            raise ValueError("the baseline scorer requires the genre graph")
        # first-seen order, so an unknown id is reported as in the rows
        distinct = list(dict.fromkeys(chain(*rows)))
        relatedness = dict(zip(distinct, 1.0 / (1.0 + hop_counts(graph, distinct, targets))))
        for i, row in enumerate(rows):
            scores[i] = sum(relatedness[source] for source in row) / len(row)
        return scores, dropped

    if embeddings is None:
        raise ValueError(f"the {scorer!r} scorer requires an embedding matrix")
    target_matrix = _target_block(embeddings, targets)[0]
    resolved_rows = [tuple(s for s in row if s in embeddings) for row in rows]
    dropped[:] = [len(row) - len(resolved) for row, resolved in zip(rows, resolved_rows)]

    distinct = sorted({tag for resolved in resolved_rows for tag in resolved})
    position = {tag: i for i, tag in enumerate(distinct)}
    source_matrix = _normalize_rows(embeddings.vectors[[embeddings.index_of(s) for s in distinct]])
    # One product per distinct set rather than slices of one shared cosine
    # block: BLAS rounds an entry differently depending on the shape of the
    # product it belongs to, and this keeps every score equal to a one-set
    # call. A set seen before copies the row of its first occurrence.
    first_row: dict[tuple[str, ...], int] = {}
    for i, resolved in enumerate(resolved_rows):
        if not resolved:
            continue
        first = first_row.setdefault(resolved, i)
        if first != i:
            scores[i] = scores[first]
        else:
            values = (source_matrix[[position[s] for s in resolved]] @ target_matrix.T).sum(axis=0)
            scores[i] = values / len(resolved) if scorer == "avg" else values
    return scores, dropped


def translate(
    source_tags: Iterable[str],
    targets: Iterable[str],
    embeddings: ConceptEmbeddingMatrix | None = None,
    scorer: str = "avg",
    graph: GenreGraph | None = None,
) -> TranslationResult:
    """Score every target tag for the given source tag set and rank them.

    A one-set call of :func:`score_sets`. With the "sum"/"avg" scorers,
    targets must resolve in the embedding matrix; source tags missing from
    it are dropped (with a warning), and if none remain every target scores
    0. The "baseline" scorer averages shortest-path relatedness over the
    graph instead, and requires every id to be a graph node. Ranking ties
    break lexicographically (``-0.0`` ties with ``0.0``), in one
    ``np.lexsort``; the embedding scorers read each target's lexicographic
    rank from the matrix's target memo, and "baseline" computes it per call.
    """
    sources = set(source_tags)
    target_list = list(dict.fromkeys(targets))
    matrix, dropped = score_sets([sources], target_list, embeddings=embeddings, scorer=scorer, graph=graph)
    if dropped[0]:
        logger.warning("dropped %d source tags missing from the embedding vocabulary", dropped[0])
        if dropped[0] == len(sources):
            logger.warning("no source tag resolved; all targets score 0")
    row = matrix[0]
    lex_rank = _lex_rank(target_list) if scorer == "baseline" else _target_block(embeddings, target_list)[1]
    scores = dict(zip(target_list, row.tolist()))
    ranking = [target_list[i] for i in np.lexsort((lex_rank, -row)).tolist()]
    return TranslationResult(scores=scores, ranking=ranking)
