"""Scoring and ranking of target tags for a set of source tags.

Scores are cosine similarities over concept embeddings, aggregated by sum or
mean across the source set, or shortest-path relatedness over the genre
graph for the baseline. :func:`score_sets` scores many source sets against
one target list in one pass, as evaluation does; :func:`translate` is its
one-set call, with ranking. What depends only on the target list is built
once per list, as one :class:`TargetMemo` that its scorer's input keeps (see
:func:`_memo`): the matrix for "sum"/"avg", holding a :class:`CosineTable`,
and the graph for "baseline", holding a :class:`HopTable`. Each table keeps
one read-only row over the targets per source read so far, and every scorer
scores a set as the sum of its sources' rows. Both memos also hold the
targets' lexicographic ranks and the targets as an object array, which a
ranking reads. So a repeated target list costs a call only the sources it
has not read yet. The scalar :func:`cosine` gives the same similarity for
one pair of vectors.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .compose import ConceptEmbeddingMatrix
from .genregraph import GenreGraph, hop_counts, hop_levels

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


class CosineTable(NamedTuple):
    """The "sum"/"avg" table for one target list (see :func:`score_sets`)."""

    block: np.ndarray  # the targets' read-only row-normalized rows
    rows: dict[str, np.ndarray]  # source -> its read-only cosine row, for each source read so far


class HopTable(NamedTuple):
    """The baseline's table for one target list (see :func:`score_sets`)."""

    rows: dict[str, np.ndarray]  # source -> its read-only 1/(1 + hops) row, for each source read so far
    levels: np.ndarray | None = None  # once filled, every node's hop counts to the targets, from hop_levels


class TargetMemo(NamedTuple):
    """What a scorer's input keeps for the target list of its latest call (see :func:`_memo`)."""

    key: tuple[str, ...]  # the target list as the call gave it
    targets: tuple[str, ...]  # its distinct ids, in first-seen order
    table: CosineTable | HopTable  # the scorer's rows, one per source read so far
    lex_rank: np.ndarray  # each target's position in lexicographic order
    names: np.ndarray  # the targets as an object array


def _memo(owner, key: tuple[str, ...], build: Callable[[tuple[str, ...]], CosineTable | HopTable]) -> TargetMemo:
    """`owner`'s memo for the target list `key`, built around ``build(targets)`` when it holds another list or none.

    Keyed by the list as given, so a hit costs no deduplication and a list
    changed in place is not served stale; the memo's `targets` are the
    list's distinct ids, which ``build`` receives. Another list replaces the
    memo. If ``build`` raises, the memo the owner held stays. The arrays are
    read-only.
    """
    memo = owner._target_memo
    if memo is None or memo.key != key:
        targets = tuple(dict.fromkeys(key))
        table = build(targets)
        lex_rank = np.empty(len(targets), dtype=np.intp)
        lex_rank[sorted(range(len(targets)), key=targets.__getitem__)] = np.arange(len(targets))
        names = np.empty(len(targets), dtype=object)
        names[:] = targets
        lex_rank.flags.writeable = names.flags.writeable = False
        memo = owner._target_memo = TargetMemo(key, targets, table, lex_rank, names)
    return memo


def _cosine_table(embeddings: ConceptEmbeddingMatrix, targets: tuple[str, ...]) -> CosineTable:
    """The targets' table with no row yet; ValueError naming the first unresolvable target."""
    try:
        target_index = [embeddings.index_of(t) for t in targets]
    except KeyError:
        missing = next(t for t in targets if t not in embeddings)
        raise ValueError(f"unresolvable target tag {missing!r}") from None
    block = _normalize_rows(embeddings.vectors[target_index])
    block.flags.writeable = False
    return CosineTable(block, {})


def _relatedness(sources: list[str], hops: np.ndarray) -> dict[str, np.ndarray]:
    """Each source's read-only 1/(1 + hops) row, from its row of `hops` (inf where unreachable)."""
    rows = 1.0 / (1.0 + hops)
    rows.flags.writeable = False
    return dict(zip(sources, rows))


def score_sets(
    source_sets: Sequence[Iterable[str]],
    targets: Sequence[str],
    embeddings: ConceptEmbeddingMatrix | None = None,
    scorer: str = "avg",
    graph: GenreGraph | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Score every target tag for each source tag set, in one pass.

    `targets` must be distinct: a repeated id raises, naming it. Returns a
    (sets x targets) score matrix, columns in the order of `targets`, and
    per set the number of distinct source tags dropped as missing from the
    embedding matrix (always 0 for "baseline"). Each set is scored as its
    sorted distinct tags, exactly as :func:`translate` scores it: the sum of
    its sources' rows in the scorer's table, in that order, divided by its
    size for "avg" and "baseline". A row depends only on the scorer's input,
    the target list and its source, never on the other sources or calls.

    "sum"/"avg": the matrix's :class:`CosineTable` row-normalizes the
    targets once per list. Each source it has not read is normalized alike
    and multiplied against them on its own, so the table grows to at most
    (distinct sources read) x (targets) float64. A set with no source in
    the matrix scores 0 everywhere.
    "baseline": the graph's :class:`HopTable` holds 1/(1 + hops) rows. The
    call that builds the table searches only its own distinct sources, so a
    one-shot call stays cheap; the first later call that brings a source not
    searched yet fills the table with one search from the targets, which
    gives every node's row, since paths are undirected; after that no call
    on this graph and list searches. Searches run
    :func:`~genrevec.genregraph.hop_levels`. Every id must be a graph node,
    and an unknown source is named before an unknown target.
    """
    key = tuple(targets)
    scores, dropped, memo = _score(source_sets, key, embeddings, scorer, graph)
    if len(memo.targets if memo else dict.fromkeys(key)) != len(key):
        repeated = next(t for i, t in enumerate(key) if t in key[:i])
        raise ValueError(f"repeated target tag {repeated!r}")
    return scores, dropped


def _score(
    source_sets: Sequence[Iterable[str]],
    key: tuple[str, ...],
    embeddings: ConceptEmbeddingMatrix | None,
    scorer: str,
    graph: GenreGraph | None,
) -> tuple[np.ndarray, np.ndarray, TargetMemo | None]:
    """:func:`score_sets` of the target list `key`, plus the scorer's memo for it (None when there is no set)."""
    if scorer not in SCORERS:
        raise ValueError(f"scorer must be one of {SCORERS}, got {scorer!r}")
    rows = [sorted(set(tags)) for tags in source_sets]
    if not all(rows):
        raise ValueError("source tag set must be nonempty")
    dropped = np.zeros(len(rows), dtype=np.int64)
    if not rows:
        return np.zeros((0, len(key))), dropped, None

    if scorer == "baseline":
        if graph is None:
            raise ValueError("the baseline scorer requires the genre graph")
        # first-seen order, so an unknown id is reported as in the rows
        distinct = list(dict.fromkeys(chain(*rows)))
        memo = _memo(graph, key, lambda targets: HopTable(_relatedness(distinct, hop_counts(graph, distinct, targets))))
        table = memo.table
        missing = [source for source in distinct if source not in table.rows]
        if missing:
            positions = graph._positions(missing)  # an unknown source fails the call before any search
            if table.levels is None:  # paths are undirected: one search from the targets gives every node's row
                table = HopTable(table.rows, hop_levels(graph, memo.targets))
                memo = graph._target_memo = memo._replace(table=table)
            found = table.levels[positions]
            table.rows.update(_relatedness(missing, np.where(found == graph.node_count, np.inf, found)))
    else:
        if embeddings is None:
            raise ValueError(f"the {scorer!r} scorer requires an embedding matrix")
        memo = _memo(embeddings, key, lambda targets: _cosine_table(embeddings, targets))
        table = memo.table
        resolved = [[source for source in row if source in embeddings] for row in rows]
        dropped[:] = [len(row) - len(kept) for row, kept in zip(rows, resolved)]
        rows = resolved
        for source in chain(*rows):
            if source not in table.rows:  # one product of the same shape per source, normalized as the targets are
                cosines = table.block @ _normalize_rows(embeddings.vectors[[embeddings.index_of(source)]])[0]
                cosines.flags.writeable = False
                table.rows[source] = cosines

    scores = np.zeros((len(rows), len(memo.targets)))
    for i, row in enumerate(rows):
        if row:
            total = sum(table.rows[source] for source in row)
            scores[i] = total if scorer == "sum" else total / len(row)
    return scores, dropped, memo


def translate(
    source_tags: Iterable[str],
    targets: Iterable[str],
    embeddings: ConceptEmbeddingMatrix | None = None,
    scorer: str = "avg",
    graph: GenreGraph | None = None,
) -> TranslationResult:
    """Score every target tag for the given source tag set and rank them.

    A one-set call of :func:`score_sets`, except that a repeated target is
    scored once, at its first position. With the "sum"/"avg" scorers,
    targets must resolve in the embedding matrix; source tags missing from
    it are dropped (with a warning), and if none remain every target scores
    0. The "baseline" scorer averages shortest-path relatedness over the
    graph instead, and requires every id to be a graph node. Ranking ties
    break lexicographically (``-0.0`` ties with ``0.0``): one ``np.lexsort``
    on the targets' lexicographic ranks and the negated scores, then one
    gather from the targets' object array. Both arrays come from the
    scorer's :class:`TargetMemo`, which the call reads once.
    """
    sources = set(source_tags)
    matrix, dropped, memo = _score([sources], tuple(targets), embeddings, scorer, graph)
    if dropped[0]:
        logger.warning("dropped %d source tags missing from the embedding vocabulary", dropped[0])
        if dropped[0] == len(sources):
            logger.warning("no source tag resolved; all targets score 0")
    row = matrix[0]
    scores = dict(zip(memo.targets, row.tolist()))
    ranking = memo.names[np.lexsort((memo.lex_rank, -row))].tolist()
    return TranslationResult(scores=scores, ranking=ranking)
