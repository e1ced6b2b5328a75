"""Translation experiments: stratified folds, ranking AUC, and aggregation.

Items annotated under several tag systems are split into stratified folds.
All evaluated items are translated from the source systems into the target
system in one batch (:func:`genrevec.translate.score_sets`), giving an
items x target-tags score matrix; per fold, every tag column's AUC comes
from tie-averaged rank sums read off that column sorted once, is
macro-averaged over the fold's tags, and the fold averages are summarized
with mean and population standard deviation. :func:`auc_binary` is the
same statistic for one score list.
"""

from __future__ import annotations

import heapq
import logging
import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._lines import iter_json_objects, reading
from .compose import ConceptEmbeddingMatrix
from .genregraph import GenreGraph, has_tokens, tag_node_id
from .translate import score_sets

logger = logging.getLogger(__name__)

DEFAULT_MIN_TAG_COUNT = 16


class CorpusFormatError(ValueError):
    """A corpus stream violates the JSON-lines item format."""


@dataclass
class CorpusItem:
    id: str
    annotations: dict[str, tuple[str, ...]]  # system -> deduplicated tags

    def tags(self, system: str) -> tuple[str, ...]:
        return self.annotations.get(system, ())


@dataclass
class ParallelCorpus:
    """Music items annotated with tags from two or more named systems."""

    items: list[CorpusItem]
    systems: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.items)

    def system_vocabulary(self, system: str) -> list[str]:
        """Sorted distinct tags of one system across the corpus; ValueError if it has none."""
        vocabulary = sorted({tag for item in self.items for tag in item.tags(system)})
        if not vocabulary:
            raise ValueError(f"tag system {system!r} has no tags in the corpus, whose systems are {list(self.systems)}")
        return vocabulary

    def tag_counts(self) -> dict[tuple[str, str], int]:
        counts: dict[tuple[str, str], int] = {}
        for item in self.items:
            for system, tags in item.annotations.items():
                for tag in tags:
                    key = (system, tag)
                    counts[key] = counts.get(key, 0) + 1
        return counts


def load_corpus(
    source: str | os.PathLike,
    min_tag_count: int = DEFAULT_MIN_TAG_COUNT,
) -> ParallelCorpus:
    """Read items from a file of JSON lines of {"id": ..., "annotations": {system: [tags]}}.

    Tags with no alphanumeric content, which no graph node can stand for
    (:func:`genrevec.genregraph.has_tokens`), are dropped with one warning.
    Items then annotated in fewer than two systems are dropped with a warning.
    Items carrying any tag observed fewer than `min_tag_count` times in the
    loaded corpus are then filtered out in one pass (counts taken before
    filtering); pass 0 or 1 to disable. A negative `min_tag_count` raises
    ValueError. CorpusFormatError names the file, the line (and column of a
    byte that is not UTF-8), then the problem.
    """
    if min_tag_count < 0:
        raise ValueError(f"min_tag_count must be nonnegative, got {min_tag_count}")
    items: list[CorpusItem] = []
    seen_ids: set[str] = set()
    usable: dict[tuple[str, str], bool] = {}  # (system, tag) -> whether it has tokens
    thin = 0
    with reading(source, CorpusFormatError):
        for lineno, record in iter_json_objects(source, "corpus", CorpusFormatError):
            if "id" not in record or "annotations" not in record:
                raise CorpusFormatError(f"corpus line {lineno}: expected an object with 'id' and 'annotations'")
            item_id = record["id"]
            raw_annotations = record["annotations"]
            if not isinstance(item_id, str) or not item_id:
                raise CorpusFormatError(f"corpus line {lineno}: invalid item id {item_id!r}")
            if item_id in seen_ids:
                raise CorpusFormatError(f"corpus line {lineno}: duplicate item id {item_id!r}")
            if not isinstance(raw_annotations, dict):
                raise CorpusFormatError(f"corpus line {lineno}: annotations must be an object")
            seen_ids.add(item_id)
            annotations: dict[str, tuple[str, ...]] = {}
            for system, tags in raw_annotations.items():
                if not isinstance(tags, list) or not all(isinstance(t, str) and t for t in tags):
                    raise CorpusFormatError(f"corpus line {lineno}: tags of {system!r} must be nonempty strings")
                for tag in tags:
                    if (system, tag) not in usable:
                        usable[system, tag] = has_tokens(tag)
                deduped = tuple(tag for tag in dict.fromkeys(tags) if usable[system, tag])
                if deduped:
                    annotations[system] = deduped
            if len(annotations) < 2:
                thin += 1
                continue
            items.append(CorpusItem(id=item_id, annotations=annotations))
    tokenless = sum(not ok for ok in usable.values())
    if tokenless:
        logger.warning("dropped %d distinct tags with no alphanumeric content", tokenless)
    if thin:
        logger.warning("dropped %d items annotated in fewer than two systems", thin)

    if min_tag_count > 1 and items:
        counts = ParallelCorpus(items=items, systems=()).tag_counts()
        kept = [
            item for item in items
            if all(counts[(system, tag)] >= min_tag_count
                   for system, tags in item.annotations.items() for tag in tags)
        ]
        if len(kept) != len(items):
            logger.info("minimum tag count %d removed %d items", min_tag_count, len(items) - len(kept))
        items = kept

    systems = tuple(dict.fromkeys(system for item in items for system in item.annotations))
    return ParallelCorpus(items=items, systems=systems)


@dataclass
class FoldAssignment:
    k: int
    assignment: dict[str, int]  # item id -> fold index

    def fold_of(self, item_id: str) -> int:
        return self.assignment[item_id]


def stratified_split(corpus: ParallelCorpus, k: int = 4, seed: int = 0) -> FoldAssignment:
    """Iterative stratification of the multi-label corpus into k folds.

    Repeatedly takes the label (system:tag pair) with the fewest unassigned
    items and deals those items, in corpus order, to the fold with the
    greatest remaining demand for that label; ties go to the fold with the
    greatest remaining capacity, then to a seeded random choice. Balances
    both per-label counts and overall fold sizes. The next label comes off a
    heap of (unassigned count, label) entries, pushed whenever a count drops
    and skipped when stale, so the split scales with the number of
    (item, label) pairs rather than with items times labels.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if k > len(corpus.items):
        raise ValueError(f"k={k} exceeds the number of items ({len(corpus.items)})")
    rng = random.Random(seed)
    item_ids = [item.id for item in corpus.items]
    if len(set(item_ids)) != len(item_ids):
        repeated = next(item_id for item_id, count in Counter(item_ids).items() if count > 1)
        raise ValueError(f"duplicate item id {repeated!r}")
    item_labels = [
        {tag_node_id(system, tag) for system, tags in item.annotations.items() for tag in tags}
        for item in corpus.items
    ]
    # a label is its rank in sorted order, and a heap entry count * len(names) + label,
    # so the smallest entry is the smallest (count, label) pair
    names = sorted(set().union(*item_labels))
    rank = {label: r for r, label in enumerate(names)}
    labels_of = [[rank[label] for label in labels] for labels in item_labels]
    width = len(names)

    remaining: list[set[int]] = [set() for _ in names]  # label -> positions of its unassigned items
    for position, labels in enumerate(labels_of):
        for label in labels:
            remaining[label].add(position)
    demand = [[len(positions) / k] * k for positions in remaining]
    capacity = [len(corpus.items) / k] * k
    heap = [len(positions) * width + label for label, positions in enumerate(remaining)]
    heapq.heapify(heap)
    assignment: list[int | None] = [None] * len(item_ids)

    while heap:
        count, label = divmod(heapq.heappop(heap), width)
        if count != len(remaining[label]) or not count:
            continue  # stale entry, or a label whose items are all dealt
        wants = demand[label]
        for position in sorted(remaining[label]):
            best = max(wants)
            candidates = [f for f in range(k) if wants[f] == best]
            if len(candidates) > 1:
                roomiest = max(capacity[f] for f in candidates)
                candidates = [f for f in candidates if capacity[f] == roomiest]
            fold = candidates[0] if len(candidates) == 1 else rng.choice(candidates)
            assignment[position] = fold
            capacity[fold] -= 1
            for other in labels_of[position]:
                demand[other][fold] -= 1
                others = remaining[other]
                others.discard(position)
                if other != label and others:
                    heapq.heappush(heap, len(others) * width + other)

    # No label deals an item without tags: load_corpus drops such items, but a
    # ParallelCorpus built directly can hold them. Each goes to the roomiest fold.
    for position, fold in enumerate(assignment):
        if fold is None:
            fold = max(range(k), key=lambda f: (capacity[f], -f))
            assignment[position] = fold
            capacity[fold] -= 1
    return FoldAssignment(k=k, assignment=dict(zip(item_ids, assignment)))


def auc_binary(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Ranking AUC via the rank-sum statistic with half credit for ties.

    Equals the fraction of (positive, negative) pairs where the positive
    outscores the negative, counting ties as half a win. Undefined (raises)
    when the labels are all positive or all negative. Ranks are summed by
    :func:`_rank_sum`, as in :func:`evaluate`.
    """
    labels = list(labels)
    if len(scores) != len(labels):
        raise ValueError("scores and labels must have the same length")
    bad = [label for label in labels if label != 0 and label != 1]
    if bad:
        raise ValueError(f"labels must be 0 or 1, got {bad[0]!r}")
    positives = labels.count(1)
    if not 0 < positives < len(labels):
        raise ValueError("AUC undefined: needs at least one positive and one negative label")
    values = np.array(scores, dtype=np.float64)
    wins = _rank_sum(np.sort(values), values[np.array(labels, dtype=bool)]) - positives * (positives + 1) / 2
    return wins / (positives * (len(labels) - positives))


def _rank_sum(ordered: np.ndarray, values: np.ndarray) -> float:
    """Sum of the tie-averaged 1-based ranks of `values` among the sorted `ordered` they are drawn from: with `left`
    entries below and `right` at or below, a value ranks (left + right + 1) / 2, so the sum is exact, as rankdata's."""
    bounds = np.searchsorted(ordered, values, side="left") + np.searchsorted(ordered, values, side="right")
    return (int(bounds.sum()) + len(values)) / 2


def _fold_of(folds: FoldAssignment, item_id: str) -> int:
    try:
        fold = folds.fold_of(item_id)
    except KeyError:
        raise ValueError(f"item {item_id!r} has no fold assignment") from None
    if not 0 <= fold < folds.k:
        raise ValueError(f"item {item_id!r} is assigned to fold {fold}, outside 0..{folds.k - 1}")
    return fold


def _fold_aucs(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per tag column, the AUC of one fold's (items x tags) scores against its labels.

    Returns the AUCs and the mask of qualifying columns, those with both a
    positive and a negative item; the rest read NaN. Mann-Whitney on the
    :func:`_rank_sum` of each column's positives. A column holding NaN reads
    NaN, as under rankdata's default NaN policy.
    """
    count = len(scores)
    positives = labels.sum(axis=0)
    qualifying = (positives > 0) & (positives < count)
    aucs = np.full(scores.shape[1], np.nan)
    if qualifying.any():
        columns, column_labels = scores.T, labels.T
        ordered = np.sort(columns, axis=1)
        rank_sums = np.zeros(scores.shape[1])
        for j in np.flatnonzero(qualifying):
            rank_sums[j] = _rank_sum(ordered[j], columns[j][column_labels[j]])
        rank_sums[np.isnan(ordered[:, -1])] = np.nan  # NaN sorts last
        wins = rank_sums - positives * (positives + 1) / 2
        np.divide(wins, positives * (count - positives), out=aucs, where=qualifying)
    return aucs, qualifying


@dataclass
class EvalReport:
    target_system: str
    source_systems: tuple[str, ...]
    scorer: str
    fold_aucs: tuple[float, ...]
    mean_auc: float
    std_auc: float
    per_tag: dict[str, tuple[float | None, ...]]  # tag -> per-fold AUC, None when degenerate
    items_per_fold: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "target_system": self.target_system,
            "source_systems": list(self.source_systems),
            "scorer": self.scorer,
            "fold_aucs": list(self.fold_aucs),
            "mean_auc": self.mean_auc,
            "std_auc": self.std_auc,
            "items_per_fold": list(self.items_per_fold),
            "per_tag": {tag: list(values) for tag, values in self.per_tag.items()},
        }

    def render_table(self) -> str:
        lines = [
            f"translation {' + '.join(self.source_systems)} -> {self.target_system} ({self.scorer})",
            "fold  items  macro-AUC",
        ]
        for fold, (auc, count) in enumerate(zip(self.fold_aucs, self.items_per_fold)):
            lines.append(f"{fold:>4}  {count:>5}  {auc:9.4f}")
        lines.append(f"mean  {self.mean_auc:.4f} +/- {self.std_auc:.4f}")
        return "\n".join(lines)


def evaluate(
    corpus: ParallelCorpus,
    folds: FoldAssignment,
    target_system: str,
    source_systems: Sequence[str],
    scorer: str = "avg",
    embeddings: ConceptEmbeddingMatrix | None = None,
    graph: GenreGraph | None = None,
) -> EvalReport:
    """Run the cross-system translation experiment over the folds.

    Each evaluated item (one with at least one source-system tag and one
    target-system tag) gets a score for every target-system tag; per fold,
    each tag with both a positive and a negative item yields an AUC, and
    the fold's macro average runs over those tags. Tags degenerate in a fold
    are excluded from its average. `scorer` is "sum", "avg", or "baseline",
    scored for all items in one :func:`score_sets` call. A target or source
    system with no corpus tags raises (:meth:`ParallelCorpus.system_vocabulary`).
    """
    source_systems = list(source_systems)
    if not source_systems:
        raise ValueError("evaluate needs at least one source system")
    if target_system in source_systems:
        raise ValueError(f"target system {target_system!r} cannot also be a source")
    vocabulary = corpus.system_vocabulary(target_system)
    for system in source_systems:
        corpus.system_vocabulary(system)  # raises for a system with no corpus tags
    target_ids = [tag_node_id(target_system, tag) for tag in vocabulary]

    eligible = [
        item for item in corpus.items
        if item.tags(target_system) and any(item.tags(s) for s in source_systems)
    ]

    source_sets = [
        {tag_node_id(system, tag) for system in source_systems for tag in item.tags(system)}
        for item in eligible
    ]
    scores, dropped = score_sets(source_sets, target_ids, embeddings=embeddings, scorer=scorer, graph=graph)
    if dropped.any():
        logger.warning(
            "dropped %d source tags missing from the embedding vocabulary, from %d of %d items",
            int(dropped.sum()), int(np.count_nonzero(dropped)), len(eligible),
        )
        unresolved = sum(len(tags) == lost for tags, lost in zip(source_sets, dropped))
        if unresolved:
            logger.warning(
                "%d items have no source tag in the embedding vocabulary; all their targets score 0", unresolved,
            )

    column = {tag: j for j, tag in enumerate(vocabulary)}
    targets_of = [item.tags(target_system) for item in eligible]
    labels = np.zeros(scores.shape, dtype=bool)
    labels[
        np.repeat(np.arange(len(eligible)), [len(tags) for tags in targets_of]),
        [column[tag] for tags in targets_of for tag in tags],
    ] = True
    fold_of = np.array([_fold_of(folds, item.id) for item in eligible], dtype=np.int64)

    fold_aucs: list[float] = []
    items_per_fold: list[int] = []
    per_tag: dict[str, list[float | None]] = {tag: [] for tag in vocabulary}
    for fold in range(folds.k):
        member = fold_of == fold
        items_per_fold.append(int(np.count_nonzero(member)))
        aucs, qualifying = _fold_aucs(scores[member], labels[member])
        tag_aucs: list[float] = []
        for tag, value, usable in zip(vocabulary, aucs.tolist(), qualifying.tolist()):
            per_tag[tag].append(value if usable else None)
            if usable:
                tag_aucs.append(value)
        if not tag_aucs:
            raise ValueError(f"fold {fold}: no qualifying target tag (need a positive and a negative item)")
        fold_aucs.append(sum(tag_aucs) / len(tag_aucs))

    return EvalReport(
        target_system=target_system,
        source_systems=tuple(source_systems),
        scorer=scorer,
        fold_aucs=tuple(fold_aucs),
        mean_auc=float(np.mean(fold_aucs)),
        std_auc=float(np.std(fold_aucs)),
        per_tag={tag: tuple(values) for tag, values in per_tag.items()},
        items_per_fold=tuple(items_per_fold),
    )
