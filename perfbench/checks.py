"""Output checks against references computed independently of the library.

Each check returns a list of failure messages; an empty list means the
output is correct.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.stats import rankdata

from genrevec.genregraph import tag_node_id

AUC_TOLERANCE = 1e-12
SCORE_TOLERANCE = 1e-9


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    return vectors / np.where(norms == 0.0, 1.0, norms)


class ScoreReference:
    """Summed or averaged cosine of each target to the resolved sources, by matrix product."""

    def __init__(self, embeddings, targets):
        self.embeddings = embeddings
        self.target_rows = _unit_rows(embeddings.vectors[[embeddings.index_of(t) for t in targets]])

    def scores(self, sources, scorer: str) -> np.ndarray:
        resolved = sorted({s for s in sources if s in self.embeddings})
        if not resolved:
            return np.zeros(self.target_rows.shape[0])
        source_rows = _unit_rows(self.embeddings.vectors[[self.embeddings.index_of(s) for s in resolved]])
        values = (source_rows @ self.target_rows.T).sum(axis=0)
        return values / len(resolved) if scorer == "avg" else values


def check_report(report, corpus, folds, embeddings, config) -> list[str]:
    """Per-tag AUC as the Mann-Whitney statistic from scipy ranks, and the fold and mean averages."""
    target, source_systems = config.target_system, config.source_systems
    vocabulary = corpus.system_vocabulary(target)
    target_ids = [tag_node_id(target, tag) for tag in vocabulary]
    eligible = [item for item in corpus.items
                if item.tags(target) and any(item.tags(s) for s in source_systems)]
    concepts = set(embeddings.concepts)
    reference = ScoreReference(embeddings, target_ids)
    cache: dict[tuple, np.ndarray] = {}
    rows = []
    for item in eligible:
        key = tuple(sorted({tag_node_id(s, t) for s in source_systems for t in item.tags(s)} & concepts))
        if key not in cache:
            cache[key] = reference.scores(key, config.scorer)
        rows.append(cache[key])
    scores = np.vstack(rows)
    labels = np.array([[tag in item.tags(target) for tag in vocabulary] for item in eligible])
    fold_of = np.array([folds.fold_of(item.id) for item in eligible])

    failures = []
    fold_aucs = []
    for fold in range(folds.k):
        member = fold_of == fold
        fold_scores, fold_labels = scores[member], labels[member]
        positives = fold_labels.sum(axis=0)
        negatives = member.sum() - positives
        ranks = rankdata(fold_scores, axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            auc = ((ranks * fold_labels).sum(axis=0) - positives * (positives + 1) / 2) / (positives * negatives)
        defined = (positives > 0) & (negatives > 0)
        for column, tag in enumerate(vocabulary):
            got = report.per_tag[tag][fold]
            if not defined[column]:
                if got is not None:
                    failures.append(f"fold {fold} tag {tag!r}: AUC {got} where none is defined")
            elif got is None or abs(got - auc[column]) > AUC_TOLERANCE:
                failures.append(f"fold {fold} tag {tag!r}: AUC {got} != reference {auc[column]}")
        fold_aucs.append(float(auc[defined].mean()))
        if abs(report.fold_aucs[fold] - fold_aucs[-1]) > AUC_TOLERANCE:
            failures.append(f"fold {fold}: macro-AUC {report.fold_aucs[fold]} != reference {fold_aucs[-1]}")
    if abs(report.mean_auc - float(np.mean(fold_aucs))) > AUC_TOLERANCE:
        failures.append(f"mean AUC {report.mean_auc} != reference {np.mean(fold_aucs)}")
    return failures[:5]


def check_retrofit(built, tolerance: float) -> list[str]:
    failures = []
    if not built.result.final_delta <= tolerance:
        failures.append(f"retrofit stopped at delta {built.result.final_delta} above tolerance {tolerance}")
    if not built.objective_final <= built.objective_initial:
        failures.append(f"objective rose from {built.objective_initial} to {built.objective_final}")
    return failures


class HopReference:
    """Unweighted undirected shortest paths over a graph, from scipy's csgraph."""

    def __init__(self, graph):
        ids = graph.node_ids()
        self.index = {node_id: i for i, node_id in enumerate(ids)}
        src = [self.index[e.src] for e in graph.edges]
        dst = [self.index[e.dst] for e in graph.edges]
        self.adjacency = csr_matrix((np.ones(len(src)), (src, dst)), shape=(len(ids), len(ids)))

    def scores(self, sources, targets) -> np.ndarray:
        rows = sorted({self.index[s] for s in sources})
        hops = shortest_path(self.adjacency, directed=False, unweighted=True, indices=rows)
        hops = hops[:, [self.index[t] for t in targets]]
        return np.where(np.isinf(hops), 0.0, 1.0 / (1.0 + hops)).mean(axis=0)


def check_translation(result, sources, targets, scorer, scores: ScoreReference, hops: HopReference) -> list[str]:
    if scorer == "baseline":
        expected = hops.scores(sources, targets)
        tolerance = AUC_TOLERANCE
    else:
        expected = scores.scores(sources, scorer)
        tolerance = SCORE_TOLERANCE
    got = np.array([result.scores[t] for t in targets])
    failures = []
    worst = float(np.max(np.abs(got - expected))) if len(targets) else 0.0
    if worst > tolerance:
        failures.append(f"{scorer} scores differ from the reference by {worst:.3e}")
    ranked = [result.scores[t] for t in result.ranking]
    if sorted(result.ranking) != sorted(targets) or any(a < b for a, b in zip(ranked, ranked[1:])):
        failures.append(f"{scorer} ranking is not the targets in descending score order")
    return failures
