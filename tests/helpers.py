"""Shared fixture builders and reference oracles for the test suite."""

from __future__ import annotations

import importlib
import itertools
import json
import random
import tempfile
from collections import Counter, deque
from pathlib import Path
from types import SimpleNamespace
from typing import IO, Iterable, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.stats import rankdata

from genrevec import genregraph
from genrevec.compose import ConceptEmbeddingMatrix
from genrevec.evaluation import CorpusItem, FoldAssignment, ParallelCorpus
from genrevec.genregraph import EQUIVALENCE_RELATIONS, RELATIONS, GenreGraph, hop_counts, tag_node_id
from genrevec.retrofit import RetrofitConfig, RetrofitResult, _check_alignment, _objective, _strength, _weights
from genrevec.translate import TargetMemo, TranslationResult, _memo, cosine
from genrevec.wordvec import VectorSpace, WordVectorStore, load_vectors


# One directory for every text_file, removed when the interpreter exits.
_TEXT_FILES = tempfile.TemporaryDirectory(prefix="genrevec-tests-")


def data_file(data: bytes) -> Path:
    """A new file holding `data`, for the loaders, which read paths."""
    descriptor, name = tempfile.mkstemp(suffix=".txt", dir=_TEXT_FILES.name)
    with open(descriptor, "wb") as handle:
        handle.write(data)
    return Path(name)


def text_file(text: str) -> Path:
    """A new file holding `text` unchanged (UTF-8, no newline translation)."""
    return data_file(text.encode("utf-8"))


def make_store(entries: list[tuple[str, list[float]]]) -> WordVectorStore:
    """Store from (word, vector) pairs, ranks in list order."""
    dim = len(entries[0][1])
    lines = [f"{len(entries)} {dim}"]
    for word, vector in entries:
        lines.append(word + " " + " ".join(str(x) for x in vector))
    return load_vectors(text_file("\n".join(lines) + "\n"))


FIXTURE_STORE_ENTRIES = [
    ("rock", [1.0, 0.0, 0.0]),
    ("pop", [0.0, 1.0, 0.0]),
    ("dance", [1.0, 0.0, 0.0]),
    ("jazz", [0.0, 0.0, 1.0]),
]


def fixture_store() -> WordVectorStore:
    return make_store(FIXTURE_STORE_ENTRIES)


def one_language(tokens_per_concept: dict, store: WordVectorStore, language: str = "en") -> tuple:
    """Composition arguments with every concept in one language: (tokens, a space of `store` alone, languages)."""
    return tokens_per_concept, VectorSpace({language: store}), dict.fromkeys(tokens_per_concept, language)


def _bare_node(node_id: str, language: str = "en") -> dict:
    """Node record of `bare_graph`: the id as label, and one token, its alphanumerics lowercased."""
    token = "".join(ch for ch in node_id.lower() if ch.isalnum()) or "x"
    return {"id": node_id, "lang": language, "label": node_id, "tokens": [token]}


def _edge_records(edges: Iterable[tuple[str, str, str]]) -> list[dict]:
    return [{"src": src, "dst": dst, "rel": relation} for src, dst, relation in edges]


def bare_graph(node_ids: list[str], edges: list[tuple[str, str, str]], language: str = "en") -> GenreGraph:
    """Graph with synthetic single-token nodes, for retrofit/path tests."""
    nodes = [_bare_node(node_id, language) for node_id in node_ids]
    return GenreGraph.from_dict({"nodes": nodes, "edges": _edge_records(edges)})


def extended_graph(graph: GenreGraph, node_ids: Sequence[str] = (), edges: Sequence[tuple] = ()) -> GenreGraph:
    """A new graph from `graph`'s records, then `bare_graph`'s English nodes of `node_ids`, then `edges`."""
    payload = graph.to_dict()
    payload["nodes"] += [_bare_node(node_id) for node_id in node_ids]
    payload["edges"] += _edge_records(edges)
    return GenreGraph.from_dict(payload)


def rebuilding_filter_graph(graph: GenreGraph, high_confidence) -> GenreGraph:
    """Oracle of `filter_graph`: `GenreGraph.from_dict` over the records of the kept components."""
    wanted = set(high_confidence)
    keep: set[str] = set()
    for component in graph.connected_components():
        if component & wanted:
            keep |= component
    payload = graph.to_dict()
    payload["nodes"] = [record for record in payload["nodes"] if record["id"] in keep]
    payload["edges"] = [record for record in payload["edges"] if record["src"] in keep and record["dst"] in keep]
    return GenreGraph.from_dict(payload)


def write_nodes_jsonl(graph: GenreGraph, target: IO[str]) -> None:
    """Emit nodes in the ingestion format (id, lang, label)."""
    for node in graph.nodes.values():
        json.dump({"id": node.id, "lang": node.language, "label": node.raw_label}, target, ensure_ascii=False)
        target.write("\n")


def write_edges_jsonl(graph: GenreGraph, target: IO[str]) -> None:
    """Emit edges in the ingestion format (src, dst, rel)."""
    for edge in graph.edges:
        json.dump({"src": edge.src, "dst": edge.dst, "rel": edge.relation}, target, ensure_ascii=False)
        target.write("\n")


def _undirected_neighbors(graph: GenreGraph) -> dict[str, set[str]]:
    neighbors: dict[str, set[str]] = {nid: set() for nid in graph.nodes}
    for edge in graph.edges:
        neighbors[edge.src].add(edge.dst)
        neighbors[edge.dst].add(edge.src)
    return neighbors


def neighbors(graph: GenreGraph, node_id: str) -> tuple[str, ...]:
    """The node's distinct neighbours in either direction, as sorted ids, read from the adjacency.

    KeyError for an unknown id, as ``graph.degree`` raises.
    """
    ids, _, _, matrix = graph._structure()
    return tuple(sorted(ids[j] for j in matrix[graph._positions([node_id], KeyError)[0]].indices))


def bfs_hops(graph: GenreGraph, source: str) -> dict[str, int]:
    """Oracle: hop counts from `source` to every reachable node, ignoring direction (Python BFS)."""
    if not graph.has_node(source):
        raise ValueError(f"unknown node id {source!r}")
    neighbors = _undirected_neighbors(graph)
    hops = {source: 0}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for neighbor in neighbors[current]:
            if neighbor not in hops:
                hops[neighbor] = hops[current] + 1
                queue.append(neighbor)
    return hops


def per_source_hop_counts(graph: GenreGraph, sources: Sequence[str], targets: Sequence[str]) -> np.ndarray:
    """Oracle: hop_counts with one shortest-path call per source."""
    source_positions = graph._positions(sources)
    target_positions = graph._positions(targets)
    matrix = graph._structure()[3]
    hops = np.empty((len(source_positions), len(target_positions)))
    for row, i in enumerate(source_positions):
        hops[row] = csgraph.shortest_path(matrix, unweighted=True, indices=i)[target_positions]
    return hops


def record_searches(monkeypatch) -> list[list[int]]:
    """Record, for the rest of the test, the source positions of every block search `hop_levels` runs."""
    calls = []
    search = genregraph._search_block

    def recorded(adjacency, positions):
        calls.append(positions.tolist())
        return search(adjacency, positions)

    monkeypatch.setattr(genregraph, "_search_block", recorded)
    return calls


def unstored_memo(owner, key: tuple[str, ...], build) -> TargetMemo:
    """Stand-in for `translate._memo` that builds the memo on every call and never stores it on `owner`."""
    return _memo(SimpleNamespace(_target_memo=None), key, build)


def count_memo_builds(monkeypatch) -> Counter:
    """Count, for the rest of the test, the memos `translate._memo` builds, per (owner type, target list)."""
    builds = Counter()

    def counted(owner, key, build):
        def counted_build(targets):
            table = build(targets)
            builds[type(owner), key] += 1
            return table

        return _memo(owner, key, counted_build)

    # the package exports the function translate, which hides the module of that name
    monkeypatch.setattr(importlib.import_module("genrevec.translate"), "_memo", counted)
    return builds


def bfs_components(graph: GenreGraph) -> list[frozenset[str]]:
    """Oracle: undirected components by Python BFS, ordered by their smallest member id."""
    seen: set[str] = set()
    components = []
    for start in graph.nodes:
        if start not in seen:
            members = frozenset(bfs_hops(graph, start))
            seen |= members
            components.append(members)
    return sorted(components, key=min)


def vector(matrix: ConceptEmbeddingMatrix, concept: str) -> np.ndarray:
    """The embedding row of `concept`; KeyError for an id the matrix lacks."""
    return matrix.vectors[matrix.index_of(concept)]


def is_known(matrix: ConceptEmbeddingMatrix, concept: str) -> bool:
    """Whether `concept` had at least one in-vocabulary word; KeyError for an id the matrix lacks."""
    return bool(matrix.known[matrix.index_of(concept)])


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1)
    return matrix / np.where(norms == 0.0, 1.0, norms)[:, None]


def oracle_translate_scores(source_tags, target_list, embeddings=None, scorer="avg", graph=None):
    """Oracle: per-query scoring as a standalone translate() once did it, from BFS hops and rebuilt target rows.

    For "sum"/"avg", one product of the set's unit rows against the target
    rows: the sums of :func:`row_sum_translate_scores`, rounded in another order.
    """
    sources = sorted(set(source_tags))
    if scorer == "baseline":
        totals = np.zeros(len(target_list))
        for source in sources:
            hops = bfs_hops(graph, source)
            totals += np.array([1.0 / (1.0 + hops[t]) if t in hops else 0.0 for t in target_list])
        return totals / len(sources)
    target_matrix = _unit_rows(np.vstack([vector(embeddings, t) for t in target_list]))
    resolved = [s for s in sources if s in embeddings]
    if not resolved:
        return np.zeros(len(target_list))
    source_matrix = _unit_rows(np.vstack([vector(embeddings, s) for s in resolved]))
    values = (source_matrix @ target_matrix.T).sum(axis=0)
    return values / len(resolved) if scorer == "avg" else values


def row_sum_translate_scores(source_tags, target_list, embeddings=None, scorer="avg", graph=None):
    """Frozen reference of the scores of `translate` and `score_sets`: one row per source, summed.

    A resolved source's cosine row is the target list's unit rows times the
    source's unit vector, one matrix-vector product per source; a set scores
    the sum of its sorted sources' rows, divided by their count for "avg".
    "baseline" is :func:`oracle_translate_scores`, which sums its rows alike.
    """
    if scorer == "baseline":
        return oracle_translate_scores(source_tags, target_list, scorer=scorer, graph=graph)
    target_matrix = _unit_rows(np.vstack([vector(embeddings, t) for t in target_list]))
    resolved = [s for s in sorted(set(source_tags)) if s in embeddings]
    if not resolved:
        return np.zeros(len(target_list))
    values = sum(target_matrix @ _unit_rows(vector(embeddings, s)[None, :])[0] for s in resolved)
    return values / len(resolved) if scorer == "avg" else values


def oracle_translate(
    source_tags: Iterable[str],
    targets: Iterable[str],
    embeddings: ConceptEmbeddingMatrix | None = None,
    scorer: str = "avg",
    graph: GenreGraph | None = None,
) -> TranslationResult:
    """Oracle: `translate` without its memo, frozen.

    The scores of :func:`row_sum_translate_scores`, which rebuilds the target
    rows on every call, ranked by a Python sort on (-score, tag).
    """
    target_list = list(dict.fromkeys(targets))
    row = row_sum_translate_scores(source_tags, target_list, embeddings, scorer, graph)
    scores = dict(zip(target_list, row.tolist()))
    ranking = sorted(scores, key=lambda tag: (-scores[tag], tag))
    return TranslationResult(scores=scores, ranking=ranking)


def shortest_path_similarity(graph: GenreGraph, a: str, b: str) -> float:
    """Oracle: relatedness 1/(1+L) of one pair from the shortest undirected path length L.

    Identical nodes score 1; unreachable pairs score 0 (L is infinite).
    """
    return float(1.0 / (1.0 + hop_counts(graph, [a], [b])[0, 0]))


def score_sum(sources: Sequence, target) -> float:
    """Oracle: sum of cosine similarities from each source vector to the target."""
    sources = list(sources)
    if not sources:
        raise ValueError("source set must be nonempty")
    return float(sum(cosine(s, target) for s in sources))


def score_avg(sources: Sequence, target) -> float:
    """Oracle: mean cosine similarity from the source vectors to the target."""
    sources = list(sources)
    if not sources:
        raise ValueError("source set must be nonempty")
    return score_sum(sources, target) / len(sources)


def rankdata_fold_aucs(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Oracle: the former per-fold AUC of `evaluate`, tag columns at once from `scipy.stats.rankdata`.

    NaN where a column has no positive or no negative item.
    """
    count = len(scores)
    positives = labels.sum(axis=0)
    qualifying = (positives > 0) & (positives < count)
    aucs = np.full(scores.shape[1], np.nan)
    if qualifying.any():
        # Mann-Whitney: tie-averaged ranks are half-integers, so these sums are exact
        ranks = rankdata(scores, axis=0)
        rank_sums = np.where(labels, ranks, 0.0).sum(axis=0)
        wins = rank_sums - positives * (positives + 1) / 2
        np.divide(wins, positives * (count - positives), out=aucs, where=qualifying)
    return aucs


def undirected_relations(graph: GenreGraph) -> dict[tuple[str, str], frozenset[str]]:
    """Oracle: relation sets per unordered node pair (smaller id first), direction discarded."""
    pairs: dict[tuple[str, str], set[str]] = {}
    for edge in graph.edges:
        key = (edge.src, edge.dst) if edge.src < edge.dst else (edge.dst, edge.src)
        pairs.setdefault(key, set()).add(edge.relation)
    return {key: frozenset(rels) for key, rels in pairs.items()}


def max_displacement(new: np.ndarray, old: np.ndarray) -> float:
    """Oracle: the largest row norm of new - old, 0 for a matrix with no rows."""
    if new.shape[0] == 0:
        return 0.0
    return float(np.max(np.linalg.norm(new - old, axis=1)))


def dict_weights(q_hat: ConceptEmbeddingMatrix, graph: GenreGraph, cfg: RetrofitConfig):
    """Frozen copy of the former `retrofit._weights`: alpha and W from the `undirected_relations` dict."""
    n = len(q_hat.concepts)
    alpha = q_hat.known.astype(np.float64)
    index = {cid: i for i, cid in enumerate(q_hat.concepts)}
    pairs = undirected_relations(graph)
    ends = np.array([(index[a], index[b]) for a, b in pairs], dtype=np.intp).reshape(-1, 2)
    typed = cfg.scheme == "typed"
    equivalent = np.array(
        [len(rels & EQUIVALENCE_RELATIONS) if typed else 0 for rels in pairs.values()], dtype=np.float64
    )
    other = np.array([len(rels) for rels in pairs.values()], dtype=np.float64) - equivalent
    degree = np.bincount(ends.ravel(), minlength=n)
    betas = equivalent[:, None] + other[:, None] / degree[ends]
    weights = np.tile(betas.sum(axis=1), 2)
    rows = np.concatenate([ends[:, 0], ends[:, 1]])
    cols = np.concatenate([ends[:, 1], ends[:, 0]])
    return alpha, sparse.csr_matrix((weights, (rows, cols)), shape=(n, n))


def allocating_retrofit(q_hat: ConceptEmbeddingMatrix, graph: GenreGraph, cfg: RetrofitConfig) -> RetrofitResult:
    """Frozen copy of the former `retrofit` loop, which allocated every sweep's iterate and displacement.

    W comes from :func:`dict_weights`; warnings and the debug trace are left out.
    """
    _check_alignment(q_hat, q_hat, graph)
    alpha, w = dict_weights(q_hat, graph, cfg)
    denominator = alpha + _strength(w)
    pinned_mask = denominator == 0.0
    pinned = tuple(q_hat.concepts[i] for i in np.flatnonzero(pinned_mask))
    denominator[pinned_mask] = 1.0
    anchor_term = alpha[:, None] * q_hat.vectors
    current = q_hat.vectors.copy()
    deltas: list[float] = []
    delta = 0.0
    for _ in range(cfg.max_iters):
        updated = (w @ current + anchor_term) / denominator[:, None]
        if pinned:
            updated[pinned_mask] = current[pinned_mask]
        delta = max_displacement(updated, current)
        deltas.append(delta)
        current = updated
        if delta <= cfg.tolerance:
            break
    known = q_hat.known | np.any(current != 0.0, axis=1)
    matrix = ConceptEmbeddingMatrix(concepts=list(q_hat.concepts), vectors=current, known=known)
    return RetrofitResult(
        matrix=matrix,
        iterations=len(deltas),
        final_delta=delta,
        pinned=pinned,
        deltas=tuple(deltas),
        converged=delta <= cfg.tolerance,
        objective_initial=_objective(q_hat.vectors, q_hat.vectors, alpha, w),
        objective_final=_objective(matrix.vectors, q_hat.vectors, alpha, w),
    )


class ZeroDenominatorError(ValueError):
    """A node has neither an anchor weight nor a neighbor, so its update is undefined."""


def update_step(
    q: ConceptEmbeddingMatrix,
    q_hat: ConceptEmbeddingMatrix,
    graph: GenreGraph,
    cfg: RetrofitConfig,
) -> tuple[ConceptEmbeddingMatrix, float]:
    """Oracle: one simultaneous retrofit sweep, all new vectors from the old Q.

    Returns the updated matrix and the largest per-node displacement.
    Raises :class:`ZeroDenominatorError` for a node with no anchor weight
    and no neighbors.
    """
    _check_alignment(q, q_hat, graph)
    alpha, w = _weights(q_hat, graph, cfg)
    denominator = alpha + _strength(w)
    dead = np.flatnonzero(denominator == 0.0)
    if dead.size:
        raise ZeroDenominatorError(f"node {q_hat.concepts[dead[0]]!r} has no anchor weight and no neighbors")
    updated = (w @ q.vectors + alpha[:, None] * q_hat.vectors) / denominator[:, None]
    return q.copy_with(vectors=updated), max_displacement(updated, q.vectors)


def random_instance(seed: int, max_nodes: int = 50, max_dim: int = 8, unknown_fraction: float = 0.2):
    """Random connected graph + initial matrix for retrofit oracle sweeps.

    Connected by construction (random spanning tree plus extra edges) with at
    least one known concept, so the stationarity system is nonsingular.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_nodes + 1))
    d = int(rng.integers(1, max_dim + 1))
    ids = [f"n{i:02d}" for i in range(n)]
    relations = sorted(RELATIONS)
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((ids[i], ids[j], relations[int(rng.integers(len(relations)))]))
    for _ in range(int(rng.integers(0, n))):
        i, j = rng.choice(n, size=2, replace=False)
        edges.append((ids[int(i)], ids[int(j)], relations[int(rng.integers(len(relations)))]))
    graph = bare_graph(ids, edges)

    known = rng.random(n) >= unknown_fraction
    if not known.any():
        known[0] = True
    vectors = rng.normal(size=(n, d))
    vectors[~known] = 0.0
    matrix = ConceptEmbeddingMatrix(concepts=ids, vectors=vectors, known=known)
    return graph, matrix


def _zipf_pick(rng: random.Random, tags: list[str], count: int) -> list[str]:
    """Distinct tags drawn with probability roughly proportional to 1/(index+1)."""
    weights = [1.0 / (i + 1) for i in range(len(tags))]
    chosen: list[str] = []
    while len(chosen) < count:
        tag = rng.choices(tags, weights=weights, k=1)[0]
        if tag not in chosen:
            chosen.append(tag)
    return chosen


def synthetic_corpus(
    n_items: int,
    seed: int = 0,
    source_system: str = "src",
    target_system: str = "tgt",
    n_source_tags: int = 12,
    n_target_tags: int = 8,
) -> ParallelCorpus:
    """Two-system corpus with Zipf-like tag frequencies, 1-3 tags per system."""
    rng = random.Random(seed)
    source_tags = [f"s{i:02d}" for i in range(n_source_tags)]
    target_tags = [f"t{i:02d}" for i in range(n_target_tags)]
    items = []
    for index in range(n_items):
        items.append(CorpusItem(
            id=f"item{index:04d}",
            annotations={
                source_system: tuple(_zipf_pick(rng, source_tags, rng.randint(1, 3))),
                target_system: tuple(_zipf_pick(rng, target_tags, rng.randint(1, 3))),
            },
        ))
    return ParallelCorpus(items=items, systems=(source_system, target_system))


def paired_corpus(n_items: int, seed: int = 0, n_pairs: int = 10) -> ParallelCorpus:
    """Corpus whose source and target tags come in correlated pairs.

    Each item carries one source tag and its paired target tag (2*n_pairs
    distinct tags overall, Zipf-like counts), so per-label fold balance
    within one item is always achievable.
    """
    rng = random.Random(seed)
    weights = [1.0 / (i + 1) for i in range(n_pairs)]
    items = []
    for index in range(n_items):
        pair = rng.choices(range(n_pairs), weights=weights, k=1)[0]
        items.append(CorpusItem(
            id=f"item{index:04d}",
            annotations={"src": (f"s{pair:02d}",), "tgt": (f"t{pair:02d}",)},
        ))
    return ParallelCorpus(items=items, systems=("src", "tgt"))


def multisystem_corpus(n_items: int, seed: int = 0) -> ParallelCorpus:
    """Corpus over four tag systems, each item tagged in 2-4 of them with 1-3 Zipf-like tags each.

    Each system's vocabulary grows with the square root of the corpus, so
    rare labels (and with them ties in fold demand and capacity) stay common
    at every size.
    """
    rng = random.Random(seed)
    systems = ("en", "fr", "de", "es")
    size = max(4, int(1.7 * n_items ** 0.5))
    vocabulary = {system: [f"{system}{i:04d}" for i in range(size)] for system in systems}
    cum_weights = list(itertools.accumulate(1.0 / (i + 1) for i in range(size)))
    items = []
    for index in range(n_items):
        annotations = {}
        for system in rng.sample(systems, rng.randint(2, len(systems))):
            picks = rng.choices(vocabulary[system], cum_weights=cum_weights, k=rng.randint(1, 3))
            annotations[system] = tuple(dict.fromkeys(picks))
        items.append(CorpusItem(id=f"item{index:05d}", annotations=annotations))
    return ParallelCorpus(items=items, systems=systems)


def scan_stratified_split(corpus: ParallelCorpus, k: int = 4, seed: int = 0) -> FoldAssignment:
    """Frozen copy of the former `evaluation.stratified_split`, which scanned every label and item per step.

    Iterative stratification of the multi-label corpus into k folds.

    Repeatedly takes the label (system:tag pair) with the fewest unassigned
    items and deals those items to the fold with the greatest remaining
    demand for that label; ties go to the fold with the greatest remaining
    capacity, then to a seeded random choice. Balances both per-label counts
    and overall fold sizes.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if k > len(corpus.items):
        raise ValueError(f"k={k} exceeds the number of items ({len(corpus.items)})")
    rng = random.Random(seed)
    item_order = [item.id for item in corpus.items]
    labels_of: dict[str, list[str]] = {}
    for item in corpus.items:
        labels_of[item.id] = sorted({
            tag_node_id(system, tag)
            for system, tags in item.annotations.items() for tag in tags
        })

    remaining: dict[str, set[str]] = {}
    for item_id, labels in labels_of.items():
        for label in labels:
            remaining.setdefault(label, set()).add(item_id)
    demand = {label: [len(ids) / k] * k for label, ids in remaining.items()}
    capacity = [len(corpus.items) / k] * k
    assignment: dict[str, int] = {}

    while remaining:
        label = min(remaining, key=lambda l: (len(remaining[l]), l))
        for item_id in [i for i in item_order if i in remaining[label]]:
            wants = demand[label]
            best = max(wants)
            candidates = [f for f in range(k) if wants[f] == best]
            if len(candidates) > 1:
                roomiest = max(capacity[f] for f in candidates)
                candidates = [f for f in candidates if capacity[f] == roomiest]
            fold = candidates[0] if len(candidates) == 1 else rng.choice(candidates)
            assignment[item_id] = fold
            capacity[fold] -= 1
            for other in labels_of[item_id]:
                demand[other][fold] -= 1
                remaining[other].discard(item_id)
        remaining = {label: ids for label, ids in remaining.items() if ids}

    # No label deals an item without tags: load_corpus drops such items, but a
    # ParallelCorpus built directly can hold them. Each goes to the roomiest fold.
    for item_id in item_order:
        if item_id not in assignment:
            fold = max(range(k), key=lambda f: (capacity[f], -f))
            assignment[item_id] = fold
            capacity[fold] -= 1
    return FoldAssignment(k=k, assignment=assignment)
