"""Multilingual genre knowledge graph with typed edges.

Covers tag normalization (non-alphanumeric tokenization plus vocabulary-based
splitting of concatenated genres), JSON-lines ingestion, connected-component
filtering, attachment of external tag systems, and path-based relatedness.
Only this module knows how edges are stored and encoded: see :class:`GenreGraph`.
"""

from __future__ import annotations

import json
import logging
import os
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from ._lines import atomic_write, iter_json_objects, iter_lines, read_json, reading
from .wordvec import normalize_word

logger = logging.getLogger(__name__)

RELATIONS = frozenset({
    "sameAs",
    "wikiPageRedirects",
    "stylisticOrigin",
    "musicSubgenre",
    "derivative",
    "musicFusionGenre",
})
# Relations asserting that two tags denote the same genre.
EQUIVALENCE_RELATIONS = frozenset({"sameAs", "wikiPageRedirects"})
# Relation -> integer code of the edge table, in sorted relation order.
RELATION_CODES = {relation: code for code, relation in enumerate(sorted(RELATIONS))}

# Most sources one block search runs from; bounds its (nodes x sources) arrays.
HOP_CHUNK = 128

_SEPARATOR_RUN = re.compile(r"[\W_]+", re.UNICODE)
_LANGUAGE_CODE = re.compile(r"[a-z]{2}")


class GraphFormatError(ValueError):
    """A graph, node, edge, or lemma input violates its format or invariants."""


def tag_node_id(system: str, tag: str) -> str:
    """Graph node id of a tag-system tag; also the id used in evaluation."""
    return f"{system}:{tag}"


def normalize_tag(raw: str, split_vocabulary: Iterable[str] = ()) -> list[str]:
    """Normalize a raw tag into lowercase alphanumeric tokens.

    The tag is NFC-normalized, lowercased, and split on every maximal run of
    non-alphanumeric characters. A resulting token that is itself a
    vocabulary word stays whole; otherwise a full decomposition into
    vocabulary words is attempted (greedy longest prefix first, with
    backtracking, so a decomposition is found whenever one exists and ties
    prefer the longest first word). Tokens with no full decomposition are
    kept whole.
    """
    vocabulary = split_vocabulary if isinstance(split_vocabulary, (set, frozenset)) else frozenset(split_vocabulary)
    rough = _rough_tokens(raw)
    if not rough:
        raise ValueError(f"tag {raw!r} has no alphanumeric content")
    tokens: list[str] = []
    for token in rough:
        if token in vocabulary:
            tokens.append(token)
            continue
        split = _decompose(token, vocabulary)
        tokens.extend(split if split is not None else [token])
    return tokens


def _decompose(token: str, vocabulary) -> list[str] | None:
    """Full decomposition of `token` into vocabulary words, or None."""
    n = len(token)
    dead: set[int] = set()

    def descend(start: int) -> list[str] | None:
        if start == n:
            return []
        if start in dead:
            return None
        for end in range(n, start, -1):
            piece = token[start:end]
            if piece in vocabulary:
                rest = descend(end)
                if rest is not None:
                    return [piece, *rest]
        dead.add(start)
        return None

    return descend(0)


@dataclass
class GenreNode:
    id: str
    language: str
    raw_label: str
    tokens: tuple[str, ...]
    system: str | None = None  # None for base-graph nodes, else the tag system name

    def __post_init__(self):
        """GraphFormatError unless the id and label are non-empty strings, the language a
        two-letter code, the tokens non-empty strings and the system a string or None."""
        if not isinstance(self.id, str) or not self.id:
            raise GraphFormatError(f"invalid id {self.id!r}")
        if not isinstance(self.language, str) or not _LANGUAGE_CODE.fullmatch(self.language):
            raise GraphFormatError(f"node {self.id!r}: invalid language code {self.language!r}")
        if not isinstance(self.raw_label, str) or not self.raw_label:
            raise GraphFormatError(f"node {self.id!r}: invalid label {self.raw_label!r}")
        if not isinstance(self.tokens, (list, tuple)) or not all(isinstance(t, str) and t for t in self.tokens):
            raise GraphFormatError(f"node {self.id!r}: tokens must be a list of non-empty strings, got {self.tokens!r}")
        if not self.tokens:
            raise GraphFormatError(f"node {self.id!r} has no tokens")
        if self.system is not None and not isinstance(self.system, str):
            raise GraphFormatError(f"node {self.id!r}: invalid system {self.system!r}")
        self.tokens = tuple(self.tokens)


class GenreEdge(NamedTuple):
    src: str
    dst: str
    relation: str


class GenreGraph:
    """Typed genre graph: directed edge storage over an undirected adjacency.

    A graph never changes once built. ``GenreGraph()`` is the empty graph,
    :meth:`from_dict` builds one from records in memory, and the loaders
    (:func:`load_graph`, :func:`filter_graph`, :func:`attach_tag_system`)
    each return a new one. Nodes keep insertion order, and so do edges, each
    its own key in one dict. Edges are stored as read (direction retained
    for fidelity). The first read of the structure caches a table of (src
    position, dst position, relation code) rows and, built from it, one
    symmetric 0/1 sparse adjacency in the smallest unsigned dtype that holds
    the largest degree, which components and paths read; an
    opaque ``_target_memo`` slot holds what translation derives from the
    graph for one target list. The word vocabulary (the node labels' words
    and their lemmas, see :func:`load_graph`) splits attached tags.
    """

    def __init__(self):
        self._nodes: dict[str, GenreNode] = {}
        self._edges: dict[GenreEdge, None] = {}
        # node ids in insertion order, id -> position, the read-only edge table, and the adjacency
        self._cache: tuple[list[str], dict[str, int], np.ndarray, sparse.csr_matrix] | None = None
        self._target_memo = None  # kept by translation, see genrevec.translate.TargetMemo
        self.word_vocabulary: frozenset[str] = frozenset()

    @classmethod
    def _assembled(cls, nodes: dict, edges: dict, word_vocabulary: Iterable[str]) -> "GenreGraph":
        """The graph of these nodes and edges, which the caller has checked; the one way a graph gets content."""
        graph = cls()
        graph._nodes, graph._edges, graph.word_vocabulary = nodes, edges, frozenset(word_vocabulary)
        return graph

    def _structure(self) -> tuple[list[str], dict[str, int], np.ndarray, sparse.csr_matrix]:
        if self._cache is None:
            ids = list(self._nodes)
            position = {nid: i for i, nid in enumerate(ids)}
            rows = [(position[src], position[dst], RELATION_CODES[rel]) for src, dst, rel in self._edges]
            table = np.array(rows, dtype=np.intp).reshape(-1, 3)
            table.flags.writeable = False
            both = np.hstack([table[:, :2].T, table[:, 1::-1].T])
            matrix = sparse.csr_matrix((np.ones(both.shape[1]), tuple(both)), shape=(len(ids), len(ids)))
            # parallel edges and both directions of a pair were summed; a product with a 0/1
            # frontier counts neighbours, so the dtype holds the largest degree (see _search_block)
            degree = int(np.diff(matrix.indptr).max(initial=0))
            matrix = matrix.astype(np.min_scalar_type(degree))
            matrix.data[:] = 1
            self._cache = ids, position, table, matrix
        return self._cache

    def _positions(self, node_ids: Iterable[str], error: type[Exception] = ValueError) -> np.ndarray:
        """Matrix positions of the ids; `error` naming the first unknown one."""
        position = self._structure()[1]
        try:
            return np.array([position[nid] for nid in node_ids], dtype=np.intp)
        except KeyError as exc:
            raise error(f"unknown node id {exc.args[0]!r}") from None

    def edge_arrays(self, order: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every edge, in edge order, as source and destination indices into `order` and relation codes.

        Codes follow :data:`RELATION_CODES`. Raises ValueError unless `order`
        is a permutation of the node ids.
        """
        ids, _, table, _ = self._structure()
        positions = self._positions(order)
        index_of = np.full(len(ids), -1, dtype=np.intp)
        index_of[positions] = np.arange(len(positions))
        if len(positions) != len(ids) or (index_of < 0).any():
            raise ValueError("order is not a permutation of the node ids")
        return index_of[table[:, 0]], index_of[table[:, 1]], table[:, 2]

    # -- views ------------------------------------------------------------

    @property
    def nodes(self) -> Mapping[str, GenreNode]:
        return MappingProxyType(self._nodes)

    @property
    def edges(self) -> tuple[GenreEdge, ...]:
        return tuple(self._edges)

    def node_ids(self) -> list[str]:
        return list(self._nodes)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def degree(self, node_id: str) -> int:
        indptr = self._structure()[3].indptr
        i = self._positions([node_id], KeyError)[0]
        return int(indptr[i + 1] - indptr[i])

    def system_tags(self, system: str) -> list[str]:
        """Node ids attached under the given tag system, in insertion order."""
        return [nid for nid, node in self._nodes.items() if node.system == system]

    def connected_components(self) -> list[frozenset[str]]:
        """Undirected components, ordered by their smallest member id."""
        ids, _, _, matrix = self._structure()
        if not ids:
            return []
        count, labels = csgraph.connected_components(matrix, directed=False)
        members: list[list[str]] = [[] for _ in range(count)]
        for nid, label in zip(ids, labels.tolist()):
            members[label].append(nid)
        return sorted((frozenset(group) for group in members), key=min)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GenreGraph):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and list(self._edges) == list(other._edges)  # dict equality would ignore order
            and self.word_vocabulary == other.word_vocabulary
        )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "vocabulary": sorted(self.word_vocabulary),
            "nodes": [
                {
                    "id": node.id,
                    "lang": node.language,
                    "label": node.raw_label,
                    "tokens": list(node.tokens),
                    "system": node.system,
                }
                for node in self._nodes.values()
            ],
            "edges": [{"src": e.src, "dst": e.dst, "rel": e.relation} for e in self._edges],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "GenreGraph":
        """The graph of records in memory, the inverse of :meth:`to_dict`; a repeated edge record is kept once.

        GraphFormatError names what is malformed, with the record's index."""
        if not isinstance(payload, Mapping):
            raise GraphFormatError(f"expected a JSON object, got {_kind(payload)}")
        missing = next((key for key in ("nodes", "edges") if key not in payload), None)
        if missing is not None:
            raise GraphFormatError(f"missing key {missing!r}")
        for key in ("vocabulary", "nodes", "edges"):
            if not isinstance(payload.get(key, []), list):
                raise GraphFormatError(f"{key!r} must be a list, got {_kind(payload[key])}")
        vocabulary = payload.get("vocabulary", [])
        stray = next((i for i, word in enumerate(vocabulary) if not isinstance(word, str)), None)
        if stray is not None:
            raise GraphFormatError(f"vocabulary[{stray}]: expected a string, got {_kind(vocabulary[stray])}")
        nodes: dict[str, GenreNode] = {}
        edges: dict[GenreEdge, None] = {}
        section = "nodes"
        try:
            for index, record in enumerate(payload["nodes"]):
                _put_node(nodes, GenreNode(
                    id=record["id"],
                    language=record["lang"],
                    raw_label=record["label"],
                    tokens=record["tokens"],
                    system=record.get("system"),
                ))
            section = "edges"
            for index, record in enumerate(payload["edges"]):
                edge = _checked_edge(nodes, record["src"], record["dst"], record["rel"])
                if edge.src == edge.dst:
                    raise GraphFormatError(f"self-loop on node {edge.src!r}")
                edges[edge] = None
        except KeyError as exc:
            raise GraphFormatError(f"{section}[{index}]: missing key {exc.args[0]!r}") from None
        except GraphFormatError as exc:
            raise GraphFormatError(f"{section}[{index}]: {exc}") from None
        except TypeError as exc:
            raise GraphFormatError(f"{section}[{index}]: malformed record {record!r} ({exc})") from None
        return cls._assembled(nodes, edges, vocabulary)


def _put_node(nodes: dict[str, GenreNode], node: GenreNode) -> None:
    """Add `node` to `nodes`; GraphFormatError if its id is already there."""
    if node.id in nodes:
        raise GraphFormatError(f"duplicate node id {node.id!r}")
    nodes[node.id] = node


def _checked_edge(nodes: Mapping[str, GenreNode], src, dst, relation) -> GenreEdge:
    """The edge, or GraphFormatError unless its fields are strings, the relation known and both ends in `nodes`."""
    if not (isinstance(src, str) and isinstance(dst, str) and isinstance(relation, str)):
        raise GraphFormatError(f"edge src, dst and relation must be strings, got {src!r}, {dst!r}, {relation!r}")
    if relation not in RELATIONS:
        raise GraphFormatError(f"unknown relation {relation!r}")
    if src not in nodes:
        raise GraphFormatError(f"edge references missing node {src!r}")
    if dst not in nodes:
        raise GraphFormatError(f"edge references missing node {dst!r}")
    return GenreEdge(src, dst, relation)


def _kind(value) -> str:
    return "null" if value is None else type(value).__name__


def load_lemma_table(source: str | os.PathLike) -> dict[str, str]:
    """Read the word<TAB>lemma table file at `source`; both sides are NFC-normalized and lowercased.
    GraphFormatError names the path, the line (and column of a byte that is not UTF-8), then the problem."""
    table: dict[str, str] = {}
    with reading(source, GraphFormatError):
        for lineno, line in enumerate(iter_lines(source, "lemma table", GraphFormatError), start=1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise GraphFormatError(f"lemma table line {lineno}: expected 'word<TAB>lemma', got {line!r}")
            table[normalize_word(parts[0])] = normalize_word(parts[1])
    return table


def _rough_tokens(label: str) -> list[str]:
    """Tokens of the vocabulary key of `label` (as word vectors are looked up), split on separator runs."""
    return [t for t in _SEPARATOR_RUN.split(normalize_word(label)) if t]


def has_tokens(tag: str) -> bool:
    """Whether `tag` has alphanumeric content: :func:`normalize_tag` (so also
    :func:`attach_tag_system`) rejects it when it has none."""
    return bool(_rough_tokens(tag))


def load_graph(
    nodes_source: str | os.PathLike,
    edges_source: str | os.PathLike,
    lemma_table: Mapping[str, str] | None = None,
) -> GenreGraph:
    """Build a graph from node and edge JSON-lines files.

    A node's tokens are its label's, split on non-alphanumeric runs; node
    labels are never split into vocabulary words. The graph's word
    vocabulary, against which tags attached later split, holds every node
    token and its lemma. A malformed node or edge line, a dangling edge or
    an unknown relation raises GraphFormatError naming the file, the line
    (and column of a byte that is not UTF-8), then the problem. An edge
    that passes those checks is dropped if it is a self-loop (with a
    warning) or an exact duplicate.
    """
    lemma_table = lemma_table or {}
    nodes: dict[str, GenreNode] = {}
    vocabulary: set[str] = set()
    with reading(nodes_source, GraphFormatError):
        for lineno, record in iter_json_objects(nodes_source, "nodes", GraphFormatError):
            try:
                node_id, lang, label = record["id"], record["lang"], record["label"]
                tokens = _rough_tokens(label) if isinstance(label, str) else ()  # GenreNode names a non-string label
                _put_node(nodes, GenreNode(id=node_id, language=lang, raw_label=label, tokens=tokens))
            except KeyError as exc:
                raise GraphFormatError(f"nodes line {lineno}: missing key {exc.args[0]!r}") from None
            except GraphFormatError as exc:
                raise GraphFormatError(f"nodes line {lineno}: {exc}") from None
            vocabulary.update(tokens)
            vocabulary.update(lemma for lemma in map(lemma_table.get, tokens) if lemma)

    edges: dict[GenreEdge, None] = {}
    dropped_loops = 0
    with reading(edges_source, GraphFormatError):
        for lineno, record in iter_json_objects(edges_source, "edges", GraphFormatError):
            try:
                edge = _checked_edge(nodes, record["src"], record["dst"], record["rel"])
            except KeyError as exc:
                raise GraphFormatError(f"edges line {lineno}: missing key {exc.args[0]!r}") from None
            except GraphFormatError as exc:
                raise GraphFormatError(f"edges line {lineno}: {exc}") from None
            if edge.src == edge.dst:
                dropped_loops += 1
            else:
                edges[edge] = None
    if dropped_loops:
        logger.warning("dropped %d self-loop edges", dropped_loops)
    return GenreGraph._assembled(nodes, edges, vocabulary)


def filter_graph(graph: GenreGraph, high_confidence: Iterable[str]) -> GenreGraph:
    """Keep only the connected components that contain a high-confidence node."""
    wanted = set(high_confidence)
    keep: set[str] = set()
    for component in graph.connected_components():
        if component & wanted:
            keep |= component
    # a kept component holds both ends of each of its edges, and the source graph
    # already validated every node and edge, so nothing is checked again
    return GenreGraph._assembled(
        {nid: node for nid, node in graph._nodes.items() if nid in keep},
        {edge: None for edge in graph._edges if edge.src in keep},
        graph.word_vocabulary,
    )


def attach_tag_system(
    graph: GenreGraph,
    system_name: str,
    tags: Sequence[str],
    language: str,
) -> GenreGraph:
    """Add a tag system's tags as nodes, linking exact token matches.

    Each tag becomes a node with id "<system>:<tag>", normalized against the
    graph's word vocabulary. A tag whose token sequence equals that of an
    already present node of the same language gains a sameAs edge to it.
    Unmatched tags remain isolated, and a repeated tag is attached once. A tag
    with no alphanumeric content raises ValueError; ``load_corpus`` drops those.
    """
    nodes, edges = dict(graph._nodes), dict(graph._edges)
    by_shape: dict[tuple[str, tuple[str, ...]], list[str]] = {}
    for node in graph.nodes.values():
        by_shape.setdefault((node.language, node.tokens), []).append(node.id)

    for raw in dict.fromkeys(tags):
        node_id = tag_node_id(system_name, raw)
        tokens = tuple(normalize_tag(raw, graph.word_vocabulary))
        _put_node(nodes, GenreNode(id=node_id, language=language, raw_label=raw, tokens=tokens, system=system_name))
        # the new node has no edges yet and is none of the matches, so each edge is new and no self-loop
        for match in sorted(by_shape.get((language, tokens), [])):
            edges[GenreEdge(node_id, match, "sameAs")] = None
    return GenreGraph._assembled(nodes, edges, graph.word_vocabulary)


def hop_levels(graph: GenreGraph, sources: Sequence[str]) -> np.ndarray:
    """Shortest undirected path lengths from each source to every node, shape (nodes, sources), rows in node order.

    The counts are in the smallest unsigned dtype that holds the node count
    n, and n marks a node the source does not reach. Raises ValueError naming
    the first unknown source. Runs one block search per :data:`HOP_CHUNK`
    sources.
    """
    positions = graph._positions(sources)
    adjacency, n = graph._structure()[3], graph.node_count
    levels = np.empty((n, len(positions)), dtype=np.min_scalar_type(n))
    for start in range(0, len(positions), HOP_CHUNK):
        levels[:, start:start + HOP_CHUNK] = _search_block(adjacency, positions[start:start + HOP_CHUNK])
    return levels


def hop_counts(graph: GenreGraph, sources: Sequence[str], targets: Sequence[str]) -> np.ndarray:
    """Shortest undirected path lengths, shape (sources, targets); inf where unreachable.

    Raises ValueError naming the first unknown id, sources before targets,
    before any search. The float form of :func:`hop_levels`, read at the
    targets.
    """
    graph._positions(sources)  # an unknown source is named before an unknown target
    target_positions = graph._positions(targets)
    levels = hop_levels(graph, sources)[target_positions].T
    hops = levels.astype(np.float64, order="C")
    hops[levels == graph.node_count] = np.inf
    return hops


def _search_block(adjacency: sparse.csr_matrix, positions: np.ndarray) -> np.ndarray:
    """Hop counts from each source position to every node, shape (nodes, sources); the node count where unreachable.

    A level-synchronous breadth-first search of all sources at once: the
    frontier holds one 0/1 column per source, and each level is one sparse
    product ``adjacency @ frontier`` whose entries count frontier neighbours
    (the adjacency's dtype holds any degree), masked by what is unvisited.
    Every level that ends with a node unvisited adds one to its count, so
    the count stops at the level where the node first turns on.
    """
    n, width = adjacency.shape[0], len(positions)
    unvisited = np.ones((n, width), dtype=bool)
    unvisited[positions, np.arange(width)] = False
    levels = unvisited.astype(np.min_scalar_type(n))
    frontier = ~unvisited
    while frontier.any():
        frontier = np.logical_and(adjacency @ frontier, unvisited)
        unvisited ^= frontier
        levels += unvisited
    levels[unvisited] = n
    return levels


def save_graph(graph: GenreGraph, path: str | os.PathLike) -> None:
    """Write the full-fidelity graph JSON (tokens, systems, vocabulary included).

    The file is one line of sorted-key JSON: a single ``json.dumps`` runs
    the C encoder, which an indent or a stream writer would bypass.
    """
    text = json.dumps(graph.to_dict(), ensure_ascii=False, sort_keys=True)
    with atomic_write(path) as handle:
        handle.write(text)
        handle.write("\n")


def load_saved_graph(path: str | os.PathLike) -> GenreGraph:
    """Read a graph written by :func:`save_graph`; a malformed file raises GraphFormatError naming it first."""
    with reading(path, GraphFormatError):
        return GenreGraph.from_dict(read_json(path, GraphFormatError))
