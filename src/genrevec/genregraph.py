"""Multilingual genre knowledge graph with typed edges.

Covers tag normalization (non-alphanumeric tokenization plus vocabulary-based
splitting of concatenated genres), JSON-lines ingestion, connected-component
filtering, attachment of external tag systems, and path-based relatedness.
"""

from __future__ import annotations

import json
import logging
import os
import re
import unicodedata
from collections import deque
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Mapping, Sequence

from ._lines import atomic_write, iter_lines

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

_SEPARATOR_RUN = re.compile(r"[\W_]+", re.UNICODE)
_LANGUAGE_CODE = re.compile(r"^[a-z]{2}$")


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
    text = unicodedata.normalize("NFC", raw).lower()
    rough = [t for t in _SEPARATOR_RUN.split(text) if t]
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
        if not self.tokens:
            raise GraphFormatError(f"node {self.id!r} has no tokens")
        self.tokens = tuple(self.tokens)


@dataclass(frozen=True)
class GenreEdge:
    src: str
    dst: str
    relation: str


class GenreGraph:
    """Typed genre graph: directed edge storage over an undirected adjacency.

    Nodes keep insertion order. Edges are stored as read (direction retained
    for fidelity) but adjacency, components, and paths ignore direction.
    The word vocabulary used to normalize labels is kept so that tags
    attached later are normalized consistently.
    """

    def __init__(self, word_vocabulary: Iterable[str] = ()):
        self._nodes: dict[str, GenreNode] = {}
        self._edges: list[GenreEdge] = []
        self._edge_keys: set[tuple[str, str, str]] = set()
        self._adjacency: dict[str, set[str]] = {}
        self.word_vocabulary = frozenset(word_vocabulary)

    # -- construction -----------------------------------------------------

    def add_node(self, node: GenreNode) -> None:
        if node.id in self._nodes:
            raise GraphFormatError(f"duplicate node id {node.id!r}")
        self._nodes[node.id] = node
        self._adjacency[node.id] = set()

    def add_edge(self, src: str, dst: str, relation: str) -> bool:
        """Add a typed edge; returns False for an exact duplicate."""
        if relation not in RELATIONS:
            raise GraphFormatError(f"unknown relation {relation!r}")
        if src not in self._nodes:
            raise GraphFormatError(f"edge references missing node {src!r}")
        if dst not in self._nodes:
            raise GraphFormatError(f"edge references missing node {dst!r}")
        if src == dst:
            raise GraphFormatError(f"self-loop on node {src!r}")
        key = (src, dst, relation)
        if key in self._edge_keys:
            return False
        self._edge_keys.add(key)
        self._edges.append(GenreEdge(src, dst, relation))
        self._adjacency[src].add(dst)
        self._adjacency[dst].add(src)
        return True

    def copy(self) -> "GenreGraph":
        out = GenreGraph(self.word_vocabulary)
        out._nodes = dict(self._nodes)
        out._edges = list(self._edges)
        out._edge_keys = set(self._edge_keys)
        out._adjacency = {nid: set(neighbors) for nid, neighbors in self._adjacency.items()}
        return out

    # -- views ------------------------------------------------------------

    @property
    def nodes(self) -> Mapping[str, GenreNode]:
        return self._nodes

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

    def neighbors(self, node_id: str) -> tuple[str, ...]:
        if node_id not in self._nodes:
            raise KeyError(f"unknown node id {node_id!r}")
        return tuple(sorted(self._adjacency[node_id]))

    def degree(self, node_id: str) -> int:
        if node_id not in self._nodes:
            raise KeyError(f"unknown node id {node_id!r}")
        return len(self._adjacency[node_id])

    def system_tags(self, system: str) -> list[str]:
        """Node ids attached under the given tag system, in insertion order."""
        return [nid for nid, node in self._nodes.items() if node.system == system]

    def undirected_relations(self) -> dict[tuple[str, str], frozenset[str]]:
        """Relation sets per unordered node pair, direction discarded."""
        pairs: dict[tuple[str, str], set[str]] = {}
        for edge in self._edges:
            key = (edge.src, edge.dst) if edge.src < edge.dst else (edge.dst, edge.src)
            pairs.setdefault(key, set()).add(edge.relation)
        return {key: frozenset(rels) for key, rels in pairs.items()}

    def connected_components(self) -> list[frozenset[str]]:
        """Undirected components, ordered by their smallest member id."""
        seen: set[str] = set()
        components: list[frozenset[str]] = []
        for start in self._nodes:
            if start in seen:
                continue
            queue = deque([start])
            seen.add(start)
            members = {start}
            while queue:
                current = queue.popleft()
                for neighbor in self._adjacency[current]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        members.add(neighbor)
                        queue.append(neighbor)
            components.append(frozenset(members))
        return sorted(components, key=min)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GenreGraph):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and self._edges == other._edges
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
        graph = cls(payload.get("vocabulary", ()))
        for record in payload["nodes"]:
            graph.add_node(GenreNode(
                id=record["id"],
                language=record["lang"],
                raw_label=record["label"],
                tokens=tuple(record["tokens"]),
                system=record.get("system"),
            ))
        for record in payload["edges"]:
            graph.add_edge(record["src"], record["dst"], record["rel"])
        return graph


def load_lemma_table(source: str | os.PathLike | IO | Iterable[str]) -> dict[str, str]:
    """Read a word<TAB>lemma table; both sides are NFC-normalized and lowercased."""
    table: dict[str, str] = {}
    for lineno, line in enumerate(iter_lines(source), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise GraphFormatError(f"lemma table line {lineno}: expected 'word<TAB>lemma', got {line!r}")
        word = unicodedata.normalize("NFC", parts[0]).lower()
        lemma = unicodedata.normalize("NFC", parts[1]).lower()
        table[word] = lemma
    return table


def _rough_tokens(label: str) -> list[str]:
    text = unicodedata.normalize("NFC", label).lower()
    return [t for t in _SEPARATOR_RUN.split(text) if t]


def _parse_jsonl(source, what: str) -> Iterator[tuple[int, dict]]:
    for lineno, line in enumerate(iter_lines(source), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"{what} line {lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(record, dict):
            raise GraphFormatError(f"{what} line {lineno}: expected a JSON object")
        yield lineno, record


def load_graph(
    nodes_source: str | os.PathLike | IO | Iterable[str],
    edges_source: str | os.PathLike | IO | Iterable[str],
    lemma_table: Mapping[str, str] | None = None,
) -> GenreGraph:
    """Build a graph from node and edge JSON-lines streams.

    Node labels are normalized against the lemma-mapped vocabulary of words
    occurring in the node labels themselves, so concatenated genres split
    into the graph's own genre words. Dangling edges and unknown relations
    are rejected with their line number; self-loops and exact duplicate
    edges are dropped with a warning.
    """
    lemma_table = dict(lemma_table or {})

    records: list[tuple[int, str, str, str]] = []
    seen_ids: set[str] = set()
    for lineno, record in _parse_jsonl(nodes_source, "nodes"):
        try:
            node_id, lang, label = record["id"], record["lang"], record["label"]
        except KeyError as exc:
            raise GraphFormatError(f"nodes line {lineno}: missing key {exc.args[0]!r}") from None
        if not isinstance(node_id, str) or not node_id:
            raise GraphFormatError(f"nodes line {lineno}: invalid id {node_id!r}")
        if not isinstance(lang, str) or not _LANGUAGE_CODE.match(lang):
            raise GraphFormatError(f"nodes line {lineno}: invalid language code {lang!r}")
        if not isinstance(label, str) or not label:
            raise GraphFormatError(f"nodes line {lineno}: invalid label {label!r}")
        if node_id in seen_ids:
            raise GraphFormatError(f"nodes line {lineno}: duplicate node id {node_id!r}")
        seen_ids.add(node_id)
        records.append((lineno, node_id, lang, label))

    vocabulary: set[str] = set()
    for _, _, _, label in records:
        for token in _rough_tokens(label):
            vocabulary.add(token)
            lemma = lemma_table.get(token)
            if lemma:
                vocabulary.add(lemma)

    graph = GenreGraph(vocabulary)
    for lineno, node_id, lang, label in records:
        try:
            tokens = normalize_tag(label, graph.word_vocabulary)
        except ValueError as exc:
            raise GraphFormatError(f"nodes line {lineno}: {exc}") from None
        graph.add_node(GenreNode(id=node_id, language=lang, raw_label=label, tokens=tuple(tokens)))

    dropped_loops = 0
    for lineno, record in _parse_jsonl(edges_source, "edges"):
        try:
            src, dst, rel = record["src"], record["dst"], record["rel"]
        except KeyError as exc:
            raise GraphFormatError(f"edges line {lineno}: missing key {exc.args[0]!r}") from None
        if src == dst:
            dropped_loops += 1
            continue
        try:
            graph.add_edge(src, dst, rel)
        except GraphFormatError as exc:
            raise GraphFormatError(f"edges line {lineno}: {exc}") from None
    if dropped_loops:
        logger.warning("dropped %d self-loop edges", dropped_loops)
    return graph


def filter_graph(graph: GenreGraph, high_confidence: Iterable[str]) -> GenreGraph:
    """Keep only the connected components that contain a high-confidence node."""
    wanted = set(high_confidence)
    keep: set[str] = set()
    for component in graph.connected_components():
        if component & wanted:
            keep |= component
    out = GenreGraph(graph.word_vocabulary)
    for node in graph.nodes.values():
        if node.id in keep:
            out.add_node(node)
    for edge in graph.edges:
        if edge.src in keep and edge.dst in keep:
            out.add_edge(edge.src, edge.dst, edge.relation)
    return out


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
    Unmatched tags simply remain isolated; tags with no alphanumeric content
    are skipped with a warning.
    """
    out = graph.copy()
    by_shape: dict[tuple[str, tuple[str, ...]], list[str]] = {}
    for node in graph.nodes.values():
        by_shape.setdefault((node.language, node.tokens), []).append(node.id)

    seen: set[str] = set()
    skipped = 0
    for raw in tags:
        if raw in seen:
            continue
        seen.add(raw)
        node_id = tag_node_id(system_name, raw)
        if out.has_node(node_id):
            raise GraphFormatError(f"tag node {node_id!r} already present in graph")
        try:
            tokens = tuple(normalize_tag(raw, graph.word_vocabulary))
        except ValueError:
            skipped += 1
            continue
        out.add_node(GenreNode(id=node_id, language=language, raw_label=raw, tokens=tokens, system=system_name))
        for match in sorted(by_shape.get((language, tokens), [])):
            out.add_edge(node_id, match, "sameAs")
    if skipped:
        logger.warning("skipped %d %r tags with no alphanumeric content", skipped, system_name)
    return out


def bfs_hops(graph: GenreGraph, source: str) -> dict[str, int]:
    """Hop counts from `source` to every reachable node, ignoring direction."""
    if not graph.has_node(source):
        raise ValueError(f"unknown node id {source!r}")
    hops = {source: 0}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for neighbor in graph._adjacency[current]:
            if neighbor not in hops:
                hops[neighbor] = hops[current] + 1
                queue.append(neighbor)
    return hops


def shortest_path_similarity(graph: GenreGraph, a: str, b: str) -> float:
    """Relatedness 1/(1+L) from the shortest undirected path length L.

    Identical nodes score 1; unreachable pairs score 0.
    """
    for node_id in (a, b):
        if not graph.has_node(node_id):
            raise ValueError(f"unknown node id {node_id!r}")
    if a == b:
        return 1.0
    length = bfs_hops(graph, a).get(b)
    return 0.0 if length is None else 1.0 / (1.0 + length)


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


def save_graph(graph: GenreGraph, path: str | os.PathLike) -> None:
    """Write the full-fidelity graph JSON (tokens, systems, vocabulary included)."""
    with atomic_write(path) as handle:
        json.dump(graph.to_dict(), handle, ensure_ascii=False, indent=2, sort_keys=True)
        handle.write("\n")


def load_saved_graph(path: str | os.PathLike) -> GenreGraph:
    """Read a graph written by :func:`save_graph`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return GenreGraph.from_dict(payload)
