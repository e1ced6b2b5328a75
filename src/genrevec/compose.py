"""Initial concept embeddings composed from word vectors.

Two strategies: plain averaging of the constituent word vectors, and
smooth-inverse-frequency weighting followed by removal of the shared
dominant direction of the composed matrix.
"""

from __future__ import annotations

import json
import logging
import math
import os
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._lines import atomic_write, iter_lines
from .wordvec import VectorFormatError, VectorSpace, WordVectorStore, estimate_frequency, _parse_header, _read_rows

logger = logging.getLogger(__name__)

DEFAULT_SIF_A = 1e-3
POWER_ITERATION_TOLERANCE = 1e-10
POWER_ITERATION_CAP = 1000


@dataclass
class ConceptEmbeddingMatrix:
    """Per-concept embeddings with known/unknown vocabulary flags.

    `known[i]` is True iff at least one constituent word of concept i was
    found in the word-vector vocabulary. Freshly composed matrices hold the
    zero vector for unknown concepts.
    """

    concepts: list[str]
    vectors: np.ndarray
    known: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.known = np.asarray(self.known, dtype=bool)
        n = len(self.concepts)
        if self.vectors.ndim != 2 or self.vectors.shape[0] != n:
            raise ValueError(f"vectors shape {self.vectors.shape} does not match {n} concepts")
        if self.known.shape != (n,):
            raise ValueError(f"known shape {self.known.shape} does not match {n} concepts")
        self._index = {cid: i for i, cid in enumerate(self.concepts)}
        if len(self._index) != n:
            raise ValueError("duplicate concept identifiers")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.concepts)

    def __contains__(self, concept: str) -> bool:
        return concept in self._index

    def index_of(self, concept: str) -> int:
        try:
            return self._index[concept]
        except KeyError:
            raise KeyError(f"unknown concept {concept!r}") from None

    def vector(self, concept: str) -> np.ndarray:
        return self.vectors[self.index_of(concept)]

    def is_known(self, concept: str) -> bool:
        return bool(self.known[self.index_of(concept)])

    def copy_with(self, vectors: np.ndarray | None = None, known: np.ndarray | None = None) -> "ConceptEmbeddingMatrix":
        return ConceptEmbeddingMatrix(
            concepts=list(self.concepts),
            vectors=self.vectors.copy() if vectors is None else vectors,
            known=self.known.copy() if known is None else known,
        )


def _make_resolver(store, languages):
    """Build a (concept_id, token) -> lookup function over either store kind."""
    if isinstance(store, VectorSpace):
        if languages is None:
            raise ValueError("a languages mapping (concept id -> language) is required with a VectorSpace")
        return store.dim, lambda cid, token: store.lookup(token, languages[cid])
    return store.dim, lambda cid, token: store.lookup(token)


def compose_avg(
    tokens_per_concept: Mapping[str, Sequence[str]],
    store: WordVectorStore | VectorSpace,
    languages: Mapping[str, str] | None = None,
) -> ConceptEmbeddingMatrix:
    """Average the word vectors of each concept's tokens.

    An out-of-vocabulary token contributes the zero vector but still counts
    toward the denominator. A concept is unknown (and gets the zero vector)
    iff all its tokens are out of vocabulary.
    """
    dim, resolve = _make_resolver(store, languages)
    concepts = list(tokens_per_concept)
    vectors = np.zeros((len(concepts), dim))
    known = np.zeros(len(concepts), dtype=bool)
    for i, cid in enumerate(concepts):
        tokens = tokens_per_concept[cid]
        if not tokens:
            raise ValueError(f"concept {cid!r} has an empty token list")
        acc = np.zeros(dim)
        hit = False
        for token in tokens:
            found = resolve(cid, token)
            if found is not None:
                acc += found[0]
                hit = True
        vectors[i] = acc / len(tokens)
        known[i] = hit
    return ConceptEmbeddingMatrix(concepts=concepts, vectors=vectors, known=known)


def sif_weight(rank: int, a: float = DEFAULT_SIF_A) -> float:
    """Smooth-inverse-frequency weight of a word at the given vocabulary rank."""
    if a <= 0:
        raise ValueError(f"smoothing constant a must be positive, got {a}")
    return a / (a + estimate_frequency(rank))


def sif_weighted_means(
    tokens_per_concept: Mapping[str, Sequence[str]],
    store: WordVectorStore | VectorSpace,
    a: float = DEFAULT_SIF_A,
    languages: Mapping[str, str] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """First composition stage: frequency-weighted means over in-vocabulary tokens.

    Out-of-vocabulary tokens are skipped entirely (their rank, hence their
    frequency estimate, is undefined), so the denominator counts only tokens
    that resolved. Returns (means, known); all-out-of-vocabulary concepts get
    the zero vector and known=False.
    """
    if a <= 0:
        raise ValueError(f"smoothing constant a must be positive, got {a}")
    dim, resolve = _make_resolver(store, languages)
    concepts = list(tokens_per_concept)
    means = np.zeros((len(concepts), dim))
    known = np.zeros(len(concepts), dtype=bool)
    for i, cid in enumerate(concepts):
        tokens = tokens_per_concept[cid]
        if not tokens:
            raise ValueError(f"concept {cid!r} has an empty token list")
        acc = np.zeros(dim)
        hits = 0
        for token in tokens:
            found = resolve(cid, token)
            if found is None:
                continue
            vector, rank = found
            acc += (a / (a + estimate_frequency(rank))) * vector
            hits += 1
        if hits:
            means[i] = acc / hits
            known[i] = True
    return means, known


def principal_direction(rows: np.ndarray) -> np.ndarray:
    """Leading right-singular direction of `rows` via power iteration.

    Iterates on the Gram matrix with a fixed start direction so the result
    is deterministic; the sign is fixed so the largest-magnitude component
    is positive. Returns the zero vector when `rows` is entirely zero.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    d = rows.shape[1]
    gram = rows.T @ rows
    if not np.any(gram):
        return np.zeros(d)
    # Canonical basis vectors back up the all-ones start in the (measure-zero)
    # case where it is exactly orthogonal to the dominant direction.
    starts = [np.full(d, 1.0 / math.sqrt(d))] + [np.eye(d)[i] for i in range(d)]
    for v in starts:
        converged = False
        for _ in range(POWER_ITERATION_CAP):
            w = gram @ v
            norm = np.linalg.norm(w)
            if norm == 0.0:
                break
            w /= norm
            if np.linalg.norm(w - v) <= POWER_ITERATION_TOLERANCE:
                v = w
                converged = True
                break
            v = w
        if converged or np.linalg.norm(gram @ v) > 0.0:
            break
    largest = int(np.argmax(np.abs(v)))
    if v[largest] < 0:
        v = -v
    return v


def remove_common_direction(matrix: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Project the given direction out of every row of `matrix`."""
    matrix = np.asarray(matrix, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    return matrix - np.outer(matrix @ direction, direction)


def compose_sif(
    tokens_per_concept: Mapping[str, Sequence[str]],
    store: WordVectorStore | VectorSpace,
    a: float = DEFAULT_SIF_A,
    languages: Mapping[str, str] | None = None,
) -> ConceptEmbeddingMatrix:
    """Smooth-inverse-frequency composition with common-direction removal.

    Stage one computes frequency-weighted token means; stage two removes the
    leading singular direction of the matrix of known rows (zero rows carry
    no signal and are excluded). Unknown concepts keep the zero vector.
    """
    means, known = sif_weighted_means(tokens_per_concept, store, a=a, languages=languages)
    if int(known.sum()) < 2:
        raise ValueError("smooth-inverse-frequency composition needs at least 2 known concepts")
    direction = principal_direction(means[known])
    vectors = means.copy()
    vectors[known] = remove_common_direction(means[known], direction)
    return ConceptEmbeddingMatrix(concepts=list(tokens_per_concept), vectors=vectors, known=known)


def _meta_path(path: str | os.PathLike) -> Path:
    return Path(str(path) + ".meta.json")


def save_matrix(
    matrix: ConceptEmbeddingMatrix,
    path: str | os.PathLike,
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Write a concept matrix in the word-vector text format.

    Concept identifiers are percent-encoded so rows stay single-space
    separated regardless of the characters in the id. Known flags and any
    extra metadata go to a JSON sidecar at '<path>.meta.json'.
    """
    path = Path(path)
    row_format = "%s " + " ".join(["%.10g"] * matrix.dim) + "\n"
    with atomic_write(path) as handle:
        handle.write(f"{len(matrix)} {matrix.dim}\n")
        for cid, row in zip(matrix.concepts, matrix.vectors):
            # row by row: a whole-matrix tolist() would hold every component as a Python float at once
            handle.write(row_format % (urllib.parse.quote(cid, safe=""), *row.tolist()))
    sidecar = {
        "known": [bool(flag) for flag in matrix.known],
        "metadata": dict(metadata) if metadata else {},
    }
    with atomic_write(_meta_path(path)) as handle:
        json.dump(sidecar, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_matrix(path: str | os.PathLike) -> tuple[ConceptEmbeddingMatrix, dict]:
    """Read a concept matrix written by :func:`save_matrix`.

    Unlike word-vector loading, concept ids are kept exact (percent-decoded,
    no case folding). Without a sidecar the known flags fall back to
    "row is nonzero". Returns (matrix, metadata).
    """
    lines = iter_lines(path)
    count, dim = _parse_header(next(lines, None), where=f"{path}: ")
    concepts, vectors = _read_rows(lines, dim, lambda encoded, _: urllib.parse.unquote(encoded), where=f"{path}: ")
    if len(concepts) != count:
        raise VectorFormatError(f"{path}: header declares {count} rows, found {len(concepts)}")

    meta_file = _meta_path(path)
    metadata: dict = {}
    if meta_file.exists():
        with open(meta_file, "r", encoding="utf-8") as handle:
            sidecar = json.load(handle)
        known = np.asarray(sidecar.get("known", []), dtype=bool)
        if known.shape != (len(concepts),):
            raise VectorFormatError(f"{meta_file}: known flags do not match {len(concepts)} rows")
        metadata = dict(sidecar.get("metadata", {}))
    else:
        logger.warning("%s: no metadata sidecar, deriving known flags from nonzero rows", path)
        known = np.any(vectors != 0.0, axis=1)
    return ConceptEmbeddingMatrix(concepts=concepts, vectors=vectors, known=known), metadata
