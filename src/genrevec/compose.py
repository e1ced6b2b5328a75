"""Initial concept embeddings composed from word vectors.

Two strategies: plain averaging of the constituent word vectors, and
smooth-inverse-frequency weighting followed by removal of the shared
dominant direction of the composed matrix. Both sum the token vectors with
one sparse product per language store, a concepts x vocabulary matrix of
token weights times the store's vectors; the dominant direction is the top
eigenvector of the Gram matrix. Matrices are saved and loaded as exact
binary ``.npz`` archives.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from ._lines import NOT_JSON, atomic_write, reading
from .wordvec import VectorFormatError, VectorSpace, estimate_frequency

DEFAULT_SIF_A = 1e-3


@dataclass
class ConceptEmbeddingMatrix:
    """Per-concept embeddings with known/unknown vocabulary flags.

    `known[i]` is True iff at least one constituent word of concept i was
    found in the word-vector vocabulary. Freshly composed matrices hold the
    zero vector for unknown concepts. Both arrays are read-only after
    construction, so what is derived from them can be memoized. A repeated
    concept id raises ValueError naming the first id met a second time.
    """

    concepts: list[str]
    vectors: np.ndarray
    known: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False)
    # kept by translation: a translate.TargetMemo of the latest target list (see translate._memo)
    _target_memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.known = np.asarray(self.known, dtype=bool)
        self.vectors.flags.writeable = False
        self.known.flags.writeable = False
        n = len(self.concepts)
        if self.vectors.ndim != 2 or self.vectors.shape[0] != n:
            raise ValueError(f"vectors shape {self.vectors.shape} does not match {n} concepts")
        if self.known.shape != (n,):
            raise ValueError(f"known shape {self.known.shape} does not match {n} concepts")
        self._index = {cid: i for i, cid in enumerate(self.concepts)}
        if len(self._index) != n:
            first: dict[str, int] = {}
            repeated = next(cid for i, cid in enumerate(self.concepts) if first.setdefault(cid, i) != i)
            raise ValueError(f"duplicate concept id {repeated!r}")

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

    def copy_with(self, vectors: np.ndarray | None = None, known: np.ndarray | None = None) -> "ConceptEmbeddingMatrix":
        return ConceptEmbeddingMatrix(
            concepts=list(self.concepts),
            vectors=self.vectors.copy() if vectors is None else vectors,
            known=self.known.copy() if known is None else known,
        )


def _weighted_token_sums(
    tokens_per_concept: Mapping[str, Sequence[str]],
    space: VectorSpace,
    languages: Mapping[str, str],
    a: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per concept, in order: the sum of its in-vocabulary token vectors and the number of them.

    Each token is read from the store of its concept's language and weighted 1
    (`a` is None) or ``sif_weight(rank, a)``. Each store contributes one product
    of a concepts x vocabulary CSR weight matrix with its vectors. The CSR matrix
    is built from its arrays, so a repeated token keeps both entries, and the
    product sums each row from zero in token order, exactly as a loop over the
    tokens would. Concepts whose language has no store keep the zero sum.
    """
    rows_by_language: dict[str, list[int]] = {}
    for i, (cid, tokens) in enumerate(tokens_per_concept.items()):
        if not tokens:
            raise ValueError(f"concept {cid!r} has an empty token list")
        rows_by_language.setdefault(languages[cid], []).append(i)

    token_lists = list(tokens_per_concept.values())
    sums = np.zeros((len(token_lists), space.dim))
    hits = np.zeros(len(token_lists), dtype=np.int64)
    for language, rows in rows_by_language.items():
        vocabulary = space.stores.get(language)
        if vocabulary is None:
            continue
        ranks: list[int] = []
        indptr = [0]
        for i in rows:
            ranks.extend(hit[1] for hit in map(vocabulary.lookup, token_lists[i]) if hit is not None)
            indptr.append(len(ranks))
        rank_array = np.array(ranks, dtype=np.int64)
        weights = np.ones(len(rank_array)) if a is None else sif_weight(rank_array, a)
        matrix = sparse.csr_matrix((weights, rank_array - 1, indptr), shape=(len(rows), len(vocabulary)))
        sums[rows] = matrix @ vocabulary.matrix
        hits[rows] = np.diff(indptr)
    return sums, hits


def compose_avg(
    tokens_per_concept: Mapping[str, Sequence[str]],
    space: VectorSpace,
    languages: Mapping[str, str],
) -> ConceptEmbeddingMatrix:
    """Average the word vectors of each concept's tokens, read from the store of its language.

    An out-of-vocabulary token contributes the zero vector but still counts
    toward the denominator. A concept is unknown (and gets the zero vector)
    iff all its tokens are out of vocabulary.
    """
    sums, hits = _weighted_token_sums(tokens_per_concept, space, languages)
    counts = np.array([len(tokens) for tokens in tokens_per_concept.values()], dtype=np.int64)
    return ConceptEmbeddingMatrix(concepts=list(tokens_per_concept), vectors=sums / counts[:, None], known=hits > 0)


def check_sif_a(a: float) -> None:
    """Reject a smoothing constant that is not positive and finite (NaN included)."""
    if not 0 < a < math.inf:
        raise ValueError(f"smoothing constant a must be positive and finite, got {a}")


def sif_weight(rank: int | np.ndarray, a: float = DEFAULT_SIF_A) -> float | np.ndarray:
    """Smooth-inverse-frequency weight of a word at the given vocabulary rank (elementwise for an array)."""
    check_sif_a(a)
    return a / (a + estimate_frequency(rank))


def sif_weighted_means(
    tokens_per_concept: Mapping[str, Sequence[str]],
    space: VectorSpace,
    languages: Mapping[str, str],
    a: float = DEFAULT_SIF_A,
) -> tuple[np.ndarray, np.ndarray]:
    """First composition stage: frequency-weighted means over in-vocabulary tokens.

    Out-of-vocabulary tokens are skipped entirely (their rank, hence their
    frequency estimate, is undefined), so the denominator counts only tokens
    that resolved. Returns (means, known); all-out-of-vocabulary concepts get
    the zero vector and known=False.
    """
    check_sif_a(a)
    sums, hits = _weighted_token_sums(tokens_per_concept, space, languages, a=a)
    return sums / np.maximum(hits, 1)[:, None], hits > 0


def principal_direction(rows: np.ndarray) -> np.ndarray:
    """Leading right-singular direction of `rows`: the top eigenvector of its Gram matrix.

    The sign is fixed so the largest-magnitude component is positive, which
    makes the result deterministic. Returns the zero vector when `rows` is
    entirely zero.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    gram = rows.T @ rows
    if not np.any(gram):
        return np.zeros(rows.shape[1])
    direction = np.linalg.eigh(gram)[1][:, -1]  # eigenvalues ascend
    largest = int(np.argmax(np.abs(direction)))
    return -direction if direction[largest] < 0 else direction


def remove_common_direction(matrix: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Project the given direction out of every row of `matrix`."""
    matrix = np.asarray(matrix, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    return matrix - np.outer(matrix @ direction, direction)


def compose_sif(
    tokens_per_concept: Mapping[str, Sequence[str]],
    space: VectorSpace,
    languages: Mapping[str, str],
    a: float = DEFAULT_SIF_A,
) -> ConceptEmbeddingMatrix:
    """Smooth-inverse-frequency composition with common-direction removal.

    Stage one computes frequency-weighted token means; stage two removes the
    leading singular direction of the matrix of known rows (zero rows carry
    no signal and are excluded). Unknown concepts keep the zero vector.
    """
    means, known = sif_weighted_means(tokens_per_concept, space, languages, a=a)
    if int(known.sum()) < 2:
        raise ValueError("smooth-inverse-frequency composition needs at least 2 known concepts")
    direction = principal_direction(means[known])
    vectors = means.copy()
    vectors[known] = remove_common_direction(means[known], direction)
    return ConceptEmbeddingMatrix(concepts=list(tokens_per_concept), vectors=vectors, known=known)


MATRIX_ARRAYS = ("concepts", "vectors", "known", "metadata")
DAMAGED_ARCHIVE = (ValueError, EOFError, OSError, RuntimeError, zipfile.BadZipFile)  # all numpy and zipfile raise


def save_matrix(
    matrix: ConceptEmbeddingMatrix,
    path: str | os.PathLike,
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Write a concept matrix as one uncompressed ``.npz`` archive at `path`.

    The archive holds four arrays: ``concepts`` (1-D unicode), ``vectors``
    (float64, concepts x dim), ``known`` (bool) and ``metadata`` (a 0-d
    unicode JSON object with sorted keys). Every value reads back exactly.
    `path` is used as given: no suffix is added.
    """
    # a numpy unicode array drops trailing NULs, so such an id would read back as another id
    unstorable = next((cid for cid in matrix.concepts if cid.endswith("\0")), None)
    if unstorable is not None:
        raise ValueError(f"concept id {unstorable!r} ends with a NUL character, which the matrix file cannot hold")
    arrays = {
        "concepts": np.array(matrix.concepts, dtype=str),
        "vectors": matrix.vectors,
        "known": matrix.known,
        "metadata": np.array(json.dumps(dict(metadata or {}), sort_keys=True)),
    }
    # an open handle, not a path: given a path, numpy appends '.npz' and writes in place
    with atomic_write(path, binary=True) as handle:
        np.savez(handle, **arrays)


def load_matrix(path: str | os.PathLike) -> tuple[ConceptEmbeddingMatrix, dict]:
    """Read a concept matrix written by :func:`save_matrix`; returns (matrix, metadata).

    Any file that is not such an archive, such as a text matrix of an older
    version, any array of the wrong type or shape or non-finite component,
    and any matrix the constructor rejects (a repeated concept id) raises
    :class:`VectorFormatError` naming `path`, then the problem.
    """
    with reading(path, VectorFormatError), open(path, "rb") as handle:
        try:
            archive = np.load(handle, allow_pickle=False)
        except DAMAGED_ARCHIVE:
            archive = None
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise VectorFormatError("not a concept matrix .npz archive; rerun `genrevec embed` to rewrite it")
        with archive:
            missing = [name for name in MATRIX_ARRAYS if name not in archive.files]
            if missing:
                raise VectorFormatError(f"missing array {missing[0]!r}")
            try:
                concepts, vectors, known, metadata = (archive[name] for name in MATRIX_ARRAYS)
            except DAMAGED_ARCHIVE as error:
                raise VectorFormatError(f"unreadable array ({error})") from None

        if vectors.dtype != np.float64 or vectors.ndim != 2:
            raise VectorFormatError(f"vectors must be a 2-D float64 array, found {vectors.dtype} {vectors.shape}")
        n = len(vectors)
        if concepts.dtype.kind != "U" or concepts.shape != (n,):
            raise VectorFormatError(
                f"concepts must be a 1-D unicode array of {n} ids, found {concepts.dtype} {concepts.shape}"
            )
        if known.dtype != bool or known.shape != (n,):
            raise VectorFormatError(f"known must be a bool array of shape ({n},), found {known.dtype} {known.shape}")
        if metadata.dtype.kind != "U" or metadata.ndim != 0:
            raise VectorFormatError(f"metadata must be a 0-d unicode array, found {metadata.dtype} {metadata.shape}")
        try:
            metadata = json.loads(metadata.item())
        except NOT_JSON:
            metadata = None
        if not isinstance(metadata, dict):
            raise VectorFormatError("metadata is not a JSON object")
        concepts = concepts.tolist()
        finite = np.isfinite(vectors).all(axis=1)
        if not finite.all():
            raise VectorFormatError(f"non-finite vector component for concept {concepts[np.argmin(finite)]!r}")
        try:
            return ConceptEmbeddingMatrix(concepts=concepts, vectors=vectors, known=known), metadata
        except ValueError as exc:
            raise VectorFormatError(str(exc)) from None
