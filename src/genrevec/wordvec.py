"""Pre-trained word vector files: loading, rank lookup, and rank-based frequency estimates."""

from __future__ import annotations

import logging
import os
import unicodedata
from typing import Mapping

import numpy as np

from ._lines import iter_lines, reading

logger = logging.getLogger(__name__)

TAB_SEPARATED = "tab-separated row; the word and its components are separated by single spaces"
# Shift constant of the Zipf-Mandelbrot rank/frequency law.
MANDELBROT_SHIFT = 2.7


class VectorFormatError(ValueError):
    """A word vector or concept matrix file is malformed."""


def normalize_word(word: str) -> str:
    """Canonical vocabulary key: NFC-normalized and lowercased."""
    return unicodedata.normalize("NFC", word).lower()


class WordVectorStore:
    """Word vectors ordered by decreasing corpus frequency.

    Ranks are 1-based positions among the stored entries: the most frequent
    word has rank 1, and ranks are contiguous over the stored entries, so a
    file row dropped while loading shifts every later rank down by one. The
    store is immutable after construction; concurrent reads are safe.
    """

    def __init__(self, dim: int, words: list[str], matrix: np.ndarray):
        if matrix.shape != (len(words), dim):
            raise ValueError(f"matrix shape {matrix.shape} does not match {len(words)} words of dim {dim}")
        self.dim = dim
        self.words = list(words)
        self.matrix = matrix
        self.matrix.flags.writeable = False
        self._rank = {word: position + 1 for position, word in enumerate(self.words)}
        if len(self._rank) != len(self.words):
            raise ValueError("duplicate words in store")

    def __len__(self) -> int:
        return len(self.words)

    def lookup(self, word: str) -> tuple[np.ndarray, int] | None:
        """Return (vector, rank) for `word`, or None when out of vocabulary."""
        rank = self._rank.get(normalize_word(word))
        if rank is None:
            return None
        return self.matrix[rank - 1], rank


def load_vectors(source: str | os.PathLike) -> WordVectorStore:
    """Parse the text vector file at `source` into a :class:`WordVectorStore`.

    The first line must be "<count> <dim>"; each following line is a word and
    `dim` finite decimal components separated by single spaces. The header's
    count bounds the rows read: reading stops after `count` rows, and input
    that ends before them is rejected as truncated. Words are stored
    NFC-normalized and lowercased; rows whose words collide with an earlier
    entry after that normalization count as read but are dropped with a
    warning, while a byte-identical duplicate word is rejected as a
    malformed file. :class:`VectorFormatError` names the path, the line (and
    column of a byte that is not UTF-8), then the problem.
    """
    with reading(source, VectorFormatError):
        lines = iter_lines(source, "", VectorFormatError)
        count, dim = _parse_header(next(lines, None))

        # Every row read is parsed, dropped rows too, so the first bad line in file
        # order is the one reported: a duplicate word at line L comes after the
        # component errors of lines up to L, an empty word at line L after those of
        # the lines before it.
        raw_words: list[str] = []
        rests: list[str] = []
        linenos: list[int] = []
        kept: dict[str, int] = {}  # normalized word -> index of its first row in `rests`
        seen_raw: set[str] = set()
        failure: VectorFormatError | None = None
        for lineno, line in enumerate(lines, start=2):
            if len(rests) >= count:
                break
            if not line:
                continue
            word, _, rest = line.rstrip(" ").partition(" ")
            if not word:
                failure = VectorFormatError(f"line {lineno}: empty word field")
                break
            raw_words.append(word)
            rests.append(rest)
            linenos.append(lineno)
            if word in seen_raw:
                failure = VectorFormatError(f"line {lineno}: duplicate word {word!r}")
                break
            seen_raw.add(word)
            kept.setdefault(normalize_word(word), len(rests) - 1)

        matrix = _parse_block(raw_words, rests, linenos, dim)
        if failure is not None:
            raise failure
        if len(rests) < count:
            raise VectorFormatError(f"header declares {count} rows, found {len(rests)}")
        collisions = len(rests) - len(kept)
        if collisions:
            logger.warning("dropped %d rows whose words collide after NFC/lowercase normalization", collisions)
            matrix = matrix[list(kept.values())]
        return WordVectorStore(dim=dim, words=list(kept), matrix=matrix)


def _parse_block(raw_words: list[str], rests: list[str], linenos: list[int], dim: int) -> np.ndarray:
    """Parse the component text of every row with one numpy call.

    Files numpy cannot read as a finite (rows, dim) block (a bad line, or
    numerals only Python's float() accepts, such as '1_0' or non-ASCII
    digits) go through :func:`_parse_row` row by row, which gives the same
    values as float() or raises for the first bad line.
    """
    if not rests:
        return np.zeros((0, dim))
    if any(rests):  # loadtxt warns on input with no data; such rows all fail below anyway
        try:
            matrix = np.loadtxt(rests, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            # loadtxt skips empty lines, so a row with no components shows as a short block
            if matrix.shape == (len(rests), dim) and np.isfinite(matrix).all():
                return matrix
    return np.vstack(
        [_parse_row(f"{word} {rest}", lineno, dim)[1] for word, rest, lineno in zip(raw_words, rests, linenos)]
    )


def _parse_header(header: str | None) -> tuple[int, int]:
    """Read a '<count> <dim>' header line."""
    if header is None:
        raise VectorFormatError("empty vector stream: missing '<count> <dim>' header")
    try:
        count, dim = map(int, header.split())  # a wrong field count is a ValueError too
    except ValueError:
        raise VectorFormatError(f"line 1: malformed header {header!r}, expected '<count> <dim>'") from None
    if count < 0 or dim < 1:
        raise VectorFormatError(f"line 1: invalid header values count={count} dim={dim}")
    return count, dim


def _parse_row(line: str, lineno: int, dim: int) -> tuple[str, np.ndarray]:
    """Split one vector row; raises VectorFormatError naming the line."""
    fields = line.rstrip(" ").split(" ")
    word = fields[0]
    if not word:
        raise VectorFormatError(f"line {lineno}: empty word field")
    if len(fields) - 1 != dim:
        problem = TAB_SEPARATED if "\t" in line else f"expected {dim} components, found {len(fields) - 1}"
        raise VectorFormatError(f"line {lineno}: {problem}")
    try:
        vector = np.array([float(x) for x in fields[1:]], dtype=np.float64)
    except ValueError:
        raise VectorFormatError(f"line {lineno}: non-numeric vector component") from None
    if not np.isfinite(vector).all():
        raise VectorFormatError(f"line {lineno}: non-finite vector component")
    return word, vector


def estimate_frequency(rank: int | np.ndarray) -> float | np.ndarray:
    """Estimated corpus frequency of the word at 1-based vocabulary `rank`.

    Vocabularies sorted by decreasing corpus frequency let the frequency be
    approximated from the rank alone; the estimate is strictly positive and
    strictly decreasing in rank. An array of ranks gives the estimates
    elementwise.
    """
    if np.any(np.asarray(rank) < 1):
        raise ValueError(f"rank must be >= 1, got {rank}")
    return 1.0 / (rank + MANDELBROT_SHIFT)


class VectorSpace:
    """Per-language word vector stores projected into one aligned space.

    All stores must agree on the embedding dimensionality. Composition reads
    a concept's words from the store of its language; a language with no
    store behaves like an out-of-vocabulary word.
    """

    def __init__(self, stores: Mapping[str, WordVectorStore]):
        if not stores:
            raise ValueError("at least one language store is required")
        dims = {store.dim for store in stores.values()}
        if len(dims) != 1:
            raise ValueError(f"stores disagree on dimensionality: {sorted(dims)}")
        self.stores = dict(stores)
        self.dim = dims.pop()
