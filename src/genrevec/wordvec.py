"""Pre-trained word vector files: loading, rank lookup, and rank-based frequency estimates."""

from __future__ import annotations

import logging
import os
import unicodedata
from typing import IO, Callable, Iterable, Iterator, Mapping

import numpy as np

from ._lines import iter_lines

logger = logging.getLogger(__name__)

# Shift constant of the Zipf-Mandelbrot rank/frequency law.
MANDELBROT_SHIFT = 2.7


class VectorFormatError(ValueError):
    """A vector file does not follow the '<count> <dim>' header + row text format."""


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

    def __contains__(self, word: str) -> bool:
        return normalize_word(word) in self._rank

    def lookup(self, word: str) -> tuple[np.ndarray, int] | None:
        """Return (vector, rank) for `word`, or None when out of vocabulary."""
        rank = self._rank.get(normalize_word(word))
        if rank is None:
            return None
        return self.matrix[rank - 1], rank

    def entries(self) -> Iterator[tuple[str, np.ndarray]]:
        for position, word in enumerate(self.words):
            yield word, self.matrix[position]


def load_vectors(
    source: str | os.PathLike | IO | Iterable[str],
    limit: int | None = None,
) -> WordVectorStore:
    """Parse the text vector format into a :class:`WordVectorStore`.

    The first line must be "<count> <dim>"; each following line is a word and
    `dim` finite decimal components separated by single spaces. At most
    min(count, limit) entries are kept, in file order. Words are stored
    NFC-normalized and lowercased; rows whose words collide with an earlier
    entry after that normalization are dropped with a warning, while a
    byte-identical duplicate word is rejected as a malformed file.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be a positive integer, got {limit}")
    lines = iter_lines(source)
    count, dim = _parse_header(next(lines, None))

    cap = count if limit is None else min(count, limit)
    seen_raw: set[str] = set()
    seen_keys: set[str] = set()
    collisions = 0

    def admit(raw_word: str, lineno: int) -> str | None:
        nonlocal collisions
        if raw_word in seen_raw:
            raise VectorFormatError(f"line {lineno}: duplicate word {raw_word!r}")
        seen_raw.add(raw_word)
        key = normalize_word(raw_word)
        if key in seen_keys:
            collisions += 1
            return None
        seen_keys.add(key)
        return key

    words, matrix = _read_rows(lines, dim, admit, cap=cap)
    if collisions:
        logger.warning("dropped %d rows whose words collide after NFC/lowercase normalization", collisions)
    return WordVectorStore(dim=dim, words=words, matrix=matrix)


def _read_rows(
    lines: Iterator[str],
    dim: int,
    admit: Callable[[str, int], str | None],
    cap: int | None = None,
    where: str = "",
) -> tuple[list[str], np.ndarray]:
    """Read the rows after the header: (kept keys, float64 matrix of their rows).

    Lines are numbered from 2 and blank lines are skipped. `admit(word,
    lineno)` maps each raw word to the key to keep, returns None to drop the
    row, or raises VectorFormatError to reject the file. Reading stops once
    `cap` rows are kept. Every row read is parsed and validated, dropped rows
    too, and the first bad line in file order is the one reported: an error
    `admit` raises at line L comes after the component errors of lines up to
    L, an empty word at line L after those of the lines before it.
    """
    raw_words: list[str] = []
    rests: list[str] = []
    linenos: list[int] = []
    keys: list[str] = []
    kept_rows: list[int] = []
    failure: VectorFormatError | None = None
    for lineno, line in enumerate(lines, start=2):
        if cap is not None and len(keys) >= cap:
            break
        if not line:
            continue
        word, _, rest = line.rstrip(" ").partition(" ")
        if not word:
            try:
                _parse_row(line, lineno, dim, where)  # raises the empty-word error
            except VectorFormatError as error:
                failure = error
            break
        raw_words.append(word)
        rests.append(rest)
        linenos.append(lineno)
        try:
            key = admit(word, lineno)
        except VectorFormatError as error:
            failure = error
            break
        if key is not None:
            keys.append(key)
            kept_rows.append(len(rests) - 1)

    matrix = _parse_block(raw_words, rests, linenos, dim, where)
    if failure is not None:
        raise failure
    if len(kept_rows) != len(rests):
        matrix = matrix[kept_rows]
    return keys, matrix


def _parse_block(raw_words: list[str], rests: list[str], linenos: list[int], dim: int, where: str) -> np.ndarray:
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
        [_parse_row(f"{word} {rest}", lineno, dim, where)[1] for word, rest, lineno in zip(raw_words, rests, linenos)]
    )


def _parse_header(header: str | None, where: str = "") -> tuple[int, int]:
    """Read a '<count> <dim>' header line; `where` prefixes every error message."""
    if header is None:
        raise VectorFormatError(f"{where}empty vector stream: missing '<count> <dim>' header")
    try:
        count, dim = map(int, header.split())  # a wrong field count is a ValueError too
    except ValueError:
        raise VectorFormatError(f"{where}line 1: malformed header {header!r}, expected '<count> <dim>'") from None
    if count < 0 or dim < 1:
        raise VectorFormatError(f"{where}line 1: invalid header values count={count} dim={dim}")
    return count, dim


def _parse_row(line: str, lineno: int, dim: int, where: str = "") -> tuple[str, np.ndarray]:
    """Split one vector row; raises VectorFormatError naming the line, prefixed by `where`."""
    fields = line.rstrip(" ").split(" ")
    word = fields[0]
    if not word:
        raise VectorFormatError(f"{where}line {lineno}: empty word field")
    if len(fields) - 1 != dim:
        raise VectorFormatError(f"{where}line {lineno}: expected {dim} components, found {len(fields) - 1}")
    try:
        vector = np.array([float(x) for x in fields[1:]], dtype=np.float64)
    except ValueError:
        raise VectorFormatError(f"{where}line {lineno}: non-numeric vector component") from None
    if not np.isfinite(vector).all():
        raise VectorFormatError(f"{where}line {lineno}: non-finite vector component")
    return word, vector


def estimate_frequency(rank: int) -> float:
    """Estimated corpus frequency of the word at 1-based vocabulary `rank`.

    Vocabularies sorted by decreasing corpus frequency let the frequency be
    approximated from the rank alone; the estimate is strictly positive and
    strictly decreasing in rank.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    return 1.0 / (rank + MANDELBROT_SHIFT)


class VectorSpace:
    """Per-language word vector stores projected into one aligned space.

    Lookups are keyed by (word, language); all stores must agree on the
    embedding dimensionality. A missing language behaves like an
    out-of-vocabulary word.
    """

    def __init__(self, stores: Mapping[str, WordVectorStore]):
        if not stores:
            raise ValueError("at least one language store is required")
        dims = {store.dim for store in stores.values()}
        if len(dims) != 1:
            raise ValueError(f"stores disagree on dimensionality: {sorted(dims)}")
        self.stores = dict(stores)
        self.dim = dims.pop()

    def languages(self) -> list[str]:
        return sorted(self.stores)

    def lookup(self, word: str, language: str) -> tuple[np.ndarray, int] | None:
        store = self.stores.get(language)
        if store is None:
            return None
        return store.lookup(word)
