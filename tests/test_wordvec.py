"""Tests for word vector loading, lookup, and frequency estimation."""

import io
import os
import tempfile
import urllib.parse

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genrevec import wordvec
from genrevec._lines import iter_lines
from genrevec.compose import ConceptEmbeddingMatrix, load_matrix
from genrevec.wordvec import (
    MANDELBROT_SHIFT,
    VectorFormatError,
    VectorSpace,
    _parse_header,
    _parse_row,
    estimate_frequency,
    load_vectors,
    normalize_word,
)

BASIC = "2 3\nrock 1 0 0\npop 0 1 0\n"


class TestLoadVectors:
    def test_basic_load(self):
        store = load_vectors(io.StringIO(BASIC))
        assert len(store) == 2
        assert store.dim == 3
        vector, rank = store.lookup("rock")
        assert rank == 1
        np.testing.assert_array_equal(vector, [1.0, 0.0, 0.0])

    def test_limit_truncates(self):
        store = load_vectors(io.StringIO(BASIC), limit=1)
        assert len(store) == 1
        assert store.lookup("rock") is not None
        assert store.lookup("pop") is None

    def test_wrong_component_count_names_line(self):
        stream = io.StringIO("3 3\nrock 1 0 0\npop 0 1 0\njazz 1 0\n")
        with pytest.raises(VectorFormatError, match="line 4"):
            load_vectors(stream)

    def test_malformed_header(self):
        with pytest.raises(VectorFormatError, match="line 1"):
            load_vectors(io.StringIO("three 3\nrock 1 0 0\n"))
        with pytest.raises(VectorFormatError, match="header"):
            load_vectors(io.StringIO("3\nrock 1 0 0\n"))

    def test_exact_duplicate_word_rejected(self):
        stream = io.StringIO("3 2\nrock 1 0\npop 0 1\nrock 2 2\n")
        with pytest.raises(VectorFormatError, match="line 4.*duplicate"):
            load_vectors(stream)

    def test_case_collision_dropped_with_warning(self, caplog):
        stream = io.StringIO("3 2\nRock 1 0\nrock 2 2\npop 0 1\n")
        with caplog.at_level("WARNING"):
            store = load_vectors(stream)
        assert len(store) == 2
        vector, rank = store.lookup("rock")
        assert rank == 1
        np.testing.assert_array_equal(vector, [1.0, 0.0])
        assert "collide" in caplog.text
        # ranks count stored entries: the dropped row at line 3 does not take rank 2
        assert store.lookup("pop")[1] == 2

    def test_non_numeric_component(self):
        with pytest.raises(VectorFormatError, match="line 2"):
            load_vectors(io.StringIO("1 2\nrock x 0\n"))

    def test_non_finite_component_names_line(self):
        with pytest.raises(VectorFormatError, match="line 2.*non-finite"):
            load_vectors(io.StringIO("1 2\nx nan inf\n"))
        with pytest.raises(VectorFormatError, match="line 3.*non-finite"):
            load_vectors(io.StringIO("2 2\nrock 1 0\npop -inf 1\n"))

    def test_byte_stream(self):
        store = load_vectors(io.BytesIO(BASIC.encode("utf-8")))
        assert len(store) == 2

    def test_lookup_is_case_and_nfc_insensitive(self):
        store = load_vectors(io.StringIO("1 2\nMétal 1 0\n"))
        import unicodedata

        decomposed = unicodedata.normalize("NFD", "métal")
        assert store.lookup(decomposed) is not None
        assert store.lookup("MÉTAL".lower()) is not None

    def test_rank_bijection(self):
        store = load_vectors(io.StringIO("3 1\na 1\nb 2\nc 3\n"))
        ranks = [store.lookup(w)[1] for w in ("a", "b", "c")]
        assert sorted(ranks) == [1, 2, 3]

    @given(
        st.lists(
            st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=3, max_size=3),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_within_float_tolerance(self, rows):
        words = [f"w{i}" for i in range(len(rows))]
        text = f"{len(rows)} 3\n" + "".join(
            w + " " + " ".join(f"{x:.6f}" for x in row) + "\n" for w, row in zip(words, rows)
        )
        store = load_vectors(io.StringIO(text))
        for word, row in zip(words, rows):
            vector, _ = store.lookup(word)
            assert np.all(np.abs(vector - np.round(np.asarray(row), 6)) <= 1e-6)


def reference_load_vectors(text: str, limit: int | None = None) -> tuple[list[str], np.ndarray]:
    """Row-at-a-time loader: one _parse_row call per line, in file order."""
    lines = iter_lines(io.StringIO(text))
    count, dim = _parse_header(next(lines, None))
    cap = count if limit is None else min(count, limit)
    words, rows, seen_raw, seen_keys = [], [], set(), set()
    for lineno, line in enumerate(lines, start=2):
        if len(words) >= cap:
            break
        if not line:
            continue
        raw_word, vector = _parse_row(line, lineno, dim)
        if raw_word in seen_raw:
            raise VectorFormatError(f"line {lineno}: duplicate word {raw_word!r}")
        seen_raw.add(raw_word)
        key = normalize_word(raw_word)
        if key in seen_keys:
            continue
        seen_keys.add(key)
        words.append(key)
        rows.append(vector)
    return words, np.vstack(rows) if rows else np.zeros((0, dim))


def reference_load_matrix(path: str) -> tuple[list[str], np.ndarray]:
    """Row-at-a-time matrix reader: one _parse_row call per line, in file order."""
    lines = iter_lines(path)
    count, dim = _parse_header(next(lines, None), where=f"{path}: ")
    concepts, rows = [], []
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        encoded, vector = _parse_row(line, lineno, dim, where=f"{path}: ")
        concepts.append(urllib.parse.unquote(encoded))
        rows.append(vector)
    if len(concepts) != count:
        raise VectorFormatError(f"{path}: header declares {count} rows, found {len(concepts)}")
    matrix = ConceptEmbeddingMatrix(concepts, np.vstack(rows) if rows else np.zeros((0, dim)), np.ones(count, bool))
    return matrix.concepts, matrix.vectors


def block_load_vectors(text: str, limit: int | None = None) -> tuple[list[str], np.ndarray]:
    store = load_vectors(io.StringIO(text), limit=limit)
    return store.words, store.matrix


def block_load_matrix(path: str) -> tuple[list[str], np.ndarray]:
    matrix, _ = load_matrix(path)
    return matrix.concepts, matrix.vectors


def outcome(load, *args):
    """(words, dtype, shape, matrix bytes) of a successful load, or the error type and message."""
    try:
        words, matrix = load(*args)
    except ValueError as error:
        return ("error", type(error).__name__, str(error))
    return ("ok", words, matrix.dtype.str, matrix.shape, matrix.tobytes())


# Words that repeat, collide after NFC/lowercasing, need percent-decoding, or are empty.
PARITY_WORDS = ["rock", "Rock", "pop", "POP", "jazz", "m\u00e9tal", "me\u0301tal", "a%20b", "A%20B", ""]
# Tokens float() and numpy may treat differently, or that are invalid for both.
ODD_TOKENS = ["1_0", "\u0661", "nan", "inf", "-inf", "1e309", "", "0x1p3", "+.5", "1e", "1\t2", "\t1", "1.", "x"]
EDGE_VALUES = [-0.0, 5e-324, 1e308, -1e308, 0.0]

finite_token = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: "%.10g" % x),
    st.floats(min_value=-1e6, max_value=1e6).map(lambda x: "%.4f" % x),
    st.sampled_from(EDGE_VALUES).map(repr),
)
# one token in 16 is odd, so most generated files parse cleanly
token = st.tuples(st.integers(0, 15), finite_token, st.sampled_from(ODD_TOKENS)).map(
    lambda t: t[2] if t[0] == 0 else t[1]
)


@st.composite
def vector_files(draw):
    dim = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.integers(0, 19))
        if shape == 0:
            lines.append("")
            continue
        # one row in ten has a wrong component count
        width = dim + draw(st.sampled_from([-1, 1])) if shape in (1, 2) else dim
        fields = [draw(st.sampled_from(PARITY_WORDS))] + [draw(token) for _ in range(max(width, 0))]
        lines.append(" ".join(fields) + (" " if shape == 3 else ""))
    count = draw(st.integers(max(len(lines) - 2, 0), len(lines) + 1))
    return f"{count} {dim}\n" + "".join(line + "\n" for line in lines)


class TestBlockReaderParity:
    """The block reader gives the row-at-a-time loaders' matrices bit for bit, or their errors."""

    @given(vector_files(), st.one_of(st.none(), st.integers(1, 6)))
    @settings(max_examples=400, deadline=None)
    def test_load_vectors_matches_per_row_reference(self, text, limit):
        assert outcome(block_load_vectors, text, limit) == outcome(reference_load_vectors, text, limit)

    @given(vector_files())
    @settings(max_examples=200, deadline=None)
    def test_load_matrix_matches_per_row_reference(self, text):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "m.vec")
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            assert outcome(block_load_matrix, path) == outcome(reference_load_matrix, path)

    @pytest.mark.parametrize(
        "line5",
        ["rock 5 5", " 5 5", "rock 5"],
        ids=["duplicate-word", "empty-word", "duplicate-with-bad-count"],
    )
    def test_earlier_bad_component_is_reported_first(self, line5):
        text = f"4 2\nrock 1 0\npop x 0\njazz 0 1\n{line5}\n"
        with pytest.raises(VectorFormatError, match="^line 3: non-numeric"):
            load_vectors(io.StringIO(text))

    def test_duplicate_word_row_is_parsed_before_the_duplicate_is_reported(self):
        with pytest.raises(VectorFormatError, match="^line 3: expected 2 components"):
            load_vectors(io.StringIO("2 2\nrock 1 0\nrock 1\n"))

    def test_float_only_numerals_keep_their_values(self):
        store = load_vectors(io.StringIO("2 2\nrock 1_0 \u0661\npop 0.5 -0.0\n"))
        np.testing.assert_array_equal(store.matrix, [[10.0, 1.0], [0.5, -0.0]])

    def test_clean_file_is_parsed_without_the_per_row_path(self, monkeypatch):
        def per_row(*args):
            raise AssertionError("per-row fallback used on a clean file")

        monkeypatch.setattr(wordvec, "_parse_row", per_row)
        store = load_vectors(io.StringIO("3 2\nRock 1 0\nrock 2 2\npop 0.25 1e-300\n"))
        assert store.words == ["rock", "pop"]
        np.testing.assert_array_equal(store.matrix, [[1.0, 0.0], [0.25, 1e-300]])


class TestEstimateFrequency:
    def test_rank_one(self):
        assert estimate_frequency(1) == pytest.approx(1 / 3.7, abs=1e-12)

    def test_rank_ten(self):
        assert estimate_frequency(10) == pytest.approx(1 / 12.7, abs=1e-12)

    def test_strictly_decreasing_and_positive(self):
        values = [estimate_frequency(r) for r in range(1, 200)]
        assert all(v > 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_rank_below_one(self):
        with pytest.raises(ValueError):
            estimate_frequency(0)

    def test_shift_constant(self):
        assert MANDELBROT_SHIFT == 2.7


class TestVectorSpace:
    def test_mixed_dimensions_rejected(self):
        a = load_vectors(io.StringIO("1 2\nx 1 0\n"))
        b = load_vectors(io.StringIO("1 3\ny 1 0 0\n"))
        with pytest.raises(ValueError, match="dimensionality"):
            VectorSpace({"en": a, "fr": b})

    def test_language_scoped_lookup(self):
        en = load_vectors(io.StringIO("1 2\nrock 1 0\n"))
        fr = load_vectors(io.StringIO("1 2\nrock 0 1\n"))
        space = VectorSpace({"en": en, "fr": fr})
        np.testing.assert_array_equal(space.lookup("rock", "en")[0], [1.0, 0.0])
        np.testing.assert_array_equal(space.lookup("rock", "fr")[0], [0.0, 1.0])
        assert space.lookup("rock", "es") is None
