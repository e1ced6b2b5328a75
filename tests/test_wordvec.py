"""Tests for word vector loading, lookup, and frequency estimation."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genrevec.wordvec import (
    MANDELBROT_SHIFT,
    VectorFormatError,
    VectorSpace,
    estimate_frequency,
    load_vectors,
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
