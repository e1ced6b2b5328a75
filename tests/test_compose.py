"""Tests for concept embedding composition (plain and frequency-weighted)."""

import urllib.parse

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genrevec._lines import atomic_write
from genrevec.compose import (
    ConceptEmbeddingMatrix,
    compose_avg,
    compose_sif,
    load_matrix,
    principal_direction,
    remove_common_direction,
    save_matrix,
    sif_weight,
    sif_weighted_means,
)
from genrevec.wordvec import VectorFormatError, VectorSpace, estimate_frequency

from helpers import fixture_store, make_store


class TestComposeAvg:
    def test_single_word_identity(self):
        matrix = compose_avg({"c": ["rock"]}, fixture_store())
        np.testing.assert_array_equal(matrix.vector("c"), [1.0, 0.0, 0.0])
        assert matrix.is_known("c")

    def test_two_word_mean(self):
        matrix = compose_avg({"c": ["dance", "pop"]}, fixture_store())
        np.testing.assert_allclose(matrix.vector("c"), [0.5, 0.5, 0.0])

    def test_all_oov_concept_is_zero_and_unknown(self):
        matrix = compose_avg({"c": ["chillstep"]}, fixture_store())
        np.testing.assert_array_equal(matrix.vector("c"), [0.0, 0.0, 0.0])
        assert not matrix.is_known("c")

    def test_oov_token_counts_in_denominator(self):
        # one hit + one miss: mean over 2 tokens, not over 1
        matrix = compose_avg({"c": ["rock", "chillstep"]}, fixture_store())
        np.testing.assert_allclose(matrix.vector("c"), [0.5, 0.0, 0.0])
        assert matrix.is_known("c")

    def test_empty_token_list_rejected(self):
        with pytest.raises(ValueError, match="empty token list"):
            compose_avg({"c": []}, fixture_store())

    def test_identical_vectors_average_to_themselves(self):
        store = make_store([("a", [0.25, -0.5]), ("b", [0.25, -0.5]), ("c", [0.25, -0.5])])
        matrix = compose_avg({"x": ["a", "b", "c"]}, store)
        np.testing.assert_array_equal(matrix.vector("x"), [0.25, -0.5])

    @given(st.permutations(["rock", "pop", "dance", "jazz"]))
    @settings(max_examples=24, deadline=None)
    def test_token_order_invariance(self, tokens):
        reference = compose_avg({"c": ["rock", "pop", "dance", "jazz"]}, fixture_store())
        shuffled = compose_avg({"c": list(tokens)}, fixture_store())
        np.testing.assert_allclose(shuffled.vector("c"), reference.vector("c"), atol=1e-15)

    def test_multilingual_space_routes_by_language(self):
        en = make_store([("rock", [1.0, 0.0])])
        fr = make_store([("rock", [0.0, 1.0])])
        space = VectorSpace({"en": en, "fr": fr})
        matrix = compose_avg(
            {"a": ["rock"], "b": ["rock"]}, space, languages={"a": "en", "b": "fr"}
        )
        np.testing.assert_array_equal(matrix.vector("a"), [1.0, 0.0])
        np.testing.assert_array_equal(matrix.vector("b"), [0.0, 1.0])

    def test_space_without_languages_rejected(self):
        space = VectorSpace({"en": fixture_store()})
        with pytest.raises(ValueError, match="languages"):
            compose_avg({"a": ["rock"]}, space)


class TestSifWeights:
    def test_rank_one_weight(self):
        expected = 0.001 / (0.001 + 1 / 3.7)
        assert sif_weight(1, a=1e-3) == pytest.approx(expected, abs=1e-12)
        assert sif_weight(1, a=1e-3) == pytest.approx(0.003686, abs=5e-7)

    def test_weights_in_unit_interval_and_increasing_with_rank(self):
        weights = [sif_weight(r) for r in range(1, 500)]
        assert all(0.0 < w < 1.0 for w in weights)
        assert all(a < b for a, b in zip(weights, weights[1:]))

    def test_nonpositive_a_rejected(self):
        with pytest.raises(ValueError):
            sif_weight(1, a=0.0)


class TestSifWeightedMeans:
    def test_oov_tokens_skipped_entirely(self):
        store = fixture_store()
        means, known = sif_weighted_means({"c": ["rock", "chillstep"]}, store)
        expected = sif_weight(1) * np.array([1.0, 0.0, 0.0])  # mean over the single hit
        np.testing.assert_allclose(means[0], expected)
        assert known[0]

    def test_all_oov_row_is_zero_unknown(self):
        means, known = sif_weighted_means({"c": ["zzz"], "d": ["rock"]}, fixture_store())
        np.testing.assert_array_equal(means[0], 0.0)
        assert not known[0]
        assert known[1]

    def test_weight_uses_store_rank(self):
        means, _ = sif_weighted_means({"c": ["jazz"]}, fixture_store())
        expected = (0.001 / (0.001 + estimate_frequency(4))) * np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(means[0], expected)


class TestPrincipalDirection:
    def test_matches_dense_svd_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            rows = rng.normal(size=(int(rng.integers(2, 51)), int(rng.integers(2, 11))))
            u = principal_direction(rows)
            _, _, vh = np.linalg.svd(rows, full_matrices=False)
            reference = vh[0]
            cosine = abs(float(np.dot(u, reference)))
            assert cosine >= 1.0 - 1e-6

    def test_deterministic_sign(self):
        rows = np.array([[0.0, -2.0], [0.0, -1.0]])
        u = principal_direction(rows)
        assert u[int(np.argmax(np.abs(u)))] > 0

    def test_zero_matrix_gives_zero_direction(self):
        np.testing.assert_array_equal(principal_direction(np.zeros((3, 4))), np.zeros(4))

    def test_survives_adversarial_start(self):
        # the all-ones start is orthogonal to the dominant direction here
        rows = np.array([[1.0, -1.0]])
        u = principal_direction(rows)
        assert abs(abs(float(np.dot(u, [2**-0.5, -(2**-0.5)]))) - 1.0) <= 1e-8


class TestComposeSif:
    def test_projection_removes_common_direction(self):
        store = make_store([
            ("rock", [1.0, 0.2, 0.0]),
            ("pop", [0.9, -0.1, 0.3]),
            ("jazz", [0.8, 0.0, -0.4]),
        ])
        matrix = compose_sif({"a": ["rock"], "b": ["pop"], "c": ["jazz", "rock"]}, store)
        means, known = sif_weighted_means({"a": ["rock"], "b": ["pop"], "c": ["jazz", "rock"]}, store)
        u = principal_direction(means[known])
        assert np.max(np.abs(matrix.vectors[matrix.known] @ u)) <= 1e-8

    def test_near_parallel_rows_nearly_annihilated(self):
        epsilon = 1e-3
        rows = np.array([[1.0, 0.0], [1.0, epsilon]])
        u = principal_direction(rows)
        projected = remove_common_direction(rows, u)
        norms = np.linalg.norm(projected, axis=1)
        assert np.all(norms <= epsilon)
        # cross-check the direction against a dense SVD oracle
        _, _, vh = np.linalg.svd(rows)
        oracle = remove_common_direction(rows, vh[0])
        assert np.all(np.linalg.norm(oracle, axis=1) <= epsilon)

    def test_unknown_rows_stay_zero(self):
        matrix = compose_sif({"a": ["rock"], "b": ["pop"], "c": ["zzz"]}, fixture_store())
        np.testing.assert_array_equal(matrix.vector("c"), [0.0, 0.0, 0.0])
        assert not matrix.is_known("c")

    def test_fewer_than_two_known_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            compose_sif({"a": ["rock"], "b": ["zzz"]}, fixture_store())

    def test_nonpositive_a_rejected(self):
        with pytest.raises(ValueError):
            compose_sif({"a": ["rock"], "b": ["pop"]}, fixture_store(), a=-1.0)


class TestMatrixSerialization:
    def test_roundtrip_preserves_ids_vectors_flags(self, tmp_path):
        rng = np.random.default_rng(3)
        matrix = ConceptEmbeddingMatrix(
            concepts=["plain", "with space", "sys:Hip hop", "percent%id"],
            vectors=rng.normal(size=(4, 5)),
            known=np.array([True, False, True, True]),
        )
        path = tmp_path / "matrix.vec"
        save_matrix(matrix, path, metadata={"composition": "avg"})
        loaded, metadata = load_matrix(path)
        assert loaded.concepts == matrix.concepts
        np.testing.assert_allclose(loaded.vectors, matrix.vectors, atol=1e-9)
        np.testing.assert_array_equal(loaded.known, matrix.known)
        assert metadata == {"composition": "avg"}

    @staticmethod
    def write_rows_per_value(matrix, path):
        """The matrix text writer formatting one component at a time, as an oracle."""
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(f"{len(matrix)} {matrix.dim}\n")
            for i, cid in enumerate(matrix.concepts):
                encoded = urllib.parse.quote(cid, safe="")
                components = " ".join(format(x, ".10g") for x in matrix.vectors[i])
                handle.write(f"{encoded} {components}\n")

    def test_rows_match_per_value_formatting(self, tmp_path):
        special = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308, -1.7976931348623157e308,
                   1e16, 1e15, 123456789012.5, 0.1, 1 / 3]
        ids = ["plain", "with space", "sys:Hip hop", "percent%id", "café/ü", "tab\tnew\nline", "%41"]
        rng = np.random.default_rng(17)
        for trial in range(12):
            n = int(rng.integers(1, len(ids) + 1))
            dim = int(rng.integers(1, 9))
            vectors = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-12, 12, size=(n, dim))
            mask = rng.random((n, dim)) < 0.4
            vectors[mask] = rng.choice(special, size=int(mask.sum()))
            matrix = ConceptEmbeddingMatrix(concepts=ids[:n], vectors=vectors, known=np.ones(n, dtype=bool))
            save_matrix(matrix, tmp_path / "fast.vec")
            self.write_rows_per_value(matrix, tmp_path / "oracle.vec")
            assert (tmp_path / "fast.vec").read_bytes() == (tmp_path / "oracle.vec").read_bytes(), trial

    def test_text_roundtrip_relative_error_within_bound(self, tmp_path):
        # %.10g keeps 10 significant digits: each component reads back within 5e-10 relative
        rng = np.random.default_rng(23)
        vectors = rng.normal(size=(64, 300)) * 10.0 ** rng.uniform(-300, 300, size=(64, 300))
        matrix = ConceptEmbeddingMatrix(concepts=[f"c{i}" for i in range(64)], vectors=vectors, known=np.ones(64, bool))
        save_matrix(matrix, tmp_path / "matrix.vec")
        loaded, _ = load_matrix(tmp_path / "matrix.vec")
        relative = np.abs(loaded.vectors - vectors) / np.abs(vectors)
        assert relative.max() <= 5e-10
        assert relative.max() > 1e-11  # the text form is lossy, so the bound is not vacuous

    def test_interrupted_save_keeps_previous_files(self, tmp_path):
        class FailingIds(list):
            """Concept ids whose iteration fails after two rows, as a full disk would."""

            def __iter__(self):
                yield from list.__iter__(self[:2])
                raise OSError("no space left on device")

        rng = np.random.default_rng(5)
        path = tmp_path / "matrix.vec"
        save_matrix(ConceptEmbeddingMatrix(["a", "b", "c"], rng.normal(size=(3, 4)), np.ones(3, bool)), path)
        before = {entry.name: entry.read_bytes() for entry in tmp_path.iterdir()}
        replacement = ConceptEmbeddingMatrix(["x", "y", "z"], rng.normal(size=(3, 4)), np.ones(3, bool))
        replacement.concepts = FailingIds(replacement.concepts)
        with pytest.raises(OSError, match="no space"):
            save_matrix(replacement, path)
        assert {entry.name: entry.read_bytes() for entry in tmp_path.iterdir()} == before

    def test_missing_sidecar_falls_back_to_nonzero_rows(self, tmp_path, caplog):
        matrix = ConceptEmbeddingMatrix(
            concepts=["a", "b"], vectors=np.array([[1.0, 0.0], [0.0, 0.0]]), known=np.array([True, False])
        )
        path = tmp_path / "matrix.vec"
        save_matrix(matrix, path)
        (tmp_path / "matrix.vec.meta.json").unlink()
        with caplog.at_level("WARNING"):
            loaded, _ = load_matrix(path)
        np.testing.assert_array_equal(loaded.known, [True, False])

    def test_header_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "broken.vec"
        path.write_text("3 2\na 1 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="declares 3"):
            load_matrix(path)

    def test_non_finite_component_rejected(self, tmp_path):
        path = tmp_path / "broken.vec"
        path.write_text("2 2\na 1 0\nb nan 1\n", encoding="utf-8")
        with pytest.raises(VectorFormatError, match="line 3.*non-finite") as raised:
            load_matrix(path)
        assert str(raised.value).startswith(f"{path}: ")

    def test_invalid_header_values_rejected(self, tmp_path):
        for header in ("-1 2", "1 0"):
            path = tmp_path / "broken.vec"
            path.write_text(f"{header}\na 1 0\n", encoding="utf-8")
            with pytest.raises(VectorFormatError, match="line 1: invalid header"):
                load_matrix(path)


class TestAtomicWrite:
    def test_completed_block_replaces_file_with_default_permissions(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("previous\n", encoding="utf-8")
        with atomic_write(path) as handle:
            handle.write("new\n")
        assert path.read_bytes() == b"new\n"
        with open(tmp_path / "plain", "w") as handle:
            handle.write("x")
        assert path.stat().st_mode == (tmp_path / "plain").stat().st_mode
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["plain", "report.json"]
