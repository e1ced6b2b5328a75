"""Tests for concept embedding composition (plain and frequency-weighted) and the matrix file."""

import contextlib
import json
import re
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genrevec import compose
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

from helpers import fixture_store, is_known, make_store, one_language, vector


class TestComposeAvg:
    def test_single_word_identity(self):
        matrix = compose_avg(*one_language({"c": ["rock"]}, fixture_store()))
        np.testing.assert_array_equal(vector(matrix, "c"), [1.0, 0.0, 0.0])
        assert is_known(matrix, "c")

    def test_two_word_mean(self):
        matrix = compose_avg(*one_language({"c": ["dance", "pop"]}, fixture_store()))
        np.testing.assert_allclose(vector(matrix, "c"), [0.5, 0.5, 0.0])

    def test_all_oov_concept_is_zero_and_unknown(self):
        matrix = compose_avg(*one_language({"c": ["chillstep"]}, fixture_store()))
        np.testing.assert_array_equal(vector(matrix, "c"), [0.0, 0.0, 0.0])
        assert not is_known(matrix, "c")

    def test_oov_token_counts_in_denominator(self):
        # one hit + one miss: mean over 2 tokens, not over 1
        matrix = compose_avg(*one_language({"c": ["rock", "chillstep"]}, fixture_store()))
        np.testing.assert_allclose(vector(matrix, "c"), [0.5, 0.0, 0.0])
        assert is_known(matrix, "c")

    def test_empty_token_list_rejected(self):
        with pytest.raises(ValueError, match="empty token list"):
            compose_avg(*one_language({"c": []}, fixture_store()))

    def test_identical_vectors_average_to_themselves(self):
        store = make_store([("a", [0.25, -0.5]), ("b", [0.25, -0.5]), ("c", [0.25, -0.5])])
        matrix = compose_avg(*one_language({"x": ["a", "b", "c"]}, store))
        np.testing.assert_array_equal(vector(matrix, "x"), [0.25, -0.5])

    @given(st.permutations(["rock", "pop", "dance", "jazz"]))
    @settings(max_examples=24, deadline=None)
    def test_token_order_invariance(self, tokens):
        reference = compose_avg(*one_language({"c": ["rock", "pop", "dance", "jazz"]}, fixture_store()))
        shuffled = compose_avg(*one_language({"c": list(tokens)}, fixture_store()))
        np.testing.assert_allclose(vector(shuffled, "c"), vector(reference, "c"), atol=1e-15)

    def test_multilingual_space_routes_by_language(self):
        en = make_store([("rock", [1.0, 0.0])])
        fr = make_store([("rock", [0.0, 1.0])])
        space = VectorSpace({"en": en, "fr": fr})
        matrix = compose_avg({"a": ["rock"], "b": ["rock"]}, space, {"a": "en", "b": "fr"})
        np.testing.assert_array_equal(vector(matrix, "a"), [1.0, 0.0])
        np.testing.assert_array_equal(vector(matrix, "b"), [0.0, 1.0])


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

    @pytest.mark.parametrize("a", [float("nan"), float("inf"), 0.0, -1.0])
    def test_unusable_a_rejected(self, a):
        message = f"smoothing constant a must be positive and finite, got {a}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sif_weight(1, a=a)
        with pytest.raises(ValueError, match=re.escape(message)):
            sif_weighted_means(*one_language({"c": ["rock"]}, make_store([("rock", [1.0, 0.0])])), a=a)


class TestSifWeightedMeans:
    def test_oov_tokens_skipped_entirely(self):
        store = fixture_store()
        means, known = sif_weighted_means(*one_language({"c": ["rock", "chillstep"]}, store))
        expected = sif_weight(1) * np.array([1.0, 0.0, 0.0])  # mean over the single hit
        np.testing.assert_allclose(means[0], expected)
        assert known[0]

    def test_all_oov_row_is_zero_unknown(self):
        means, known = sif_weighted_means(*one_language({"c": ["zzz"], "d": ["rock"]}, fixture_store()))
        np.testing.assert_array_equal(means[0], 0.0)
        assert not known[0]
        assert known[1]

    def test_weight_uses_store_rank(self):
        means, _ = sif_weighted_means(*one_language({"c": ["jazz"]}, fixture_store()))
        expected = (0.001 / (0.001 + estimate_frequency(4))) * np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(means[0], expected)


def token_loop_compose(tokens_per_concept, space, languages, a=None):
    """Reference: each concept's tokens walked one lookup at a time in the store of
    its language, as compose_avg (a is None) or sif_weighted_means (a given)
    accumulate them."""
    rows, known = [], []
    for cid, tokens in tokens_per_concept.items():
        acc, hits = np.zeros(space.dim), 0
        store = space.stores.get(languages[cid])
        for token in tokens:
            found = None if store is None else store.lookup(token)
            if found is not None:
                acc += found[0] if a is None else (a / (a + estimate_frequency(found[1]))) * found[0]
                hits += 1
        rows.append(acc / len(tokens) if a is None else (acc / hits if hits else acc))
        known.append(hits > 0)
    return np.array(rows), np.array(known)


class TestTokenResolution:
    @pytest.mark.parametrize("seed", range(6))
    def test_both_compositions_match_the_token_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(30)]
        stores = {
            lang: make_store([(w, rng.normal(size=5).tolist()) for w in rng.permutation(words)[:20]])
            for lang in ("en", "fr")
        }
        space = VectorSpace(stores)
        tokens = {f"c{i}": list(rng.choice(words + ["oov"], size=int(rng.integers(1, 5)))) for i in range(40)}
        languages = {cid: ("en", "fr")[i % 2] for i, cid in enumerate(tokens)}
        matrix = compose_avg(tokens, space, languages=languages)
        vectors, known = token_loop_compose(tokens, space, languages)
        assert matrix.vectors.tobytes() == vectors.tobytes() and matrix.known.tolist() == known.tolist()
        means, known_sif = sif_weighted_means(tokens, space, a=1e-3, languages=languages)
        vectors, known = token_loop_compose(tokens, space, languages, a=1e-3)
        assert means.tobytes() == vectors.tobytes() and known_sif.tolist() == known.tolist()
        assert not known.all() and known.any()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("layout", ["one language", "language without a store"])
    def test_other_store_layouts_match_the_token_loop_bit_for_bit(self, layout, seed):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(30)]

        def random_store():
            return make_store([(w, rng.normal(size=5).tolist()) for w in rng.permutation(words)[:20]])

        tokens = {f"c{i}": list(rng.choice(words + ["oov"], size=int(rng.integers(1, 5)))) for i in range(40)}
        if layout == "one language":
            tokens, space, languages = one_language(tokens, random_store())
        else:
            space = VectorSpace({"en": random_store(), "fr": random_store()})
            languages = {cid: ("en", "de", "fr")[i % 3] for i, cid in enumerate(tokens)}
        matrix = compose_avg(tokens, space, languages)
        vectors, known = token_loop_compose(tokens, space, languages)
        assert matrix.vectors.tobytes() == vectors.tobytes() and matrix.known.tolist() == known.tolist()
        means, known_sif = sif_weighted_means(tokens, space, languages, a=1e-3)
        vectors, known = token_loop_compose(tokens, space, languages, a=1e-3)
        assert means.tobytes() == vectors.tobytes() and known_sif.tolist() == known.tolist()
        assert not known.all() and known.any()
        storeless = np.array([languages[cid] == "de" for cid in tokens])
        assert not matrix.known[storeless].any() and not known_sif[storeless].any()
        assert not matrix.vectors[storeless].any() and not means[storeless].any()
        assert storeless.any() == (layout == "language without a store")


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
        # the dominant direction is orthogonal to the all-ones vector here
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
        arguments = one_language({"a": ["rock"], "b": ["pop"], "c": ["jazz", "rock"]}, store)
        matrix = compose_sif(*arguments)
        means, known = sif_weighted_means(*arguments)
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
        matrix = compose_sif(*one_language({"a": ["rock"], "b": ["pop"], "c": ["zzz"]}, fixture_store()))
        np.testing.assert_array_equal(vector(matrix, "c"), [0.0, 0.0, 0.0])
        assert not is_known(matrix, "c")

    def test_fewer_than_two_known_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            compose_sif(*one_language({"a": ["rock"], "b": ["zzz"]}, fixture_store()))

    def test_nonpositive_a_rejected(self):
        with pytest.raises(ValueError):
            compose_sif(*one_language({"a": ["rock"], "b": ["pop"]}, fixture_store()), a=-1.0)


def archive_arrays(n: int = 3, dim: int = 2) -> dict:
    """The four arrays of a valid matrix archive, as save_matrix writes them."""
    return {
        "concepts": np.array([f"c{i}" for i in range(n)]),
        "vectors": np.arange(n * dim, dtype=np.float64).reshape(n, dim),
        "known": np.ones(n, dtype=bool),
        "metadata": np.array(json.dumps({"composition": "avg"})),
    }


def write_archive(path, **changes) -> None:
    """Write a matrix archive with some arrays replaced, or left out where the change is None."""
    arrays = {**archive_arrays(), **changes}
    np.savez(path, **{name: array for name, array in arrays.items() if array is not None})


class TestMatrixSerialization:
    def test_roundtrip_preserves_ids_vectors_flags(self, tmp_path):
        rng = np.random.default_rng(3)
        matrix = ConceptEmbeddingMatrix(
            concepts=["plain", "with space", "sys:Hip hop", "percent%id"],
            vectors=rng.normal(size=(4, 5)),
            known=np.array([True, False, True, True]),
        )
        path = tmp_path / "matrix.npz"
        save_matrix(matrix, path, metadata={"composition": "avg"})
        loaded, metadata = load_matrix(path)
        assert loaded.concepts == matrix.concepts
        np.testing.assert_allclose(loaded.vectors, matrix.vectors, atol=1e-9)
        np.testing.assert_array_equal(loaded.known, matrix.known)
        assert metadata == {"composition": "avg"}

    def test_roundtrip_is_bit_exact(self, tmp_path):
        special = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308, -1.7976931348623157e308,
                   1e16, 1e15, 123456789012.5, 0.1, 1 / 3]
        ids = ["plain", "with space", "tab\there", "new\nline", "%41", "A", "café/ü", "日本語", "", "trailing "]
        metadata = {"composition": "sif", "nested": {"list": [1, 2.5, None, "ü"], "empty": {}}, "sif_a": 1e-3}
        rng = np.random.default_rng(17)
        for trial in range(12):
            n = int(rng.integers(0, len(ids) + 1))
            dim = int(rng.integers(1, 9))
            vectors = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-300, 300, size=(n, dim))
            mask = rng.random((n, dim)) < 0.4
            vectors[mask] = rng.choice(special, size=int(mask.sum()))
            matrix = ConceptEmbeddingMatrix(concepts=ids[:n], vectors=vectors, known=rng.random(n) < 0.5)
            path = tmp_path / f"matrix{trial}.npz"
            save_matrix(matrix, path, metadata=metadata)
            loaded, loaded_metadata = load_matrix(path)
            assert loaded.concepts == matrix.concepts, trial
            assert loaded.vectors.dtype == np.float64 and loaded.vectors.shape == (n, dim)
            assert loaded.vectors.tobytes() == matrix.vectors.tobytes(), trial
            np.testing.assert_array_equal(loaded.known, matrix.known)
            assert loaded_metadata == metadata

    def test_archive_layout_and_fixed_member_times(self, tmp_path):
        matrix = ConceptEmbeddingMatrix(["b", "a"], np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([True, False]))
        path = tmp_path / "matrix.vec"  # the name is used as given and does not decide the format
        save_matrix(matrix, path, metadata={"z": 1, "a": 2})
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["matrix.vec"]
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
            assert [member.filename for member in members] == [
                "concepts.npy", "vectors.npy", "known.npy", "metadata.npy"
            ]
            # a fixed timestamp on every member: rerunning a stage rewrites the same bytes
            assert {member.date_time for member in members} == {(1980, 1, 1, 0, 0, 0)}
            assert {member.compress_type for member in members} == {zipfile.ZIP_STORED}
        with np.load(path, allow_pickle=False) as arrays:
            assert arrays["concepts"].dtype.kind == "U" and arrays["concepts"].shape == (2,)
            assert arrays["vectors"].dtype == np.float64 and arrays["known"].dtype == bool
            assert arrays["metadata"].shape == () and arrays["metadata"].item() == '{"a": 2, "z": 1}'
        first = path.read_bytes()
        save_matrix(matrix, path, metadata={"a": 2, "z": 1})
        assert path.read_bytes() == first

    def test_interrupted_save_keeps_previous_files(self, tmp_path, monkeypatch):
        class FullDisk:
            """A file handle that fails once 200 bytes are written, as a full disk would."""

            def __init__(self, handle):
                self.handle, self.written = handle, 0

            def write(self, data):
                self.written += len(data)
                if self.written > 200:
                    raise OSError("no space left on device")
                return self.handle.write(data)

            def __getattr__(self, name):
                return getattr(self.handle, name)

        real_atomic_write = compose.atomic_write

        @contextlib.contextmanager
        def failing_atomic_write(path, binary=False):
            with real_atomic_write(path, binary=binary) as handle:
                yield FullDisk(handle)

        rng = np.random.default_rng(5)
        path = tmp_path / "matrix.npz"
        save_matrix(ConceptEmbeddingMatrix(["a", "b", "c"], rng.normal(size=(3, 4)), np.ones(3, bool)), path)
        before = {entry.name: entry.read_bytes() for entry in tmp_path.iterdir()}
        monkeypatch.setattr(compose, "atomic_write", failing_atomic_write)
        replacement = ConceptEmbeddingMatrix(["x", "y", "z"], rng.normal(size=(3, 4)), np.ones(3, bool))
        with pytest.raises(OSError, match="no space"):
            save_matrix(replacement, path)
        assert {entry.name: entry.read_bytes() for entry in tmp_path.iterdir()} == before

    def test_id_with_trailing_nul_rejected(self, tmp_path):
        # a numpy unicode array drops trailing NULs: np.array(["a\0"]).tolist() == ["a"]
        matrix = ConceptEmbeddingMatrix(["a", "b\0"], np.zeros((2, 1)), np.ones(2, bool))
        with pytest.raises(ValueError, match=r"'b\\x00'"):
            save_matrix(matrix, tmp_path / "matrix.npz")
        assert list(tmp_path.iterdir()) == []
        inner = ConceptEmbeddingMatrix(["a\0b"], np.zeros((1, 1)), np.ones(1, bool))
        save_matrix(inner, tmp_path / "inner.npz")
        assert load_matrix(tmp_path / "inner.npz")[0].concepts == ["a\0b"]

    def test_text_matrix_rejected_with_rerun_hint(self, tmp_path):
        path = tmp_path / "embeddings.vec"
        path.write_text("2 2\na 1 0\nb 0 1\n", encoding="utf-8")
        with pytest.raises(VectorFormatError, match="not a concept matrix .npz archive.*rerun `genrevec embed`") as raised:
            load_matrix(path)
        assert str(raised.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("name", ["concepts", "vectors", "known", "metadata"])
    def test_missing_array_rejected(self, tmp_path, name):
        path = tmp_path / "matrix.npz"
        write_archive(path, **{name: None})
        with pytest.raises(VectorFormatError, match=f"^{path}: missing array '{name}'$"):
            load_matrix(path)

    @pytest.mark.parametrize(
        "vectors",
        [np.zeros((3, 2), dtype=np.float32), np.zeros(3), np.zeros((3, 2, 1)), np.zeros((3, 2), dtype=">f8")],
        ids=["float32", "1-d", "3-d", "big-endian"],
    )
    def test_vectors_must_be_2d_float64(self, tmp_path, vectors):
        path = tmp_path / "matrix.npz"
        write_archive(path, vectors=vectors)
        with pytest.raises(VectorFormatError, match=f"^{path}: vectors must be a 2-D float64 array"):
            load_matrix(path)

    @pytest.mark.parametrize(
        "concepts",
        [np.array([b"c0", b"c1", b"c2"]), np.array(["c0", "c1"]), np.array([["c0", "c1", "c2"]]), np.arange(3)],
        ids=["bytes", "short", "2-d", "integers"],
    )
    def test_concepts_must_be_1d_unicode_of_row_count(self, tmp_path, concepts):
        path = tmp_path / "matrix.npz"
        write_archive(path, concepts=concepts)
        with pytest.raises(VectorFormatError, match=f"^{path}: concepts must be a 1-D unicode array of 3 ids"):
            load_matrix(path)

    @pytest.mark.parametrize(
        "known", [np.ones(3, dtype=np.int64), np.ones(2, dtype=bool), np.ones((3, 1), dtype=bool)],
        ids=["integers", "short", "2-d"],
    )
    def test_known_must_be_bool_per_row(self, tmp_path, known):
        path = tmp_path / "matrix.npz"
        write_archive(path, known=known)
        with pytest.raises(VectorFormatError, match=rf"^{path}: known must be a bool array of shape \(3,\)"):
            load_matrix(path)

    @pytest.mark.parametrize(
        "metadata",
        [np.array("[1, 2]"), np.array("{not json"), np.array(["{}"]), np.array(b"{}"), np.array(1.0)],
        ids=["json-list", "invalid-json", "1-d", "bytes", "number"],
    )
    def test_metadata_must_be_a_json_object(self, tmp_path, metadata):
        path = tmp_path / "matrix.npz"
        write_archive(path, metadata=metadata)
        with pytest.raises(VectorFormatError, match=f"^{path}: metadata"):
            load_matrix(path)

    def test_non_finite_component_rejected(self, tmp_path):
        for value in (np.nan, np.inf, -np.inf):
            vectors = archive_arrays()["vectors"]
            vectors[1, 1] = value
            path = tmp_path / "broken.npz"
            write_archive(path, vectors=vectors)
            with pytest.raises(VectorFormatError, match="non-finite vector component for concept 'c1'") as raised:
                load_matrix(path)
            assert str(raised.value).startswith(f"{path}: ")

    def test_duplicate_concept_id_names_file_and_id(self, tmp_path):
        path = tmp_path / "dup.npz"
        write_archive(path, concepts=np.array(["rock", "jazz", "jazz"]))
        with pytest.raises(VectorFormatError, match=f"^{path}: duplicate concept id 'jazz'$"):
            load_matrix(path)

    def test_constructor_names_the_first_repeated_id(self):
        # reading in order, 'b' is the first id met a second time, though 'a' occurs first
        with pytest.raises(ValueError, match="^duplicate concept id 'b'$"):
            ConceptEmbeddingMatrix(["a", "b", "b", "a"], np.zeros((4, 2)), np.ones(4, dtype=bool))

    def test_unreadable_member_rejected(self, tmp_path):
        path = tmp_path / "matrix.npz"
        write_archive(path, concepts=np.array(["c0", "c1", "c2"], dtype=object))  # needs pickle to read
        with pytest.raises(VectorFormatError, match=f"^{path}: unreadable array"):
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

    def test_binary_block_replaces_file_with_text_permissions(self, tmp_path):
        with atomic_write(tmp_path / "text.txt") as handle:
            handle.write("x")
        path = tmp_path / "matrix.npz"
        path.write_bytes(b"previous")
        with atomic_write(path, binary=True) as handle:
            handle.write(b"\x00new\n")
        assert path.read_bytes() == b"\x00new\n"
        assert path.stat().st_mode == (tmp_path / "text.txt").stat().st_mode
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["matrix.npz", "text.txt"]

    def test_interrupted_binary_block_keeps_previous_file(self, tmp_path):
        path = tmp_path / "matrix.npz"
        path.write_bytes(b"previous")
        with pytest.raises(RuntimeError, match="interrupted"):
            with atomic_write(path, binary=True) as handle:
                handle.write(b"partial")
                raise RuntimeError("interrupted")
        assert [entry.name for entry in tmp_path.iterdir()] == ["matrix.npz"]
        assert path.read_bytes() == b"previous"
