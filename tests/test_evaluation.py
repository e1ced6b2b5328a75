"""Tests for corpus loading, stratified folds, ranking AUC, and the experiment driver."""

import importlib
import json
import logging
import math
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genrevec import evaluation
from genrevec.cli import main
from genrevec.compose import ConceptEmbeddingMatrix, load_matrix
from genrevec.evaluation import (
    CorpusFormatError,
    CorpusItem,
    EvalReport,
    ParallelCorpus,
    _fold_aucs,
    auc_binary,
    evaluate,
    load_corpus,
    stratified_split,
)
from genrevec.fixtures import write_demo_dataset
from genrevec.genregraph import HOP_CHUNK, RELATIONS, load_saved_graph, tag_node_id
from genrevec.translate import score_sets, translate

from helpers import (
    bare_graph,
    multisystem_corpus,
    oracle_translate_scores,
    paired_corpus,
    rankdata_fold_aucs,
    record_searches,
    row_sum_translate_scores,
    scan_stratified_split,
    synthetic_corpus,
    text_file,
    unstored_memo,
)


def corpus_lines(records):
    return text_file("".join(json.dumps(r) + "\n" for r in records))


class TestLoadCorpus:
    def test_basic_load_dedupes_tags(self):
        corpus = load_corpus(corpus_lines([
            {"id": "a", "annotations": {"en": ["Rock", "Rock", "Pop"], "fr": ["Rock"]}},
            {"id": "b", "annotations": {"en": ["Jazz"], "fr": ["Jazz"]}},
        ]), min_tag_count=0)
        assert len(corpus) == 2
        assert corpus.items[0].tags("en") == ("Rock", "Pop")
        assert corpus.systems == ("en", "fr")

    def test_single_system_items_dropped(self, caplog):
        with caplog.at_level("WARNING"):
            corpus = load_corpus(corpus_lines([
                {"id": "a", "annotations": {"en": ["Rock"]}},
                {"id": "b", "annotations": {"en": ["Rock"], "fr": ["Rock"]}},
            ]), min_tag_count=0)
        assert [item.id for item in corpus.items] == ["b"]
        assert "fewer than two systems" in caplog.text

    def test_min_count_filter_removes_items_with_rare_tags(self):
        records = [
            {"id": f"common{i}", "annotations": {"en": ["Rock"], "fr": ["Rock"]}} for i in range(3)
        ]
        records.append({"id": "rare", "annotations": {"en": ["Rock", "Zeuhl"], "fr": ["Rock"]}})
        corpus = load_corpus(corpus_lines(records), min_tag_count=2)
        assert "rare" not in {item.id for item in corpus.items}
        assert len(corpus) == 3

    def test_min_count_uses_pre_filter_counts(self):
        # 'Rock' in en appears 4 times before filtering; removing 'rare' does not cascade
        records = [
            {"id": f"c{i}", "annotations": {"en": ["Rock"], "fr": ["Rock"]}} for i in range(4)
        ]
        records.append({"id": "rare", "annotations": {"en": ["Zeuhl"], "fr": ["Rock"]}})
        corpus = load_corpus(corpus_lines(records), min_tag_count=4)
        assert len(corpus) == 4

    def test_system_vocabulary_of_a_system_without_tags_rejected(self):
        corpus = load_corpus(corpus_lines([
            {"id": "a", "annotations": {"en": ["Rock", "Pop"], "fr": ["Rock"]}},
        ]), min_tag_count=0)
        assert corpus.system_vocabulary("en") == ["Pop", "Rock"]
        with pytest.raises(ValueError, match=re.escape(
            "tag system 'de' has no tags in the corpus, whose systems are ['en', 'fr']"
        )):
            corpus.system_vocabulary("de")

    def test_duplicate_item_id_rejected(self):
        with pytest.raises(CorpusFormatError, match="line 2.*duplicate"):
            load_corpus(corpus_lines([
                {"id": "a", "annotations": {"en": ["Rock"], "fr": ["Rock"]}},
                {"id": "a", "annotations": {"en": ["Pop"], "fr": ["Pop"]}},
            ]))

    def test_invalid_json_names_line(self):
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_corpus(text_file("not json\n"))

    @pytest.mark.parametrize(
        "line, message",
        [
            ('["b", {"en": ["Rock"]}]', "corpus line 2: expected a JSON object"),
            ('{"id": "b"}', "corpus line 2: expected an object with 'id' and 'annotations'"),
            ('{"id": 5, "annotations": {}}', "corpus line 2: invalid item id 5"),
            ('{"id": "", "annotations": {}}', "corpus line 2: invalid item id ''"),
            ('{"id": "b", "annotations": ["Rock"]}', "corpus line 2: annotations must be an object"),
            ('{"id": "b", "annotations": {"en": [5]}}', "corpus line 2: tags of 'en' must be nonempty strings"),
        ],
    )
    def test_malformed_record_names_line(self, line, message):
        first = json.dumps({"id": "a", "annotations": {"en": ["Rock"], "fr": ["Rock"]}})
        with pytest.raises(CorpusFormatError, match=re.escape(message)):
            load_corpus(text_file(first + "\n" + line + "\n"))

    def test_tags_without_tokens_dropped_before_thin_and_count_rules(self, caplog):
        # 'a' keeps only its en tags once '!!!' goes, so it counts as single-system;
        # the count rule sees '--' nowhere, so 'b' survives min_tag_count=2
        records = [
            {"id": "a", "annotations": {"en": ["Rock", "!!!"], "fr": ["!!!", "--"]}},
            {"id": "b", "annotations": {"en": ["Rock", "??"], "fr": ["Rock", "--"]}},
            {"id": "c", "annotations": {"en": ["Rock"], "fr": ["Rock"]}},
        ]
        with caplog.at_level("WARNING"):
            corpus = load_corpus(corpus_lines(records), min_tag_count=2)
        assert [(item.id, item.annotations) for item in corpus.items] == [
            ("b", {"en": ("Rock",), "fr": ("Rock",)}),
            ("c", {"en": ("Rock",), "fr": ("Rock",)}),
        ]
        assert "dropped 4 distinct tags with no alphanumeric content" in caplog.text
        assert "dropped 1 items annotated in fewer than two systems" in caplog.text

    @pytest.mark.parametrize("value", [-1, -5])
    def test_negative_min_tag_count_rejected(self, value):
        records = [{"id": "a", "annotations": {"en": ["Rock"], "fr": ["Rock"]}}]
        with pytest.raises(ValueError, match=f"^min_tag_count must be nonnegative, got {value}$"):
            load_corpus(corpus_lines(records), min_tag_count=value)

    def test_counts_are_per_system(self):
        corpus = load_corpus(corpus_lines([
            {"id": "a", "annotations": {"en": ["Rock"], "fr": ["Rock"]}},
            {"id": "b", "annotations": {"en": ["Rock"], "fr": ["Pop"]}},
        ]), min_tag_count=0)
        assert corpus.tag_counts() == {
            ("en", "Rock"): 2,
            ("fr", "Rock"): 1,
            ("fr", "Pop"): 1,
        }


class TestStratifiedSplit:
    def test_single_label_corpus_splits_evenly(self):
        items = [
            CorpusItem(f"i{n}", {"a": ("x",), "b": ("y",)}) for n in range(8)
        ]
        corpus = ParallelCorpus(items=items, systems=("a", "b"))
        folds = stratified_split(corpus, k=4, seed=3)
        sizes = [list(folds.assignment.values()).count(f) for f in range(4)]
        assert sizes == [2, 2, 2, 2]

    def test_four_occurrence_tag_lands_once_per_fold(self):
        items = []
        for n in range(8):
            tags = ("common", "rare") if n < 4 else ("common",)
            items.append(CorpusItem(f"i{n}", {"a": tags, "b": ("y",)}))
        corpus = ParallelCorpus(items=items, systems=("a", "b"))
        folds = stratified_split(corpus, k=4, seed=11)
        rare_folds = sorted(folds.fold_of(f"i{n}") for n in range(4))
        assert rare_folds == [0, 1, 2, 3]

    def test_same_seed_reproduces_exactly(self):
        corpus = synthetic_corpus(120, seed=5)
        first = stratified_split(corpus, k=4, seed=9)
        second = stratified_split(corpus, k=4, seed=9)
        assert first.assignment == second.assignment

    def test_every_item_assigned_exactly_once(self):
        corpus = synthetic_corpus(101, seed=2)
        folds = stratified_split(corpus, k=4, seed=0)
        assert sorted(folds.assignment) == sorted(item.id for item in corpus.items)
        assert set(folds.assignment.values()) <= set(range(4))

    @staticmethod
    def label_fold_counts(corpus, folds):
        per_label: dict[str, list[int]] = {}
        for item in corpus.items:
            fold = folds.fold_of(item.id)
            for system, tags in item.annotations.items():
                for tag in tags:
                    counts = per_label.setdefault(f"{system}:{tag}", [0] * folds.k)
                    counts[fold] += 1
        return per_label

    def test_label_balance_when_labels_permit(self):
        # correlated tag pairs: every label with count >= k balances within 1
        for seed in range(3):
            corpus = paired_corpus(500, seed=seed)
            folds = stratified_split(corpus, k=4, seed=seed)
            for label, counts in self.label_fold_counts(corpus, folds).items():
                total = sum(counts)
                if total < 4:
                    continue
                assert max(abs(c - total / 4) for c in counts) <= 1.0, (label, counts)

    def test_rare_labels_balance_on_entangled_corpus(self):
        # with 1-3 overlapping tags per system, rare labels are dealt first
        # and stay balanced; the most frequent labels are mostly exhausted
        # through co-occurring rarer labels and only balance approximately
        corpus = synthetic_corpus(500, seed=1, n_source_tags=12, n_target_tags=8)
        folds = stratified_split(corpus, k=4, seed=1)
        for label, counts in self.label_fold_counts(corpus, folds).items():
            total = sum(counts)
            if 4 <= total <= 50:
                assert max(abs(c - total / 4) for c in counts) <= 1.0, (label, counts)

    def test_fold_sizes_balanced_when_labels_permit(self):
        corpus = paired_corpus(503, seed=8)
        folds = stratified_split(corpus, k=4, seed=8)
        sizes = [list(folds.assignment.values()).count(f) for f in range(4)]
        assert max(sizes) - min(sizes) <= 1

    def test_k_larger_than_corpus_rejected(self):
        corpus = synthetic_corpus(3, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            stratified_split(corpus, k=4)

    def test_k_below_two_rejected(self):
        corpus = synthetic_corpus(10, seed=0)
        with pytest.raises(ValueError, match="at least 2"):
            stratified_split(corpus, k=1)

    def test_duplicate_item_id_rejected(self):
        items = [CorpusItem(f"i{n}", {"a": (f"x{n % 3}",), "b": ("y",)}) for n in range(8)]
        items.append(CorpusItem("i0", {"a": ("z",), "b": ("y",)}))
        with pytest.raises(ValueError, match="duplicate item id 'i0'"):
            stratified_split(ParallelCorpus(items=items, systems=("a", "b")), k=2)


class TestScanSplitOracle:
    """The heap-driven split deals every item to the fold the former full scan chose."""

    def test_demo_corpus(self, tmp_path):
        corpus = load_corpus(write_demo_dataset(tmp_path)["corpus"], min_tag_count=1)
        for k in range(2, 6):
            for seed in range(4):
                assert stratified_split(corpus, k, seed).assignment == scan_stratified_split(corpus, k, seed).assignment

    @pytest.mark.parametrize(
        ("n_items", "k", "seed"), [(10, 2, 0), (60, 3, 1), (250, 5, 2), (900, 2, 3), (2000, 3, 4), (6000, 4, 5)],
    )
    def test_random_multisystem_corpora(self, n_items, k, seed, monkeypatch):
        corpus = multisystem_corpus(n_items, seed=seed)
        expected = scan_stratified_split(corpus, k, seed).assignment
        choices = []

        class CountingRandom(random.Random):
            def choice(self, seq):
                choices.append(len(seq))
                return super().choice(seq)

        monkeypatch.setattr(evaluation, "random", SimpleNamespace(Random=CountingRandom))
        assert stratified_split(corpus, k, seed).assignment == expected
        assert choices  # some items tied on both demand and capacity, so the seeded choice decided

    def test_items_without_tags_get_the_scan_split_folds(self):
        # load_corpus drops such items, but a ParallelCorpus built directly can hold them;
        # no label deals them, so they go to the roomiest folds after every label is dealt
        items = [CorpusItem(f"i{n}", {"a": (f"x{n % 3}",), "b": ("y",)}) for n in range(9)]
        items.insert(2, CorpusItem("bare", {}))
        items.insert(7, CorpusItem("empty", {"a": (), "b": ()}))
        corpus = ParallelCorpus(items=items, systems=("a", "b"))
        for k, seed in [(2, 0), (3, 1), (4, 2)]:
            folds = stratified_split(corpus, k, seed)
            assert folds.assignment == scan_stratified_split(corpus, k, seed).assignment
            assert sorted(folds.assignment) == sorted(item.id for item in items)


class TestFoldAucOracle:
    """The sort-based fold AUC equals the rankdata rank-sum formula bit for bit."""

    @staticmethod
    def assert_matches(scores, labels):
        aucs, qualifying = _fold_aucs(scores, labels)
        expected = rankdata_fold_aucs(scores, labels)
        positives = labels.sum(axis=0)
        assert qualifying.tolist() == ((positives > 0) & (positives < len(labels))).tolist()
        assert np.isnan(aucs).tolist() == np.isnan(expected).tolist()
        defined = ~np.isnan(expected)
        assert aucs[defined].tobytes() == expected[defined].tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_quantized_scores_with_signed_zeros(self, seed):
        rng = np.random.default_rng(seed)
        n, tags = int(rng.integers(2, 60)), int(rng.integers(2, 12))
        scores = np.round(rng.normal(size=(n, tags)) * 1.5) / 2
        scores[rng.random((n, tags)) < 0.2] = -0.0
        scores[rng.random((n, tags)) < 0.2] = 0.0
        scores[0, 1], scores[-1, 1] = -0.0, 0.0  # both zeros in one column
        scores[:, 0] = 0.25  # a constant column
        labels = rng.random((n, tags)) < rng.random(tags)
        self.assert_matches(scores, labels)

    def test_all_tags_tied(self):
        labels = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 0]], dtype=bool)
        self.assert_matches(np.full(labels.shape, -0.0), labels)
        aucs, _ = _fold_aucs(np.full(labels.shape, 0.5), labels)
        assert aucs.tolist() == [0.5, 0.5, 0.5]

    def test_continuous_scores(self):
        rng = np.random.default_rng(7)
        self.assert_matches(rng.normal(size=(300, 40)), rng.random((300, 40)) < 0.1)

    def test_nan_column_reads_nan(self):
        scores = np.array([[0.1, 0.5], [np.nan, 0.2], [0.3, 0.9]])
        labels = np.array([[1, 1], [0, 0], [1, 0]], dtype=bool)
        self.assert_matches(scores, labels)
        assert np.isnan(_fold_aucs(scores, labels)[0][0])


class TestAucBinary:
    def test_perfect_separation(self):
        assert auc_binary([0.9, 0.1], [1, 0]) == 1.0

    def test_half_right(self):
        assert auc_binary([0.9, 0.8, 0.3], [1, 0, 1]) == 0.5

    def test_all_tied_scores(self):
        assert auc_binary([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0]) == 0.5

    def test_degenerate_labels_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            auc_binary([0.1, 0.2], [1, 1])
        with pytest.raises(ValueError, match="undefined"):
            auc_binary([0.1, 0.2], [0, 0])

    def test_bad_label_value_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            auc_binary([0.1, 0.2], [1, 2])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            auc_binary([0.1], [1, 0])

    def test_complement_identity(self):
        rng = random.Random(0)
        for _ in range(50):
            n = rng.randint(2, 12)
            labels = [rng.randint(0, 1) for _ in range(n)]
            if sum(labels) in (0, n):
                labels[0] = 1 - labels[0]
            scores = [rng.choice([0.1, 0.5, 0.9]) for _ in range(n)]
            flipped = [1 - y for y in labels]
            assert auc_binary(scores, labels) + auc_binary(scores, flipped) == pytest.approx(1.0)

    @given(
        # grid-valued scores so the transforms cannot merge distinct values
        st.lists(st.integers(min_value=-200, max_value=200).map(lambda n: n / 4), min_size=2, max_size=12),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_strictly_increasing_transform(self, scores, data):
        labels = data.draw(
            st.lists(st.integers(min_value=0, max_value=1), min_size=len(scores), max_size=len(scores))
        )
        if sum(labels) in (0, len(labels)):
            labels[0] = 1 - labels[0]
        base = auc_binary(scores, labels)
        affine = auc_binary([2.0 * s + 1.0 for s in scores], labels)
        curved = auc_binary([math.tanh(s / 50) for s in scores], labels)
        assert affine == pytest.approx(base, abs=1e-12)
        assert curved == pytest.approx(base, abs=1e-12)


def fake_scores(monkeypatch, scores):
    """Substitute `evaluate`'s batch scorer: `scores(source_sets, target_ids)` gives the score matrix."""
    def fake(source_sets, targets, embeddings=None, scorer="avg", graph=None):
        matrix = np.asarray(scores(source_sets, targets), dtype=np.float64)
        assert matrix.shape == (len(source_sets), len(targets))
        return matrix, np.zeros(len(source_sets), dtype=np.int64)

    monkeypatch.setattr(evaluation, "score_sets", fake)


def constant(value):
    return lambda source_sets, targets: np.full((len(source_sets), len(targets)), value)


def uniform_random(seed):
    rng = np.random.default_rng(seed)
    return lambda source_sets, targets: rng.random((len(source_sets), len(targets)))


def ground_truth(corpus, target="tgt", sources=("src",)):
    """Scores 1 where an evaluated item (corpus order) carries the target tag, else 0."""
    eligible = [item for item in corpus.items if item.tags(target) and any(item.tags(s) for s in sources)]
    positives = [{tag_node_id(target, tag) for tag in item.tags(target)} for item in eligible]

    def scores(source_sets, targets):
        return [[float(t in tags) for t in targets] for tags in positives]

    return scores


class TestEvaluate:
    def folds_for(self, corpus, k=4, seed=0):
        return stratified_split(corpus, k=k, seed=seed)

    def test_ground_truth_scorer_reaches_one(self, monkeypatch):
        corpus = synthetic_corpus(60, seed=4)
        fake_scores(monkeypatch, ground_truth(corpus))
        report = evaluate(corpus, self.folds_for(corpus), "tgt", ["src"])
        assert report.fold_aucs == (1.0, 1.0, 1.0, 1.0)
        assert report.mean_auc == 1.0
        assert report.std_auc == 0.0

    def test_constant_scorer_scores_half(self, monkeypatch):
        corpus = synthetic_corpus(60, seed=4)
        fake_scores(monkeypatch, constant(0.25))
        report = evaluate(corpus, self.folds_for(corpus), "tgt", ["src"])
        assert report.fold_aucs == (0.5, 0.5, 0.5, 0.5)

    def test_random_scorer_near_half_on_balanced_data(self, monkeypatch):
        corpus = synthetic_corpus(1000, seed=6, n_target_tags=6)
        fake_scores(monkeypatch, uniform_random(99))
        report = evaluate(corpus, self.folds_for(corpus), "tgt", ["src"])
        assert abs(report.mean_auc - 0.5) <= 0.05

    def test_mean_within_fold_range_and_population_std(self, monkeypatch):
        corpus = synthetic_corpus(80, seed=10)
        fake_scores(monkeypatch, uniform_random(1))
        report = evaluate(corpus, self.folds_for(corpus), "tgt", ["src"])
        assert min(report.fold_aucs) <= report.mean_auc <= max(report.fold_aucs)
        assert report.std_auc == pytest.approx(float(np.std(report.fold_aucs)))
        assert all(0.0 <= v <= 1.0 for v in report.fold_aucs)

    def test_degenerate_tags_excluded_from_macro(self, monkeypatch):
        # t00 positive for every item, so it never qualifies; t01 varies
        items = []
        for n in range(8):
            target = ("t00", "t01") if n % 2 else ("t00",)
            items.append(CorpusItem(f"i{n}", {"src": ("s0",), "tgt": target}))
        corpus = ParallelCorpus(items=items, systems=("src", "tgt"))
        folds = stratified_split(corpus, k=4, seed=0)
        fake_scores(monkeypatch, constant(0.5))
        report = evaluate(corpus, folds, "tgt", ["src"])
        assert all(value is None for value in report.per_tag["t00"])

    def test_fold_without_qualifying_tag_rejected(self, monkeypatch):
        items = [CorpusItem(f"i{n}", {"src": ("s0",), "tgt": ("t0",)}) for n in range(8)]
        corpus = ParallelCorpus(items=items, systems=("src", "tgt"))
        folds = stratified_split(corpus, k=4, seed=0)
        fake_scores(monkeypatch, constant(0.5))
        with pytest.raises(ValueError, match="no qualifying target tag"):
            evaluate(corpus, folds, "tgt", ["src"])

    def test_items_without_source_or_target_excluded(self, monkeypatch):
        items = [
            CorpusItem("no-source", {"other": ("x",), "tgt": ("t0", "t1")}),
            CorpusItem("no-target", {"src": ("s0",), "other": ("x",)}),
        ]
        for n in range(6):
            items.append(CorpusItem(f"ok{n}", {"src": ("s0",), "tgt": ("t0",) if n % 2 else ("t1",)}))
        corpus = ParallelCorpus(items=items, systems=("src", "tgt", "other"))
        folds = stratified_split(corpus, k=2, seed=0)
        fake_scores(monkeypatch, ground_truth(corpus))
        report = evaluate(corpus, folds, "tgt", ["src"])
        assert sum(report.items_per_fold) == 6  # the two partial items are excluded

    def test_union_of_two_source_systems(self, monkeypatch):
        seen_sets = []

        def spy(source_sets, targets):
            seen_sets.extend(source_sets)
            return constant(0.5)(source_sets, targets)

        items = [
            CorpusItem("a", {"s1": ("x",), "tgt": ("t0",)}),
            CorpusItem("b", {"s2": ("y",), "tgt": ("t1",)}),
            CorpusItem("c", {"s1": ("x",), "s2": ("y",), "tgt": ("t0", "t1")}),
            CorpusItem("d", {"s1": ("x",), "tgt": ("t1",)}),
        ]
        corpus = ParallelCorpus(items=items, systems=("s1", "s2", "tgt"))
        folds = stratified_split(corpus, k=2, seed=0)
        fake_scores(monkeypatch, spy)
        evaluate(corpus, folds, "tgt", ["s1", "s2"])
        # items annotated in only one of the two source systems still evaluate, each
        # scored from the union of its tags in both systems
        assert seen_sets == [{"s1:x"}, {"s2:y"}, {"s1:x", "s2:y"}, {"s1:x"}]

    def test_no_source_system_rejected(self, monkeypatch):
        corpus = synthetic_corpus(40, seed=1)
        fake_scores(monkeypatch, constant(0.5))
        with pytest.raises(ValueError, match="evaluate needs at least one source system"):
            evaluate(corpus, self.folds_for(corpus), "tgt", [])

    def test_item_without_fold_rejected(self, monkeypatch):
        corpus = synthetic_corpus(40, seed=1)
        folds = self.folds_for(corpus)
        del folds.assignment["item0003"]
        fake_scores(monkeypatch, constant(0.5))
        with pytest.raises(ValueError, match="'item0003' has no fold"):
            evaluate(corpus, folds, "tgt", ["src"])

    @pytest.mark.parametrize("fold", [4, -1])
    def test_fold_index_out_of_range_rejected(self, fold, monkeypatch):
        corpus = synthetic_corpus(40, seed=1)
        folds = self.folds_for(corpus)
        folds.assignment["item0003"] = fold
        fake_scores(monkeypatch, constant(0.5))
        with pytest.raises(ValueError, match=f"'item0003' is assigned to fold {fold}, outside 0..3"):
            evaluate(corpus, folds, "tgt", ["src"])

    @pytest.mark.parametrize("target, sources", [("xx", ["src"]), ("tgt", ["xx"]), ("tgt", ["src", "xx"])])
    def test_system_without_corpus_tags_rejected(self, monkeypatch, target, sources):
        corpus = synthetic_corpus(40, seed=1)
        fake_scores(monkeypatch, constant(0.5))
        message = "tag system 'xx' has no tags in the corpus, whose systems are ['src', 'tgt']"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate(corpus, self.folds_for(corpus), target, sources)

    def test_target_cannot_be_source(self, monkeypatch):
        corpus = synthetic_corpus(20, seed=0)
        fake_scores(monkeypatch, constant(0.0))
        with pytest.raises(ValueError, match="cannot also be a source"):
            evaluate(corpus, self.folds_for(corpus), "tgt", ["tgt"])

    def test_report_serialization_roundtrip(self, monkeypatch):
        corpus = synthetic_corpus(40, seed=3)
        fake_scores(monkeypatch, constant(0.5))
        report = evaluate(corpus, self.folds_for(corpus), "tgt", ["src"])
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["fold_aucs"] == [0.5, 0.5, 0.5, 0.5]
        assert payload["scorer"] == "avg"
        assert "per_tag" in payload
        table = report.render_table()
        assert "macro-AUC" in table and "mean" in table

    def test_callable_scorer_rejected(self):
        corpus = synthetic_corpus(40, seed=3)
        with pytest.raises(ValueError, match="scorer must be one of"):
            evaluate(corpus, self.folds_for(corpus), "tgt", ["src"], scorer=lambda item, tag: 0.5)


def oracle_evaluate(corpus, folds, target_system, source_systems, scorer, embeddings=None, graph=None):
    """Per-item scoring by the row-sum reference and the scalar rank-sum AUC, one tag and fold at a time."""
    vocabulary = corpus.system_vocabulary(target_system)
    target_ids = [tag_node_id(target_system, tag) for tag in vocabulary]
    eligible = [
        item for item in corpus.items
        if item.tags(target_system) and any(item.tags(s) for s in source_systems)
    ]
    scores_by_item = {}
    for item in eligible:
        sources = {tag_node_id(system, tag) for system in source_systems for tag in item.tags(system)}
        scores_by_item[item.id] = row_sum_translate_scores(sources, target_ids, embeddings, scorer, graph)
    fold_aucs, items_per_fold = [], []
    per_tag = {tag: [] for tag in vocabulary}
    for fold in range(folds.k):
        members = [item for item in eligible if folds.fold_of(item.id) == fold]
        items_per_fold.append(len(members))
        tag_aucs = []
        for column, tag in enumerate(vocabulary):
            labels = [1 if tag in item.tags(target_system) else 0 for item in members]
            if sum(labels) in (0, len(labels)):
                per_tag[tag].append(None)
                continue
            value = auc_binary([scores_by_item[item.id][column] for item in members], labels)
            per_tag[tag].append(value)
            tag_aucs.append(value)
        fold_aucs.append(sum(tag_aucs) / len(tag_aucs))
    return EvalReport(
        target_system=target_system,
        source_systems=tuple(source_systems),
        scorer=scorer,
        fold_aucs=tuple(fold_aucs),
        mean_auc=float(np.mean(fold_aucs)),
        std_auc=float(np.std(fold_aucs)),
        per_tag={tag: tuple(values) for tag, values in per_tag.items()},
        items_per_fold=tuple(items_per_fold),
    )


def random_experiment(seed, quantized):
    """Two source systems and a target system over a random embedding matrix and graph.

    Some source tags are missing from the matrix, so some items keep no
    resolved source; quantized vectors make many scores tie exactly.
    """
    rng = np.random.default_rng(seed)
    pick = random.Random(seed)
    n_items = int(rng.integers(24, 90))
    vocab = {"s1": [f"a{i}" for i in range(8)], "s2": [f"b{i}" for i in range(5)], "tgt": [f"t{i}" for i in range(9)]}
    shapes = [
        {"s1": tuple(pick.sample(vocab["s1"], pick.randint(1, 3)))} for _ in range(n_items // 4)
    ]  # a small pool of source sets, so many items share theirs
    items = []
    for index in range(n_items):
        annotations = dict(pick.choice(shapes)) if pick.random() < 0.5 else {}
        if not annotations or pick.random() < 0.3:
            annotations["s2"] = tuple(pick.sample(vocab["s2"], pick.randint(1, 2)))
        annotations["tgt"] = tuple(pick.sample(vocab["tgt"][:7], pick.randint(1, 3)))
        if index in (3, 10):
            annotations["tgt"] += ("t8",)  # on two items only, so absent from at least one of three folds
        items.append(CorpusItem(f"i{index:03d}", annotations))
    corpus = ParallelCorpus(items=items, systems=("s1", "s2", "tgt"))

    ids = [tag_node_id(system, tag) for system, tags in vocab.items() for tag in tags]
    missing = {"s1:a0", "s1:a5", "s2:b4"}
    concepts = [cid for cid in ids if cid not in missing]
    dim = int(rng.integers(2, 7))
    vectors = rng.normal(size=(len(concepts), dim))
    if quantized:
        vectors = np.round(vectors)
        vectors[rng.random(len(concepts)) < 0.1] = 0.0
    embeddings = ConceptEmbeddingMatrix(concepts, vectors, np.any(vectors != 0.0, axis=1))

    relations = sorted(RELATIONS)
    edges = []
    for _ in range(len(ids)):
        i, j = rng.choice(len(ids), size=2, replace=False)
        edges.append((ids[int(i)], ids[int(j)], relations[int(rng.integers(len(relations)))]))
    graph = bare_graph(ids, edges)
    folds = stratified_split(corpus, k=3, seed=seed)
    return corpus, folds, embeddings, graph


class TestBatchScoringOracle:
    """The batch path reproduces per-item scoring and scalar AUC exactly."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("scorer", ["sum", "avg", "baseline"])
    def test_random_corpora(self, seed, scorer):
        corpus, folds, embeddings, graph = random_experiment(seed, quantized=seed % 2 == 0)
        for sources in (["s1", "s2"], ["s2"]):
            report = evaluate(corpus, folds, "tgt", sources, scorer=scorer, embeddings=embeddings, graph=graph)
            expected = oracle_evaluate(corpus, folds, "tgt", sources, scorer, embeddings, graph)
            assert report.to_dict() == expected.to_dict()

    def test_corpora_cover_the_hard_cases(self):
        unresolved = degenerate = shared = 0
        for seed in range(8):
            corpus, folds, embeddings, _ = random_experiment(seed, quantized=seed % 2 == 0)
            sets = [
                frozenset(tag_node_id(s, t) for s in ("s1", "s2") for t in item.tags(s)) for item in corpus.items
            ]
            unresolved += sum(not any(tag in embeddings for tag in tags) for tags in sets)
            shared += len(sets) - len(set(sets))
            report = evaluate(corpus, folds, "tgt", ["s1", "s2"], scorer="avg", embeddings=embeddings)
            degenerate += sum(value is None for values in report.per_tag.values() for value in values)
        assert unresolved and degenerate and shared

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scorer", ["sum", "avg", "baseline"])
    def test_single_query_translate_matches_oracle(self, seed, scorer):
        _, _, embeddings, graph = random_experiment(seed, quantized=seed % 2 == 1)
        rng = random.Random(seed)
        targets = [f"tgt:t{i}" for i in range(9)]
        sources = [f"s1:a{i}" for i in range(8)] + [f"s2:b{i}" for i in range(5)]
        for _ in range(20):
            query = rng.sample(sources, rng.randint(1, 4))
            result = translate(query, targets, embeddings=embeddings, scorer=scorer, graph=graph)
            got = [result.scores[t] for t in targets]
            assert got == row_sum_translate_scores(query, targets, embeddings, scorer, graph).tolist()
            expected = oracle_translate_scores(query, targets, embeddings, scorer, graph)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_sets_with_equal_row_sums_tie(self):
        # a and b are parallel, so their unit vectors and cosine rows have the same bits, and the sets
        # {a, c} and {b, c} sum the same rows: every item scores alike, and each defined AUC is the
        # tie-corrected 0.5
        embeddings = ConceptEmbeddingMatrix(
            ["s:a", "s:b", "s:c", "t:x", "t:y", "t:z"],
            np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 1.0, -1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, -1.0, 1.0]]),
            np.ones(6, dtype=bool),
        )
        items = [
            CorpusItem(f"i{n:02d}", {"s": ("a" if n % 2 else "b", "c"), "t": ("x" if n % 2 else "y", "z")})
            for n in range(24)
        ]
        corpus = ParallelCorpus(items=items, systems=("s", "t"))
        folds = stratified_split(corpus, k=3, seed=0)
        for scorer in ("sum", "avg"):
            scores, _ = score_sets([{"s:a", "s:c"}, {"s:b", "s:c"}, {"s:a"}, {"s:b"}], ["t:x", "t:y", "t:z"],
                                   embeddings=embeddings, scorer=scorer)
            assert scores[0].tobytes() == scores[1].tobytes() and scores[2].tobytes() == scores[3].tobytes()
            report = evaluate(corpus, folds, "t", ["s"], scorer=scorer, embeddings=embeddings)
            assert report.to_dict() == oracle_evaluate(corpus, folds, "t", ["s"], scorer, embeddings).to_dict()
            assert report.per_tag == {"x": (0.5,) * 3, "y": (0.5,) * 3, "z": (None,) * 3}
            assert report.mean_auc == 0.5

    def test_demo_data(self, tmp_path):
        paths = write_demo_dataset(tmp_path)
        config = str(paths["config"])
        for stage in ("build-graph", "embed", "retrofit"):
            assert main([stage, "--config", config]) == 0
        corpus = load_corpus(paths["corpus"], min_tag_count=1)
        folds = stratified_split(corpus, k=4, seed=7)
        graph = load_saved_graph(tmp_path / "out" / "graph.json")
        embeddings, _ = load_matrix(tmp_path / "out" / "retrofitted.npz")
        for scorer in ("sum", "avg", "baseline"):
            report = evaluate(corpus, folds, "fr", ["en"], scorer=scorer, embeddings=embeddings, graph=graph)
            expected = oracle_evaluate(corpus, folds, "fr", ["en"], scorer, embeddings, graph)
            assert report.to_dict() == expected.to_dict()


class TestMemoizedBaseline:
    """Baseline scores and rankings through the graph's memo equal those of a memo built on every call."""

    def test_demo_data(self, tmp_path, monkeypatch):
        paths = write_demo_dataset(tmp_path)
        assert main(["build-graph", "--config", str(paths["config"])]) == 0
        corpus = load_corpus(paths["corpus"], min_tag_count=1)
        folds = stratified_split(corpus, k=4, seed=7)
        graph = load_saved_graph(tmp_path / "out" / "graph.json")
        rng = random.Random(7)
        sources, targets = graph.system_tags("en"), graph.system_tags("fr")
        target_lists = [targets, targets[::-2]]  # alternated, so the memo is replaced between them
        queries = [(rng.sample(sources, rng.randint(1, 4)), target_lists[n % 2]) for n in range(40)]

        def run():
            reports = [evaluate(corpus, folds, "fr", ["en"], scorer="baseline", graph=graph).to_dict()]
            results = [translate(q, t, scorer="baseline", graph=graph) for q, t in queries]
            reports.append(evaluate(corpus, folds, "fr", ["en"], scorer="baseline", graph=graph).to_dict())
            return reports, [(r.scores, r.ranking) for r in results]

        memoized = run()
        assert graph._target_memo is not None
        # the package exports the function translate, which hides the module of that name
        monkeypatch.setattr(importlib.import_module("genrevec.translate"), "_memo", unstored_memo)
        assert run() == memoized

    def test_evaluate_searches_hop_chunk_sources_per_call(self, monkeypatch):
        tags = [f"s{i:03d}" for i in range(140)]
        items = [CorpusItem(f"i{i:03d}", {"src": (tag,), "tgt": (f"t{i % 2}",)}) for i, tag in enumerate(tags)]
        corpus = ParallelCorpus(items=items, systems=("src", "tgt"))
        ids = [tag_node_id("src", tag) for tag in tags] + [tag_node_id("tgt", "t0"), tag_node_id("tgt", "t1")]
        graph = bare_graph(ids, [(a, b, "musicSubgenre") for a, b in zip(ids, ids[1:])])
        searches = record_searches(monkeypatch)
        evaluate(corpus, stratified_split(corpus, k=2, seed=0), "tgt", ["src"], scorer="baseline", graph=graph)
        assert [len(call) for call in searches] == [min(HOP_CHUNK, 140 - start) for start in range(0, 140, HOP_CHUNK)]


class TestEvaluateWarnings:
    def test_one_warning_per_call_for_dropped_sources(self, caplog):
        items = [
            CorpusItem(f"i{n}", {"src": ("known", f"ghost{n}"), "tgt": ("t0",) if n % 2 else ("t1",)})
            for n in range(6)
        ]
        items += [CorpusItem(f"lost{n}", {"src": ("ghost",), "tgt": ("t0", "t1")[n % 2:][:1]}) for n in range(2)]
        corpus = ParallelCorpus(items=items, systems=("src", "tgt"))
        embeddings = ConceptEmbeddingMatrix(
            ["src:known", "tgt:t0", "tgt:t1"], np.array([[1.0, 0.0], [0.6, 0.8], [0.8, -0.6]]), np.ones(3, bool)
        )
        folds = stratified_split(corpus, k=2, seed=0)
        with caplog.at_level(logging.WARNING):
            evaluate(corpus, folds, "tgt", ["src"], scorer="avg", embeddings=embeddings)
        dropped = [r for r in caplog.records if "dropped" in r.getMessage()]
        unresolved = [r for r in caplog.records if "no source tag" in r.getMessage()]
        assert len(dropped) == 1 and len(unresolved) == 1
        assert "dropped 8 source tags" in dropped[0].getMessage()
        assert "from 8 of 8 items" in dropped[0].getMessage()
        assert unresolved[0].getMessage().startswith("2 items")
