"""Tests for cosine scoring, aggregation, and target ranking."""

import logging
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genrevec.compose import ConceptEmbeddingMatrix
from genrevec.genregraph import RELATIONS, GenreGraph
from genrevec.retrofit import RetrofitConfig, retrofit
from genrevec.translate import cosine, score_sets, translate

from helpers import (
    bare_graph,
    count_memo_builds,
    extended_graph,
    oracle_translate,
    oracle_translate_scores,
    record_searches,
    score_avg,
    score_sum,
    shortest_path_similarity,
    vector,
)


class TestCosine:
    def test_self_similarity_is_one(self):
        assert cosine([0.3, -0.4], [0.3, -0.4]) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_zero_vector_convention(self):
        assert cosine([1.0, 0.0], [0.0, 0.0]) == 0.0
        assert cosine([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            cosine([1.0], [1.0, 2.0])

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u, v = rng.normal(size=(2, 5))
            assert cosine(3.7 * u, v) == pytest.approx(cosine(u, v), abs=1e-12)
            assert cosine(u, 0.001 * v) == pytest.approx(cosine(u, v), abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            u, v = rng.normal(size=(2, 4))
            assert -1.0 <= cosine(u, v) <= 1.0


class TestScoreAggregation:
    def test_single_matching_source(self):
        t = np.array([1.0, 1.0])
        assert score_sum([t], t) == pytest.approx(1.0)

    def test_k_identical_sources_sum_to_k(self):
        t = np.array([0.5, 0.5])
        assert score_sum([t, t, t], t) == pytest.approx(3.0)

    def test_mixed_sources(self):
        target = np.array([1.0, 0.0])
        assert score_sum([np.array([1.0, 0.0]), np.array([0.0, 1.0])], target) == pytest.approx(1.0)

    def test_avg_of_target_and_orthogonal(self):
        t = np.array([1.0, 0.0])
        perpendicular = np.array([0.0, 1.0])
        assert score_avg([t, perpendicular], t) == pytest.approx(0.5)

    def test_avg_equals_sum_for_single_source(self):
        t = np.array([0.2, 0.9])
        s = np.array([1.0, -1.0])
        assert score_avg([s], t) == score_sum([s], t)

    def test_avg_of_opposite_cosines_is_zero(self):
        t = np.array([1.0, 0.0])
        sources = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, 0.0])]
        assert score_avg(sources, t) == pytest.approx(0.0)

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            score_sum([], np.array([1.0]))
        with pytest.raises(ValueError, match="nonempty"):
            score_avg([], np.array([1.0]))


def matrix_of(pairs):
    concepts = [cid for cid, _ in pairs]
    vectors = np.array([v for _, v in pairs], dtype=float)
    known = np.any(vectors != 0.0, axis=1)
    return ConceptEmbeddingMatrix(concepts, vectors, known)


class TestTranslate:
    def test_retrofitted_twin_ranks_first(self):
        graph = bare_graph(
            ["src", "twin", "other"],
            [("src", "twin", "sameAs"), ("src", "other", "musicSubgenre")],
        )
        q_hat = matrix_of([
            ("src", [1.0, 0.0, 0.0]),
            ("twin", [0.0, 1.0, 0.0]),
            ("other", [0.0, 0.0, 1.0]),
        ])
        result = retrofit(q_hat, graph, RetrofitConfig(scheme="typed", tolerance=1e-9))
        ranked = translate(["src"], ["twin", "other"], embeddings=result.matrix, scorer="avg")
        assert ranked.ranking[0] == "twin"

    def test_identical_embedding_scores_one_under_avg(self):
        embeddings = matrix_of([("t", [0.6, 0.8]), ("u", [0.8, -0.6])])
        result = translate(["t"], ["t", "u"], embeddings=embeddings, scorer="avg")
        assert result.scores["t"] == pytest.approx(1.0)

    def test_sum_and_avg_rank_identically(self):
        rng = np.random.default_rng(4)
        concepts = [f"c{i}" for i in range(12)]
        embeddings = matrix_of([(c, rng.normal(size=6)) for c in concepts])
        sources = concepts[:4]
        targets = concepts[4:]
        by_sum = translate(sources, targets, embeddings=embeddings, scorer="sum")
        by_avg = translate(sources, targets, embeddings=embeddings, scorer="avg")
        assert by_sum.ranking == by_avg.ranking
        for tag in targets:
            assert by_avg.scores[tag] == pytest.approx(by_sum.scores[tag] / 4)

    def test_source_order_and_duplicates_do_not_matter(self):
        rng = np.random.default_rng(9)
        concepts = [f"c{i}" for i in range(8)]
        embeddings = matrix_of([(c, rng.normal(size=3)) for c in concepts])
        targets = concepts[4:]
        forward = translate(["c0", "c1", "c2"], targets, embeddings=embeddings)
        backward = translate(["c2", "c0", "c1", "c0"], targets, embeddings=embeddings)
        assert forward.scores == backward.scores
        assert forward.ranking == backward.ranking

    def test_unresolvable_source_dropped_with_warning(self, caplog):
        embeddings = matrix_of([("s", [1.0, 0.0]), ("t", [0.5, 0.5])])
        with caplog.at_level(logging.WARNING):
            result = translate(["s", "ghost"], ["t"], embeddings=embeddings, scorer="avg")
        assert "dropped 1 source" in caplog.text
        assert result.scores["t"] == pytest.approx(cosine([1.0, 0.0], [0.5, 0.5]))

    def test_all_sources_unresolvable_scores_zero(self, caplog):
        embeddings = matrix_of([("t1", [1.0, 0.0]), ("t2", [0.0, 1.0])])
        with caplog.at_level(logging.WARNING):
            result = translate(["ghost"], ["t1", "t2"], embeddings=embeddings)
        assert result.scores == {"t1": 0.0, "t2": 0.0}
        assert result.ranking == ["t1", "t2"]  # lexicographic tie-break

    def test_unresolvable_target_rejected(self):
        embeddings = matrix_of([("s", [1.0, 0.0])])
        with pytest.raises(ValueError, match="unresolvable target"):
            translate(["s"], ["nowhere"], embeddings=embeddings)

    def test_empty_source_set_rejected(self):
        embeddings = matrix_of([("t", [1.0])])
        with pytest.raises(ValueError, match="nonempty"):
            translate([], ["t"], embeddings=embeddings)

    def test_unknown_zero_vector_source_is_neutral(self):
        embeddings = ConceptEmbeddingMatrix(
            ["s", "z", "t1", "t2"],
            np.array([[1.0, 0.0], [0.0, 0.0], [0.9, 0.1], [0.1, 0.9]]),
            np.array([True, False, True, True]),
        )
        with_zero = translate(["s", "z"], ["t1", "t2"], embeddings=embeddings, scorer="sum")
        without = translate(["s"], ["t1", "t2"], embeddings=embeddings, scorer="sum")
        for tag in ("t1", "t2"):
            assert with_zero.scores[tag] == pytest.approx(without.scores[tag])

    def test_ranking_is_a_permutation_of_targets(self):
        rng = np.random.default_rng(13)
        concepts = [f"c{i}" for i in range(9)]
        embeddings = matrix_of([(c, rng.normal(size=4)) for c in concepts])
        result = translate(concepts[:2], concepts[2:], embeddings=embeddings)
        assert sorted(result.ranking) == sorted(concepts[2:])

    def test_matrix_path_matches_scalar_cosine(self):
        rng = np.random.default_rng(21)
        embeddings = matrix_of([(f"c{i}", rng.normal(size=5)) for i in range(6)])
        result = translate(["c0", "c1"], ["c2", "c3"], embeddings=embeddings, scorer="avg")
        for tag in ("c2", "c3"):
            expected = score_avg(
                [vector(embeddings, "c0"), vector(embeddings, "c1")], vector(embeddings, tag)
            )
            assert result.scores[tag] == pytest.approx(expected, abs=1e-12)


class TestBaselineScorer:
    def chain(self):
        return bare_graph(
            ["a", "b", "c"],
            [("a", "b", "sameAs"), ("b", "c", "musicSubgenre")],
        )

    def test_path_relatedness_scores(self):
        result = translate(["a"], ["b", "c"], scorer="baseline", graph=self.chain())
        assert result.scores["b"] == pytest.approx(0.5)
        assert result.scores["c"] == pytest.approx(1 / 3)
        assert result.ranking == ["b", "c"]

    def test_mean_over_sources(self):
        result = translate(["a", "c"], ["b"], scorer="baseline", graph=self.chain())
        assert result.scores["b"] == pytest.approx(0.5)  # (1/2 + 1/2) / 2

    def test_matches_pairwise_similarity(self):
        graph = self.chain()
        result = translate(["a", "b"], ["c"], scorer="baseline", graph=graph)
        expected = (
            shortest_path_similarity(graph, "a", "c") + shortest_path_similarity(graph, "b", "c")
        ) / 2
        assert result.scores["c"] == pytest.approx(expected)

    def test_requires_graph_nodes(self):
        with pytest.raises(ValueError, match="unknown node id"):
            translate(["a"], ["zzz"], scorer="baseline", graph=self.chain())

    def test_requires_graph(self):
        with pytest.raises(ValueError, match="graph"):
            translate(["a"], ["b"], scorer="baseline")

    def test_first_unknown_id_in_set_order_is_named(self):
        # sets in order, each set's tags sorted, then the targets: 'z' before 'y' and 'x'
        with pytest.raises(ValueError, match="unknown node id 'z'"):
            score_sets([{"z", "a"}, {"y"}], ["x"], scorer="baseline", graph=self.chain())
        with pytest.raises(ValueError, match="unknown node id 'x'"):
            score_sets([{"c", "a"}, {"b"}], ["x"], scorer="baseline", graph=self.chain())


@st.composite
def translation_cases(draw):
    """A matrix of quantized vectors (the first concept the zero vector), a graph over its
    concepts, target lists A and B (repeats allowed), and source sets."""
    names = draw(st.lists(st.text(alphabet="abAB", min_size=1, max_size=3), min_size=3, max_size=10, unique=True))
    dim = draw(st.integers(1, 3))
    component = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
    rows = draw(st.lists(st.lists(component, min_size=dim, max_size=dim), min_size=len(names) - 1, max_size=len(names) - 1))
    vectors = np.array([[0.0] * dim] + rows)
    embeddings = ConceptEmbeddingMatrix(names, vectors, np.any(vectors != 0.0, axis=1))
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names), st.sampled_from(sorted(RELATIONS))), max_size=12))
    edges = list(dict.fromkeys((a, b, rel) for a, b, rel in pairs if a != b))
    graph = bare_graph(names, edges)
    tag = st.sampled_from(names)
    target_lists = draw(st.lists(st.lists(tag, min_size=1, max_size=8), min_size=2, max_size=2))
    source_sets = draw(st.lists(st.lists(st.one_of(tag, st.just(names[0])), min_size=1, max_size=5), min_size=1, max_size=3))
    return embeddings, graph, target_lists, source_sets


def assert_same_translation(result, expected):
    assert list(result.scores) == list(expected.scores)
    assert [np.float64(v).tobytes() for v in result.scores.values()] == [
        np.float64(v).tobytes() for v in expected.scores.values()
    ]
    assert result.ranking == expected.ranking


class TestHopTable:
    """The baseline's table: the call that builds it searches its own sources; the first later call that
    brings another source fills it with one search from the targets; then no call searches."""

    def test_searches_and_scores_before_and_after_the_fill(self, monkeypatch):
        rng = random.Random(3)
        ids = [f"n{i:02d}" for i in range(40)]
        edges = [(a, b, "derivative") for a, b in ((rng.choice(ids), rng.choice(ids)) for _ in range(45)) if a != b]
        graph = bare_graph(ids + ["lone"], edges)  # `lone` reaches no target but itself
        targets = rng.sample(ids, 12) + ["lone"]
        queries = [["n05", "n01"], ["n01"], ["n05", "n01", "n05"], ["n07", "n01"], *(rng.sample(ids, 3) for _ in range(20))]
        searches = record_searches(monkeypatch)
        for n, sources in enumerate(queries):
            result = translate(sources, targets, scorer="baseline", graph=graph)
            assert_same_translation(result, oracle_translate(sources, targets, scorer="baseline", graph=graph))
            if n == 2:  # a one-shot call searched only its own sources, and the next two searched nothing
                assert searches == [[1, 5]] and graph._target_memo.table.levels is None
        assert searches == [[1, 5], graph._positions(targets).tolist()]  # n07 brought the fill
        assert graph._target_memo.table.levels.shape == (41, len(targets))
        assert translate(["lone"], targets, scorer="baseline", graph=graph).scores["lone"] == 1.0
        assert len(searches) == 2

    def test_memo_is_keyed_by_the_list_as_given(self, monkeypatch):
        graph = bare_graph(["a", "b", "c"], [("a", "b", "sameAs")])
        builds = count_memo_builds(monkeypatch)
        for _ in range(2):
            result = translate(["a"], ["c", "b", "c"], scorer="baseline", graph=graph)
            assert result.scores == {"c": 0.0, "b": 0.5} and result.ranking == ["b", "c"]
        memo = graph._target_memo
        assert memo.key == ("c", "b", "c") and memo.targets == ("c", "b") and memo.names.tolist() == ["c", "b"]
        translate(["a"], ["c", "b"], scorer="baseline", graph=graph)  # the same ids, another list
        assert builds == {(GenreGraph, ("c", "b", "c")): 1, (GenreGraph, ("c", "b")): 1}


class TestMemoizedTranslate:
    @given(translation_cases())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_the_unmemoized_translate(self, case):
        embeddings, graph, (a, b), source_sets = case
        for targets in (a, b, a):  # the memo is built, hit, replaced and rebuilt
            for sources in source_sets:
                for scorer in ("sum", "avg", "baseline"):
                    kwargs = {"graph": graph} if scorer == "baseline" else {"embeddings": embeddings}
                    result = translate(sources, targets, scorer=scorer, **kwargs)
                    assert_same_translation(result, oracle_translate(sources, targets, scorer=scorer, **kwargs))
                    # the one-product oracle sums the same cosines in another order
                    distinct = list(dict.fromkeys(targets))
                    expected = oracle_translate_scores(sources, distinct, scorer=scorer, **kwargs)
                    np.testing.assert_allclose([result.scores[t] for t in distinct], expected, rtol=0, atol=1e-12)


class TestRowsPerSource:
    """Each scorer keeps one row per source, computed on its own, and sums a set's rows in sorted order;
    so a score has the same bits whatever the call read before it and in whatever order sets come."""

    @given(translation_cases(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_scores_ignore_the_sources_read_before(self, case, rng):
        embeddings, graph, (targets, _), source_sets = case
        targets = list(dict.fromkeys(targets))
        for scorer in ("sum", "avg", "baseline"):
            def inputs(fresh):  # a fresh copy holds no memo
                if scorer == "baseline":
                    return {"graph": extended_graph(graph) if fresh else graph}
                return {"embeddings": embeddings.copy_with() if fresh else embeddings}

            alone = [score_sets([tags], targets, scorer=scorer, **inputs(True))[0][0].tobytes() for tags in source_sets]
            warm = inputs(False)
            for i in rng.sample(range(len(source_sets)), len(source_sets)):
                result = translate(source_sets[i], targets, scorer=scorer, **warm)
                assert np.array([result.scores[t] for t in targets]).tobytes() == alone[i]
            order = rng.sample(range(len(source_sets)), len(source_sets))
            for batch_inputs in (warm, inputs(True)):
                scores, _ = score_sets([source_sets[i] for i in order], targets, scorer=scorer, **batch_inputs)
                assert [row.tobytes() for row in scores] == [alone[i] for i in order]
            owner = warm["graph" if scorer == "baseline" else "embeddings"]
            for source, row in owner._target_memo.table.rows.items():
                assert not row.flags.writeable
                assert row.tobytes() == score_sets([[source]], targets, scorer=scorer, **inputs(True))[0][0].tobytes()

    def test_repeated_target_rejected(self):
        embeddings = matrix_of([("a", [1.0, 0.0]), ("b", [0.0, 1.0]), ("c", [1.0, 1.0])])
        graph = bare_graph(["a", "b", "c"], [("a", "b", "sameAs")])
        for kwargs in ({"embeddings": embeddings, "scorer": "avg"}, {"graph": graph, "scorer": "baseline"}):
            for sets in ([["a"]], []):
                with pytest.raises(ValueError, match="^repeated target tag 'b'$"):
                    score_sets(sets, ["c", "b", "a", "b", "c"], **kwargs)
        # translate scores a repeated target once, at its first position
        assert list(translate(["a"], ["b", "c", "b"], embeddings=embeddings).scores) == ["b", "c"]


class TestTargetMemo:
    def counted(self, monkeypatch, embeddings) -> Counter:
        lookups = Counter()
        index_of = embeddings.index_of

        def counting(concept):
            lookups[concept] += 1
            return index_of(concept)

        monkeypatch.setattr(embeddings, "index_of", counting)
        return lookups

    def embeddings(self):
        rng = np.random.default_rng(5)
        return matrix_of([(f"c{i}", rng.normal(size=4)) for i in range(8)])

    def test_one_target_list_builds_its_block_once(self, monkeypatch):
        embeddings = self.embeddings()
        lookups = self.counted(monkeypatch, embeddings)
        first = translate(["c0"], ["c4", "c5", "c6"], embeddings=embeddings)
        for _ in range(49):
            assert_same_translation(translate(["c0"], ["c4", "c5", "c6"], embeddings=embeddings), first)
        assert lookups == {"c0": 1, "c4": 1, "c5": 1, "c6": 1}  # a source's row is computed once per memo

    def test_a_new_target_list_rebuilds_the_block(self, monkeypatch):
        embeddings = self.embeddings()
        lookups = self.counted(monkeypatch, embeddings)
        translate(["c0"], ["c4", "c5"], embeddings=embeddings)
        block = embeddings._target_memo.table
        translate(["c0"], ["c5", "c4"], embeddings=embeddings)
        assert embeddings._target_memo.table is not block
        assert lookups == {"c0": 2, "c4": 2, "c5": 2}

    def test_unresolvable_target_rejected_after_a_memo_hit(self):
        embeddings = self.embeddings()
        for _ in range(2):
            translate(["c0"], ["c4", "c5"], embeddings=embeddings)
        with pytest.raises(ValueError, match="^unresolvable target tag 'nowhere'$"):
            translate(["c0"], ["c4", "nowhere"], embeddings=embeddings)
        assert embeddings._target_memo.targets == ("c4", "c5")

    def test_matrix_arrays_are_read_only(self):
        embeddings = self.embeddings()
        with pytest.raises(ValueError, match="read-only"):
            embeddings.vectors[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            embeddings.known[0] = False


def query(scorer, sources, targets, embeddings, graph):
    kwargs = {"graph": graph} if scorer == "baseline" else {"embeddings": embeddings}
    return translate(sources, targets, scorer=scorer, **kwargs), oracle_translate(sources, targets, scorer=scorer, **kwargs)


class TestRankingMemo:
    """Each scorer builds what depends only on the target list once per list, in the memo it owns."""

    def graph(self):
        ids = [f"n{i}" for i in range(8)]
        return bare_graph(ids, [(a, b, "musicSubgenre") for a, b in zip(ids, ids[1:])])

    def embeddings(self):
        rng = np.random.default_rng(11)
        return matrix_of([(f"n{i}", rng.normal(size=3)) for i in range(8)])

    def test_baseline_resolves_and_sorts_one_target_list_once(self, monkeypatch):
        graph = self.graph()
        builds = count_memo_builds(monkeypatch)
        targets = ["n7", "n3", "n5", "n4"]
        first = translate(["n1", "n0"], targets, scorer="baseline", graph=graph)
        for _ in range(49):
            assert_same_translation(translate(["n0", "n1"], targets, scorer="baseline", graph=graph), first)
        assert builds == {(GenreGraph, tuple(targets)): 1}
        assert_same_translation(first, oracle_translate(["n0", "n1"], targets, scorer="baseline", graph=graph))

    @pytest.mark.parametrize("scorer", ["sum", "avg"])
    def test_embedding_scorers_build_the_names_array_once(self, monkeypatch, scorer):
        embeddings = self.embeddings()
        builds = count_memo_builds(monkeypatch)
        targets = ["n7", "n3", "n5", "n4"]
        first = translate(["n0"], targets, embeddings=embeddings, scorer=scorer)
        names = embeddings._target_memo.names
        for _ in range(49):
            assert_same_translation(translate(["n0"], targets, embeddings=embeddings, scorer=scorer), first)
            assert embeddings._target_memo.names is names
        assert builds == {(ConceptEmbeddingMatrix, tuple(targets)): 1}

    @pytest.mark.parametrize("scorer", ["sum", "avg", "baseline"])
    def test_a_reordered_or_different_list_rebuilds_the_memo(self, monkeypatch, scorer):
        graph, embeddings = self.graph(), self.embeddings()
        owner = graph if scorer == "baseline" else embeddings
        builds = count_memo_builds(monkeypatch)
        lists = [["n5", "n6"], ["n6", "n5"], ["n6", "n5", "n7"], ["n5", "n6"]]
        for targets in lists:
            assert_same_translation(*query(scorer, ["n0", "n6"], targets, embeddings, graph))
            memo = owner._target_memo
            assert memo.targets == tuple(targets) and memo.names.tolist() == targets
        kind = type(owner)
        assert builds == {(kind, ("n5", "n6")): 2, (kind, ("n6", "n5")): 1, (kind, ("n6", "n5", "n7")): 1}

    @pytest.mark.parametrize("scorer", ["sum", "avg", "baseline"])
    def test_a_list_mutated_in_place_is_not_served_stale(self, scorer):
        graph, embeddings = self.graph(), self.embeddings()
        targets = ["n5", "n6", "n2"]
        for change in (lambda: None, lambda: targets.__setitem__(0, "n1"), targets.reverse, lambda: targets.append("n4"),
                       lambda: targets.append("n1")):  # a repeat changes the list, not its distinct ids
            change()
            assert_same_translation(*query(scorer, ["n0"], targets, embeddings, graph))

    def test_a_graph_change_drops_the_memo(self):
        # a graph never changes: one built with more records starts with no memo, and the first keeps its own
        graph = self.graph()
        targets = ["n7", "n3"]
        assert translate(["n0"], targets, scorer="baseline", graph=graph).scores == {"n7": 1 / 8, "n3": 1 / 4}
        assert graph._target_memo is not None
        joined = extended_graph(graph, edges=[("n0", "n7", "sameAs")])
        assert joined._target_memo is None
        result = translate(["n0"], targets, scorer="baseline", graph=joined)
        assert result.scores == {"n7": 1 / 2, "n3": 1 / 4} and result.ranking == ["n7", "n3"]
        grown = extended_graph(joined, ["n8"])
        assert grown._target_memo is None
        result = translate(["n8"], ["n7", "n8"], scorer="baseline", graph=grown)
        assert result.scores == {"n7": 0.0, "n8": 1.0} and result.ranking == ["n8", "n7"]
        assert translate(["n0"], targets, scorer="baseline", graph=graph).scores == {"n7": 1 / 8, "n3": 1 / 4}

    def test_sources_checked_before_targets_after_a_memo_hit(self):
        graph = self.graph()
        for _ in range(2):
            translate(["n0"], ["n5", "n6"], scorer="baseline", graph=graph)
        with pytest.raises(ValueError, match="^unknown node id 'zz'$"):
            translate(["n0", "zz"], ["n5", "n6"], scorer="baseline", graph=graph)
        with pytest.raises(ValueError, match="^unknown node id 'zz'$"):
            translate(["zz"], ["n5", "yy"], scorer="baseline", graph=graph)
        with pytest.raises(ValueError, match="^unknown node id 'yy'$"):
            translate(["n0"], ["n5", "yy"], scorer="baseline", graph=graph)
        assert graph._target_memo.targets == ("n5", "n6")
