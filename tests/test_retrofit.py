"""Tests for the graph-constrained refinement solver and its direct oracle."""

import numpy as np
import pytest

from genrevec.compose import ConceptEmbeddingMatrix
from genrevec.genregraph import EQUIVALENCE_RELATIONS, RELATIONS, GenreGraph
from genrevec.retrofit import (
    RetrofitConfig,
    SingularSystemError,
    objective,
    objective_gradient,
    retrofit,
    solve_direct,
    _weights,
)

from helpers import (
    ZeroDenominatorError,
    allocating_retrofit,
    bare_graph,
    dict_weights,
    is_known,
    random_instance,
    undirected_relations,
    update_step,
    vector,
)


def pair_instance():
    """Two known nodes joined by one equivalence edge."""
    graph = bare_graph(["A", "B"], [("A", "B", "sameAs")])
    matrix = ConceptEmbeddingMatrix(
        concepts=["A", "B"],
        vectors=np.array([[1.0, 0.0], [0.0, 1.0]]),
        known=np.array([True, True]),
    )
    return graph, matrix


def multi_relation_instance(seed):
    """Random graph with parallel edges in both directions, an isolated node, and shuffled concepts.

    The matrix lists the concepts in another order than the graph's nodes;
    about a third of them are unknown.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 30))
    ids = [f"n{i:02d}" for i in range(n)]
    relations = sorted(RELATIONS)
    edges = []
    for _ in range(int(rng.integers(1, 3 * n))):
        i, j = rng.choice(n - 1, size=2, replace=False)  # the last node stays isolated
        for _ in range(int(rng.integers(1, 4))):  # parallel edges, either direction
            src, dst = (i, j) if rng.random() < 0.5 else (j, i)
            edges.append((ids[src], ids[dst], relations[int(rng.integers(len(relations)))]))
    graph = bare_graph(ids, edges)
    order = [ids[i] for i in rng.permutation(n)]
    if order == ids:
        order.reverse()
    known = rng.random(n) >= 0.3
    vectors = np.where(known[:, None], rng.normal(size=(n, int(rng.integers(1, 6)))), 0.0)
    return graph, ConceptEmbeddingMatrix(order, vectors, known)


def oracle_pair_weights(graph, scheme):
    """beta_ab + beta_ba per unordered pair, summed relation by relation in sorted order."""
    weights = {}
    for (a, b), relations in sorted(undirected_relations(graph).items()):
        beta_ab = beta_ba = 0.0
        for relation in sorted(relations):
            if scheme == "typed" and relation in EQUIVALENCE_RELATIONS:
                beta_ab += 1.0
                beta_ba += 1.0
            else:
                beta_ab += 1.0 / graph.degree(a)
                beta_ba += 1.0 / graph.degree(b)
        weights[(a, b)] = beta_ab + beta_ba
    return weights


class TestConfig:
    def test_defaults(self):
        cfg = RetrofitConfig()
        assert cfg.scheme == "typed"
        assert cfg.max_iters == 100
        assert cfg.tolerance == 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetrofitConfig(scheme="fancy")
        with pytest.raises(ValueError):
            RetrofitConfig(tolerance=0.0)


class TestObjective:
    def test_zero_on_edgeless_graph_at_initialization(self):
        graph = bare_graph(["A", "B"], [])
        matrix = ConceptEmbeddingMatrix(["A", "B"], np.eye(2), np.array([True, True]))
        assert objective(matrix, matrix, graph, RetrofitConfig()) == 0.0

    def test_single_equivalence_edge_counts_both_orientations(self):
        graph = bare_graph(["A", "B"], [("A", "B", "sameAs")])
        matrix = ConceptEmbeddingMatrix(
            ["A", "B"], np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([True, True])
        )
        value = objective(matrix, matrix, graph, RetrofitConfig(scheme="typed"))
        assert value == pytest.approx(2.0)

    def test_quadratic_scaling(self):
        graph, matrix = pair_instance()
        cfg = RetrofitConfig()
        moved = matrix.copy_with(vectors=matrix.vectors + 0.3)
        base = objective(moved, matrix, graph, cfg)
        scaled = objective(
            moved.copy_with(vectors=3.0 * moved.vectors),
            matrix.copy_with(vectors=3.0 * matrix.vectors),
            graph,
            cfg,
        )
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_uniform_scheme_uses_inverse_degree(self):
        # star: center degree 2, leaves degree 1; both orientations summed
        graph = bare_graph(["C", "L1", "L2"], [("C", "L1", "derivative"), ("C", "L2", "derivative")])
        vectors = np.array([[0.0], [1.0], [1.0]])
        matrix = ConceptEmbeddingMatrix(["C", "L1", "L2"], vectors, np.ones(3, dtype=bool))
        value = objective(matrix, matrix, graph, RetrofitConfig(scheme="uniform"))
        # per edge: (1/deg(C) + 1/deg(L)) * 1 = (0.5 + 1.0)
        assert value == pytest.approx(3.0)

    def test_misaligned_matrices_rejected(self):
        graph, matrix = pair_instance()
        other = ConceptEmbeddingMatrix(["B", "A"], matrix.vectors.copy(), matrix.known.copy())
        with pytest.raises(ValueError):
            objective(matrix, other, graph, RetrofitConfig())


class TestUpdateStep:
    def test_unknown_node_with_single_neighbor_copies_it(self):
        graph = bare_graph(["U", "K"], [("U", "K", "derivative")])
        matrix = ConceptEmbeddingMatrix(
            ["U", "K"], np.array([[0.0, 0.0], [0.7, -0.2]]), np.array([False, True])
        )
        updated, _ = update_step(matrix, matrix, graph, RetrofitConfig())
        np.testing.assert_array_equal(vector(updated, "U"), vector(matrix, "K"))

    def test_known_node_with_equivalence_neighbor(self):
        graph, matrix = pair_instance()
        updated, delta = update_step(matrix, matrix, graph, RetrofitConfig(scheme="typed"))
        expected = (2.0 * vector(matrix, "B") + vector(matrix, "A")) / 3.0
        np.testing.assert_allclose(vector(updated, "A"), expected)
        assert delta > 0

    def test_edgeless_known_node_returns_anchor(self):
        graph = bare_graph(["A"], [])
        matrix = ConceptEmbeddingMatrix(["A"], np.array([[0.4, 0.6]]), np.array([True]))
        moved = matrix.copy_with(vectors=np.array([[9.0, 9.0]]))
        updated, delta = update_step(moved, matrix, graph, RetrofitConfig())
        np.testing.assert_array_equal(vector(updated, "A"), [0.4, 0.6])

    def test_isolated_unknown_node_rejected(self):
        graph = bare_graph(["A", "B"], [])
        matrix = ConceptEmbeddingMatrix(["A", "B"], np.zeros((2, 2)), np.array([True, False]))
        with pytest.raises(ZeroDenominatorError, match="'B'"):
            update_step(matrix, matrix, graph, RetrofitConfig())

    def test_jacobi_update_is_simultaneous(self):
        # both nodes must read the OLD value of the other
        graph, matrix = pair_instance()
        updated, _ = update_step(matrix, matrix, graph, RetrofitConfig(scheme="typed"))
        np.testing.assert_allclose(vector(updated, "A"), [1 / 3, 2 / 3])
        np.testing.assert_allclose(vector(updated, "B"), [2 / 3, 1 / 3])


class TestRetrofit:
    def test_two_node_equivalence_fixed_point(self):
        graph, matrix = pair_instance()
        result = retrofit(matrix, graph, RetrofitConfig(scheme="typed", tolerance=1e-9))
        np.testing.assert_allclose(vector(result.matrix, "A"), [0.6, 0.4], atol=1e-6)
        np.testing.assert_allclose(vector(result.matrix, "B"), [0.4, 0.6], atol=1e-6)
        assert result.final_delta <= 1e-9
        assert result.converged is True

    def test_edgeless_graph_converges_immediately(self):
        graph = bare_graph(["A", "B"], [])
        matrix = ConceptEmbeddingMatrix(["A", "B"], np.eye(2), np.array([True, True]))
        result = retrofit(matrix, graph, RetrofitConfig())
        assert result.iterations == 1
        np.testing.assert_array_equal(result.matrix.vectors, matrix.vectors)

    def test_unknown_chain_inherits_known_vector(self):
        graph = bare_graph(["U", "K"], [("U", "K", "sameAs")])
        matrix = ConceptEmbeddingMatrix(
            ["U", "K"], np.array([[0.0, 0.0], [0.3, 0.9]]), np.array([False, True])
        )
        result = retrofit(matrix, graph, RetrofitConfig(tolerance=1e-10))
        np.testing.assert_allclose(vector(result.matrix, "U"), vector(result.matrix, "K"), atol=1e-9)
        np.testing.assert_allclose(vector(result.matrix, "K"), [0.3, 0.9], atol=1e-9)
        assert is_known(result.matrix, "U")  # became usable

    def test_isolated_unknown_node_pinned_not_fatal(self, caplog):
        graph = bare_graph(["A", "B"], [])
        matrix = ConceptEmbeddingMatrix(["A", "B"], np.array([[1.0], [0.0]]), np.array([True, False]))
        with caplog.at_level("WARNING"):
            result = retrofit(matrix, graph, RetrofitConfig())
        assert result.pinned == ("B",)
        np.testing.assert_array_equal(vector(result.matrix, "B"), [0.0])
        assert not is_known(result.matrix, "B")

    def test_convergence_within_cap_on_suite_graphs(self):
        # the suite's standard instances: n <= 50 with 20% unanchored nodes
        for seed in range(10):
            graph, matrix = random_instance(seed, max_nodes=50, max_dim=6)
            result = retrofit(matrix, graph, RetrofitConfig())
            assert result.final_delta <= 1e-5
            assert result.iterations <= 100

    def test_convergence_within_cap_on_anchored_200_node_graphs(self):
        # chains of unanchored nodes mix too slowly for the 100-sweep cap at
        # this scale, so the large-graph check runs fully anchored
        for seed in range(5):
            graph, matrix = random_instance(seed, max_nodes=200, max_dim=6, unknown_fraction=0.0)
            result = retrofit(matrix, graph, RetrofitConfig())
            assert result.final_delta <= 1e-5
            assert result.iterations <= 100

    def test_objective_never_increases_from_start(self):
        for seed in range(8):
            graph, matrix = random_instance(seed)
            for scheme in ("uniform", "typed"):
                cfg = RetrofitConfig(scheme=scheme)
                result = retrofit(matrix, graph, cfg)
                assert objective(result.matrix, matrix, graph, cfg) <= objective(matrix, matrix, graph, cfg) + 1e-9

    def test_deterministic_bit_identical(self):
        graph, matrix = random_instance(123)
        cfg = RetrofitConfig()
        first = retrofit(matrix, graph, cfg)
        second = retrofit(matrix, graph, cfg)
        assert np.array_equal(first.matrix.vectors, second.matrix.vectors)
        assert first.deltas == second.deltas

    def test_stationarity_residual_small_at_convergence(self):
        for seed in (3, 17):
            graph, matrix = random_instance(seed)
            cfg = RetrofitConfig()
            result = retrofit(matrix, graph, cfg)
            residual = objective_gradient(result.matrix, matrix, graph, cfg) / 2.0
            assert np.max(np.abs(residual)) <= 10 * cfg.tolerance

    def test_typed_binds_equivalence_tighter_than_uniform(self):
        # center with one equivalence neighbor and nine relatedness neighbors
        ids = ["center", "equiv"] + [f"rel{i}" for i in range(9)]
        edges = [("center", "equiv", "sameAs")] + [
            ("center", f"rel{i}", "musicSubgenre") for i in range(9)
        ]
        graph = bare_graph(ids, edges)
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(len(ids), 6))
        matrix = ConceptEmbeddingMatrix(ids, vectors, np.ones(len(ids), dtype=bool))

        def center_cosine(scheme):
            result = retrofit(matrix, graph, RetrofitConfig(scheme=scheme, tolerance=1e-10))
            c = vector(result.matrix, "center")
            e = vector(result.matrix, "equiv")
            return float(np.dot(c, e) / (np.linalg.norm(c) * np.linalg.norm(e)))

        assert center_cosine("typed") > center_cosine("uniform")


    def test_non_convergence_is_flagged_and_warned(self, caplog):
        graph, matrix = pair_instance()
        with caplog.at_level("WARNING"):
            result = retrofit(matrix, graph, RetrofitConfig(max_iters=1))
        assert result.iterations == 1
        assert result.final_delta > 1e-5
        assert result.converged is False
        assert "not converged" in caplog.text

    def test_objective_values_are_the_public_objective(self):
        for seed in range(6):
            graph, matrix = random_instance(seed)
            for scheme in ("uniform", "typed"):
                cfg = RetrofitConfig(scheme=scheme)
                result = retrofit(matrix, graph, cfg)
                assert result.objective_initial == objective(matrix, matrix, graph, cfg)
                assert result.objective_final == objective(result.matrix, matrix, graph, cfg)

    def test_unanchored_components_warned_by_smallest_id(self, caplog):
        # concepts listed in another order than the graph's nodes
        graph = bare_graph(
            ["K", "V2", "V1", "U3", "U2", "Z"],
            [("K", "Z", "sameAs"), ("V2", "V1", "derivative"), ("U3", "U2", "sameAs")],
        )
        ids = ["Z", "U2", "U3", "V1", "V2", "K"]
        known = np.array([False, False, False, False, False, True])
        matrix = ConceptEmbeddingMatrix(ids, np.where(known[:, None], 1.0, 0.0) * np.ones((6, 2)), known)
        with caplog.at_level("WARNING"):
            retrofit(matrix, graph, RetrofitConfig())
        warned = [r.getMessage() for r in caplog.records if "no anchored concept" in r.getMessage()]
        assert warned == [
            "component of 2 nodes (e.g. 'U2') has no anchored concept; "
            "its vectors settle on neighbor averages of their initial values",
            "component of 2 nodes (e.g. 'V1') has no anchored concept; "
            "its vectors settle on neighbor averages of their initial values",
        ]
        with pytest.raises(SingularSystemError, match="component containing 'U2'"):
            solve_direct(matrix, graph, RetrofitConfig())


class TestWeights:
    def test_matches_per_pair_oracle(self):
        multi = bare_graph(
            ["A", "B", "C", "D"],
            [("A", "B", "sameAs"), ("B", "A", "musicSubgenre"), ("A", "B", "derivative"),
             ("B", "C", "stylisticOrigin"), ("C", "B", "wikiPageRedirects"), ("C", "D", "musicFusionGenre")],
        )
        multi_matrix = ConceptEmbeddingMatrix(["A", "B", "C", "D"], np.eye(4), np.ones(4, dtype=bool))
        instances = [random_instance(seed) for seed in range(20)] + [(multi, multi_matrix)]
        for graph, matrix in instances:
            index = {cid: i for i, cid in enumerate(matrix.concepts)}
            for scheme in ("uniform", "typed"):
                alpha, w = _weights(matrix, graph, RetrofitConfig(scheme=scheme))
                expected = np.zeros((len(matrix), len(matrix)))
                for (a, b), weight in oracle_pair_weights(graph, scheme).items():
                    expected[index[a], index[b]] = weight
                    expected[index[b], index[a]] = weight
                assert w.nnz == np.count_nonzero(expected)
                assert np.max(np.abs(w.toarray() - expected)) <= 1e-15
                np.testing.assert_array_equal(alpha, np.where(matrix.known, 1.0, 0.0))


    def test_bit_identical_to_dict_weights(self):
        for seed in range(30):
            graph, matrix = multi_relation_instance(seed)
            assert matrix.concepts != graph.node_ids()
            for scheme in ("uniform", "typed"):
                cfg = RetrofitConfig(scheme=scheme)
                alpha, w = _weights(matrix, graph, cfg)
                expected_alpha, expected = dict_weights(matrix, graph, cfg)
                np.testing.assert_array_equal(w.indptr, expected.indptr)
                np.testing.assert_array_equal(w.indices, expected.indices)
                assert w.data.tobytes() == expected.data.tobytes()
                assert alpha.tobytes() == expected_alpha.tobytes()


class TestEdgeTable:
    def test_public_calls_never_walk_edge_objects(self, monkeypatch):
        graph, matrix = random_instance(5)

        def walk(self):
            raise AssertionError("GenreGraph.edges was read")

        monkeypatch.setattr(GenreGraph, "edges", property(walk))
        cfg = RetrofitConfig()
        assert retrofit(matrix, graph, cfg).iterations > 0
        assert objective(matrix, matrix, graph, cfg) >= 0.0
        assert objective_gradient(matrix, matrix, graph, cfg).shape == matrix.vectors.shape
        assert solve_direct(matrix, graph, cfg).concepts == matrix.concepts


class TestSweepLoop:
    """The in-place sweep loop against a frozen copy of the allocating one, bit for bit."""

    def assert_same_result(self, matrix, graph, cfg):
        result = retrofit(matrix, graph, cfg)
        expected = allocating_retrofit(matrix, graph, cfg)
        assert result.matrix.concepts == expected.matrix.concepts
        assert result.matrix.vectors.tobytes() == expected.matrix.vectors.tobytes()
        np.testing.assert_array_equal(result.matrix.known, expected.matrix.known)
        assert result.deltas == expected.deltas
        assert result.final_delta == expected.final_delta
        assert result.iterations == expected.iterations
        assert result.converged is expected.converged
        assert result.pinned == expected.pinned
        assert result.objective_initial == expected.objective_initial
        assert result.objective_final == expected.objective_final
        return result

    def test_random_multi_relation_graphs(self):
        # the last node is isolated, so it is pinned whenever it is unknown
        pinned = 0
        for seed in range(20):
            graph, matrix = multi_relation_instance(seed)
            for scheme in ("uniform", "typed"):
                pinned += len(self.assert_same_result(matrix, graph, RetrofitConfig(scheme=scheme)).pinned)
        assert pinned > 0

    def test_suite_graphs(self):
        for seed in range(10):
            graph, matrix = random_instance(seed)
            self.assert_same_result(matrix, graph, RetrofitConfig())

    def test_pinned_nodes_and_unanchored_component(self):
        graph = bare_graph(
            ["K", "J", "U1", "U2", "P1", "P2"],
            [("K", "J", "musicSubgenre"), ("U1", "U2", "derivative"), ("U2", "U1", "sameAs")],
        )
        known = np.array([True, True, False, False, False, False])
        vectors = np.array([[1.0, 2.0], [-1.0, 0.5], [0.3, 0.0], [0.0, 0.7], [0.0, 0.0], [0.2, 0.1]])
        matrix = ConceptEmbeddingMatrix(["K", "J", "U1", "U2", "P1", "P2"], vectors, known)
        result = self.assert_same_result(matrix, graph, RetrofitConfig(tolerance=1e-12))
        assert result.pinned == ("P1", "P2")

    def test_empty_matrix(self):
        matrix = ConceptEmbeddingMatrix([], np.zeros((0, 3)), np.zeros(0, dtype=bool))
        result = self.assert_same_result(matrix, GenreGraph(), RetrofitConfig())
        assert result.deltas == (0.0,)
        assert result.converged is True

    def test_exhausted_max_iters(self):
        graph, matrix = random_instance(4, max_nodes=40)
        result = self.assert_same_result(matrix, graph, RetrofitConfig(max_iters=3, tolerance=1e-300))
        assert result.iterations == 3
        assert result.converged is False


class TestSolveDirect:
    def test_matches_hand_solved_pair(self):
        graph, matrix = pair_instance()
        solution = solve_direct(matrix, graph, RetrofitConfig(scheme="typed"))
        np.testing.assert_allclose(vector(solution, "A"), [0.6, 0.4], atol=1e-12)
        np.testing.assert_allclose(vector(solution, "B"), [0.4, 0.6], atol=1e-12)

    def test_edgeless_graph_returns_anchors(self):
        graph = bare_graph(["A", "B"], [])
        matrix = ConceptEmbeddingMatrix(["A", "B"], np.eye(2), np.array([True, True]))
        solution = solve_direct(matrix, graph, RetrofitConfig())
        np.testing.assert_allclose(solution.vectors, matrix.vectors)

    def test_ten_node_oracle_equivalence(self):
        graph, matrix = random_instance(7, max_nodes=10, max_dim=4)
        for scheme in ("uniform", "typed"):
            cfg = RetrofitConfig(scheme=scheme, tolerance=1e-8, max_iters=500)
            iterative = retrofit(matrix, graph, cfg).matrix.vectors
            direct = solve_direct(matrix, graph, cfg).vectors
            assert np.max(np.abs(iterative - direct)) <= 1e-4

    def test_unanchored_component_is_singular(self):
        graph = bare_graph(["U1", "U2"], [("U1", "U2", "sameAs")])
        matrix = ConceptEmbeddingMatrix(["U1", "U2"], np.zeros((2, 2)), np.array([False, False]))
        with pytest.raises(SingularSystemError):
            solve_direct(matrix, graph, RetrofitConfig())


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(2)
        graph, matrix = random_instance(9, max_nodes=12, max_dim=4)
        cfg = RetrofitConfig(scheme="typed")
        point = matrix.copy_with(vectors=matrix.vectors + rng.normal(size=matrix.vectors.shape))
        analytic = objective_gradient(point, matrix, graph, cfg)
        step = 1e-6
        for _ in range(10):
            i = int(rng.integers(len(point)))
            j = int(rng.integers(point.dim))
            plus = point.vectors.copy()
            plus[i, j] += step
            minus = point.vectors.copy()
            minus[i, j] -= step
            numeric = (
                objective(point.copy_with(vectors=plus), matrix, graph, cfg)
                - objective(point.copy_with(vectors=minus), matrix, graph, cfg)
            ) / (2 * step)
            denominator = max(abs(numeric), abs(analytic[i, j]), 1e-8)
            assert abs(numeric - analytic[i, j]) / denominator <= 1e-4
