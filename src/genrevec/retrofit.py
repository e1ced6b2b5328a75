"""Graph-constrained embedding refinement.

Minimizes a convex objective that keeps each concept close to its initial
embedding (weighted alpha) while pulling graph neighbors together (weighted
beta). Two coefficient schemes are supported: "uniform" (every edge weighted
1/degree, the original formulation) and "typed" (equivalence edges weighted 1,
all other relations 1/degree). Everything derives from one symmetric sparse
matrix W holding beta_ij + beta_ji per related pair: the simultaneous Jacobi
sweep Q <- (W Q + alpha Q-hat) / (alpha + W 1), the objective and its gradient
in Laplacian form, and the stationarity system that :func:`solve_direct`
solves densely as an oracle for the iterative path.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .compose import ConceptEmbeddingMatrix
from .genregraph import EQUIVALENCE_RELATIONS, RELATION_CODES, GenreGraph

logger = logging.getLogger(__name__)

SCHEMES = ("uniform", "typed")
_IS_EQUIVALENCE = np.array([relation in EQUIVALENCE_RELATIONS for relation in RELATION_CODES], dtype=np.float64)


class SingularSystemError(ValueError):
    """The stationarity system has no unique solution (an unanchored component)."""


@dataclass(frozen=True)
class RetrofitConfig:
    scheme: str = "typed"
    max_iters: int = 100
    tolerance: float = 1e-5

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be a positive integer")
        if not self.tolerance > 0:  # NaN too
            raise ValueError("tolerance must be positive")


@dataclass
class RetrofitResult:
    matrix: ConceptEmbeddingMatrix
    iterations: int
    final_delta: float
    pinned: tuple[str, ...]
    deltas: tuple[float, ...]
    converged: bool
    objective_initial: float  # objective at Q-hat
    objective_final: float  # objective at the returned matrix


def _check_alignment(q: ConceptEmbeddingMatrix, q_hat: ConceptEmbeddingMatrix, graph: GenreGraph) -> None:
    if q.concepts != q_hat.concepts:
        raise ValueError("matrices are not aligned to the same concept list")
    if q.vectors.shape != q_hat.vectors.shape:
        raise ValueError(f"matrix shapes differ: {q.vectors.shape} vs {q_hat.vectors.shape}")
    if set(q.concepts) != set(graph.nodes) or len(q.concepts) != graph.node_count:
        raise ValueError("concept list does not match the graph node set")


def _weights(
    q_hat: ConceptEmbeddingMatrix, graph: GenreGraph, cfg: RetrofitConfig
) -> tuple[np.ndarray, sparse.csr_matrix]:
    """Anchor weights alpha (1 for a known concept, 0 for an unknown one) and the pair-weight matrix W.

    W[i, j] = W[j, i] = beta_ij + beta_ji for every related pair. Each
    distinct relation between i and j, in either direction, adds 1 to both
    betas when it is an equivalence under the "typed" scheme, and
    1/degree(i) to beta_ij otherwise, where degree counts distinct neighbors.
    """
    n = len(q_hat.concepts)
    alpha = q_hat.known.astype(np.float64)
    src, dst, relation = graph.edge_arrays(q_hat.concepts)
    # one key per distinct (unordered pair, relation), then one per distinct pair
    kinds = len(RELATION_CODES)
    relation_keys = np.unique((np.minimum(src, dst) * n + np.maximum(src, dst)) * kinds + relation)
    pair_keys, pair_of = np.unique(relation_keys // kinds, return_inverse=True)
    ends = np.stack(np.divmod(pair_keys, n), axis=1).astype(np.intp)
    if cfg.scheme == "typed":
        equivalent = np.bincount(pair_of, weights=_IS_EQUIVALENCE[relation_keys % kinds])
    else:
        equivalent = np.zeros(len(pair_keys))
    other = np.bincount(pair_of) - equivalent
    degree = np.bincount(ends.ravel(), minlength=n)
    betas = equivalent[:, None] + other[:, None] / degree[ends]  # columns: beta_ab, beta_ba
    weights = np.tile(betas.sum(axis=1), 2)
    rows = np.concatenate([ends[:, 0], ends[:, 1]])
    cols = np.concatenate([ends[:, 1], ends[:, 0]])
    return alpha, sparse.csr_matrix((weights, (rows, cols)), shape=(n, n))


def _strength(w: sparse.csr_matrix) -> np.ndarray:
    """W 1: the summed pair weight at each node."""
    return np.ravel(w.sum(axis=1))


def _laplacian_times(w: sparse.csr_matrix, q: np.ndarray) -> np.ndarray:
    """(diag(W 1) - W) Q."""
    return _strength(w)[:, None] * q - w @ q


def _objective(q: np.ndarray, q_hat: np.ndarray, alpha: np.ndarray, w: sparse.csr_matrix) -> float:
    anchor = float(np.sum(alpha * np.sum((q - q_hat) ** 2, axis=1)))
    return anchor + float(np.sum(q * _laplacian_times(w, q)))


def _unanchored_components(q_hat: ConceptEmbeddingMatrix, alpha: np.ndarray, graph: GenreGraph) -> list[list[str]]:
    """Connected components with no anchor weight, as sorted ids, ordered by smallest id."""
    return [
        sorted(component) for component in graph.connected_components()
        if not any(alpha[q_hat.index_of(cid)] > 0.0 for cid in component)
    ]


def objective(
    q: ConceptEmbeddingMatrix,
    q_hat: ConceptEmbeddingMatrix,
    graph: GenreGraph,
    cfg: RetrofitConfig,
) -> float:
    """Value of the refinement objective at Q.

    Sum over concepts of the anchored squared distance to the initial
    embedding plus, over every related pair in both orientations, the
    weighted squared distance between the pair's current embeddings.
    """
    _check_alignment(q, q_hat, graph)
    alpha, w = _weights(q_hat, graph, cfg)
    return _objective(q.vectors, q_hat.vectors, alpha, w)


def objective_gradient(
    q: ConceptEmbeddingMatrix,
    q_hat: ConceptEmbeddingMatrix,
    graph: GenreGraph,
    cfg: RetrofitConfig,
) -> np.ndarray:
    """Analytic gradient of :func:`objective` with respect to Q, shape (n, d)."""
    _check_alignment(q, q_hat, graph)
    alpha, w = _weights(q_hat, graph, cfg)
    return 2.0 * alpha[:, None] * (q.vectors - q_hat.vectors) + 2.0 * _laplacian_times(w, q.vectors)


def retrofit(
    q_hat: ConceptEmbeddingMatrix,
    graph: GenreGraph,
    cfg: RetrofitConfig | None = None,
) -> RetrofitResult:
    """Iterate the fixed-point update from Q = Q-hat until convergence.

    Convergence is reached when the largest per-node displacement falls to
    the configured tolerance; a run that spends max_iters sweeps without
    reaching it logs a warning and reports ``converged=False``. Nodes with no
    anchor weight and no neighbors are pinned at their initial vector and
    reported instead of raising. The returned known flags mark every concept
    whose final vector is nonzero as usable.
    """
    cfg = cfg or RetrofitConfig()
    _check_alignment(q_hat, q_hat, graph)
    alpha, w = _weights(q_hat, graph, cfg)
    denominator = alpha + _strength(w)

    pinned_mask = denominator == 0.0
    pinned = tuple(q_hat.concepts[i] for i in np.flatnonzero(pinned_mask))
    if pinned:
        logger.warning("%d isolated unanchored nodes pinned at their initial vectors", len(pinned))
    for component in _unanchored_components(q_hat, alpha, graph):
        if len(component) > 1:
            logger.warning(
                "component of %d nodes (e.g. %r) has no anchored concept; "
                "its vectors settle on neighbor averages of their initial values",
                len(component), component[0],
            )

    denominator[pinned_mask] = 1.0
    scale = denominator[:, None]
    anchor_term = alpha[:, None] * q_hat.vectors
    current = q_hat.vectors.copy()
    trace = logger.isEnabledFor(logging.DEBUG)
    deltas: list[float] = []
    delta = 0.0
    for iteration in range(1, cfg.max_iters + 1):
        # the product is the sweep's one new array; the update finishes in place on it
        updated = w @ current
        np.add(updated, anchor_term, out=updated)
        np.divide(updated, scale, out=updated)
        if pinned:
            updated[pinned_mask] = current[pinned_mask]
        # largest row norm of the displacement, as sqrt(max of squared row sums),
        # computed in the outgoing iterate's buffer, which is freed when `current` moves on
        np.subtract(updated, current, out=current)
        np.multiply(current, current, out=current)
        delta = math.sqrt(np.add.reduce(current, axis=1).max()) if len(current) else 0.0
        deltas.append(delta)
        current = updated
        if trace:
            value = _objective(current, q_hat.vectors, alpha, w)
            logger.debug("iteration %d: delta=%.3e objective=%.6e", iteration, delta, value)
        if delta <= cfg.tolerance:
            break
    del anchor_term  # one n x d array fewer alive under the objective's temporaries
    converged = delta <= cfg.tolerance
    if not converged:
        logger.warning(
            "not converged: delta=%.3e after %d iterations is above tolerance %.3e",
            delta, len(deltas), cfg.tolerance,
        )
    known = q_hat.known | np.any(current != 0.0, axis=1)
    matrix = ConceptEmbeddingMatrix(concepts=list(q_hat.concepts), vectors=current, known=known)
    return RetrofitResult(
        matrix=matrix,
        iterations=len(deltas),
        final_delta=delta,
        pinned=pinned,
        deltas=tuple(deltas),
        converged=converged,
        objective_initial=_objective(q_hat.vectors, q_hat.vectors, alpha, w),
        objective_final=_objective(matrix.vectors, q_hat.vectors, alpha, w),
    )


def solve_direct(
    q_hat: ConceptEmbeddingMatrix,
    graph: GenreGraph,
    cfg: RetrofitConfig | None = None,
) -> ConceptEmbeddingMatrix:
    """Solve the stationarity system of the objective exactly.

    The minimizer satisfies (diag(alpha + W 1) - W) Q = diag(alpha) Q-hat, a
    linear system assembled as a dense matrix and solved with
    ``np.linalg.solve``; sparse LU fills in on genre graphs, so this stays an
    oracle for :func:`retrofit` on small graphs. Raises
    :class:`SingularSystemError` when some connected component carries no
    anchor weight.
    """
    cfg = cfg or RetrofitConfig()
    _check_alignment(q_hat, q_hat, graph)
    alpha, w = _weights(q_hat, graph, cfg)
    unanchored = _unanchored_components(q_hat, alpha, graph)
    if unanchored:
        raise SingularSystemError(
            f"component containing {unanchored[0][0]!r} has no anchor weight; system is singular"
        )
    matrix = np.diag(alpha + _strength(w)) - w.toarray()
    try:
        solution = np.linalg.solve(matrix, alpha[:, None] * q_hat.vectors)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from None
    known = q_hat.known | np.any(solution != 0.0, axis=1)
    return ConceptEmbeddingMatrix(concepts=list(q_hat.concepts), vectors=solution, known=known)
