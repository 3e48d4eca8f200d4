"""CC-PIVOT / QwickCluster and the CMSY 2.06-approximation rounding.

Every algorithm of the paper consumes pairwise reductions and is
therefore Ω(n²) even on the lazy backend — the matrix is deferred, the
work is not.  The pivot family escapes that: it only ever asks "how far
is the pivot from the remaining objects?", a single-row query the
``(n, m)`` label matrix answers in O(m) per pair without materializing
any ``(n, n)`` structure.

:func:`pivot` is CC-PIVOT (Ailon-Charikar-Newman; QwickCluster): pick a
uniformly random unclustered object as pivot, cluster it with every
remaining object within distance ``threshold`` (1/2 in the analysis),
repeat.  On instances obeying the probability constraint
(``X`` entries in [0, 1], which every aggregation instance does) the
expected cost is at most 3 times the optimum.  Each pivot pass is one
vectorized :func:`repro.core.backend.label_pair_block` call over the
remaining objects, so the total work is expected O(n·m·k) for k emitted
clusters.

:func:`cmsy` is the Chawla-Makarychev-Schramm-Yaroslavtsev rounding
(arXiv 1412.0681): run the same pivot sweep, but join each object to the
pivot *with probability* ``1 - f(x)`` where ``x`` is the (fractional)
distance and ``f`` is the piecewise rounding function of their Theorem
— zero below ``a = 0.19``, one above ``b = 0.5095``, and
``((x - a) / (b - a))²`` between.  Two tiers: for small instances
(``n <= lp_threshold``) the cluster-LP relaxation is solved exactly
(SciPy's HiGHS ``linprog``) and the rounding runs on the LP optimum,
giving the 2.06-approximation of the paper; above the threshold (or
when SciPy is unavailable) the rounding runs directly on the ``X``
entries, which are themselves a feasible fractional solution for
aggregation instances (they obey the triangle inequality), keeping the
same near-linear access pattern as :func:`pivot`.

Determinism: both functions are pure functions of their inputs and one
``rng`` seed.  The selection order is drawn up front (one permutation,
or one batch of exponential race clocks on weighted atoms) and the
per-pivot rows are bitwise identical across the no-backend, dense and
lazy paths, so a fixed seed yields the same clustering on all of them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.agreement import EncodedLabels
from ..core.backend import label_pair_block
from ..core.distance import weighted_total_disagreement
from ..core.instance import CorrelationInstance
from ..core.labels import validate_label_matrix
from ..core.partition import Clustering
from ..obs.metrics import inc
from ..obs.profile import phase
from ..registry import register_method

__all__ = [
    "pivot",
    "cmsy",
    "cmsy_rounding",
    "CMSY_A",
    "CMSY_B",
    "DEFAULT_LP_THRESHOLD",
]

#: Lower knee of the CMSY rounding function (their Theorem 3 constants).
CMSY_A = 0.19
#: Upper knee of the CMSY rounding function: separate surely above it.
CMSY_B = 0.5095

#: ``cmsy`` solves the cluster LP exactly up to this many objects.
DEFAULT_LP_THRESHOLD = 20

#: ``(u, remaining) -> X[u, remaining]`` in the instance's dtype.
RowOracle = Callable[[int, np.ndarray], np.ndarray]


def _prepare(
    data: np.ndarray | CorrelationInstance,
    p: float,
    missing: str,
    weights: np.ndarray | None,
) -> tuple[RowOracle, int, np.ndarray | None]:
    """Normalize the input to a per-pivot row oracle.

    Label matrices get the backend-free fast path: each row comes
    straight out of :func:`label_pair_block` with the same dtype rule as
    the instance builders (float64 up to 4096 objects, float32 beyond),
    so the values are bitwise equal to gathering from a built instance.
    Prebuilt instances go through their backend (dense gathers, lazy
    recomputes from its stored labels) and carry their own ``p``,
    ``missing`` and atom weights.
    """
    if isinstance(data, CorrelationInstance):
        if weights is not None:
            raise ValueError("weights are only supported on the label-matrix path")
        backend = data.backend

        def instance_row(u: int, remaining: np.ndarray) -> np.ndarray:
            return backend.gather_block(np.array([u], dtype=np.intp), remaining)[0]

        return instance_row, data.n, data.weights

    matrix = np.asarray(data)
    validate_label_matrix(matrix)
    n = int(matrix.shape[0])
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError("weights must give one multiplicity per row")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive multiplicities")
    dtype = np.float64 if n <= 4096 else np.float32
    labels = EncodedLabels(matrix)

    def matrix_row(u: int, remaining: np.ndarray) -> np.ndarray:
        return label_pair_block(
            labels, np.array([u], dtype=np.intp), remaining, p=p, dtype=dtype, missing=missing
        )[0]

    return matrix_row, n, weights


def _scorer(
    data: np.ndarray | CorrelationInstance,
    p: float,
    weights: np.ndarray | None,
) -> Callable[[Clustering], float]:
    """The objective used to pick the best of several sweeps.

    Instances score with their own :meth:`~repro.core.instance.CorrelationInstance.cost`;
    label matrices score with the O(n * m) contingency objective
    :func:`~repro.core.distance.weighted_total_disagreement`, keeping the
    fast path free of pair enumeration.  (The label scorer uses the
    coin-flip missing model; under ``missing="average"`` that makes
    candidate *selection* an approximation, never the candidates
    themselves.)
    """
    if isinstance(data, CorrelationInstance):
        return data.cost

    matrix = np.asarray(data)

    def label_score(clustering: Clustering) -> float:
        return weighted_total_disagreement(matrix, clustering, weights=weights, p=p)

    return label_score


def _best_of(
    sweep: Callable[[], Clustering],
    repeats: int,
    score_of: Callable[[], Callable[[Clustering], float]],
) -> Clustering:
    """Run ``sweep`` ``repeats`` times, return the argmin-cost clustering.

    The first candidate is exactly the ``repeats=1`` output (the sweeps
    share one generator), so the best-of cost is monotone in ``repeats``.
    A single repeat skips scoring entirely.
    """
    first = sweep()
    if repeats == 1:
        return first
    scorer = score_of()
    best, best_score = first, scorer(first)
    for _ in range(repeats - 1):
        candidate = sweep()
        score = scorer(candidate)
        if score < best_score:
            best, best_score = candidate, score
    return best


def _selection_order(
    generator: np.random.Generator, n: int, weights: np.ndarray | None
) -> np.ndarray:
    """The pivot order: a uniform permutation over the expanded objects.

    On weighted (atom) rows, "uniform over objects" means each atom must
    be drawn proportionally to its multiplicity among the remaining
    atoms.  Sorting independent exponential race clocks ``E_i / w_i``
    realizes exactly that sequential weighted sampling without
    replacement, in one vectorized draw.
    """
    if weights is None:
        return generator.permutation(n)
    keys = generator.exponential(size=n) / weights
    return np.argsort(keys, kind="stable")


def _threshold_sweep(
    row_of: RowOracle, order: np.ndarray, threshold: float
) -> tuple[np.ndarray, int]:
    """The CC-PIVOT sweep: join everything within ``threshold`` of the pivot."""
    n = order.size
    labels = np.full(n, -1, dtype=np.int64)
    remaining = np.arange(n, dtype=np.intp)
    next_label = 0
    with phase("pivot.sweep", n=int(n), threshold=float(threshold)) as sweep_span:
        for u in order:
            if labels[u] >= 0:
                continue
            row = row_of(int(u), remaining)
            join = row <= threshold
            labels[remaining[join]] = next_label
            remaining = remaining[~join]
            next_label += 1
        sweep_span.set(clusters=next_label)
    return labels, next_label


def _rounded_sweep(
    row_of: RowOracle, order: np.ndarray, generator: np.random.Generator
) -> tuple[np.ndarray, int]:
    """The CMSY sweep: join each object with probability ``1 - f(x)``.

    The pivot always joins its own cluster: its distance is 0, so
    ``f = 0`` and the join probability is 1 (uniform draws live in
    ``[0, 1)``).  One batch of uniforms per pivot keeps the generator
    consumption a function of the join decisions only, which are bitwise
    identical across backends.
    """
    n = order.size
    labels = np.full(n, -1, dtype=np.int64)
    remaining = np.arange(n, dtype=np.intp)
    next_label = 0
    with phase("pivot.sweep", n=int(n), rounding="cmsy") as sweep_span:
        for u in order:
            if labels[u] >= 0:
                continue
            x = row_of(int(u), remaining).astype(np.float64, copy=False)
            join = generator.random(remaining.size) < 1.0 - cmsy_rounding(x)
            labels[remaining[join]] = next_label
            remaining = remaining[~join]
            next_label += 1
        sweep_span.set(clusters=next_label)
    return labels, next_label


@register_method(
    "pivot", kind="label-fast", stochastic=True, supports_weights=True,
    exclude=("p", "weights"),
)
def pivot(
    data: np.ndarray | CorrelationInstance,
    p: float = 0.5,
    rng: np.random.Generator | int | None = None,
    threshold: float = 0.5,
    missing: str = "coin-flip",
    weights: np.ndarray | None = None,
    repeats: int = 1,
) -> Clustering:
    """Run CC-PIVOT / QwickCluster: expected 3-approximation in O(n·m·k).

    Parameters
    ----------
    data:
        ``(n, m)`` label matrix (the near-linear fast path — no instance
        and no ``(n, n)`` structure is ever built) or a prebuilt
        :class:`~repro.core.instance.CorrelationInstance` (portfolio and
        shard membership; lazy instances keep the O(m)-per-pair access).
    p:
        Missing-value coin-flip probability (label-matrix path only;
        instances carry their own).
    rng:
        Seed or generator for the pivot order.  The order is drawn once
        up front — taking the first unclustered entry of a uniform
        permutation is exactly the uniform-pivot process of the
        analysis.
    threshold:
        Join radius (1/2 in the 3-approximation proof; exposed for
        ablations).
    missing:
        §2 missing-value strategy, as in
        :func:`~repro.core.instance.disagreement_fractions` (label-matrix
        path only).
    weights:
        Positive per-row multiplicities for duplicate-collapsed (atom)
        matrices: pivots are then drawn proportionally to multiplicity,
        i.e. still uniformly over the underlying expanded objects.
        Label-matrix path only — instances carry their own weights.
    repeats:
        Run this many independent sweeps (one shared generator, so the
        first is exactly the ``repeats=1`` output) and keep the
        cheapest.  Standard amplification of an expected-factor
        guarantee: by Markov's inequality each sweep lands within
        ``3 * (1 + eps)`` of the optimum with probability at least
        ``eps / (1 + eps)``, so the best of R sweeps fails that bound
        only with probability ``(1 + eps)^-R``.  Scoring is O(n * m)
        per sweep on the label path.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    row_of, n, weights = _prepare(data, p, missing, weights)
    generator = np.random.default_rng(rng)

    def sweep() -> Clustering:
        with phase("pivot.select", n=int(n)):
            order = _selection_order(generator, n, weights)
        labels, clusters = _threshold_sweep(row_of, order, threshold)
        inc("pivot.clusters", clusters)
        return Clustering(labels)

    return _best_of(sweep, repeats, lambda: _scorer(data, p, weights))


def cmsy_rounding(x: np.ndarray) -> np.ndarray:
    """The CMSY separation probability ``f(x)`` (arXiv 1412.0681, Thm 3).

    Zero for ``x <= a``, one for ``x >= b``, the smooth ramp
    ``((x - a) / (b - a))²`` between, with ``a = 0.19`` and
    ``b = 0.5095``.  The sweep joins an object to the pivot with
    probability ``1 - f(x)``.
    """
    ramp = np.clip((np.asarray(x, dtype=np.float64) - CMSY_A) / (CMSY_B - CMSY_A), 0.0, 1.0)
    return np.square(ramp)


def _lp_fractional(X: np.ndarray, weights: np.ndarray | None) -> np.ndarray | None:
    """The exact cluster-LP optimum of a small instance, or ``None``.

    Minimizes ``sum w_u w_v [X_uv (1 - x_uv) + (1 - X_uv) x_uv]`` over
    ``x`` in [0, 1] subject to the triangle inequalities — the relaxation
    whose CMSY rounding is a 2.06-approximation.  Returns the symmetric
    fractional distance matrix, or ``None`` when SciPy is unavailable
    (the caller falls back to rounding ``X`` itself, which is feasible
    for aggregation instances).
    """
    try:
        from scipy.optimize import linprog
    except ImportError:  # pragma: no cover - the CI image ships SciPy
        return None

    n = int(X.shape[0])
    if n < 2:
        return np.zeros((n, n), dtype=np.float64)
    iu, ju = np.triu_indices(n, k=1)
    costs = 1.0 - 2.0 * X[iu, ju].astype(np.float64)
    if weights is not None:
        costs = costs * (weights[iu] * weights[ju])
    A_ub = None
    b_ub = None
    if n >= 3:
        from itertools import combinations

        triples = np.array(list(combinations(range(n), 3)), dtype=np.intp)
        index = np.zeros((n, n), dtype=np.intp)
        index[iu, ju] = np.arange(iu.size)
        edge_ij = index[triples[:, 0], triples[:, 1]]
        edge_ik = index[triples[:, 0], triples[:, 2]]
        edge_jk = index[triples[:, 1], triples[:, 2]]
        count = triples.shape[0]
        A_ub = np.zeros((3 * count, iu.size), dtype=np.float64)
        row = 3 * np.arange(count)
        # x_ik <= x_ij + x_jk, and the two rotations.
        A_ub[row, edge_ik] = 1.0
        A_ub[row, edge_ij] = -1.0
        A_ub[row, edge_jk] = -1.0
        A_ub[row + 1, edge_ij] = 1.0
        A_ub[row + 1, edge_ik] = -1.0
        A_ub[row + 1, edge_jk] = -1.0
        A_ub[row + 2, edge_jk] = 1.0
        A_ub[row + 2, edge_ij] = -1.0
        A_ub[row + 2, edge_ik] = -1.0
        b_ub = np.zeros(3 * count, dtype=np.float64)
    solution = linprog(costs, A_ub=A_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs")
    if not solution.success:  # pragma: no cover - HiGHS solves every bounded LP here
        return None
    fractional = np.zeros((n, n), dtype=np.float64)
    fractional[iu, ju] = np.clip(solution.x, 0.0, 1.0)
    fractional[ju, iu] = fractional[iu, ju]
    return fractional


@register_method(
    "cmsy", kind="label-fast", stochastic=True, supports_weights=True,
    exclude=("p", "weights"),
)
def cmsy(
    data: np.ndarray | CorrelationInstance,
    p: float = 0.5,
    rng: np.random.Generator | int | None = None,
    missing: str = "coin-flip",
    lp_threshold: int = DEFAULT_LP_THRESHOLD,
    weights: np.ndarray | None = None,
    repeats: int = 1,
) -> Clustering:
    """Run the CMSY rounding: 2.06-approximation on the LP tier.

    Two tiers, selected by instance size:

    * ``n <= lp_threshold`` and SciPy present — solve the cluster LP
      exactly and round its optimum (the 2.06-approximation proper).
    * larger ``n``, or no SciPy — round the ``X`` entries directly.
      For aggregation instances ``X`` obeys the triangle inequality, so
      it is itself a feasible fractional solution; the sweep keeps the
      same O(n·m·k) access pattern as :func:`pivot`.

    Parameters mirror :func:`pivot` (``lp_threshold`` replaces
    ``threshold``; the join radius is implied by the rounding function,
    which separates surely above ``b = 0.5095``).  ``repeats`` keeps the
    cheapest of several rounding sweeps; the LP is solved once and
    shared by all of them.
    """
    if lp_threshold < 0:
        raise ValueError(f"lp_threshold must be >= 0, got {lp_threshold}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    row_of, n, weights = _prepare(data, p, missing, weights)
    tier = "lp" if n <= lp_threshold else "rounding"
    if tier == "lp":
        everything = np.arange(n, dtype=np.intp)
        with phase("cmsy.lp", n=int(n)) as lp_span:
            X = np.stack([row_of(u, everything) for u in range(n)]).astype(np.float64)
            fractional = _lp_fractional(X, weights)
            lp_span.set(solved=fractional is not None)
        if fractional is not None:

            def row_of(u: int, remaining: np.ndarray) -> np.ndarray:
                return fractional[u, remaining]

        else:
            tier = "rounding"
    generator = np.random.default_rng(rng)

    def sweep() -> Clustering:
        with phase("pivot.select", n=int(n)):
            order = _selection_order(generator, n, weights)
        labels, clusters = _rounded_sweep(row_of, order, generator)
        inc("cmsy.clusters", clusters)
        inc(f"cmsy.tier.{tier}")
        return Clustering(labels)

    return _best_of(sweep, repeats, lambda: _scorer(data, p, weights))
