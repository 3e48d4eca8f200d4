"""Correlation-clustering instances (Problem 2 of the paper).

A correlation-clustering instance over ``n`` objects is a symmetric matrix
``X`` with entries in ``[0, 1]`` and zero diagonal.  ``X[u, v]`` is the
*distance* between ``u`` and ``v``; a candidate clustering ``C`` pays
``X[u, v]`` for every co-clustered pair and ``1 - X[u, v]`` for every
separated pair:

    d(C) = sum_{C(u) = C(v)} X_uv  +  sum_{C(u) != C(v)} (1 - X_uv)

(unordered pairs).  An instance built from ``m`` input clusterings sets
``X[u, v]`` to the fraction of clusterings separating ``u`` and ``v``, so
that the aggregation objective satisfies ``D(C) = m * d(C)`` and the two
problems coincide.  Such instances obey the triangle inequality, which the
BALLS analysis exploits.

Missing entries in the label matrix follow the coin-flip model of Section
2: a clustering missing ``u`` or ``v`` reports the pair co-clustered with
probability ``p``, contributing ``1 - p`` to ``X[u, v]`` in expectation.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..analysis.contracts import check_distance_matrix, contracts_enabled
from ..obs.metrics import inc
from ..obs.profile import phase
from .agreement import EncodedLabels, pair_fractions
from .backend import (
    DenseBackend,
    LazyLabelBackend,
    PairDistanceBackend,
    reduction_block_rows,
    resolve_backend,
)
from .labels import MISSING, as_label_matrix, validate_label_matrix
from .partition import Clustering

__all__ = [
    "CorrelationInstance",
    "disagreement_fractions",
]


def disagreement_fractions(
    matrix: np.ndarray,
    p: float = 0.5,
    dtype: np.dtype | type | None = None,
    missing: str = "coin-flip",
    n_jobs: int | None = 1,
) -> np.ndarray:
    """The ``X`` matrix of pairwise disagreement fractions of a label matrix.

    ``X[u, v]`` is the (expected) fraction of the ``m`` columns that place
    ``u`` and ``v`` in different clusters.  Missing entries follow one of
    the two strategies of the paper's §2:

    * ``missing="coin-flip"`` (default, the paper's choice): a clustering
      missing either object reports the pair co-clustered with probability
      ``p``, contributing ``1 - p`` in expectation; the denominator stays
      ``m``.
    * ``missing="average"``: "let the remaining attributes decide" — only
      columns concrete on *both* objects are counted, and the fraction is
      taken over those; a pair with no commonly-concrete column gets the
      uninformative 0.5.

    Computed in row blocks to bound temporary memory; defaults to float64
    up to 4096 objects and float32 beyond.  ``n_jobs`` selects the
    process-parallel row-block build of :mod:`repro.parallel.build`
    (``None`` consults the ``REPRO_JOBS`` environment variable, see
    :func:`repro.parallel.resolve_jobs`); any worker count produces a
    bit-identical matrix, and small instances stay on the serial path
    regardless.
    """
    validate_label_matrix(matrix)
    if missing not in ("coin-flip", "average"):
        raise ValueError(f"missing must be 'coin-flip' or 'average', got {missing!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")
    n = matrix.shape[0]
    if dtype is None:
        dtype = np.float64 if n <= 4096 else np.float32
    if n_jobs is None or n_jobs != 1:
        from ..parallel.build import MIN_PARALLEL_ROWS, parallel_disagreement_fractions
        from ..parallel.shm import resolve_jobs

        if resolve_jobs(n_jobs) > 1 and n >= MIN_PARALLEL_ROWS:
            return parallel_disagreement_fractions(
                matrix, p=p, dtype=dtype, missing=missing, n_jobs=n_jobs
            )
    labels = EncodedLabels(matrix)
    X = np.empty((n, n), dtype=dtype)
    step = reduction_block_rows(n)
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        pair_fractions(labels, rows, slice(None), p=p, missing=missing, dtype=dtype, out=X[rows])
    return X


class CorrelationInstance:
    """A correlation-clustering input: symmetric pairwise distances in [0, 1].

    Construct with :meth:`from_clusterings` / :meth:`from_label_matrix` for
    aggregation problems, or :meth:`from_distances` for a raw correlation
    instance.  ``m`` records how many input clusterings produced the
    instance (``None`` for raw instances); when known, costs convert to
    aggregation disagreements via :meth:`disagreements`.

    Pairwise distances are held by a :class:`~repro.core.backend.PairDistanceBackend`:
    either a :class:`~repro.core.backend.DenseBackend` over a materialized
    ``X`` (the default) or a :class:`~repro.core.backend.LazyLabelBackend`
    computing row blocks on demand from the label matrix (see
    :meth:`lazy_from_label_matrix`), which keeps memory at O(n * m) for
    large ``n``.  On lazy instances the :attr:`X` property raises; go
    through :attr:`backend` instead.
    """

    __slots__ = ("_backend", "_m", "_weights", "_effective_weights")

    def __init__(
        self,
        distances: np.ndarray | None = None,
        m: int | None = None,
        validate: bool = True,
        weights: np.ndarray | None = None,
        backend: PairDistanceBackend | None = None,
    ) -> None:
        if backend is None:
            if distances is None:
                raise ValueError("provide either a distance matrix or a backend")
            X = np.asarray(distances)
            if validate:
                self._validate(X)
            elif contracts_enabled():
                # Fast construction paths skip validation; in debug mode the
                # contract layer re-checks the §3 shape invariants anyway.
                check_distance_matrix(X)
            backend = DenseBackend(X)
        elif distances is not None:
            raise ValueError("distances and backend are mutually exclusive")
        elif contracts_enabled() and isinstance(backend, DenseBackend):
            # Lazy backends have no matrix to check; dense ones keep the
            # same debug-mode invariant check as the matrix constructor.
            check_distance_matrix(backend.dense())
        self._backend = backend
        if m is not None and m < 1:
            raise ValueError("m must be a positive count of input clusterings")
        self._m = m
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (backend.n,):
                raise ValueError("weights must give one multiplicity per object")
            if np.any(weights < 1):
                raise ValueError("weights must be >= 1 (duplicate multiplicities)")
        self._weights = weights
        self._effective_weights: np.ndarray | None = None

    @staticmethod
    def _validate(X: np.ndarray) -> None:
        if X.ndim != 2 or X.shape[0] != X.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {X.shape}")
        if X.shape[0] == 0:
            raise ValueError("instance must contain at least one object")
        if not np.issubdtype(X.dtype, np.floating):
            raise TypeError(f"distances must be floating point, got {X.dtype}")
        if np.any(np.diagonal(X) != 0):
            raise ValueError("distance matrix must have a zero diagonal")
        # Tolerate float32 rounding when checking symmetry and range.
        if not np.allclose(X, X.T, atol=1e-6):
            raise ValueError("distance matrix must be symmetric")
        if float(X.min()) < -1e-9 or float(X.max()) > 1 + 1e-6:
            raise ValueError("distances must lie in [0, 1]")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_label_matrix(
        cls,
        matrix: np.ndarray,
        p: float = 0.5,
        dtype: np.dtype | type | None = None,
        missing: str = "coin-flip",
        weights: np.ndarray | None = None,
        n_jobs: int | None = 1,
        backend: str = "dense",
    ) -> "CorrelationInstance":
        """Build the aggregation instance of an ``(n, m)`` label matrix.

        ``missing`` selects the §2 missing-value strategy; note that with
        ``"average"`` the per-pair denominators differ, so the exact
        identity ``D(C) = m * d(C)`` holds only for ``"coin-flip"``.
        ``weights`` gives per-row multiplicities for duplicate-collapsed
        (atom) instances — see :mod:`repro.core.atoms`.  ``n_jobs`` fans
        the row-block build out over a shared-memory worker pool
        (bit-identical to the serial build; ``None`` defers to the
        ``REPRO_JOBS`` environment variable).  ``backend`` selects the
        pair-distance storage: ``"dense"`` materializes ``X`` now,
        ``"lazy"`` defers to on-demand row blocks (O(n * m) memory), and
        ``"auto"`` picks lazy above :func:`repro.core.backend.lazy_threshold`
        objects.
        """
        if resolve_backend(backend, int(matrix.shape[0])) == "lazy":
            return cls.lazy_from_label_matrix(
                matrix, p=p, dtype=dtype, missing=missing, weights=weights
            )
        with phase("instance.build", rows=int(matrix.shape[0]), m=int(matrix.shape[1])):
            X = disagreement_fractions(matrix, p=p, dtype=dtype, missing=missing, n_jobs=n_jobs)
        inc("instance.builds")
        inc("instance.build.rows", float(matrix.shape[0]))
        instance = cls(X, m=matrix.shape[1], validate=False, weights=weights)
        if (
            contracts_enabled()
            and missing == "coin-flip"
            and (p == 0.5 or not np.any(matrix == MISSING))
        ):
            # Aggregation instances are metric (§3, Observation 1).  The
            # "average" strategy and off-center coin flips (p != 0.5 with
            # missing entries) can legitimately break the triangle
            # inequality, so the contract is scoped to the metric cases.
            check_distance_matrix(
                X, check_triangle=True, context="CorrelationInstance.from_label_matrix"
            )
        return instance

    @classmethod
    def lazy_from_label_matrix(
        cls,
        matrix: np.ndarray,
        p: float = 0.5,
        dtype: np.dtype | type | None = None,
        missing: str = "coin-flip",
        weights: np.ndarray | None = None,
        block_rows: int | None = None,
        cache_blocks: int = 8,
    ) -> "CorrelationInstance":
        """Build a label-backed instance that never materializes ``X``.

        Stores only the ``(n, m)`` label matrix and computes distance row
        blocks on demand through a :class:`~repro.core.backend.LazyLabelBackend`
        (same missing-value model and dtype rules as the dense build, and
        bitwise-identical entries).  Memory stays O(n * m) plus a small
        LRU cache of ``cache_blocks`` row blocks, which is what lets
        BALLS and SAMPLING run at n = 50k-100k where the dense matrix
        cannot be allocated.
        """
        lazy = LazyLabelBackend(
            matrix,
            p=p,
            dtype=dtype,
            missing=missing,
            block_rows=block_rows,
            cache_blocks=cache_blocks,
        )
        inc("instance.builds")
        inc("instance.build.rows", float(matrix.shape[0]))
        return cls(m=int(matrix.shape[1]), weights=weights, backend=lazy)

    @classmethod
    def from_clusterings(
        cls, clusterings: Sequence[Clustering | Sequence[int] | np.ndarray], p: float = 0.5
    ) -> "CorrelationInstance":
        """Build the aggregation instance of ``m`` clusterings."""
        return cls.from_label_matrix(as_label_matrix(clusterings), p=p)

    @classmethod
    def from_distances(cls, distances: np.ndarray) -> "CorrelationInstance":
        """Wrap a precomputed symmetric distance matrix (validated)."""
        return cls(np.asarray(distances, dtype=np.float64))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def X(self) -> np.ndarray:
        """The pairwise distance matrix (do not mutate).

        Only available on dense-backed instances; lazy instances raise
        ``RuntimeError`` — use :attr:`backend` (blocked access) or
        ``backend.materialize()`` instead.
        """
        return self._backend.dense()

    @property
    def backend(self) -> PairDistanceBackend:
        """The pair-distance backend serving this instance's ``X`` entries."""
        return self._backend

    @property
    def n(self) -> int:
        """Number of objects."""
        return self._backend.n

    @property
    def m(self) -> int | None:
        """Number of source clusterings, if the instance is an aggregation."""
        return self._m

    @property
    def weights(self) -> np.ndarray | None:
        """Per-object multiplicities for atom instances (``None`` = all 1)."""
        return self._weights

    def effective_weights(self) -> np.ndarray:
        """Multiplicities as an array (ones when unweighted; do not mutate).

        The unweighted ones-vector is cached on first use — BALLS and
        SAMPLING call this inside their hot loops.
        """
        if self._weights is not None:
            return self._weights
        if self._effective_weights is None:
            self._effective_weights = np.ones(self.n, dtype=np.float64)
        return self._effective_weights

    def subinstance(self, indices: Sequence[int] | np.ndarray) -> "CorrelationInstance":
        """The induced instance on a subset of the objects.

        Preserves the backend flavor: a lazy instance yields a lazy
        sub-instance over the sliced label matrix (bitwise equal to
        slicing the dense matrix).
        """
        idx = np.asarray(indices)
        weights = None if self._weights is None else self._weights[idx]
        return CorrelationInstance(
            m=self._m, weights=weights, backend=self._backend.take(idx)
        )

    # ------------------------------------------------------------------
    # Objective
    # ------------------------------------------------------------------

    def cost(self, clustering: Clustering | np.ndarray) -> float:
        """The correlation-clustering cost ``d(C)`` of a candidate clustering.

        Evaluated without materializing the pair masks:

            d(C) = T - S_all + 2 * S_within - P_within

        with ``T`` the pair count, ``S_all`` the sum of all distances,
        ``S_within`` the within-cluster distance sum and ``P_within`` the
        within-cluster pair count.  On weighted (atom) instances every
        pair ``(u, v)`` counts ``w_u * w_v`` times and intra-atom pairs
        contribute zero, making the value equal to the cost of the same
        clustering on the expanded (duplicate-bearing) instance.
        """
        if isinstance(clustering, Clustering):
            labels = clustering.labels
        else:
            labels = np.asarray(clustering)
        if labels.shape != (self.n,):
            raise ValueError("clustering size must match the instance size")
        return self._backend.cost(labels, self._weights)

    def disagreements(self, clustering: Clustering | np.ndarray) -> float:
        """The aggregation objective ``D(C) = m * d(C)`` (requires known ``m``)."""
        if self._m is None:
            raise ValueError("instance was not built from clusterings; m is unknown")
        return self._m * self.cost(clustering)

    def lower_bound(self) -> float:
        """Pairwise lower bound ``sum_{u<v} min(X_uv, 1 - X_uv)`` on ``d(C)``.

        Every clustering pays at least ``min(X, 1-X)`` per pair, so this
        bounds the optimum from below (the paper's "Lower bound" table
        rows, after multiplying by ``m`` via :meth:`disagreement_lower_bound`).
        Accumulated in row blocks through the backend — no full-matrix
        temporary.
        """
        return self._backend.lower_bound(self._weights)

    def disagreement_lower_bound(self) -> float:
        """Lower bound on ``D(C)`` for aggregation instances (``m * lower_bound``)."""
        if self._m is None:
            raise ValueError("instance was not built from clusterings; m is unknown")
        return self._m * self.lower_bound()

    def max_triangle_violation(self) -> float:
        """Largest ``X_uw - X_uv - X_vw`` over all triples (<= 0 means metric).

        Exhaustive over triples; intended for tests and small instances.
        """
        X = self._backend.materialize(np.float64)
        worst = -np.inf
        for v in range(self.n):
            # violation for (u, w) through v: X[u, w] - X[u, v] - X[v, w]
            through_v = X - X[:, v][:, None] - X[v, :][None, :]
            np.fill_diagonal(through_v, -np.inf)
            through_v[v, :] = -np.inf
            through_v[:, v] = -np.inf
            worst = max(worst, float(through_v.max()))
        return worst

    def __repr__(self) -> str:
        origin = f", m={self._m}" if self._m is not None else ""
        return f"CorrelationInstance(n={self.n}{origin})"
