"""Pair-distance backends: dense and lazy label-backed access to ``X``.

The correlation-clustering stack historically read a fully materialized
``(n, n)`` distance matrix, which caps instance size at whatever O(n^2)
floats fit in memory.  Since an aggregation instance's ``X[u, v]`` is a
cheap function of the ``(n, m)`` label matrix (``m`` ≪ ``n``), the matrix
can instead be treated as an implicit oracle and computed in row blocks on
demand.  This module provides that seam:

* :class:`PairDistanceBackend` — the narrow kernel API every consumer of
  pairwise distances goes through: ``row_block`` / ``row`` / ``gather`` /
  ``gather_block`` / ``columns`` plus blocked reductions (``matvec``,
  ``total_mass``, ``cost``, ``lower_bound``, ``argmax_entry``) that never
  allocate a full-matrix temporary.
* :class:`DenseBackend` — wraps a materialized ``X`` (today's behaviour).
* :class:`LazyLabelBackend` — computes row blocks on demand from the
  stored label matrix through :func:`repro.core.agreement.pair_fractions`,
  the same exact agreement-count kernel the batch build uses (same
  missing-value model, same dtype rules), with a small LRU cache of
  grid-aligned blocks.

Bit-identity guarantee: every entry is a normalized pair of exact integer
counts, so lazy blocks are bitwise equal to the corresponding rows of the
batch-built ``X`` whatever the row tiling.  All blocked reductions live on
the base class and iterate one deterministic block grid
(:func:`reduction_block_rows`, a function of ``n`` only), so their
floating-point accumulation order — and therefore their results — are
bitwise identical between the two backends.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from collections.abc import Iterator, Sequence

import numpy as np

from ..obs.profile import phase
from .agreement import BLOCK_ENTRIES, EncodedLabels, pair_fractions
from .labels import validate_label_matrix

__all__ = [
    "DEFAULT_LAZY_THRESHOLD",
    "DenseBackend",
    "LazyLabelBackend",
    "PairDistanceBackend",
    "label_pair_block",
    "lazy_threshold",
    "reduction_block_rows",
    "resolve_backend",
]

#: ``auto`` backend selection flips to lazy above this many objects.
DEFAULT_LAZY_THRESHOLD = 10_000

#: Environment variable overriding :data:`DEFAULT_LAZY_THRESHOLD`.
LAZY_THRESHOLD_ENV_VAR = "REPRO_LAZY_THRESHOLD"


def reduction_block_rows(n: int) -> int:
    """The deterministic row-block height used by every blocked reduction.

    A function of ``n`` only, so :class:`DenseBackend` and
    :class:`LazyLabelBackend` walk the same grid and accumulate partial
    sums in the same order — the root of the backends' bitwise-identical
    reductions.  Sized to keep an ``O(block * n)`` float64 temporary at
    roughly 32 MB.
    """
    return max(64, min(2048, BLOCK_ENTRIES // max(1, n)))


def lazy_threshold() -> int:
    """The ``n`` above which ``backend="auto"`` selects the lazy backend.

    Defaults to :data:`DEFAULT_LAZY_THRESHOLD`; override with the
    ``REPRO_LAZY_THRESHOLD`` environment variable.
    """
    raw = os.environ.get(LAZY_THRESHOLD_ENV_VAR)
    if raw is None:
        return DEFAULT_LAZY_THRESHOLD
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{LAZY_THRESHOLD_ENV_VAR} must be an integer, got {raw!r}"
        ) from exc
    if value < 0:
        raise ValueError(f"{LAZY_THRESHOLD_ENV_VAR} must be >= 0, got {value}")
    return value


def resolve_backend(backend: str, n: int) -> str:
    """Resolve a ``{"auto", "dense", "lazy"}`` choice to a concrete backend."""
    if backend not in ("auto", "dense", "lazy"):
        raise ValueError(f"backend must be 'auto', 'dense' or 'lazy', got {backend!r}")
    if backend == "auto":
        return "lazy" if n > lazy_threshold() else "dense"
    return backend


def label_pair_block(
    matrix: np.ndarray | EncodedLabels,
    rows: np.ndarray,
    cols: np.ndarray,
    p: float = 0.5,
    dtype: np.dtype | type = np.float64,
    missing: str = "coin-flip",
) -> np.ndarray:
    """``X[np.ix_(rows, cols)]`` computed from the label matrix.

    The arbitrary row/column subset form of the batch build, through the
    same :func:`repro.core.agreement.pair_fractions` kernel, so the result
    is bitwise equal to gathering the same entries from a materialized
    ``X``.  Entries where the row and column index the same object are
    zeroed (the diagonal rule).  Pass an
    :class:`~repro.core.agreement.EncodedLabels` when calling repeatedly
    on one matrix.
    """
    labels = matrix if isinstance(matrix, EncodedLabels) else EncodedLabels(matrix)
    return pair_fractions(
        labels, np.asarray(rows), np.asarray(cols), p=p, missing=missing, dtype=dtype
    )


class PairDistanceBackend:
    """Blocked access to a symmetric pair-distance matrix ``X``.

    Subclasses provide the storage primitives (``row_block`` and friends);
    the base class implements every whole-matrix reduction against those
    blocks on the shared :func:`reduction_block_rows` grid, so no
    reduction ever allocates an ``O(n^2)`` temporary and all reductions
    are bitwise identical across backends.

    Returned blocks and rows may be views or cached arrays — treat them
    as read-only.
    """

    # ------------------------------------------------------------------
    # Storage primitives (subclass responsibility)
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of objects."""
        raise NotImplementedError

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the distance entries."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        """Backend identifier: ``"dense"`` or ``"lazy"``."""
        raise NotImplementedError

    def row_block(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` of ``X`` as a ``(stop - start, n)`` array."""
        raise NotImplementedError

    def row(self, u: int) -> np.ndarray:
        """Row ``u`` of ``X`` as an ``(n,)`` array."""
        return self.row_block(u, u + 1)[0]

    def gather(self, u: int, idx: np.ndarray | Sequence[int]) -> np.ndarray:
        """``X[u, idx]`` for an index array ``idx``."""
        return self.row(u)[np.asarray(idx)]

    def gather_block(
        self, rows: np.ndarray | Sequence[int], cols: np.ndarray | Sequence[int]
    ) -> np.ndarray:
        """``X[np.ix_(rows, cols)]`` for arbitrary index arrays."""
        raise NotImplementedError

    def columns(self, idx: np.ndarray | Sequence[int]) -> np.ndarray:
        """``X[:, idx]`` — by symmetry, the transposed row gather."""
        raise NotImplementedError

    def take(self, idx: np.ndarray | Sequence[int]) -> "PairDistanceBackend":
        """The backend of the induced sub-instance on ``idx``."""
        raise NotImplementedError

    def dense(self) -> np.ndarray:
        """The materialized matrix when one already exists (dense only)."""
        raise RuntimeError(
            f"the {self.name!r} backend holds no materialized matrix; "
            "use row_block()/materialize() or rebuild with backend='dense'"
        )

    # ------------------------------------------------------------------
    # Blocked reductions (shared, bitwise identical across backends)
    # ------------------------------------------------------------------

    def blocks(self) -> Iterator[tuple[int, int]]:
        step = reduction_block_rows(self.n)
        for start in range(0, self.n, step):
            yield start, min(start + step, self.n)

    def materialize(self, dtype: np.dtype | type | None = None, copy: bool = False) -> np.ndarray:
        """The full ``(n, n)`` matrix, assembled block by block.

        Only call when the consumer genuinely needs all of ``X`` at once
        (AGGLOMERATIVE's mutable working matrix, the exact solver).  Pass
        ``copy=True`` when the result will be mutated.
        """
        n = self.n
        target = self.dtype if dtype is None else np.dtype(dtype)
        out = np.empty((n, n), dtype=target)
        for start, stop in self.blocks():
            out[start:stop] = self.row_block(start, stop)
        return out

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """``X @ w`` in float64, accumulated block by block.

        Never allocates more than one ``O(block * n)`` float64 temporary —
        this replaces the historical ``X.astype(np.float64) @ w`` full-copy
        spike in the BALLS weight ordering.
        """
        w64 = np.asarray(w, dtype=np.float64)
        out = np.empty(self.n, dtype=np.float64)
        for start, stop in self.blocks():
            rows = self.row_block(start, stop)
            out[start:stop] = rows.astype(np.float64, copy=False) @ w64
        return out

    def total_mass(self) -> float:
        """``X.sum()`` over all ordered pairs, accumulated in float64."""
        total = 0.0
        for start, stop in self.blocks():
            total += float(self.row_block(start, stop).sum(dtype=np.float64))
        return total

    def cost(self, labels: np.ndarray, weights: np.ndarray | None = None) -> float:
        """The correlation-clustering cost ``d(C)`` of a label assignment.

        Evaluated without materializing pair masks or the matrix:

            d(C) = T - S_all + 2 * S_within - P_within

        with ``T`` the pair count, ``S_all`` the sum of all distances,
        ``S_within`` the within-cluster distance sum and ``P_within`` the
        within-cluster pair count.  On weighted (atom) instances every
        pair ``(u, v)`` counts ``w_u * w_v`` times and intra-atom pairs
        contribute zero.
        """
        labels = np.asarray(labels)
        n = self.n
        if labels.shape != (n,):
            raise ValueError("clustering size must match the instance size")
        w = None if weights is None else np.asarray(weights, dtype=np.float64)
        sum_all = 0.0
        sum_within = 0.0
        for start, stop in self.blocks():
            rows = self.row_block(start, stop).astype(np.float64, copy=False)
            same = labels[start:stop, None] == labels[None, :]
            if w is None:
                sum_all += float(rows.sum(dtype=np.float64))
                sum_within += float((rows * same).sum(dtype=np.float64))
            else:
                sum_all += float(w[start:stop] @ (rows @ w))
                sum_within += float(w[start:stop] @ ((rows * same) @ w))
        sum_all /= 2.0
        sum_within /= 2.0
        if w is None:
            total_pairs = n * (n - 1) / 2.0
            _, counts = np.unique(labels, return_counts=True)
            pairs_within = float((counts * (counts - 1)).sum()) / 2.0
        else:
            total = float(w.sum())
            total_pairs = (total * total - float((w * w).sum())) / 2.0
            _, inverse = np.unique(labels, return_inverse=True)
            cluster_w = np.bincount(inverse, weights=w)
            pairs_within = (float((cluster_w * cluster_w).sum()) - float((w * w).sum())) / 2.0
        return total_pairs - sum_all + 2.0 * sum_within - pairs_within

    def lower_bound(self, weights: np.ndarray | None = None) -> float:
        """``sum_{u<v} min(X_uv, 1 - X_uv)``, accumulated block by block."""
        w = None if weights is None else np.asarray(weights, dtype=np.float64)
        total = 0.0
        for start, stop in self.blocks():
            rows = self.row_block(start, stop)
            one = rows.dtype.type(1.0)
            per_pair = np.minimum(rows, one - rows).astype(np.float64, copy=False)
            if w is None:
                total += float(per_pair.sum(dtype=np.float64))
            else:
                total += float(w[start:stop] @ (per_pair @ w))
        return total / 2.0

    def argmax_entry(self) -> tuple[int, int]:
        """Indices ``(u, v)`` of the first maximum entry in row-major order."""
        n = self.n
        best = -np.inf
        best_u = 0
        best_v = 0
        for start, stop in self.blocks():
            rows = self.row_block(start, stop)
            flat = int(np.argmax(rows))
            value = float(rows.flat[flat])
            if value > best:
                best = value
                best_u = start + flat // n
                best_v = flat % n
        return best_u, best_v


class DenseBackend(PairDistanceBackend):
    """Backend over a fully materialized ``(n, n)`` distance matrix."""

    __slots__ = ("_X",)

    def __init__(self, X: np.ndarray) -> None:
        self._X = np.asarray(X)

    @property
    def n(self) -> int:
        return int(self._X.shape[0])

    @property
    def dtype(self) -> np.dtype:
        return self._X.dtype

    @property
    def name(self) -> str:
        return "dense"

    def row_block(self, start: int, stop: int) -> np.ndarray:
        return self._X[start:stop]

    def row(self, u: int) -> np.ndarray:
        return self._X[u]

    def gather(self, u: int, idx: np.ndarray | Sequence[int]) -> np.ndarray:
        return self._X[u, np.asarray(idx)]

    def gather_block(
        self, rows: np.ndarray | Sequence[int], cols: np.ndarray | Sequence[int]
    ) -> np.ndarray:
        return self._X[np.ix_(np.asarray(rows), np.asarray(cols))]

    def columns(self, idx: np.ndarray | Sequence[int]) -> np.ndarray:
        return self._X[:, np.asarray(idx)]

    def take(self, idx: np.ndarray | Sequence[int]) -> "DenseBackend":
        index = np.asarray(idx)
        return DenseBackend(self._X[np.ix_(index, index)])

    def dense(self) -> np.ndarray:
        return self._X

    def materialize(self, dtype: np.dtype | type | None = None, copy: bool = False) -> np.ndarray:
        target = self.dtype if dtype is None else np.dtype(dtype)
        if target == self.dtype and not copy:
            return self._X
        return self._X.astype(target, copy=True)


class LazyLabelBackend(PairDistanceBackend):
    """Backend computing ``X`` row blocks on demand from the label matrix.

    Stores only the ``(n, m)`` label matrix — O(n * m) memory — and
    computes any requested rows with the same
    :func:`repro.core.agreement.pair_fractions` kernel (same missing-value
    model, same dtype rules) the batch build uses, so every block is
    bitwise equal to the corresponding rows of the materialized matrix.
    Grid-aligned blocks (the :func:`reduction_block_rows` grid by default)
    are held in a small LRU cache so repeated scans and nearby row fetches
    amortize the kernel cost.
    """

    __slots__ = (
        "_labels",
        "_n",
        "_m",
        "_p",
        "_missing",
        "_dtype",
        "_block_rows",
        "_cache_blocks",
        "_cache",
    )

    def __init__(
        self,
        matrix: np.ndarray,
        p: float = 0.5,
        dtype: np.dtype | type | None = None,
        missing: str = "coin-flip",
        block_rows: int | None = None,
        cache_blocks: int = 8,
        validate: bool = True,
    ) -> None:
        matrix = np.asarray(matrix)
        if validate:
            validate_label_matrix(matrix)
        if missing not in ("coin-flip", "average"):
            raise ValueError(f"missing must be 'coin-flip' or 'average', got {missing!r}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be a probability, got {p}")
        self._labels = EncodedLabels(matrix)
        self._n = int(matrix.shape[0])
        self._m = int(matrix.shape[1])
        if dtype is None:
            dtype = np.float64 if self._n <= 4096 else np.float32
        self._dtype: np.dtype = np.dtype(dtype)
        self._p = float(p)
        self._missing = missing
        self._block_rows = reduction_block_rows(self._n) if block_rows is None else int(block_rows)
        if self._block_rows < 1:
            raise ValueError("block_rows must be positive")
        if cache_blocks < 0:
            raise ValueError("cache_blocks must be >= 0")
        self._cache_blocks = int(cache_blocks)
        self._cache: OrderedDict[int, np.ndarray] = OrderedDict()

    # ------------------------------------------------------------------
    # Accessors used by the shared-memory fan-out and the constructors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        """Number of source clusterings (label columns)."""
        return self._m

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def name(self) -> str:
        return "lazy"

    @property
    def label_matrix(self) -> np.ndarray:
        """The backing ``(n, m)`` label matrix (do not mutate)."""
        return self._labels.labels

    @property
    def p(self) -> float:
        """Coin-flip probability of the missing-value model."""
        return self._p

    @property
    def missing(self) -> str:
        """Missing-value strategy: ``"coin-flip"`` or ``"average"``."""
        return self._missing

    @property
    def cache_blocks(self) -> int:
        """Capacity of the LRU block cache (number of grid blocks)."""
        return self._cache_blocks

    @property
    def block_rows(self) -> int:
        """Cache granularity: rows per grid block."""
        return self._block_rows

    def cached_block_indices(self) -> tuple[int, ...]:
        """Grid-block indices currently held in the LRU cache (LRU first)."""
        return tuple(self._cache)

    # ------------------------------------------------------------------
    # Storage primitives
    # ------------------------------------------------------------------

    def _compute(self, start: int, stop: int) -> np.ndarray:
        with phase("instance.block", start=int(start), rows=int(stop - start)):
            return pair_fractions(
                self._labels,
                slice(start, stop),
                slice(None),
                p=self._p,
                missing=self._missing,
                dtype=self._dtype,
            )

    def _grid_block(self, index: int) -> np.ndarray:
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            return cached
        start = index * self._block_rows
        block = self._compute(start, min(start + self._block_rows, self._n))
        if self._cache_blocks > 0:
            self._cache[index] = block
            while len(self._cache) > self._cache_blocks:
                self._cache.popitem(last=False)
        return block

    def row_block(self, start: int, stop: int) -> np.ndarray:
        if start % self._block_rows == 0 and stop == min(start + self._block_rows, self._n):
            return self._grid_block(start // self._block_rows)
        return self._compute(start, stop)

    def row(self, u: int) -> np.ndarray:
        index = u // self._block_rows
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            return cached[u - index * self._block_rows]
        return self._compute(u, u + 1)[0]

    def gather_block(
        self, rows: np.ndarray | Sequence[int], cols: np.ndarray | Sequence[int]
    ) -> np.ndarray:
        return label_pair_block(
            self._labels,
            np.asarray(rows),
            np.asarray(cols),
            p=self._p,
            dtype=self._dtype,
            missing=self._missing,
        )

    def columns(self, idx: np.ndarray | Sequence[int]) -> np.ndarray:
        # X is bitwise symmetric (both counts are), so columns are
        # transposed row gathers.
        return pair_fractions(
            self._labels,
            np.asarray(idx),
            slice(None),
            p=self._p,
            missing=self._missing,
            dtype=self._dtype,
        ).T

    def take(self, idx: np.ndarray | Sequence[int]) -> "LazyLabelBackend":
        index = np.asarray(idx)
        # Keep the parent's dtype: a sub-instance of a float32 instance
        # stays float32 even when the subset drops below the size rule.
        return LazyLabelBackend(
            self._labels.labels[index],
            p=self._p,
            dtype=self._dtype,
            missing=self._missing,
            cache_blocks=self._cache_blocks,
            validate=False,
        )
