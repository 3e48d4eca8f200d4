"""Exact agreement counts: the one kernel behind every pair distance.

For an ``(n, m)`` label matrix ``L`` (``-1`` marks a missing entry) and two
objects ``u`` and ``v``, let

    agree(u, v) = #{j : L[u, j] = L[v, j] != -1}
    both(u, v)  = #{j : L[u, j] != -1 and L[v, j] != -1}

Every pair distance of the paper's §2 instance is a ratio of these two
integers:

* coin-flip (the paper's model): ``X = ((both - agree) + (1 - p)(m - both)) / m``
  — the concretely separating columns plus the expected ``1 - p`` of each
  column missing either object;
* average ("let the remaining attributes decide"):
  ``X = (both - agree) / both``, with ``0.5`` where ``both = 0``.

:func:`agreement_counts` returns ``(agree, both)`` for a set of rows
against a set of columns, and :func:`separation_fractions` is the one
normalization that turns counts into distances.  Either side may be
summed into weighted groups,

    agree(A, B) = sum_{u in A, v in B} w_u w_v agree(u, v),

which is how SAMPLING's cluster masses (groups = clusters), the shard
merge's atoms (groups = shard clusters, weights = duplicate
multiplicities) and the streaming accumulator's one-column updates all
reuse the same counts.

Counting strategy (chosen here from the row count and column arity, never
by the caller):

* one-hot GEMM — each side's concrete labels become a one-hot (or, for a
  grouped side, weighted histogram) matrix over the concatenated label
  values of a chunk of columns, and ``agree`` is one BLAS product per
  chunk.  Chunks keep both operands within :data:`BLOCK_ENTRIES` entries;
* per-column comparison — a handful of plain rows (a PIVOT row), and any
  column whose arity is too high for the one-hot (which would otherwise
  turn O(n * m) scratch into O(n * sum(arity))), are counted column by
  column with ``==`` (or, against a grouped side, a table lookup).

Exactness: all counts are sums of integers (of integer weights on grouped
sides), which float32 represents exactly below 2**24 and float64 below
2**53.  Whatever the strategy, chunking, row tiling or worker count, the
counts — and therefore the distances — are bitwise equal.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .labels import MISSING

__all__ = [
    "BLOCK_ENTRIES",
    "EncodedLabels",
    "agreement_counts",
    "pair_fractions",
    "separation_fractions",
]

#: Scratch budget in array entries (about 32 MB of float64): the height of
#: the shared reduction grid and the size of the one-hot operands.
BLOCK_ENTRIES = 1 << 22

#: Plain row sets up to this size skip the one-hot and compare column by
#: column: building the column side's one-hot costs more than it saves.
_COMPARE_MAX_ROWS = 8

#: Label columns with more values than this are counted by comparison; past
#: it the one-hot product costs more than one ``==`` pass per column.
_ONEHOT_MAX_ARITY = 64

#: Stand-in for a missing row label that never equals any column label.
_NEVER = -2

Index = Union[slice, np.ndarray]


class EncodedLabels:
    """A label matrix prepared once for agreement counting.

    Holds the ``(n, m)`` labels plus the per-column arity and the missing
    flag, both computed on first use and then reused by every count over
    the matrix.
    """

    __slots__ = ("labels", "_arity", "_has_missing")

    def __init__(self, matrix: np.ndarray) -> None:
        labels = np.asarray(matrix)
        if labels.ndim != 2:
            raise ValueError(f"label matrix must be 2-D, got shape {labels.shape}")
        self.labels = labels
        self._arity: np.ndarray | None = None
        self._has_missing: bool | None = None

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    @property
    def m(self) -> int:
        return int(self.labels.shape[1])

    @property
    def arity(self) -> np.ndarray:
        """Per-column one-hot width: the largest label plus one (at least 1)."""
        if self._arity is None:
            if self.n == 0:
                self._arity = np.ones(self.m, dtype=np.int64)
            else:
                self._arity = np.maximum(self.labels.max(axis=0).astype(np.int64), 0) + 1
        return self._arity

    @property
    def has_missing(self) -> bool:
        if self._has_missing is None:
            self._has_missing = bool(np.any(self.labels == MISSING))
        return self._has_missing


class _Side:
    """One side of a count: label rows, optionally summed into weighted groups."""

    __slots__ = ("labels", "groups", "weights", "size")

    def __init__(
        self, labels: np.ndarray, groups: np.ndarray | None, weights: np.ndarray | None
    ) -> None:
        self.labels = labels
        rows = int(labels.shape[0])
        self.groups: np.ndarray | None = None
        self.weights: np.ndarray | None = None
        self.size = rows
        if groups is None and weights is None:
            return
        self.groups = (
            np.arange(rows, dtype=np.int64)
            if groups is None
            else np.asarray(groups, dtype=np.int64)
        )
        self.weights = (
            np.ones(rows, dtype=np.float64)
            if weights is None
            else np.asarray(weights, dtype=np.float64)
        )
        if self.groups.shape != (rows,) or self.weights.shape != (rows,):
            raise ValueError("groups and weights must give one entry per selected row")
        if rows and self.groups.min() < 0:
            raise ValueError("group ids must be non-negative")
        self.size = int(self.groups.max()) + 1 if rows else 0

    @property
    def plain(self) -> bool:
        return self.groups is None

    def histogram(
        self, codes: np.ndarray, mask: np.ndarray, width: int, dtype: np.dtype
    ) -> np.ndarray:
        """``(size, width)`` (weighted) counts of ``codes[mask]`` per row or group.

        ``codes`` and ``mask`` are ``(rows, c)``; a plain side yields the
        0/1 one-hot rows, a grouped side their weighted sums per group.
        """
        if self.groups is None or self.weights is None:
            out = np.zeros((self.size, width), dtype=dtype)
            origin = np.arange(self.size, dtype=np.int64)[:, None] * width
            out.ravel()[(origin + codes)[mask]] = 1
            return out
        flat = (self.groups[:, None] * width + codes)[mask]
        weights = np.broadcast_to(self.weights[:, None], mask.shape)[mask]
        counts = np.bincount(flat, weights=weights, minlength=self.size * width)
        return counts.reshape(self.size, width).astype(dtype, copy=False)

    def concrete(self, dtype: np.dtype) -> np.ndarray:
        """``(size, m)`` (weighted) count of concrete entries per label column."""
        mask = self.labels != MISSING
        if self.groups is None:
            return mask.astype(dtype)
        m = int(self.labels.shape[1])
        columns = np.broadcast_to(np.arange(m, dtype=np.int64), mask.shape)
        return self.histogram(columns, mask, m, dtype)


def _onehot_width(rows: int) -> int:
    """The widest one-hot chunk whose operands, ``rows`` tall in all, fit the budget."""
    return max(1, BLOCK_ENTRIES // max(1, rows))


def _compare_column(
    row: _Side, col: _Side, j: int, dtype: np.dtype, agree: np.ndarray
) -> None:
    """Add column ``j``'s agreements to ``agree`` without a one-hot."""
    lr = row.labels[:, j]
    lc = col.labels[:, j]
    if row.plain and col.plain:
        agree += np.where(lr == MISSING, _NEVER, lr)[:, None] == lc[None, :]
        return
    # A grouped side becomes a table of the column's values, compacted so a
    # sparse high label costs nothing; a plain side looks its values up.
    r_ok = lr != MISSING
    c_ok = lc != MISSING
    values = np.unique(np.concatenate([lr[r_ok], lc[c_ok]]))
    empty = int(values.size)  # one more, empty slot: missing entries look it up
    r_codes = np.where(r_ok, np.searchsorted(values, lr), empty)
    c_codes = np.where(c_ok, np.searchsorted(values, lc), empty)
    width = empty + 1
    if row.plain:
        agree += col.histogram(c_codes[:, None], c_ok[:, None], width, dtype)[:, r_codes].T
    elif col.plain:
        agree += row.histogram(r_codes[:, None], r_ok[:, None], width, dtype)[:, c_codes]
    else:
        agree += (
            row.histogram(r_codes[:, None], r_ok[:, None], width, dtype)
            @ col.histogram(c_codes[:, None], c_ok[:, None], width, dtype).T
        )


def agreement_counts(
    labels: np.ndarray | EncodedLabels,
    rows: Index | None = None,
    cols: Index | None = None,
    *,
    row_groups: np.ndarray | None = None,
    row_weights: np.ndarray | None = None,
    col_groups: np.ndarray | None = None,
    col_weights: np.ndarray | None = None,
    dtype: np.dtype | type = np.float64,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | float]:
    """Exact ``(agree, both)`` counts of label ``rows`` against label ``cols``.

    ``rows`` and ``cols`` select label rows (an index array or a slice;
    ``None`` = all).  Each side may be summed into groups ``0..G-1`` with
    per-row weights (``*_groups`` / ``*_weights``; weights alone group
    nothing), giving the ``(G_rows, G_cols)`` weighted counts.  ``agree``
    is written into ``out`` when given.  ``both`` is an array, or — when
    neither side is grouped and the matrix has no missing entry — the
    plain column count ``m``.  Counts are exact for integer weights (see
    the module docstring), so the result does not depend on how the
    caller tiles its rows.
    """
    codes = labels if isinstance(labels, EncodedLabels) else EncodedLabels(labels)
    np_dtype = np.dtype(dtype)
    every = slice(None)
    row = _Side(codes.labels[every if rows is None else rows], row_groups, row_weights)
    col = _Side(codes.labels[every if cols is None else cols], col_groups, col_weights)
    agree = np.zeros((row.size, col.size), dtype=np_dtype) if out is None else out
    width_cap = _onehot_width(row.size + col.size)
    if row.plain and col.plain and row.size <= _COMPARE_MAX_ROWS:
        onehot: list[int] = []
    else:
        limit = min(_ONEHOT_MAX_ARITY, width_cap)
        onehot = [j for j in range(codes.m) if codes.arity[j] <= limit]
    chunks: list[list[int]] = []
    width = 0
    for j in onehot:
        if not chunks or width + int(codes.arity[j]) > width_cap:
            chunks.append([])
            width = 0
        chunks[-1].append(j)
        width += int(codes.arity[j])

    if not chunks:
        agree[...] = 0
    for index, chunk in enumerate(chunks):
        offsets = np.concatenate([[0], np.cumsum(codes.arity[chunk])]).astype(np.int64)
        hot = [
            side.histogram(
                side.labels[:, chunk] + offsets[:-1],
                side.labels[:, chunk] != MISSING,
                int(offsets[-1]),
                np_dtype,
            )
            for side in (row, col)
        ]
        if index == 0:
            np.matmul(hot[0], hot[1].T, out=agree)
        else:
            agree += hot[0] @ hot[1].T
    for j in sorted(set(range(codes.m)) - set(onehot)):
        _compare_column(row, col, j, np_dtype, agree)

    if row.plain and col.plain and not codes.has_missing:
        return agree, float(codes.m)
    return agree, row.concrete(np_dtype) @ col.concrete(np_dtype).T


def separation_fractions(
    separated: np.ndarray,
    both: np.ndarray | float,
    total: np.ndarray | float,
    p: float = 0.5,
    missing: str = "coin-flip",
    divisor: np.ndarray | float | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Turn separation counts into distances, written into ``out``.

    ``separated`` holds ``both - agree`` and ``total`` the weight every
    pair would have if nothing were missing (``m`` for plain pairs);
    ``out`` defaults to ``separated`` itself.

    * ``missing="coin-flip"``: ``(separated + (1 - p)(total - both)) / divisor``,
      ``divisor`` defaulting to ``total``;
    * ``missing="average"``: ``separated / both``, and ``0.5`` where
      ``both = 0``.

    This is the one place the §2 missing-value identity is written; the
    batch build, the lazy backend, PIVOT's rows, SAMPLING's masses, the
    shard merge and the streaming accumulator all normalize through it.
    """
    out = separated if out is None else out
    kind = out.dtype.type
    if missing == "coin-flip":
        if np.ndim(both) or np.ndim(total) or both != total:
            flips = np.subtract(total, both, dtype=out.dtype)
            flips *= kind(1.0 - p)
            separated = np.add(separated, flips, out=out)
        scale = total if divisor is None else divisor
        np.divide(separated, np.asarray(scale, dtype=out.dtype), out=out)
    elif missing == "average":
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(separated, np.asarray(both, dtype=out.dtype), out=out)
        if np.ndim(both):
            out[np.asarray(both) == 0] = kind(0.5)
    else:
        raise ValueError(f"missing must be 'coin-flip' or 'average', got {missing!r}")
    return out


def pair_fractions(
    labels: EncodedLabels,
    rows: Index,
    cols: Index,
    p: float = 0.5,
    missing: str = "coin-flip",
    dtype: np.dtype | type = np.float64,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``X[rows, cols]`` of the §2 instance, with ``X[u, u] = 0``.

    The batch build, the parallel row blocks, the lazy backend's blocks
    and gathers, and PIVOT's rows all come from here, so every route to
    an entry yields the same bits.  Slices must have unit step.
    """
    agree, both = agreement_counts(labels, rows, cols, dtype=dtype, out=out)
    separated = np.subtract(both, agree, out=agree)
    separation_fractions(separated, both, labels.m, p=p, missing=missing)
    n = labels.n
    zero = separated.dtype.type(0.0)
    if isinstance(rows, slice) and isinstance(cols, slice):
        row_range, col_range = range(n)[rows], range(n)[cols]
        shared = np.arange(
            max(row_range.start, col_range.start),
            min(row_range.stop, col_range.stop),
            dtype=np.int64,
        )
        separated[shared - row_range.start, shared - col_range.start] = zero
    else:
        row_ids = np.arange(n)[rows] if isinstance(rows, slice) else rows
        col_ids = np.arange(n)[cols] if isinstance(cols, slice) else cols
        separated[row_ids[:, None] == col_ids[None, :]] = zero
    return separated
