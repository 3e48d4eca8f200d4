"""Incremental correlation instances for streaming aggregation.

The batch :class:`~repro.core.instance.CorrelationInstance` is built from a
complete ``(n, m)`` label matrix in one pass.  In a streaming setting the
input clusterings arrive one at a time and the ``X`` matrix must follow
along without replaying history: :class:`IncrementalCorrelationInstance`
keeps the *running counts* of :mod:`repro.core.agreement` — per pair, the
number of columns that concretely separate it (``both - agree``) and, once
some column has a missing entry, the number of columns concrete on both
sides (``both``) — and folds each arriving clustering in with one blocked
O(n²) update from the same agreement-count kernel as the batch build.  The
distances come out of the shared normalization, so after ``k`` calls to
:meth:`observe` (with no decay) the matrix is bitwise-reproducible against
a batch build from the same ``k`` columns, at any ``p``.

Drifting streams are handled by *exponential decay*: with
``decay = γ < 1``, observing a clustering first scales every accumulator by
``γ``, so the effective weight of the clustering observed ``a`` updates ago
is ``γ^a`` and

    X = Σ_a γ^a · sep_a  /  Σ_a γ^a

with ``sep_a`` the coin-flip separation of the clustering observed ``a``
updates ago

— a recency-weighted disagreement fraction that still lies in ``[0, 1]``
and still feeds every downstream algorithm unchanged.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..analysis.contracts import check_distance_matrix, contracts_enabled
from ..core.agreement import EncodedLabels, agreement_counts, separation_fractions
from ..core.backend import reduction_block_rows
from ..core.instance import CorrelationInstance
from ..core.labels import MISSING

__all__ = ["IncrementalCorrelationInstance"]


class IncrementalCorrelationInstance:
    """A correlation instance maintained online, one clustering at a time.

    Parameters
    ----------
    n:
        Number of objects (fixed for the lifetime of the stream).
    p:
        Missing-value coin-flip probability (§2 of the paper).
    missing:
        ``"coin-flip"`` (default) or ``"average"`` — the same two §2
        strategies as :func:`~repro.core.instance.disagreement_fractions`.
    decay:
        Exponential decay factor in ``(0, 1]`` applied to all previous
        observations when a new clustering arrives; ``1.0`` (default)
        means no decay and exact agreement with the batch build.
    dtype:
        Accumulator dtype; defaults to float64 up to 4096 objects and
        float32 beyond, matching the batch construction.
    """

    def __init__(
        self,
        n: int,
        p: float = 0.5,
        missing: str = "coin-flip",
        decay: float = 1.0,
        dtype: np.dtype | type | None = None,
    ) -> None:
        self._configure(n, p, missing, decay, dtype)
        # Decayed count of the columns concretely separating each pair.
        self._separation = np.zeros((n, n), dtype=self._dtype)
        # Decayed count of the columns concrete on both sides of each pair;
        # None until a column with a missing entry arrives, since before
        # that it equals the scalar weight below for every pair.
        self._comparable: np.ndarray | None = None
        self._weight = 0.0  # Σ decay^age, == count when decay == 1
        self._count = 0  # raw number of observed clusterings

    def _configure(
        self,
        n: int,
        p: float,
        missing: str,
        decay: float,
        dtype: np.dtype | type | None,
    ) -> None:
        """Validate and set the scalar configuration (no array allocation).

        Shared by ``__init__`` and :meth:`from_state`, which adopts
        checkpointed accumulators instead of allocating zeroed ones.
        """
        if n < 1:
            raise ValueError("an instance needs at least one object")
        if missing not in ("coin-flip", "average"):
            raise ValueError(f"missing must be 'coin-flip' or 'average', got {missing!r}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be a probability, got {p}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must lie in (0, 1], got {decay}")
        if dtype is None:
            dtype = np.float64 if n <= 4096 else np.float32
        self._n = int(n)
        self._p = float(p)
        self._missing = missing
        self._decay = float(decay)
        self._dtype = np.dtype(dtype)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of objects."""
        return self._n

    @property
    def count(self) -> int:
        """Raw number of clusterings observed so far."""
        return self._count

    @property
    def effective_m(self) -> float:
        """Decayed total weight ``Σ decay^age`` (equals ``count`` at decay=1)."""
        return self._weight

    @property
    def p(self) -> float:
        return self._p

    @property
    def missing(self) -> str:
        return self._missing

    @property
    def decay(self) -> float:
        return self._decay

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def observe(self, labels: np.ndarray) -> None:
        """Fold one arriving clustering into the running counts.

        ``labels`` is a length-``n`` integer vector, ``-1`` marking
        objects the clustering has no opinion about (it must have an
        opinion about at least one).  One blocked O(n²) vectorized pass;
        no history is kept.
        """
        column = np.asarray(labels)
        if column.shape != (self._n,):
            raise ValueError(
                f"labels must cover all {self._n} objects, got shape {column.shape}"
            )
        if not np.issubdtype(column.dtype, np.integer):
            raise TypeError(f"labels must be integers, got dtype {column.dtype}")
        if np.any(column < MISSING):
            raise ValueError("labels must be >= -1 (-1 denotes a missing entry)")
        if np.all(column == MISSING):
            raise ValueError("clustering is entirely missing and carries no information")
        kind = self._dtype.type
        if self._decay != 1.0:
            self._separation *= kind(self._decay)
            if self._comparable is not None:
                self._comparable *= kind(self._decay)
        encoded = EncodedLabels(column[:, None])
        if encoded.has_missing and self._comparable is None:
            # Every earlier column was complete: each pair was comparable
            # in all of them, i.e. for the whole decayed weight.
            self._comparable = np.full(
                (self._n, self._n), kind(self._decay * self._weight), dtype=self._dtype
            )
        step = reduction_block_rows(self._n)
        scratch = np.empty((min(step, self._n), self._n), dtype=self._dtype)
        for start in range(0, self._n, step):
            rows = slice(start, min(start + step, self._n))
            agree, both = agreement_counts(
                encoded, rows, dtype=self._dtype, out=scratch[: rows.stop - start]
            )
            self._separation[rows] += np.subtract(both, agree, out=agree)
            if self._comparable is not None:
                self._comparable[rows] += both
        self._weight = self._decay * self._weight + 1.0
        self._count += 1

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def distances(self, out: np.ndarray | None = None) -> np.ndarray:
        """The current ``X`` matrix.

        Without ``out``, returns a fresh array (safe to hold).  With
        ``out`` — an ``(n, n)`` float array — the matrix is written in
        place and ``out`` is returned; the streaming engine uses this to
        refresh one shared buffer per update instead of reallocating n².
        """
        if self._count == 0:
            raise RuntimeError("no clusterings observed yet")
        if out is None:
            out = np.empty((self._n, self._n), dtype=self._dtype)
        elif out.shape != (self._n, self._n):
            raise ValueError(f"out must have shape ({self._n}, {self._n}), got {out.shape}")
        both = self._weight if self._comparable is None else self._comparable
        separation_fractions(
            self._separation, both, self._weight, p=self._p, missing=self._missing, out=out
        )
        np.fill_diagonal(out, 0.0)
        if contracts_enabled():
            check_distance_matrix(out, context="IncrementalCorrelationInstance.distances")
        return out

    def instance(self) -> CorrelationInstance:
        """The current state as a batch :class:`CorrelationInstance`.

        ``m`` is the raw observation count; with decay the identity
        ``D(C) = m · d(C)`` becomes a recency-weighted analogue.
        """
        return CorrelationInstance(self.distances(), m=self._count, validate=False)

    # ------------------------------------------------------------------
    # Checkpoint support (see repro.stream.checkpoint)
    # ------------------------------------------------------------------

    def state(self) -> dict[str, Any]:
        """Internal accumulators + config, for checkpointing."""
        return {
            "separation": self._separation,
            "comparable": self._comparable,
            "weight": self._weight,
            "count": self._count,
            "config": {
                "n": self._n,
                "p": self._p,
                "missing": self._missing,
                "decay": self._decay,
                "dtype": self._dtype.name,
            },
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "IncrementalCorrelationInstance":
        """Rebuild an instance from :meth:`state` output (inverse operation).

        The checkpointed accumulators are adopted directly (one copy each,
        to decouple from the caller's arrays) — no zeroed O(n²) matrices
        are allocated and thrown away on the restore path.
        """
        config = state["config"]
        inst = cls.__new__(cls)
        inst._configure(
            config["n"],
            config["p"],
            config["missing"],
            config["decay"],
            np.dtype(config["dtype"]),
        )
        separation = np.asarray(state["separation"], dtype=inst._dtype)
        if separation.shape != (inst._n, inst._n):
            raise ValueError("checkpointed separation counts do not match n")
        inst._separation = separation.copy()
        comparable = state.get("comparable")
        inst._comparable = None
        if comparable is not None:
            comparable = np.asarray(comparable, dtype=inst._dtype)
            if comparable.shape != (inst._n, inst._n):
                raise ValueError("checkpointed comparable counts do not match n")
            inst._comparable = comparable.copy()
        inst._weight = float(state["weight"])
        inst._count = int(state["count"])
        return inst

    def __repr__(self) -> str:
        return (
            f"IncrementalCorrelationInstance(n={self._n}, count={self._count}, "
            f"missing={self._missing!r}, decay={self._decay})"
        )
