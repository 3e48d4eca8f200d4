"""The top-level clustering-aggregation API.

:func:`aggregate` is the one-call entry point of the library: give it the
input clusterings (as :class:`Clustering` objects or a label matrix) and an
algorithm name, get back an :class:`AggregationResult` carrying the
consensus clustering together with its objective value, the pairwise lower
bound, and timing.

    >>> from repro import aggregate, Clustering
    >>> inputs = [Clustering([0, 0, 1, 1, 2, 2]),
    ...           Clustering([0, 1, 0, 1, 2, 3]),
    ...           Clustering([0, 1, 0, 1, 2, 2])]
    >>> result = aggregate(inputs, method="agglomerative")
    >>> result.clustering.k
    3
    >>> result.disagreements
    5.0

(The doctest above is the paper's Figure 1 / Figure 2 running example —
five disagreements is optimal.)
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..obs.trace import span
from ..registry import SolveContext, aggregate_method_names, get_method
from ..registry import resolve_instance_method as _resolve_instance_method
from ..registry import stochastic_method_names
from .distance import total_disagreement
from .instance import CorrelationInstance
from .labels import as_label_matrix, validate_label_matrix
from .partition import Clustering

__all__ = [
    "aggregate",
    "AggregationResult",
    "available_methods",
    "resolve_inner",
    "STOCHASTIC_METHODS",
]


def available_methods() -> tuple[str, ...]:
    """Names accepted by :func:`aggregate`'s ``method`` parameter.

    Derived from :mod:`repro.registry` — the CLI, the serve schema
    validation, and the error messages below all read the same source,
    so a new registration can never drift out of any of them.
    """
    return aggregate_method_names()


def resolve_inner(inner: str | Callable[..., Clustering]) -> Callable[[CorrelationInstance], Clustering]:
    """Resolve SAMPLING's inner algorithm from a name or callable.

    Back-compat alias for :func:`repro.registry.resolve_instance_method`.
    """
    return _resolve_instance_method(inner)


def __getattr__(name: str) -> Any:
    # STOCHASTIC_METHODS is derived from the registry, which loads its
    # built-in modules lazily; computing it at import time would recurse
    # into this package mid-initialization, so it is a PEP 562 attribute.
    if name == "STOCHASTIC_METHODS":
        return stochastic_method_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class AggregationResult:
    """Outcome of one :func:`aggregate` call.

    Attributes
    ----------
    clustering:
        The consensus clustering.
    method:
        Algorithm name that produced it.
    disagreements:
        The aggregation objective ``D(C)`` (expected value under the
        coin-flip model when inputs have missing entries); ``None`` when
        the inputs were a raw correlation instance of unknown origin.
    cost:
        The correlation-clustering cost ``d(C)`` (``disagreements / m``).
    lower_bound:
        Pairwise lower bound on ``d(C)`` — only computed when the full
        distance matrix was materialized (``None`` on the sampling path).
    disagreement_lower_bound:
        Same bound on the ``D(C)`` scale, when ``m`` is known.
    elapsed_seconds:
        Wall-clock time of the algorithm itself (instance construction is
        reported separately in ``build_seconds``).
    """

    clustering: Clustering
    method: str
    disagreements: float | None
    cost: float | None
    lower_bound: float | None
    disagreement_lower_bound: float | None
    elapsed_seconds: float
    build_seconds: float
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def k(self) -> int:
        """Number of clusters in the consensus."""
        return self.clustering.k

    def summary(self) -> str:
        """One-line human-readable report."""
        parts = [f"method={self.method}", f"k={self.k}"]
        if self.disagreements is not None:
            parts.append(f"D(C)={self.disagreements:.1f}")
        if self.disagreement_lower_bound is not None:
            parts.append(f"LB={self.disagreement_lower_bound:.1f}")
        parts.append(f"time={self.elapsed_seconds:.3f}s")
        return "  ".join(parts)


def aggregate(
    inputs: Sequence[Clustering] | np.ndarray | CorrelationInstance,
    method: str = "agglomerative",
    p: float = 0.5,
    compute_lower_bound: bool = True,
    collapse: bool = False,
    n_jobs: int | None = 1,
    backend: str = "auto",
    **params: Any,
) -> AggregationResult:
    """Aggregate input clusterings into a consensus clustering.

    Parameters
    ----------
    inputs:
        A sequence of :class:`Clustering` objects, an ``(n, m)`` label
        matrix (``-1`` marks missing entries), or a prebuilt
        :class:`CorrelationInstance` (for raw correlation clustering).
    method:
        One of :func:`available_methods`: ``"best"``, ``"balls"``,
        ``"agglomerative"``, ``"furthest"``, ``"local-search"``,
        ``"annealing"`` (Filkov-Skiena simulated annealing, §6),
        ``"genetic"`` (Cristofor-Simovici GA, §6), ``"pivot"``
        (CC-PIVOT/QwickCluster, expected 3-approx straight off the label
        matrix — no ``(n, n)`` structure on the label path), ``"cmsy"``
        (the 2.06-approx LP rounding, pivot-tier above
        :data:`repro.algorithms.pivot.DEFAULT_LP_THRESHOLD` objects),
        ``"sampling"``,
        ``"streaming"`` (replay the columns through a
        :class:`~repro.stream.engine.StreamingAggregator`),
        ``"portfolio"`` (run several algorithms concurrently and keep the
        argmin cost — :func:`repro.parallel.portfolio`; per-member
        records land in ``result.params["portfolio"]``), ``"sharded"``
        (divide-and-merge over object shards —
        :func:`repro.shard.shard_aggregate`, accepting ``n_shards=``,
        ``partition=``, ``merge=`` etc.; the per-shard and merge records
        land in ``result.params["shard"]``), or ``"exact"``.
    p:
        Missing-value coin-flip probability (Section 2 of the paper).
    compute_lower_bound:
        Whether to evaluate the pairwise lower bound (quadratic; skipped
        automatically when no distance matrix is materialized).
    collapse:
        Collapse duplicate label-matrix rows into weighted atoms before
        clustering (exact for the objective — some optimal solution keeps
        duplicates together), then expand the consensus back.  A large
        speedup on categorical data with repeated rows; supported by all
        methods except ``"best"`` (which needs no speedup).
    n_jobs:
        Worker count for the shared-memory parallel backend
        (:mod:`repro.parallel`): the instance build, SAMPLING's
        sub-builds and assignment loop, and portfolio members all honour
        it.  ``None`` consults ``REPRO_JOBS``; every value is
        bit-identical to the serial run.
    backend:
        Pair-distance storage for instances built here: ``"dense"``
        materializes the ``(n, n)`` matrix, ``"lazy"`` computes row
        blocks on demand from the label matrix (O(n * m) memory, bitwise
        identical results), and ``"auto"`` (default) picks lazy above
        :func:`repro.core.backend.lazy_threshold` objects
        (``REPRO_LAZY_THRESHOLD``, default 10000).  Ignored when
        ``inputs`` is already a :class:`CorrelationInstance`.
    **params:
        Forwarded to the algorithm (e.g. ``alpha=0.4`` for BALLS,
        ``inner="furthest"`` and ``sample_size=1000`` for SAMPLING,
        ``initial=...`` for LOCALSEARCH).
    """
    spec = get_method(method)  # raises the canonical "unknown method" ValueError
    spec.validate_params(params)

    matrix: np.ndarray | None = None
    instance: CorrelationInstance | None = None
    label_matrix_method = getattr(inputs, "label_matrix", None)
    if isinstance(inputs, CorrelationInstance):
        instance = inputs
    elif isinstance(inputs, np.ndarray):
        validate_label_matrix(inputs)
        matrix = inputs
    elif callable(label_matrix_method):
        # Duck-typed CategoricalDataset: its attributes are the clusterings.
        matrix = label_matrix_method()
        validate_label_matrix(matrix)
    else:
        matrix = as_label_matrix(inputs)

    atoms = None
    with span("aggregate.build", method=method) as build_span:
        if collapse:
            if matrix is None or not spec.supports_collapse:
                raise ValueError(
                    "collapse=True needs a label matrix and is not meaningful for "
                    f"method {method!r}"
                )
            from .atoms import collapse_duplicates

            atoms = collapse_duplicates(matrix)
            build_span.set(atoms=atoms.n_atoms, objects=atoms.n_objects)
        if instance is None and (spec.kind == "instance" or spec.needs_instance):
            if atoms is not None:
                instance = CorrelationInstance.from_label_matrix(
                    atoms.matrix, p=p, weights=atoms.weights, n_jobs=n_jobs, backend=backend
                )
            else:
                instance = CorrelationInstance.from_label_matrix(
                    matrix, p=p, n_jobs=n_jobs, backend=backend
                )
    build_seconds = build_span.seconds

    with span("aggregate.solve", method=method) as solve_span:
        if spec.kind == "label-fast" and instance is None:
            # Backend-free fast path: pivot/cmsy consume the label matrix
            # directly, so nothing quadratic in n is ever allocated.
            if atoms is not None:
                clustering = atoms.expand(
                    spec.func(
                        atoms.matrix, p=p, weights=atoms.weights.astype(np.float64), **params
                    )
                )
            else:
                clustering = spec.func(matrix, p=p, **params)
        elif spec.kind in ("instance", "label-fast"):
            if instance is None:
                raise ValueError(f"method {method!r} requires a distance matrix")
            clustering = spec.func(instance, **params)
            if atoms is not None:
                clustering = atoms.expand(clustering)
        else:
            # Matrix-kind methods own their whole solve through the solver
            # adapter registered next to the algorithm (sampling, best,
            # portfolio, sharded, streaming).  The adapter may write report
            # entries (e.g. params["shard"]) back into the shared dict.
            solver = spec.solver
            if solver is None:
                raise ValueError(f"method {method!r} has no registered solver")
            context = SolveContext(
                matrix=matrix,
                instance=instance,
                atoms=atoms,
                p=p,
                n_jobs=n_jobs,
                backend=backend,
                params=params,
            )
            clustering = solver(context)
        solve_span.set(k=clustering.k)
    elapsed = solve_span.seconds

    disagreements: float | None = None
    cost: float | None = None
    lower_bound: float | None = None
    disagreement_lb: float | None = None
    with span("aggregate.price", method=method):
        if matrix is not None:
            disagreements = total_disagreement(matrix, clustering, p=p)
            cost = disagreements / matrix.shape[1]
        elif instance is not None:
            cost = instance.cost(clustering)
            if instance.m is not None:
                disagreements = instance.m * cost

        if compute_lower_bound and instance is not None:
            lower_bound = instance.lower_bound()
            m = instance.m
            if m is None and matrix is not None:
                m = matrix.shape[1]
            if m is not None:
                disagreement_lb = m * lower_bound

    return AggregationResult(
        clustering=clustering,
        method=method,
        disagreements=disagreements,
        cost=cost,
        lower_bound=lower_bound,
        disagreement_lower_bound=disagreement_lb,
        elapsed_seconds=elapsed,
        build_seconds=build_seconds,
        params=dict(params),
    )
