"""Core framework: partitions, distances, correlation instances, aggregation API."""

from typing import Any

from .aggregate import AggregationResult, aggregate, available_methods
from .agreement import EncodedLabels, agreement_counts, separation_fractions
from .atoms import AtomCollapse, collapse_duplicates
from .backend import (
    DenseBackend,
    LazyLabelBackend,
    PairDistanceBackend,
    lazy_threshold,
    resolve_backend,
)
from .distance import clustering_distance, normalized_distance, total_disagreement
from .instance import CorrelationInstance, disagreement_fractions
from .labels import MISSING, as_label_matrix, columns_as_clusterings, contingency_table
from .objective import ClusterCountTables, MoveEvaluator
from .partition import Clustering

__all__ = [
    "AggregationResult",
    "aggregate",
    "available_methods",
    "STOCHASTIC_METHODS",
    "EncodedLabels",
    "agreement_counts",
    "separation_fractions",
    "AtomCollapse",
    "collapse_duplicates",
    "clustering_distance",
    "normalized_distance",
    "total_disagreement",
    "CorrelationInstance",
    "DenseBackend",
    "LazyLabelBackend",
    "PairDistanceBackend",
    "lazy_threshold",
    "resolve_backend",
    "disagreement_fractions",
    "MISSING",
    "as_label_matrix",
    "columns_as_clusterings",
    "contingency_table",
    "ClusterCountTables",
    "MoveEvaluator",
    "Clustering",
]


def __getattr__(name: str) -> Any:
    # Lazily forwarded: STOCHASTIC_METHODS is computed from the method
    # registry, whose built-in modules must not load while this package
    # is still initializing (see repro.registry.store).
    if name == "STOCHASTIC_METHODS":
        # NB: `from . import aggregate` would resolve to the eagerly
        # imported aggregate() *function*, not the submodule.
        from .aggregate import STOCHASTIC_METHODS as methods

        return methods
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
