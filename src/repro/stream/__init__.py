"""Streaming aggregation: incremental consensus over arriving clusterings.

The paper's algorithms are batch — every new input clustering would force
a full rebuild of the ``X`` matrix and a from-scratch optimization.  This
subsystem maintains the consensus *online*:

* :class:`IncrementalCorrelationInstance` — running separation counts
  updated in one O(n²) vectorized pass per arriving clustering, with
  optional exponential decay for drifting streams; shares the
  :func:`~repro.core.agreement.agreement_counts` kernel and its
  normalization with the batch build, so (at ``decay=1``) the two are
  bit-identical.
* :class:`StreamingAggregator` — ``engine.observe(labels)`` folds a
  clustering in and re-optimizes by warm-starting LOCALSEARCH from the
  previous consensus (SAMPLING fallback past a size threshold), with a
  per-update observability record.
* :func:`save_checkpoint` / :func:`load_checkpoint` — ``.npz``
  round-trip of the full engine state for long-running processes.

Also reachable as ``aggregate(..., method="streaming")`` and the CLI's
``repro-aggregate stream`` subcommand.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .engine import StreamingAggregator, StreamStats, StreamUpdate
from .instance import IncrementalCorrelationInstance

__all__ = [
    "IncrementalCorrelationInstance",
    "StreamingAggregator",
    "StreamStats",
    "StreamUpdate",
    "save_checkpoint",
    "load_checkpoint",
]
