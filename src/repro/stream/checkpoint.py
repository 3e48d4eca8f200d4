"""Checkpointing for long-running streaming aggregation.

A :class:`~repro.stream.engine.StreamingAggregator` owns three kinds of
state: the incremental separation counts (dense arrays), the current
consensus labels, and scalar configuration plus the RNG stream.  All of it
fits naturally in a single ``.npz`` archive:

======================  =====================================================
key                     contents
======================  =====================================================
``separation``          ``(n, n)`` decayed count of the columns concretely
                        separating each pair (``both - agree``)
``comparable``          ``(n, n)`` decayed count of the columns concrete on
                        both sides (``both``); absent until a column with a
                        missing entry has been observed, under either
                        missing-value model
``consensus``           consensus label vector (absent before the first update)
``weight``, ``count``   decayed total weight and raw observation count
``meta``                JSON blob: instance config (``n``, ``p``, ``missing``,
                        ``decay``, ``dtype``), engine config
                        (``sampling_threshold``, ``sample_size``,
                        ``max_sweeps``, ``resync_every``), RNG
                        bit-generator state, and a format version
======================  =====================================================

Version 2 stores the counts above; version 1 archives held the coin-flip
separation *terms* (with ``1 - p`` folded in) and are rejected.

:func:`save_checkpoint` / :func:`load_checkpoint` round-trip an engine
exactly: the restored engine produces bit-identical updates for the same
subsequent ``observe`` calls (counts, consensus, and RNG stream all
resume).  The per-update history is observability data and is not
persisted; neither is the warm-path move evaluator, which is derived
state the engine rebuilds on the next update.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .engine import StreamingAggregator

__all__ = ["save_checkpoint", "load_checkpoint", "CHECKPOINT_VERSION"]

#: Bump when the archive layout changes incompatibly.
CHECKPOINT_VERSION = 2


def save_checkpoint(engine: StreamingAggregator, path: str | Path) -> Path:
    """Write the engine's full state to ``path`` (``.npz``); returns the path."""
    path = Path(path)
    state = engine.state()
    instance_state = state["instance"]
    meta = {
        "version": CHECKPOINT_VERSION,
        "instance": instance_state["config"],
        "engine": state["config"],
        "rng_state": state["rng_state"],
    }
    arrays: dict[str, Any] = {
        "separation": instance_state["separation"],
        "weight": np.float64(instance_state["weight"]),
        "count": np.int64(instance_state["count"]),
        "meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
    }
    if instance_state["comparable"] is not None:
        arrays["comparable"] = instance_state["comparable"]
    if state["consensus"] is not None:
        arrays["consensus"] = np.asarray(state["consensus"], dtype=np.int64)
    np.savez_compressed(path, **arrays)
    return path


def _check_config(saved: dict[str, Any], expected: dict[str, Any], path: Path) -> None:
    """Reject a checkpoint whose saved config disagrees with the caller's.

    Silently adopting mismatched state would poison every later update:
    a wrong ``n`` breaks indexing outright, while a wrong ``p``,
    ``missing`` mode, or ``decay`` quietly changes the objective the
    restored engine optimizes.  The ``n`` message keeps the historical
    "checkpoint covers N objects" phrasing callers grep for.
    """
    expected_n = expected.get("n")
    if expected_n is not None and int(saved["n"]) != int(expected_n):
        raise ValueError(
            f"checkpoint covers {int(saved['n'])} objects but {int(expected_n)} "
            f"were requested ({path})"
        )
    for key in ("p", "decay"):
        wanted = expected.get(key)
        if wanted is not None and float(saved[key]) != float(wanted):
            raise ValueError(
                f"checkpoint was written with {key}={saved[key]} but {key}={wanted} "
                f"was requested ({path})"
            )
    wanted_missing = expected.get("missing")
    if wanted_missing is not None and saved["missing"] != wanted_missing:
        raise ValueError(
            f"checkpoint was written with missing={saved['missing']!r} but "
            f"missing={wanted_missing!r} was requested ({path})"
        )


def load_checkpoint(
    path: str | Path,
    *,
    n: int | None = None,
    p: float | None = None,
    missing: str | None = None,
    decay: float | None = None,
) -> StreamingAggregator:
    """Restore a :class:`StreamingAggregator` saved by :func:`save_checkpoint`.

    The keyword arguments are optional *expectations*: pass the config the
    caller is about to resume with and the load fails with a
    :class:`ValueError` when the checkpoint was written under a different
    ``n``/``p``/``missing``/``decay`` instead of silently adopting
    inconsistent state.  Omitted (``None``) expectations are not checked.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        version = meta.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        _check_config(
            meta["instance"], {"n": n, "p": p, "missing": missing, "decay": decay}, path
        )
        state: dict[str, Any] = {
            "instance": {
                "separation": archive["separation"],
                "comparable": archive["comparable"] if "comparable" in archive else None,
                "weight": float(archive["weight"]),
                "count": int(archive["count"]),
                "config": meta["instance"],
            },
            "consensus": archive["consensus"] if "consensus" in archive else None,
            "rng_state": meta["rng_state"],
            "config": meta["engine"],
        }
        return StreamingAggregator.from_state(state)
