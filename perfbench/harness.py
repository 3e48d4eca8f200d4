"""Arithmetic of the repository benchmark, kept free of I/O so it can be tested.

Everything here is stdlib only: percentiles with a tail-sample check,
span-tree flattening (total and self time per span name), span coverage,
the unattributed-span flag, the cost envelopes ported from the older
bench scripts, and the operation ledger behind ``failed``/``attempted``.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable, Sequence
from typing import Any

#: Fewest samples that must lie beyond a reported tail percentile.
MIN_TAIL_SAMPLES = 10

#: A parent span whose self time exceeds this share of its total is flagged.
UNATTRIBUTED_SHARE = 0.10

#: pivot/cmsy cost must stay within this factor of same-seed SAMPLING
#: (the value of ``PIVOT_COST_ENVELOPE`` in ``benchmarks/bench_pivot.py``).
PIVOT_COST_ENVELOPE = 1.15

#: Relative tolerance between an objective the library reports from float32
#: distances and the exact recomputation (float32 epsilon is 1.2e-7; the
#: reported value rounds each entry once, so a few epsilon bound the gap).
FLOAT32_REL_TOL = 1e-6


# -- percentiles ------------------------------------------------------------


def nearest_rank(count: int, q: float) -> int:
    """0-based index of the nearest-rank ``q``-th percentile of ``count`` sorted values."""
    if count < 1:
        raise ValueError("a percentile needs at least one sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    return min(count - 1, max(0, math.ceil(q / 100.0 * count) - 1))


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly after the ``q``-th percentile's rank."""
    return count - 1 - nearest_rank(count, q)


def percentile(values: Sequence[float], q: float, min_beyond: int = 0) -> float:
    """Nearest-rank percentile, refusing a tail the sample cannot support.

    With ``min_beyond=MIN_TAIL_SAMPLES`` a p90 needs at least 100 samples
    and a p99 at least 1000, so the reported tail repeats run to run.
    """
    ranked = sorted(values)
    beyond = samples_beyond(len(ranked), q)
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(ranked)} samples has {beyond} beyond it; {min_beyond} needed"
        )
    return ranked[nearest_rank(len(ranked), q)]


def interpolated(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile (numpy's default), for a handful of samples.

    With two jobs a nearest-rank p50 is the faster job alone; this one is
    their mean, so it moves with both.
    """
    nearest_rank(len(values), q)  # the same argument checks
    ranked = sorted(values)
    position = q / 100.0 * (len(ranked) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ranked) - 1)
    return ranked[low] + (ranked[high] - ranked[low]) * (position - low)


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the steadiness measure)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- span trees -------------------------------------------------------------


def walk(spans: Iterable[dict[str, Any]]) -> Iterable[dict[str, Any]]:
    """Every span of a ``Trace.to_dict()["spans"]`` forest, parents first."""
    for node in spans:
        yield node
        yield from walk(node.get("children", ()))


def self_seconds(node: dict[str, Any]) -> float:
    """A span's duration minus the time its children cover (never negative)."""
    covered = sum(child["seconds"] for child in node.get("children", ()))
    return max(0.0, node["seconds"] - covered)


def flatten(spans: Iterable[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds, self seconds, and child count."""
    flat: dict[str, dict[str, float]] = {}
    for node in walk(spans):
        entry = flat.setdefault(
            node["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0, "children": 0}
        )
        entry["count"] += 1
        entry["total_s"] += node["seconds"]
        entry["self_s"] += self_seconds(node)
        entry["children"] += len(node.get("children", ()))
    return flat


def unattributed(
    flat: dict[str, dict[str, float]], share: float = UNATTRIBUTED_SHARE
) -> list[str]:
    """Parent spans whose self time is above ``share`` of their total."""
    return sorted(
        name
        for name, entry in flat.items()
        if entry["children"] and entry["total_s"] > 0 and entry["self_s"] > share * entry["total_s"]
    )


def total_named(spans: Iterable[dict[str, Any]], name: str) -> float:
    """Summed seconds of every span called ``name`` (nested repeats counted once)."""
    total = 0.0
    for node in spans:
        if node["name"] == name:
            total += node["seconds"]
        else:
            total += total_named(node.get("children", ()), name)
    return total


def find(spans: Iterable[dict[str, Any]], name: str) -> dict[str, Any] | None:
    """The first span called ``name``, depth first."""
    return next((node for node in walk(spans) if node["name"] == name), None)


def coverage(node: dict[str, Any], prefix: str) -> float:
    """Share of ``node``'s time covered by its direct children named ``prefix*``."""
    if node["seconds"] <= 0:
        return 0.0
    covered = sum(c["seconds"] for c in node.get("children", ()) if c["name"].startswith(prefix))
    return covered / node["seconds"]


# -- quality envelopes --------------------------------------------------------


def cost_over(cost: float, base: float) -> float:
    """Cost ratio against a baseline, 1.0 for a zero baseline (as the bench scripts do)."""
    return cost / base if base else 1.0


def within_envelope(cost: float, base: float, envelope: float) -> bool:
    return cost_over(cost, base) <= envelope


def close(reported: float, exact: float, rel_tol: float) -> bool:
    """Whether a reported objective matches its exact recomputation."""
    return abs(reported - exact) <= rel_tol * max(1.0, abs(exact))


# -- operation accounting -----------------------------------------------------


class Ledger:
    """Attempted and failed operations behind ``failed``/``attempted``.

    An operation is one call into the library or one HTTP request.  It
    fails when it raises, returns a non-2xx status, times out, or when any
    correctness gate on its result fails; an operation that fails twice
    still counts once.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self._failed: set[int] = set()
        self.errors: list[str] = []

    def attempt(self) -> int:
        self.attempted += 1
        return self.attempted

    def fail(self, op: int, message: str) -> None:
        self._failed.add(op)
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, op: int, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(op, message)
        return ok

    def absorb(self, other: dict[str, Any]) -> None:
        """Count another ledger's ``to_dict()`` (a helper process's operations) in this one."""
        first = self.attempted + 1
        self.attempted += other["attempted"]
        self._failed.update(range(first, first + other["failed"]))
        self.errors.extend(other["errors"][: max(0, 20 - len(self.errors))])

    @property
    def failed(self) -> int:
        return len(self._failed)

    def to_dict(self) -> dict[str, Any]:
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors}


def error_rate(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones (a run that attempted nothing failed)."""
    return failed / attempted if attempted else 1.0
