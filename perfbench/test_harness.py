"""Self-tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    MIN_TAIL_SAMPLES,
    Ledger,
    close,
    cost_over,
    coverage,
    error_rate,
    flatten,
    interpolated,
    percentile,
    samples_beyond,
    self_seconds,
    spread,
    total_named,
    unattributed,
    within_envelope,
)


def span(name, seconds, *children):
    return {"name": name, "seconds": seconds, "attrs": {}, "children": list(children)}


# -- percentiles ----------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]  # 1..100
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0
    assert percentile(list(reversed(values)), 99) == 99.0


def test_samples_beyond_counts_the_tail():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(120, 90) == 12
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(100)), 90, min_beyond=MIN_TAIL_SAMPLES) == 89
    with pytest.raises(ValueError, match="9 beyond"):
        percentile(list(range(99)), 90, min_beyond=MIN_TAIL_SAMPLES)
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99, min_beyond=MIN_TAIL_SAMPLES)
    assert percentile(list(range(1000)), 99, min_beyond=MIN_TAIL_SAMPLES) == 989


def test_interpolated_percentile_moves_with_every_job():
    assert interpolated([7.0], 50) == 7.0
    assert interpolated([7.0], 90) == 7.0
    assert interpolated([9.0, 8.0], 50) == pytest.approx(8.5)  # nearest rank says 8
    assert interpolated([8.0, 9.0], 90) == pytest.approx(8.9)
    assert interpolated([1.0, 2.0, 4.0], 50) == 2.0
    with pytest.raises(ValueError):
        interpolated([], 50)


def test_spread_is_interquartile_distance_over_median():
    assert spread([10.0] * 10) == 0.0
    # statistics.quantiles (exclusive method) on 1..9: q1=2.5, q3=7.5, median 5.
    assert spread([float(v) for v in range(1, 10)]) == pytest.approx(1.0)


# -- span trees -------------------------------------------------------------------


TREE = [
    span(
        "bench.job", 10.0,
        span("bench.build", 4.0, span("instance.build", 3.5)),
        span("bench.solve", 5.0, span("shard.merge", 2.0, span("atoms", 0.5)), span("refine", 2.9)),
    ),
    span("bench.job", 2.0, span("bench.build", 2.0, span("instance.build", 2.0))),
]


def test_self_time_subtracts_children():
    job = TREE[0]
    assert self_seconds(job) == pytest.approx(1.0)
    assert self_seconds(job["children"][1]) == pytest.approx(0.1)
    assert self_seconds(span("leaf", 0.3)) == pytest.approx(0.3)
    # Children that overrun their parent (clock granularity) never go negative.
    assert self_seconds(span("p", 1.0, span("c", 1.2))) == 0.0


def test_flatten_sums_total_and_self_per_name():
    flat = flatten(TREE)
    assert flat["bench.job"]["count"] == 2
    assert flat["bench.job"]["total_s"] == pytest.approx(12.0)
    assert flat["bench.job"]["self_s"] == pytest.approx(1.0)
    assert flat["bench.build"]["self_s"] == pytest.approx(0.5)
    assert flat["shard.merge"]["self_s"] == pytest.approx(1.5)
    assert flat["instance.build"]["total_s"] == pytest.approx(5.5)


def test_unattributed_flags_parents_above_ten_percent_self():
    # shard.merge: 1.5 of 2.0 is self; bench.build: 0.5 of 6.0 (8%) is not.
    assert unattributed(flatten(TREE)) == ["shard.merge"]
    assert "refine" not in unattributed(flatten(TREE))  # a leaf is never flagged


def test_coverage_counts_direct_benchmark_children():
    assert coverage(TREE[0], "bench.") == pytest.approx(0.9)
    assert coverage(TREE[1], "bench.") == pytest.approx(1.0)


def test_total_named_does_not_double_count_nested_repeats():
    nested = [span("a", 3.0, span("a", 1.0)), span("b", 1.0, span("a", 0.5))]
    assert total_named(nested, "a") == pytest.approx(3.5)


# -- envelopes and accounting ----------------------------------------------------------


def test_cost_envelope_matches_the_bench_scripts():
    assert cost_over(115.0, 100.0) == pytest.approx(1.15)
    assert within_envelope(115.0, 100.0, 1.15)
    assert not within_envelope(115.2, 100.0, 1.15)
    assert cost_over(5.0, 0.0) == 1.0  # a zero baseline is not a violation


def test_close_uses_a_relative_tolerance():
    assert close(1e8 + 50.0, 1e8, 1e-6)
    assert not close(1e8 + 200.0, 1e8, 1e-6)
    assert close(0.0, 0.0, 0.0)


def test_ledger_counts_each_failed_operation_once():
    ledger = Ledger()
    ops = [ledger.attempt() for _ in range(8)]
    ledger.fail(ops[0], "raised")
    assert not ledger.check(ops[0], False, "gate on the same operation")
    assert ledger.check(ops[1], True, "passing gate")
    assert not ledger.check(ops[2], False, "failed gate")
    assert (ledger.attempted, ledger.failed) == (8, 2)
    assert error_rate(ledger.failed, ledger.attempted) == 0.25
    assert ledger.to_dict()["errors"][0] == "raised"


def test_ledger_absorbs_a_helper_process_ledger():
    ledger = Ledger()
    ledger.fail(ledger.attempt(), "first")
    helper = Ledger()
    for _ in range(5):
        helper.attempt()
    helper.fail(2, "helper")
    ledger.absorb(helper.to_dict())
    assert (ledger.attempted, ledger.failed) == (6, 2)
    assert ledger.errors == ["first", "helper"]
    ledger.absorb({"attempted": 1, "failed": 1, "errors": ["crashed"]})
    assert (ledger.attempted, ledger.failed) == (7, 3)


def test_error_rate_of_nothing_attempted_is_total_failure():
    assert error_rate(0, 0) == 1.0
    assert error_rate(0, 40) == 0.0
