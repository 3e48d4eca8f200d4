"""The agreement-count kernel: exact counts, one normalization, every site.

Every pair distance in the library is a normalized pair of integer
counts ``(agree, both)`` from :func:`repro.core.agreement_counts`.  These
tests pin the counts against brute force under every counting strategy
(one-hot GEMM, per-column comparison, chunked one-hots, grouped and
weighted sides), and the consequences of exactness: column order, row
tiling, backend and worker count cannot change a single bit of ``X``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    EncodedLabels,
    LazyLabelBackend,
    agreement_counts,
    collapse_duplicates,
    disagreement_fractions,
)
from repro.core import agreement as kernel
from repro.core.objective import ClusterCountTables
from repro.parallel.build import parallel_disagreement_fractions
from repro.shard import atom_distances


def random_labels(rng: np.random.Generator, n: int, m: int, arity: int = 4) -> np.ndarray:
    matrix = rng.integers(0, arity, size=(n, m))
    matrix[rng.random((n, m)) < 0.2] = -1
    matrix[0] = 0  # no column entirely missing
    return matrix


def brute_counts(
    matrix: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    row_groups: np.ndarray | None = None,
    row_weights: np.ndarray | None = None,
    col_groups: np.ndarray | None = None,
    col_weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integer (agree, both) by explicit broadcasting, then grouped sums."""
    left = matrix[rows][:, None, :]
    right = matrix[cols][None, :, :]
    concrete = (left != -1) & (right != -1)
    agree = ((left == right) & concrete).sum(axis=2).astype(np.int64)
    both = concrete.sum(axis=2).astype(np.int64)

    def grouped(counts: np.ndarray, groups, weights, axis: int) -> np.ndarray:
        if groups is None and weights is None:
            return counts
        size = counts.shape[axis]
        groups = np.arange(size) if groups is None else groups
        weights = np.ones(size, dtype=np.int64) if weights is None else weights
        summing = np.zeros((int(groups.max()) + 1, size), dtype=np.int64)
        summing[groups, np.arange(size)] = weights.astype(np.int64)
        return summing @ counts if axis == 0 else counts @ summing.T

    agree = grouped(grouped(agree, row_groups, row_weights, 0), col_groups, col_weights, 1)
    both = grouped(grouped(both, row_groups, row_weights, 0), col_groups, col_weights, 1)
    return agree, both


def force_strategy(monkeypatch: pytest.MonkeyPatch, strategy: str) -> None:
    """Pin the kernel's counting strategy (it is never a caller option)."""
    if strategy == "compare":
        monkeypatch.setattr(kernel, "_ONEHOT_MAX_ARITY", 0)
    elif strategy == "gemm":
        monkeypatch.setattr(kernel, "_COMPARE_MAX_ROWS", 0)
        monkeypatch.setattr(kernel, "_ONEHOT_MAX_ARITY", 1 << 30)
    elif strategy == "chunked":
        # One-hot chunks at most 6 wide: about one label column per chunk.
        monkeypatch.setattr(kernel, "_COMPARE_MAX_ROWS", 0)
        monkeypatch.setattr(kernel, "_ONEHOT_MAX_ARITY", 6)
        monkeypatch.setattr(kernel, "_onehot_width", lambda rows: 6)


STRATEGIES = ("default", "compare", "gemm", "chunked")


class TestCounts:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_plain_counts_match_brute_force(self, monkeypatch, strategy) -> None:
        force_strategy(monkeypatch, strategy)
        rng = np.random.default_rng(0)
        for trial in range(10):
            matrix = random_labels(rng, 60, 5)
            rows = rng.choice(60, size=int(rng.integers(1, 30)), replace=False)
            cols = rng.permutation(60)[: int(rng.integers(1, 60))]
            agree, both = agreement_counts(matrix, rows, cols)
            want_agree, want_both = brute_counts(matrix, rows, cols)
            np.testing.assert_array_equal(agree, want_agree)
            np.testing.assert_array_equal(np.broadcast_to(both, agree.shape), want_both)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_grouped_weighted_counts_match_brute_force(self, monkeypatch, strategy) -> None:
        force_strategy(monkeypatch, strategy)
        rng = np.random.default_rng(1)
        matrix = random_labels(rng, 50, 4, arity=6)
        rows = rng.choice(50, size=20, replace=False)
        cols = np.arange(50)
        col_groups = np.arange(50) % 7
        col_weights = rng.integers(1, 5, size=50).astype(np.float64)
        row_groups = np.arange(20) % 3
        row_weights = rng.integers(1, 4, size=20).astype(np.float64)
        for kwargs in (
            {"col_groups": col_groups, "col_weights": col_weights},
            {"row_groups": row_groups, "row_weights": row_weights},  # swapped sides
            {
                "row_groups": row_groups,
                "row_weights": row_weights,
                "col_groups": col_groups,
                "col_weights": col_weights,
            },
        ):
            agree, both = agreement_counts(matrix, rows, cols, **kwargs)
            want_agree, want_both = brute_counts(matrix, rows, cols, **kwargs)
            np.testing.assert_array_equal(agree, want_agree)
            np.testing.assert_array_equal(both, want_both)

    def test_strategies_agree_bitwise(self, monkeypatch) -> None:
        rng = np.random.default_rng(2)
        matrix = random_labels(rng, 80, 6, arity=5)
        rows = np.arange(3, 70)
        results = []
        for strategy in STRATEGIES:
            with monkeypatch.context() as patch:
                force_strategy(patch, strategy)
                results.append(agreement_counts(matrix, rows, dtype=np.float32))
        for agree, both in results[1:]:
            np.testing.assert_array_equal(agree, results[0][0])
            np.testing.assert_array_equal(both, results[0][1])

    def test_high_arity_column_is_counted_without_a_wide_one_hot(self) -> None:
        rng = np.random.default_rng(3)
        n = 300
        matrix = np.column_stack(
            [
                rng.integers(0, 3, size=n),
                rng.permutation(n) * 1000,  # n distinct, sparse labels
                rng.integers(0, n, size=n),
            ]
        )
        matrix[::7, 2] = -1
        codes = EncodedLabels(matrix)
        assert codes.arity[1] > kernel._ONEHOT_MAX_ARITY
        agree, both = agreement_counts(codes, np.arange(40, 90))
        want_agree, want_both = brute_counts(matrix, np.arange(40, 90), np.arange(n))
        np.testing.assert_array_equal(agree, want_agree)
        np.testing.assert_array_equal(both, want_both)
        # Against a grouped side, the same column goes through a compacted
        # per-column table rather than a 300000-wide histogram.
        groups = np.arange(n) % 11
        agree, both = agreement_counts(codes, np.arange(40, 90), col_groups=groups)
        want_agree, want_both = brute_counts(
            matrix, np.arange(40, 90), np.arange(n), col_groups=groups
        )
        np.testing.assert_array_equal(agree, want_agree)
        np.testing.assert_array_equal(both, want_both)

    def test_complete_matrix_returns_scalar_both(self) -> None:
        matrix = np.array([[0, 1], [0, 0], [1, 1]])
        agree, both = agreement_counts(matrix)
        assert both == 2.0
        np.testing.assert_array_equal(agree, [[2, 1, 1], [1, 2, 0], [1, 0, 2]])


class TestWeightedSites:
    def test_atom_distances_weights_equal_expanded_duplicates_bitwise(self) -> None:
        rng = np.random.default_rng(4)
        matrix = random_labels(rng, 40, 5, arity=3)
        atom_of = rng.integers(0, 6, size=40)
        atom_of[:6] = np.arange(6)
        weights = rng.integers(1, 4, size=40)
        expanded = np.repeat(matrix, weights, axis=0)
        expanded_atoms = np.repeat(atom_of, weights)
        for p in (0.5, 0.3):
            weighted, weighted_w = atom_distances(
                matrix, atom_of, p=p, weights=weights.astype(np.float64)
            )
            plain, plain_w = atom_distances(expanded, expanded_atoms, p=p)
            np.testing.assert_array_equal(weighted, plain)
            np.testing.assert_array_equal(weighted_w, plain_w)

    def test_masses_weights_equal_expanded_duplicates_bitwise(self) -> None:
        rng = np.random.default_rng(5)
        matrix = np.repeat(random_labels(rng, 30, 4, arity=3), 3, axis=0)
        atoms = collapse_duplicates(matrix)
        members = np.arange(0, atoms.n_atoms, 2)
        labels = np.arange(members.size) % 4
        weighted = ClusterCountTables(
            atoms.matrix, members, labels, p=0.3, member_weights=atoms.weights[members]
        )
        member_rows = np.flatnonzero(np.isin(atoms.inverse, members))
        row_labels = labels[np.searchsorted(members, atoms.inverse[member_rows])]
        expanded = ClusterCountTables(matrix, member_rows, row_labels, p=0.3)
        others = np.arange(1, atoms.n_atoms, 2)
        representatives = np.array([np.flatnonzero(atoms.inverse == a)[0] for a in others])
        np.testing.assert_array_equal(
            weighted.masses(others), expanded.masses(representatives)
        )


def builds(matrix: np.ndarray, monkeypatch: pytest.MonkeyPatch, **kwargs) -> list[np.ndarray]:
    """The dense, lazy and two-worker builds of one matrix."""
    dense = disagreement_fractions(matrix, **kwargs)
    lazy = LazyLabelBackend(matrix, block_rows=17, **kwargs).materialize()
    monkeypatch.setenv("REPRO_JOBS", "2")
    parallel = parallel_disagreement_fractions(matrix, n_jobs=None, block_rows=23, **kwargs)
    return [dense, lazy, parallel]


@pytest.mark.parametrize(
    "model", [{"p": 0.3}, {"missing": "average"}], ids=["coin-flip-p0.3", "average"]
)
def test_column_permutation_leaves_x_bitwise_unchanged(monkeypatch, model) -> None:
    """Metamorphic: X does not depend on the order of the input clusterings.

    Summing per-column float terms made X depend on column order at
    non-dyadic ``p``; counting first and normalizing once does not.
    """
    rng = np.random.default_rng(6)
    for _ in range(5):
        matrix = random_labels(rng, 90, 12, arity=4)
        permuted = matrix[:, rng.permutation(matrix.shape[1])]
        original = builds(matrix, monkeypatch, **model)
        for reference, shuffled in zip(original, builds(permuted, monkeypatch, **model)):
            np.testing.assert_array_equal(shuffled, original[0])
            np.testing.assert_array_equal(reference, original[0])
