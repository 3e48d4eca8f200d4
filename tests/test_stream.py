"""Tests for the streaming aggregation subsystem (repro.stream)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import aggregate
from repro.algorithms.local_search import local_search
from repro.core.instance import CorrelationInstance, disagreement_fractions
from repro.core.labels import MISSING
from repro.core.partition import Clustering
from repro.datasets import generate_votes
from repro.stream import (
    IncrementalCorrelationInstance,
    StreamingAggregator,
    load_checkpoint,
    save_checkpoint,
)


@st.composite
def label_matrices(draw):
    """Small random label matrices with missing entries, no all-missing column."""
    n = draw(st.integers(min_value=2, max_value=20))
    m = draw(st.integers(min_value=1, max_value=6))
    cells = draw(
        st.lists(
            st.integers(min_value=MISSING, max_value=3),
            min_size=n * m,
            max_size=n * m,
        )
    )
    matrix = np.asarray(cells, dtype=np.int32).reshape(n, m)
    # A column with no opinion about any object carries no information and
    # is rejected by validation; give such columns one concrete label.
    for j in np.flatnonzero(np.all(matrix == MISSING, axis=0)):
        matrix[0, j] = 0
    return matrix


class TestIncrementalInstance:
    @settings(max_examples=60, deadline=None)
    @given(matrix=label_matrices(), p=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    def test_matches_batch_coin_flip(self, matrix, p):
        incremental = IncrementalCorrelationInstance(matrix.shape[0], p=p)
        for j in range(matrix.shape[1]):
            incremental.observe(matrix[:, j])
        batch = disagreement_fractions(matrix, p=p)
        np.testing.assert_array_equal(incremental.distances(), batch)

    @settings(max_examples=40, deadline=None)
    @given(matrix=label_matrices())
    def test_matches_batch_average(self, matrix):
        incremental = IncrementalCorrelationInstance(matrix.shape[0], missing="average")
        for j in range(matrix.shape[1]):
            incremental.observe(matrix[:, j])
        batch = disagreement_fractions(matrix, missing="average")
        np.testing.assert_array_equal(incremental.distances(), batch)

    def test_matches_batch_float32(self):
        matrix = generate_votes(n=80, rng=1).label_matrix()
        incremental = IncrementalCorrelationInstance(matrix.shape[0], dtype=np.float32)
        for j in range(matrix.shape[1]):
            incremental.observe(matrix[:, j])
        batch = disagreement_fractions(matrix, dtype=np.float32)
        assert incremental.distances().dtype == np.float32
        np.testing.assert_allclose(incremental.distances(), batch, atol=1e-6)

    def test_instance_view_matches_batch_costs(self):
        matrix = generate_votes(n=60, rng=0).label_matrix()
        incremental = IncrementalCorrelationInstance(matrix.shape[0])
        for j in range(matrix.shape[1]):
            incremental.observe(matrix[:, j])
        view = incremental.instance()
        batch = CorrelationInstance.from_label_matrix(matrix)
        assert view.m == batch.m
        candidate = Clustering.random(matrix.shape[0], 3, rng=0)
        assert view.cost(candidate) == pytest.approx(batch.cost(candidate))

    def test_decay_weights_recent_clusterings(self):
        together = np.zeros(4, dtype=np.int32)
        apart = np.arange(4, dtype=np.int32)
        decay = 0.5
        incremental = IncrementalCorrelationInstance(4, decay=decay)
        incremental.observe(apart)
        incremental.observe(together)
        # Off-diagonal: (decay * 1 + 0) / (decay + 1)
        expected = decay / (decay + 1.0)
        X = incremental.distances()
        assert X[0, 1] == pytest.approx(expected)
        assert incremental.effective_m == pytest.approx(decay + 1.0)
        assert incremental.count == 2

    def test_decay_forgets_old_regime(self):
        """After many observations of a new regime, X converges to it."""
        old = np.array([0, 0, 1, 1], dtype=np.int32)
        new = np.array([0, 1, 0, 1], dtype=np.int32)
        incremental = IncrementalCorrelationInstance(4, decay=0.5)
        for _ in range(5):
            incremental.observe(old)
        for _ in range(10):
            incremental.observe(new)
        X = incremental.distances()
        assert X[0, 2] < 0.01  # co-clustered in the new regime
        assert X[0, 1] > 0.99  # separated in the new regime

    def test_rejects_bad_input(self):
        incremental = IncrementalCorrelationInstance(4)
        with pytest.raises(ValueError):
            incremental.observe(np.zeros(3, dtype=np.int32))
        with pytest.raises(TypeError):
            incremental.observe(np.zeros(4, dtype=np.float64))
        with pytest.raises(ValueError):
            incremental.observe(np.full(4, -2, dtype=np.int32))
        with pytest.raises(ValueError):
            incremental.observe(np.full(4, MISSING, dtype=np.int32))
        with pytest.raises(RuntimeError):
            incremental.distances()
        with pytest.raises(ValueError):
            IncrementalCorrelationInstance(4, decay=0.0)
        with pytest.raises(ValueError):
            IncrementalCorrelationInstance(4, missing="nope")


class TestStreamingAggregator:
    def test_votes_replay_matches_batch_local_search(self):
        """Acceptance: final streaming cost within 1% of batch LOCALSEARCH."""
        matrix = generate_votes(n=150, rng=0).label_matrix()
        engine = StreamingAggregator(matrix.shape[0], rng=0)
        updates = engine.observe_many(matrix)
        batch = aggregate(matrix, method="local-search", compute_lower_bound=False)
        assert engine.cost() <= batch.cost * 1.01
        assert len(updates) == matrix.shape[1]
        assert engine.count == matrix.shape[1]

    def test_warm_start_cheaper_than_cold(self):
        """Later updates move far fewer nodes than the first."""
        matrix = generate_votes(n=150, rng=0).label_matrix()
        engine = StreamingAggregator(matrix.shape[0])
        updates = engine.observe_many(matrix)
        assert updates[0].moves > 10 * max(1, updates[-1].moves)

    def test_update_records_and_stats(self):
        matrix = generate_votes(n=50, rng=2).label_matrix()
        engine = StreamingAggregator(matrix.shape[0])
        updates = engine.observe_many(matrix)
        assert [u.index for u in updates] == list(range(1, matrix.shape[1] + 1))
        for update in updates:
            assert update.cost >= 0.0
            assert update.disagreements == pytest.approx(update.index * update.cost)
            assert update.sweeps >= 1 and update.moves >= 0
            assert not update.used_sampling
        stats = engine.stats()
        assert stats.updates == matrix.shape[1]
        assert stats.total_moves == sum(u.moves for u in updates)
        assert stats.costs == [u.cost for u in updates]
        assert "updates=" in stats.summary()

    def test_sampling_fallback_above_threshold(self):
        matrix = generate_votes(n=120, rng=0).label_matrix()
        engine = StreamingAggregator(matrix.shape[0], sampling_threshold=50, rng=0)
        updates = engine.observe_many(matrix[:, :4])
        assert all(u.used_sampling for u in updates)
        assert engine.consensus.n == matrix.shape[0]

    def test_streaming_method_registered(self):
        matrix = generate_votes(n=80, rng=0).label_matrix()
        result = aggregate(matrix, method="streaming", rng=0, compute_lower_bound=False)
        assert result.method == "streaming"
        assert result.clustering.n == matrix.shape[0]
        with pytest.raises(ValueError):
            aggregate(matrix, method="streaming", collapse=True)
        instance = CorrelationInstance.from_label_matrix(matrix)
        with pytest.raises(ValueError):
            aggregate(instance, method="streaming")

    def test_consensus_before_any_update_raises(self):
        engine = StreamingAggregator(10)
        with pytest.raises(RuntimeError):
            _ = engine.consensus


class TestCheckpoint:
    def _replay(self, engine, matrix, start):
        return [engine.observe(matrix[:, j]) for j in range(start, matrix.shape[1])]

    def test_round_trip_resumes_identically(self, tmp_path):
        matrix = generate_votes(n=90, rng=3).label_matrix()
        half = matrix.shape[1] // 2
        original = StreamingAggregator(matrix.shape[0], rng=7)
        original.observe_many(matrix[:, :half])
        path = save_checkpoint(original, tmp_path / "engine.npz")

        restored = load_checkpoint(path)
        assert restored.n == original.n
        assert restored.count == original.count
        assert restored.consensus == original.consensus
        np.testing.assert_array_equal(
            restored.incremental.distances(), original.incremental.distances()
        )

        ours = self._replay(original, matrix, half)
        theirs = self._replay(restored, matrix, half)
        for mine, other in zip(ours, theirs):
            # Costs are read off incrementally-maintained masses; the
            # restored engine rebuilds its evaluator from scratch, so the
            # values may differ in the last float bits — decisions do not.
            assert mine.cost == pytest.approx(other.cost, rel=1e-9, abs=1e-9)
            assert mine.k == other.k
            assert mine.moves == other.moves
        assert original.consensus == restored.consensus

    def test_round_trip_with_decay_and_average_missing(self, tmp_path):
        matrix = generate_votes(n=40, rng=1).label_matrix()
        engine = StreamingAggregator(matrix.shape[0], decay=0.9, missing="average")
        engine.observe_many(matrix[:, :5])
        restored = load_checkpoint(save_checkpoint(engine, tmp_path / "ck.npz"))
        assert restored.incremental.decay == 0.9
        assert restored.incremental.missing == "average"
        assert restored.incremental.effective_m == pytest.approx(engine.incremental.effective_m)
        np.testing.assert_array_equal(
            restored.incremental.distances(), engine.incremental.distances()
        )

    def test_fresh_engine_checkpoint(self, tmp_path):
        engine = StreamingAggregator(12)
        restored = load_checkpoint(save_checkpoint(engine, tmp_path / "fresh.npz"))
        assert restored.count == 0
        with pytest.raises(RuntimeError):
            _ = restored.consensus

    def test_restore_validates_expected_config(self, tmp_path):
        matrix = generate_votes(n=30, rng=2).label_matrix()
        engine = StreamingAggregator(matrix.shape[0], p=0.5, decay=0.95)
        engine.observe_many(matrix[:, :4])
        path = save_checkpoint(engine, tmp_path / "ck.npz")

        restored = load_checkpoint(path, n=30, p=0.5, missing="coin-flip", decay=0.95)
        assert restored.count == engine.count

        with pytest.raises(ValueError, match="checkpoint covers 30 objects but 31"):
            load_checkpoint(path, n=31)
        with pytest.raises(ValueError, match="p=0.5 but p=0.3"):
            load_checkpoint(path, p=0.3)
        with pytest.raises(ValueError, match="missing='coin-flip' but missing='average'"):
            load_checkpoint(path, missing="average")
        with pytest.raises(ValueError, match="decay=0.95 but decay=1.0"):
            load_checkpoint(path, decay=1.0)

    def test_restore_without_expectations_is_unchecked(self, tmp_path):
        engine = StreamingAggregator(8, decay=0.7)
        path = save_checkpoint(engine, tmp_path / "ck.npz")
        # No expectations given: the checkpoint's own config wins.
        assert load_checkpoint(path).incremental.decay == 0.7

    def test_version_mismatch_rejected(self, tmp_path):
        import json

        engine = StreamingAggregator(5)
        engine.observe(np.array([0, 0, 1, 1, -1]))
        path = save_checkpoint(engine, tmp_path / "ck.npz")
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        # Version 1 archives held coin-flip separation terms, not counts;
        # reading them as counts would silently shift every distance.
        for version in (1, 999):
            meta["version"] = version
            arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
            np.savez_compressed(path, **arrays)
            with pytest.raises(ValueError, match="unsupported checkpoint version"):
                load_checkpoint(path)


class TestEffectiveWeight:
    def test_disagreements_uses_effective_weight_under_decay(self):
        matrix = generate_votes(n=40, rng=0).label_matrix()
        engine = StreamingAggregator(matrix.shape[0], decay=0.8, rng=0)
        updates = engine.observe_many(matrix[:, :6])
        weight = engine.incremental.effective_m
        assert weight < engine.count  # decay strictly shrinks the total mass
        assert engine.disagreements() == pytest.approx(weight * engine.cost())
        assert updates[-1].disagreements == pytest.approx(weight * updates[-1].cost)

    def test_restore_adopts_accumulators_without_fresh_allocation(self, monkeypatch):
        # Regression: from_state used to run __init__, allocating zeroed
        # O(n²) matrices only to overwrite them with the checkpointed
        # accumulators.  The restore path must never construct a fresh
        # instance at all.
        matrix = generate_votes(n=30, rng=0).label_matrix()
        engine = StreamingAggregator(matrix.shape[0], rng=1)
        engine.observe_many(matrix[:, :3])
        state = engine.state()

        def boom(self, *args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("restore must adopt accumulators, not allocate")

        monkeypatch.setattr(IncrementalCorrelationInstance, "__init__", boom)
        restored = StreamingAggregator.from_state(state)
        assert restored.count == engine.count
        assert restored.consensus == engine.consensus
        np.testing.assert_array_equal(
            restored.incremental.distances(), engine.incremental.distances()
        )

    def test_adopted_instance_validated(self):
        incremental = IncrementalCorrelationInstance(8, decay=0.9)
        engine = StreamingAggregator(8, incremental=incremental)
        assert engine.incremental is incremental
        with pytest.raises(ValueError, match="covers"):
            StreamingAggregator(9, incremental=incremental)
        with pytest.raises(ValueError, match="adopted instance"):
            StreamingAggregator(8, decay=0.5, incremental=incremental)


class TestLocalSearchDetails:
    def test_details_reported(self):
        matrix = generate_votes(n=60, rng=0).label_matrix()
        instance = CorrelationInstance.from_label_matrix(matrix)
        clustering, details = local_search(instance, return_details=True)
        assert details.sweeps >= 1
        assert details.moves > 0
        assert clustering.n == matrix.shape[0]

    def test_warm_start_at_optimum_makes_no_moves(self):
        matrix = generate_votes(n=60, rng=0).label_matrix()
        instance = CorrelationInstance.from_label_matrix(matrix)
        optimum = local_search(instance)
        again, details = local_search(instance, initial=optimum, return_details=True)
        assert details.moves == 0
        assert details.sweeps == 1
        assert again == optimum
