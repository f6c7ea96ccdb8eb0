"""Unit tests for the persistence layer."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.datasets.citypulse import generate_citypulse
from repro.errors import LedgerError
from repro.estimators.base import NodeData
from repro.io import (
    load_dataset_values,
    load_ledger,
    load_samples,
    save_dataset_values,
    save_ledger,
    save_samples,
)
from repro.pricing.ledger import BillingLedger


class TestSamplesRoundTrip:
    def test_round_trip(self, tmp_path, rng):
        nodes = [
            NodeData(node_id=i + 1, values=rng.uniform(0, 10, 50))
            for i in range(3)
        ]
        samples = [n.sample(0.4, rng) for n in nodes]
        path = tmp_path / "samples.json"
        save_samples(path, samples)
        loaded = load_samples(path)
        assert len(loaded) == 3
        for original, restored in zip(samples, loaded):
            assert restored.node_id == original.node_id
            assert restored.node_size == original.node_size
            assert restored.p == original.p
            assert np.array_equal(restored.values, original.values)
            assert np.array_equal(restored.ranks, original.ranks)

    def test_loaded_samples_feed_the_estimator(self, tmp_path, rng):
        from repro.estimators.rank import RankCountingEstimator

        nodes = [
            NodeData(node_id=i + 1, values=rng.uniform(0, 10, 100))
            for i in range(2)
        ]
        samples = [n.sample(1.0, rng) for n in nodes]
        path = tmp_path / "samples.json"
        save_samples(path, samples)
        result = RankCountingEstimator().estimate(load_samples(path), 2.0, 8.0)
        truth = sum(n.exact_count(2.0, 8.0) for n in nodes)
        assert result.estimate == pytest.approx(truth)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "other", "version": 1}))
        with pytest.raises(ValueError):
            load_samples(path)

    def test_wrong_version_rejected(self, tmp_path, rng):
        node = NodeData(node_id=1, values=rng.uniform(0, 1, 10))
        path = tmp_path / "samples.json"
        save_samples(path, [node.sample(0.5, rng)])
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_samples(path)


class TestDatasetRoundTrip:
    def test_round_trip(self, tmp_path):
        data = generate_citypulse(record_count=200, seed=4)
        path = tmp_path / "dataset.json"
        save_dataset_values(path, data)
        columns = load_dataset_values(path)
        assert set(columns) == set(data.indexes)
        for name in data.indexes:
            assert np.allclose(columns[name], data.values(name))

    def test_human_inspectable(self, tmp_path):
        data = generate_citypulse(record_count=10, seed=4)
        path = tmp_path / "dataset.json"
        save_dataset_values(path, data)
        payload = json.loads(path.read_text())
        assert payload["record_count"] == 10
        assert payload["seed"] == 4


class TestLedgerRoundTrip:
    def test_round_trip(self, tmp_path):
        ledger = BillingLedger()
        ledger.record("alice", "ozone", 0.1, 0.5, 10.0, 0.01)
        ledger.record("bob", "no2", 0.2, 0.6, 5.0, 0.02)
        path = tmp_path / "ledger.json"
        save_ledger(path, ledger)
        loaded = load_ledger(path)
        assert loaded.transactions == ledger.transactions
        assert loaded.total_revenue() == pytest.approx(15.0)

    def test_ids_continue_after_load(self, tmp_path):
        ledger = BillingLedger()
        ledger.record("alice", "ozone", 0.1, 0.5, 10.0, 0.01)
        path = tmp_path / "ledger.json"
        save_ledger(path, ledger)
        loaded = load_ledger(path)
        txn = loaded.record("carol", "ozone", 0.3, 0.4, 1.0, 0.005)
        assert txn.transaction_id == 2

    def test_empty_ledger(self, tmp_path):
        path = tmp_path / "ledger.json"
        save_ledger(path, BillingLedger())
        assert len(load_ledger(path)) == 0

    @pytest.mark.parametrize("ids", [[2], [1, 3], [2, 1], [1, 1]])
    def test_ids_not_one_to_n_are_refused(self, tmp_path, ids):
        ledger = BillingLedger()
        for _ in ids:
            ledger.record("alice", "ozone", 0.1, 0.5, 10.0, 0.01)
        path = tmp_path / "ledger.json"
        save_ledger(path, ledger)
        payload = json.loads(path.read_text())
        for entry, txn_id in zip(payload["transactions"], ids):
            entry["transaction_id"] = txn_id
        path.write_text(json.dumps(payload))
        with pytest.raises(LedgerError, match="must run 1, 2, 3"):
            load_ledger(path)
