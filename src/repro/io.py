"""Persistence: save/load datasets, samples, and ledgers as JSON artifacts.

A broker deployment outlives single processes: collected samples are the
asset being monetized, ledgers are the audit trail, and the surrogate
dataset must be shareable between the collection and analysis sides.  This
module provides explicit, versioned JSON serialization for those objects
-- human-inspectable, diff-able, and free of pickle's code-execution
hazards.

Formats carry a ``"format"`` tag and a ``"version"`` integer so future
revisions can migrate; loaders reject unknown tags loudly.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Union

import numpy as np

from repro.datasets.citypulse import AIR_QUALITY_INDEXES, CityPulseDataset
from repro.errors import LedgerError
from repro.estimators.base import NodeSample
from repro.pricing.ledger import BillingLedger

__all__ = [
    "save_samples",
    "load_samples",
    "save_dataset_values",
    "load_dataset_values",
    "save_ledger",
    "load_ledger",
]

PathLike = Union[str, pathlib.Path]

_SAMPLES_FORMAT = "repro.samples"
_VALUES_FORMAT = "repro.dataset-values"
_LEDGER_FORMAT = "repro.ledger"
_VERSION = 1


def _write(path: PathLike, payload: dict) -> None:
    pathlib.Path(path).write_text(json.dumps(payload, indent=1))


def _read(path: PathLike, expected_format: str) -> dict:
    payload = json.loads(pathlib.Path(path).read_text())
    if payload.get("format") != expected_format:
        raise ValueError(
            f"{path}: expected format {expected_format!r}, "
            f"found {payload.get('format')!r}"
        )
    if payload.get("version") != _VERSION:
        raise ValueError(
            f"{path}: unsupported version {payload.get('version')!r}"
        )
    return payload


# ----------------------------------------------------------------------
# per-node samples
# ----------------------------------------------------------------------
def save_samples(path: PathLike, samples: List[NodeSample]) -> None:
    """Persist a base station's per-node samples."""
    payload = {
        "format": _SAMPLES_FORMAT,
        "version": _VERSION,
        "samples": [
            {
                "node_id": int(s.node_id),
                "values": [float(v) for v in s.values],
                "ranks": [int(r) for r in s.ranks],
                "node_size": int(s.node_size),
                "p": float(s.p),
            }
            for s in samples
        ],
    }
    _write(path, payload)


def load_samples(path: PathLike) -> List[NodeSample]:
    """Load per-node samples saved by :func:`save_samples`."""
    payload = _read(path, _SAMPLES_FORMAT)
    return [
        NodeSample(
            node_id=entry["node_id"],
            values=np.asarray(entry["values"], dtype=np.float64),
            ranks=np.asarray(entry["ranks"], dtype=np.int64),
            node_size=entry["node_size"],
            p=entry["p"],
        )
        for entry in payload["samples"]
    ]


# ----------------------------------------------------------------------
# dataset value columns
# ----------------------------------------------------------------------
def save_dataset_values(path: PathLike, data: CityPulseDataset) -> None:
    """Persist a dataset's value columns (timestamps are regenerable)."""
    payload = {
        "format": _VALUES_FORMAT,
        "version": _VERSION,
        "seed": int(data.seed),
        "record_count": len(data),
        "columns": {
            name: [float(v) for v in data.values(name)]
            for name in data.indexes
        },
    }
    _write(path, payload)


def load_dataset_values(path: PathLike) -> Dict[str, np.ndarray]:
    """Load the value columns saved by :func:`save_dataset_values`."""
    payload = _read(path, _VALUES_FORMAT)
    return {
        name: np.asarray(column, dtype=np.float64)
        for name, column in payload["columns"].items()
    }


# ----------------------------------------------------------------------
# billing ledger
# ----------------------------------------------------------------------
def save_ledger(path: PathLike, ledger: BillingLedger) -> None:
    """Persist a billing ledger's transactions."""
    payload = {
        "format": _LEDGER_FORMAT,
        "version": _VERSION,
        "transactions": [
            {
                "transaction_id": t.transaction_id,
                "consumer": t.consumer,
                "dataset": t.dataset,
                "alpha": t.alpha,
                "delta": t.delta,
                "price": t.price,
                "epsilon_prime": t.epsilon_prime,
            }
            for t in ledger.transactions
        ],
    }
    _write(path, payload)


def load_ledger(path: PathLike) -> BillingLedger:
    """Rebuild a billing ledger saved by :func:`save_ledger`.

    The sales are recorded again, in order, so their ids must run 1, 2,
    3, ... as the ledger assigns them (:class:`~repro.errors.LedgerError`
    otherwise); new sales recorded afterwards continue from the last.
    """
    payload = _read(path, _LEDGER_FORMAT)
    transactions = list(payload["transactions"])
    ids = [entry["transaction_id"] for entry in transactions]
    if ids != list(range(1, len(ids) + 1)):
        raise LedgerError(
            f"{path}: transaction ids must run 1, 2, 3, ...; got {ids[:8]}"
        )
    ledger = BillingLedger()
    ledger.record_many(transactions)
    return ledger
