"""Multi-station federation: sharded fleets, scatter-gather, failover.

The paper's system model routes every device through *one* base station.
:mod:`repro.cluster` lifts that bottleneck: the fleet is partitioned
across ``s`` independent :class:`~repro.iot.base_station.BaseStation`
shards (any :mod:`repro.datasets.partition` strategy), collection rounds
run on all shards concurrently, and a :class:`ClusterBroker` answers
``(α, δ)`` queries by routing each range over the shard bands, pooling
the touched shards' samples into one RankCounting estimate, drawing one
Laplace noise per query, and settling the :class:`ClusterAnswer` once
through the settlement kernel (:mod:`repro.core.settlement`).

Key invariants (tested):

* **Equivalence** -- a loss-free cluster whose route touches every shard
  (one shard, or an even partition) is bit-identical to the plain
  broker path over the same fleet, answers and books.
* **One set of books** -- the cluster keeps the only
  :class:`~repro.pricing.ledger.BillingLedger` and
  :class:`~repro.privacy.budget.BudgetAccountant`, with exactly one
  entry per query; shards keep no books and draw no noise.  Zero drift
  versus the serial expectation.
* **Failover** -- each shard can carry a replica station mirrored from
  the primary's collection rounds; a dead primary mid-gather re-routes
  to the replica and degrades the answer's reported δ instead of
  erroring.

See ``docs/CLUSTER.md``.
"""

from repro.cluster.broker import ClusterAnswer, ClusterBroker
from repro.cluster.health import FailoverEvent, ShardHealthMonitor
from repro.cluster.shard import ShardRuntime, build_shards

__all__ = [
    "ClusterAnswer",
    "ClusterBroker",
    "FailoverEvent",
    "ShardHealthMonitor",
    "ShardRuntime",
    "build_shards",
]
