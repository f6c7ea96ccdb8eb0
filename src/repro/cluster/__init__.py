"""Multi-station federation: sharded fleets, scatter-gather, failover.

The paper's system model routes every device through *one* base station.
:mod:`repro.cluster` lifts that bottleneck: the fleet is partitioned
across ``s`` independent :class:`~repro.iot.base_station.BaseStation`
shards (any :mod:`repro.datasets.partition` strategy), collection rounds
run on all shards concurrently, and a :class:`ClusterBroker` answers
``(α, δ)`` queries by scatter-gathering per-shard estimate-plus-noise
lanes (:meth:`~repro.core.broker.DataBroker.draw_batch`), merging the
noised per-shard counts into one :class:`ClusterAnswer`, and settling it
once through the settlement kernel (:mod:`repro.core.settlement`).

Key invariants (tested):

* **Equivalence** -- with one shard and loss-free channels the cluster
  path is bit-identical to the plain broker path, answers and books.
* **One set of books** -- the cluster keeps the only
  :class:`~repro.pricing.ledger.BillingLedger` and
  :class:`~repro.privacy.budget.BudgetAccountant`, with exactly one
  consolidated entry per query; shards keep no books.  Zero drift
  versus the serial expectation.
* **Failover** -- each shard can carry a replica station mirrored from
  the primary's collection rounds; a dead primary mid-gather re-routes
  to the replica and degrades the answer's reported δ instead of
  erroring.

See ``docs/CLUSTER.md``.
"""

from repro.cluster.broker import ClusterAnswer, ClusterBroker
from repro.cluster.health import FailoverEvent, ShardHealthMonitor
from repro.cluster.planning import merge_plans, split_spec
from repro.cluster.shard import ShardRuntime, build_shards

__all__ = [
    "ClusterAnswer",
    "ClusterBroker",
    "FailoverEvent",
    "ShardHealthMonitor",
    "ShardRuntime",
    "build_shards",
    "merge_plans",
    "split_spec",
]
