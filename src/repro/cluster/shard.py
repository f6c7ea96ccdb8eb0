"""Shard runtimes: one primary (plus optional replica) station per shard.

:func:`build_shards` partitions a raw value column over ``k`` devices
(any :mod:`repro.datasets.partition` strategy), groups the devices into
``s`` contiguous shards with *global* node ids, and stands up one
independent stack per shard -- topology, lossy channel, network, base
station, pricing sheet calibrated to the shard's ``n_i``, and a
:class:`~repro.core.broker.DataBroker`.

Seeding is arranged so the cluster samples exactly what
:meth:`~repro.core.service.PrivateRangeCountingService.from_values`
samples with the same seed: shard 0's channel rng is
``default_rng(seed)``, and every device keeps the global
``default_rng(seed * 100_003 + node_id)`` stream.  The shard brokers
only hold their stations: the coordinator estimates, draws the noise and
keeps the books, so their ``estimator``, ``rng`` and books go unused.

A replica station shares the shard's devices but talks over its *own*
network (its own channel randomness), and mirrors the primary's store
through :meth:`~repro.iot.base_station.BaseStation.sync_from` on every
committed round -- so failover answers come from the same collected
sample.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.broker import DataBroker
from repro.datasets.partition import (
    ShardBand,
    ShardBounds,
    partition_dirichlet,
    partition_even,
    partition_range_sharded,
    partition_round_robin,
)
from repro.errors import ClusterError, DeliveryError, ShardUnavailableError
from repro.estimators.base import NodeData, NodeSample
from repro.iot.base_station import BaseStation
from repro.iot.channel import Channel
from repro.iot.device import SmartDevice
from repro.iot.network import Network
from repro.iot.runtime import EventScheduler
from repro.iot.topology import FlatTopology
from repro.pricing.functions import InverseVariancePricing
from repro.pricing.variance_model import VarianceModel
from repro.resilience.hedging import HedgeLostRace

__all__ = ["SampleRead", "ShardRuntime", "build_shards", "PARTITION_STRATEGIES"]

# Seed offsets separating the independent rng streams of a shard's
# components; large odd constants so streams of neighbouring shards and
# the device streams (seed * 100_003 + node_id) never collide.
_SHARD_STRIDE = 1_000_003
_REPLICA_NET_OFFSET = 700_001


def _partition_wrapper(fn: "Callable[..., list]", needs_seed: bool):
    """Wrap a partition fn to ``(parts, bounds)`` with full-domain bounds.

    Strategies that spread values arbitrarily cannot certify per-node value
    bands, so the planner gets the sound "could hold anything" degradation
    and routing falls back to the broadcast scatter.
    """

    def apply(
        values: np.ndarray, k: int, seed: int
    ) -> "Tuple[list[np.ndarray], ShardBounds]":
        if needs_seed:
            parts = fn(values, k, seed=seed)
        else:
            parts = fn(values, k)
        return parts, ShardBounds.full_domain(k)

    return apply


def _partition_range_sharded_bounded(
    values: np.ndarray, k: int, seed: int
) -> "Tuple[list[np.ndarray], ShardBounds]":
    parts, bounds = partition_range_sharded(values, k, with_bounds=True)
    return parts, bounds


#: Partition strategies accepted by :func:`build_shards` (and the CLI).
#: Each maps ``(values, k, seed) -> (per-node arrays, ShardBounds)``; only
#: range-sharded yields tight bands, the rest degrade to the full domain.
PARTITION_STRATEGIES = {
    "even": _partition_wrapper(partition_even, needs_seed=False),
    "round-robin": _partition_wrapper(partition_round_robin, needs_seed=False),
    "dirichlet": _partition_wrapper(partition_dirichlet, needs_seed=True),
    "range-sharded": _partition_range_sharded_bounded,
}


class SampleRead(NamedTuple):
    """One shard sample read: what the coordinator pools and keys on.

    ``(shard, replica, store_version)`` names the sample set exactly: a
    station's store changes only by a commit, which bumps its version.
    """

    samples: List[NodeSample]
    #: Whether the replica station served the read (a degraded answer).
    replica: bool
    #: The serving station's ``store_version`` at the read.
    store_version: int


@dataclass
class ShardRuntime:
    """One shard of the federation: primary broker, optional replica.

    A shard is a group of the fleet's base stations.  The
    :class:`~repro.cluster.broker.ClusterBroker` reads its samples
    (:meth:`read_samples`), pools them with the other touched shards',
    plans and draws the noise once, and settles every answer in its own
    journal, policy, accountant and ledger; the shard brokers keep no
    books and draw no noise.
    """

    shard_id: int
    primary: DataBroker
    replica: Optional[DataBroker] = None
    scheduler: EventScheduler = field(default_factory=EventScheduler)
    device_ids: Tuple[int, ...] = ()
    primary_alive: bool = True
    #: Closed value interval this shard's records are known to live in.
    #: Tight only under range-sharded partitioning; full domain otherwise.
    #: Valid for the life of the shard because device data placement is
    #: immutable after :func:`build_shards` -- collection rounds re-sample
    #: the same per-node values, they never migrate records across shards.
    band: ShardBand = field(default_factory=ShardBand.full_domain)
    #: ``primary.base_station.store_version`` at the moment the band was
    #: computed; routing decisions key their cache on the *current* store
    #: version, which can only be >= this.
    band_version: int = 0
    #: Chaos knob: seconds of ingress latency injected ahead of every
    #: *gated* answer attempt (``slow_shard`` fault).  Models a limping
    #: shard whose default service path is congested; the bypass lane
    #: (open breaker, hedge retry) skips the queue but runs the very
    #: same broker, so injected latency never changes answers or books.
    injected_latency: float = 0.0

    @property
    def primary_station(self) -> BaseStation:
        return self.primary.base_station

    @property
    def replica_station(self) -> Optional[BaseStation]:
        return self.replica.base_station if self.replica is not None else None

    @property
    def k(self) -> int:
        """Device count of this shard."""
        return self.primary_station.k

    @property
    def n(self) -> int:
        """Record count of this shard."""
        return self.primary_station.n

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def active_broker(self) -> DataBroker:
        """The broker queries should route to right now."""
        if self.primary_alive:
            return self.primary
        if self.replica is None:
            raise ShardUnavailableError(
                f"shard {self.shard_id}: primary station is down and no "
                "replica is configured"
            )
        return self.replica

    def read_samples(
        self,
        *,
        gate: bool = True,
        cancel: "Optional[threading.Event]" = None,
    ) -> "SampleRead":
        """The active station's samples, which station served them, and its
        store version.

        The coordinator's gather lane: it only reads, draws no noise and
        touches no books, so two lanes racing for the same shard (a
        hedge) can both finish with no side effects.  ``gate=False``
        skips the injected ingress latency (the bypass / relief lane used
        by open breakers and hedge retries); ``cancel`` aborts a lane
        still waiting out the gate
        (:class:`~repro.resilience.hedging.HedgeLostRace`).
        """
        delay = self.injected_latency if gate else 0.0
        if delay > 0.0:
            if cancel is not None:
                if cancel.wait(delay):
                    raise HedgeLostRace(
                        f"shard {self.shard_id}: gated lane cancelled by a "
                        "winning hedge"
                    )
            else:
                time.sleep(delay)
        broker = self.active_broker()
        station = broker.base_station
        # Version first: a commit racing this read can only pair the old
        # version with the new samples, never a new version with old ones.
        version = station.store_version
        return SampleRead(station.samples(), broker is not self.primary, version)

    def ensure_rate(self, p: float) -> None:
        """Run (or top up to) a collection round on the active station.

        A primary whose radio died mid-round fails over to the replica
        (which runs the round over its own network); the aborted primary
        round was transactional, so no partial store is left behind.
        """
        if self.primary_alive:
            try:
                self.primary.base_station.ensure_rate(p)
                return
            except DeliveryError:
                self.primary_alive = False
        if self.replica is None:
            raise ShardUnavailableError(
                f"shard {self.shard_id}: primary station is down and no "
                "replica is configured"
            )
        self.replica.base_station.ensure_rate(p)

    def samples(self) -> "List[NodeSample]":
        """Stored per-node samples of the active station."""
        return self.active_broker().base_station.samples()

    @property
    def sampling_rate(self) -> float:
        return self.active_broker().base_station.sampling_rate

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def fail_primary(self) -> None:
        """Hard-kill the primary station (process death)."""
        self.primary_alive = False

    def revive_primary(self) -> None:
        """Bring the primary back; it re-syncs from the replica's store."""
        if not self.primary_alive:
            if self.replica is not None:
                self.primary_station.sync_from(self.replica.base_station)
            self.primary_alive = True

    def cut_primary_link(self) -> None:
        """Radio-level fault: the primary's channel loses every frame.

        Heartbeat beacons and collection rounds over the primary network
        start raising :class:`~repro.errors.DeliveryError`; query answers
        keep working until one needs the radio, which is exactly the
        "dead primary discovered mid-round" scenario.
        """
        self.primary_station.network.channel.loss_probability = 1.0

    def restore_primary_link(self, loss_probability: float = 0.0) -> None:
        """Undo :meth:`cut_primary_link`."""
        self.primary_station.network.channel.loss_probability = loss_probability


def build_shards(
    values: np.ndarray,
    k: int,
    shards: int,
    dataset: str = "default",
    seed: int = 7,
    base_price: float = 1.0,
    loss_probability: float = 0.0,
    partition: str = "even",
    replicas: bool = True,
) -> "List[ShardRuntime]":
    """Partition a value column over ``k`` devices in ``s`` shard stacks.

    Devices keep global node ids ``1..k`` and are grouped into shards in
    contiguous blocks (``numpy.array_split`` of the id range), so shard
    membership is stable across runs and the single-shard build is
    exactly the :meth:`from_values` fleet.

    Raises :class:`~repro.errors.ClusterError` when a shard would end up
    with zero devices or zero records (re-partition or lower ``shards``).
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        raise ClusterError("cannot build a cluster over an empty dataset")
    if shards <= 0:
        raise ClusterError("shards must be positive")
    if k < shards:
        raise ClusterError(
            f"cannot spread {k} devices across {shards} shards; "
            "need at least one device per shard"
        )
    try:
        strategy = PARTITION_STRATEGIES[partition]
    except KeyError:
        raise ClusterError(
            f"unknown partition strategy {partition!r}; choose one of "
            f"{sorted(PARTITION_STRATEGIES)}"
        ) from None

    node_values, node_bounds = strategy(values, k, seed)
    id_blocks = np.array_split(np.arange(1, k + 1), shards)

    runtimes: "List[ShardRuntime]" = []
    for shard_id, block in enumerate(id_blocks):
        device_ids = tuple(int(i) for i in block)
        shard_n = sum(len(node_values[i - 1]) for i in device_ids)
        if not device_ids or shard_n == 0:
            raise ClusterError(
                f"shard {shard_id} would hold {len(device_ids)} devices "
                f"and {shard_n} records under partition={partition!r}; "
                "every shard needs at least one device and one record"
            )
        topology = FlatTopology(device_ids=list(device_ids))
        primary_network = Network(
            topology=topology,
            channel=Channel(
                loss_probability=loss_probability,
                rng=np.random.default_rng(seed + shard_id * _SHARD_STRIDE),
            ),
        )
        primary_station = BaseStation(network=primary_network)
        devices: "Dict[int, SmartDevice]" = {}
        for node_id in device_ids:
            device = SmartDevice(
                node_id=node_id,
                data=NodeData(node_id=node_id, values=node_values[node_id - 1]),
                rng=np.random.default_rng(seed * 100_003 + node_id),
            )
            devices[node_id] = device
            primary_station.register(device)
        pricing = InverseVariancePricing(
            VarianceModel(n=shard_n), base_price=base_price
        )
        primary = DataBroker(
            base_station=primary_station, pricing=pricing, dataset=dataset
        )

        replica: Optional[DataBroker] = None
        if replicas:
            replica_network = Network(
                topology=FlatTopology(device_ids=list(device_ids)),
                channel=Channel(
                    loss_probability=loss_probability,
                    rng=np.random.default_rng(
                        seed + _REPLICA_NET_OFFSET + shard_id * _SHARD_STRIDE
                    ),
                ),
            )
            replica_station = BaseStation(network=replica_network)
            for node_id in device_ids:
                replica_station.register(devices[node_id])
            replica = DataBroker(
                base_station=replica_station, pricing=pricing, dataset=dataset
            )
            # Mirror every committed primary round into the replica so a
            # failover answers from the same collected sample.
            primary_station.subscribe_commits(
                lambda _version, src=primary_station, dst=replica_station:
                dst.sync_from(src)
            )

        runtimes.append(
            ShardRuntime(
                shard_id=shard_id,
                primary=primary,
                replica=replica,
                device_ids=device_ids,
                band=node_bounds.merged([i - 1 for i in device_ids]),
                band_version=primary_station.store_version,
            )
        )
    return runtimes
