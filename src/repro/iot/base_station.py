"""The base station: sample store, collection rounds, top-up protocol.

Section II-A: devices send samples of their local data to the base station,
which stores the global sample ``S`` and "opens the data access API to data
brokers".  :class:`BaseStation` drives the collection protocol over the
simulated network, merges incremental shipments, and serves the stored
per-node samples to the broker layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import DeliveryError, InsufficientSamplesError
from repro.estimators.base import NodeSample
from repro.estimators.rank import RankIndex
from repro.iot.device import SmartDevice
from repro.iot.messages import Heartbeat, SampleReport, SampleRequest, TopUpRequest
from repro.iot.network import Network
from repro.iot.topology import BASE_STATION_ID

if TYPE_CHECKING:  # pragma: no cover - types only, avoids an import cycle
    from repro.iot.heartbeat import HeartbeatService

__all__ = ["BaseStation"]

ShipmentMessage = Union[SampleReport, Heartbeat]


@dataclass
class BaseStation:
    """Coordinates sampling over the network and stores the global sample.

    Parameters
    ----------
    network:
        Transport used for requests and shipments (costs are metered there).
    devices:
        The fleet, keyed by device id.  In a physical deployment these are
        remote; here the station holds direct references but all protocol
        traffic still crosses the simulated network.
    """

    network: Network
    devices: Dict[int, SmartDevice] = field(default_factory=dict)
    liveness: "Optional[HeartbeatService]" = None

    def __post_init__(self) -> None:
        self._store: Dict[int, NodeSample] = {}
        self._rate: float = 0.0
        self._last_round_skipped: Tuple[int, ...] = ()
        # Cached node-id-ordered view of the store and its rank index,
        # plus a version counter so broker-side caches can detect
        # staleness.  Invalidated whenever a collection round commits (see
        # :meth:`_commit`).
        self._samples_cache: "Optional[tuple[NodeSample, ...]]" = None
        self._rank_index: "Optional[RankIndex]" = None
        self._store_version: int = 0
        self._commit_listeners: "List[Callable[[int], None]]" = []

    # ------------------------------------------------------------------
    # fleet management
    # ------------------------------------------------------------------
    def register(self, device: SmartDevice) -> None:
        """Add a device to the fleet."""
        if device.node_id in self.devices:
            raise ValueError(f"device {device.node_id} already registered")
        if not self.network.topology.contains(device.node_id):
            raise ValueError(
                f"device {device.node_id} is not part of the network topology"
            )
        self.devices[device.node_id] = device

    @property
    def k(self) -> int:
        """Number of registered devices (the paper's ``k``)."""
        return len(self.devices)

    @property
    def n(self) -> int:
        """Total records across the fleet (the paper's ``n``)."""
        return sum(d.size for d in self.devices.values())

    @property
    def sampling_rate(self) -> float:
        """The rate ``p`` of the currently stored global sample."""
        return self._rate

    @property
    def store_version(self) -> int:
        """Monotone counter bumped every time the stored sample changes.

        Consumers that cache anything derived from :meth:`samples` (the
        broker's batch planner, for example) key their caches on this
        value instead of re-reading the store.
        """
        return self._store_version

    def subscribe_commits(self, callback: "Callable[[int], None]") -> None:
        """Call ``callback(new_store_version)`` after every committed round.

        This is the push side of the ``store_version`` invalidation
        contract: derived caches (the serving layer's answer cache, for
        one) register here to purge stale state the moment the stored
        sample changes, instead of discovering it lazily on lookup.
        """
        self._commit_listeners.append(callback)

    def _commit(self, staged: Dict[int, NodeSample], rate: float) -> None:
        """Atomically install a completed round and invalidate caches."""
        self._store = staged
        self._rate = rate
        self._samples_cache = None
        self._rank_index = None
        self._store_version += 1
        for callback in self._commit_listeners:
            callback(self._store_version)

    # ------------------------------------------------------------------
    # collection protocol
    # ------------------------------------------------------------------
    def _receive(
        self,
        store: Dict[int, NodeSample],
        shipment: ShipmentMessage,
        merge: bool = False,
    ) -> None:
        """Write a shipment into ``store``; ``merge`` = top-up increment."""
        node_id = shipment.sender
        incoming_values = np.asarray(shipment.values, dtype=np.float64)
        incoming_ranks = np.asarray(shipment.ranks, dtype=np.int64)
        existing = store.get(node_id)
        if merge and existing is not None:
            merged_ranks = np.concatenate([existing.ranks, incoming_ranks])
            merged_values = np.concatenate([existing.values, incoming_values])
            order = np.argsort(merged_ranks, kind="stable")
            merged_ranks = merged_ranks[order]
            merged_values = merged_values[order]
        else:
            merged_values, merged_ranks = incoming_values, incoming_ranks
        store[node_id] = NodeSample(
            node_id=node_id,
            values=merged_values,
            ranks=merged_ranks,
            node_size=shipment.node_size,
            p=shipment.p,
        )

    def _device_live(self, node_id: int) -> bool:
        """Whether the liveness service (if any) considers a device alive.

        With no bound :class:`~repro.iot.heartbeat.HeartbeatService`, or
        for devices it does not track, every device is presumed alive
        (the pre-liveness behaviour).
        """
        if self.liveness is None or not self.liveness.is_tracked(node_id):
            return True
        return self.liveness.is_alive(node_id)

    def _probe_skipped(self, node_id: int, p: float) -> None:
        """Send one metered retry probe to a device skipped as dead.

        The probe is a real :class:`SampleRequest` on the air (the radio
        pays for it either way); a delivery failure just confirms the
        liveness verdict and the round moves on instead of stalling.
        """
        request = SampleRequest(sender=BASE_STATION_ID, receiver=node_id, p=p)
        try:
            self.network.send(request)
        except DeliveryError:
            pass

    @property
    def last_round_skipped(self) -> Tuple[int, ...]:
        """Device ids skipped as dead during the most recent round."""
        return self._last_round_skipped

    def collect(self, p: float) -> None:
        """Run a fresh collection round at rate ``p`` across the fleet.

        The round is transactional: the stored sample and rate change only
        when *every* device's shipment arrives, so a mid-round
        :class:`~repro.errors.DeliveryError` never leaves a partial store
        masquerading as a complete one.

        When a :class:`~repro.iot.heartbeat.HeartbeatService` is bound via
        ``liveness``, devices it reports dead are skipped (after one
        metered retry probe) so a failed device degrades coverage instead
        of stalling the round.  Skipped ids land in
        :attr:`last_round_skipped`.
        """
        if not 0.0 < p <= 1.0:
            raise ValueError(f"sampling rate must be in (0, 1], got {p}")
        if not self.devices:
            raise ValueError("no devices registered")
        staged: Dict[int, NodeSample] = {}
        skipped: List[int] = []
        for node_id, device in sorted(self.devices.items()):
            if not self._device_live(node_id):
                self._probe_skipped(node_id, p)
                skipped.append(node_id)
                continue
            request = SampleRequest(
                sender=BASE_STATION_ID, receiver=node_id, p=p
            )
            self.network.send(request)
            shipment = device.handle(request)
            self.network.send(shipment)
            self._receive(staged, shipment)
        if not staged:
            raise InsufficientSamplesError(
                "every registered device failed its liveness check; "
                "no samples collected"
            )
        self._last_round_skipped = tuple(skipped)
        self._commit(staged, p)

    def top_up(self, new_p: float) -> None:
        """Raise the stored sample's rate to ``new_p`` incrementally.

        Transactional like :meth:`collect`: increments are staged against a
        copy and committed only after the whole round succeeds.
        """
        if not self._store:
            self.collect(new_p)
            return
        if new_p < self._rate:
            raise ValueError(
                f"cannot reduce the sampling rate from {self._rate} to {new_p}"
            )
        if abs(new_p - self._rate) < 1e-15:
            return
        staged = dict(self._store)
        skipped: List[int] = []
        for node_id, device in sorted(self.devices.items()):
            if not self._device_live(node_id):
                # A skipped node keeps its stale (lower-rate) sample; the
                # per-node ``p`` on the NodeSample keeps estimation honest.
                self._probe_skipped(node_id, new_p)
                skipped.append(node_id)
                continue
            request = TopUpRequest(
                sender=BASE_STATION_ID,
                receiver=node_id,
                old_p=self._rate,
                new_p=new_p,
            )
            self.network.send(request)
            shipment = device.handle(request)
            self.network.send(shipment)
            self._receive(staged, shipment, merge=True)
        self._last_round_skipped = tuple(skipped)
        self._commit(staged, new_p)

    def ensure_rate(self, p: float) -> None:
        """Make sure the stored sample is at least as dense as ``p``.

        A no-op when the current rate suffices; otherwise a top-up (or an
        initial collection) runs.  This is the paper's accuracy-driven
        re-collection loop.
        """
        if not 0.0 < p <= 1.0:
            raise ValueError(f"sampling rate must be in (0, 1], got {p}")
        if self._rate >= p and self._store:
            return
        if self._store:
            self.top_up(p)
        else:
            self.collect(p)

    # ------------------------------------------------------------------
    # broker-facing API
    # ------------------------------------------------------------------
    def samples(self) -> List[NodeSample]:
        """The stored per-node samples, ordered by node id.

        The ordered view is built once per collection round and cached
        (each :class:`NodeSample` already holds contiguous value/rank
        arrays), so the broker's per-query calls stop re-sorting and
        rebuilding the list.  Callers get a fresh list shell over the
        shared, immutable-by-convention samples.

        Raises
        ------
        InsufficientSamplesError
            If no collection round has run yet.
        """
        return list(self._ordered_samples())

    def rank_index(self) -> RankIndex:
        """The stored samples as one :class:`RankIndex`, built once per round.

        The broker's ``estimate_many`` reads it in place of the sample
        list; like :meth:`samples` it is rebuilt only after a round
        commits.

        Raises
        ------
        InsufficientSamplesError
            If no collection round has run yet.
        """
        index = self._rank_index
        if index is None:
            samples = self._ordered_samples()
            index = RankIndex(samples)
            # Cache it unless a commit cleared the samples during the build.
            if samples is self._samples_cache:
                self._rank_index = index
        return index

    def _ordered_samples(self) -> "tuple[NodeSample, ...]":
        if not self._store:
            raise InsufficientSamplesError(
                "no samples collected yet; call collect() first"
            )
        if self._samples_cache is None:
            self._samples_cache = tuple(
                self._store[node_id] for node_id in sorted(self._store)
            )
        return self._samples_cache

    def sample_volume(self) -> int:
        """Total ``(value, rank)`` pairs currently stored."""
        return sum(len(s) for s in self._store.values())

    # ------------------------------------------------------------------
    # replica sync (cluster layer)
    # ------------------------------------------------------------------
    def export_store(self) -> "tuple[Dict[int, NodeSample], float]":
        """Snapshot of the committed store and its rate, for replica sync.

        The dict shell is a copy; the :class:`NodeSample` payloads are the
        shared, immutable-by-convention objects.
        """
        return dict(self._store), self._rate

    def sync_from(self, other: "BaseStation") -> None:
        """Adopt another station's committed store (replica mirroring).

        Used by :mod:`repro.cluster` to keep a shard's replica station fed
        from the primary's collection rounds without a second pass over
        the radio.  Commits through the normal transactional path, so the
        replica's ``store_version`` bumps and its commit listeners fire.
        A primary with no committed round yet is a no-op.
        """
        store, rate = other.export_store()
        if not store:
            return
        self._commit(store, rate)
