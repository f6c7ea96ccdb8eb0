"""High-level facade: the whole trading stack behind one object.

:class:`PrivateRangeCountingService` assembles dataset partitioning, the
simulated IoT network, the base station, the broker, pricing and the
marketplace so that downstream users (and the examples/) get the paper's
end-to-end pipeline in a few lines:

>>> from repro import PrivateRangeCountingService
>>> from repro.datasets import generate_citypulse
>>> data = generate_citypulse()
>>> service = PrivateRangeCountingService.from_citypulse(data, "ozone", k=16)
>>> answer = service.answer(60.0, 100.0, alpha=0.1, delta=0.5)
>>> answer.value  # doctest: +SKIP
9214.3
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

import numpy as np

from repro.core.broker import DataBroker
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.core.settlement import post_record
from repro.core.trading import Marketplace
from repro.datasets.citypulse import CityPulseDataset
from repro.datasets.partition import partition_even
from repro.errors import PrivacyBudgetExceededError
from repro.estimators.base import NodeData
from repro.estimators.exact import SortedColumn
from repro.iot.base_station import BaseStation
from repro.iot.channel import Channel
from repro.iot.device import SmartDevice
from repro.iot.network import Network
from repro.iot.topology import FlatTopology
from repro.pricing.functions import InverseVariancePricing, PricingFunction
from repro.pricing.variance_model import VarianceModel
from repro.records import CHARGE, DispatchRecord

if TYPE_CHECKING:  # pragma: no cover - types only, avoids an import cycle
    from repro.serving.admission import AdmissionController
    from repro.serving.answer_cache import AnswerCache
    from repro.serving.gateway import ServingConfig, ServingGateway
    from repro.serving.telemetry import MetricsRegistry

__all__ = ["PrivateRangeCountingService"]


@dataclass
class PrivateRangeCountingService:
    """End-to-end facade over network, broker, pricing and marketplace."""

    broker: DataBroker
    market: Marketplace
    truth: SortedColumn

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_values(
        cls,
        values: np.ndarray,
        k: int = 16,
        dataset: str = "default",
        seed: int = 7,
        base_price: float = 1.0,
        pricing: Optional[PricingFunction] = None,
        loss_probability: float = 0.0,
        initial_rate: Optional[float] = None,
        shards: int = 1,
        partition: str = "even",
        replicas: bool = True,
    ) -> "PrivateRangeCountingService":
        """Build the full stack over a raw value column.

        Values are partitioned evenly over ``k`` simulated devices on a
        flat topology; pricing defaults to the arbitrage-avoiding
        inverse-variance sheet at ``base_price``.  When ``initial_rate`` is
        given, one collection round runs immediately; otherwise the broker
        collects lazily on the first query.

        With ``shards > 1`` the fleet is federated across that many
        independent base stations behind a scatter-gather
        :class:`~repro.cluster.broker.ClusterBroker` (see
        :mod:`repro.cluster` and ``docs/CLUSTER.md``); ``partition``
        picks the device-data partition strategy and ``replicas``
        controls per-shard failover stations.  ``shards=1`` keeps the
        plain single-station broker (bit-identical to earlier releases).
        """
        values = np.asarray(values, dtype=np.float64)
        if len(values) == 0:
            raise ValueError("cannot trade over an empty dataset")
        if shards > 1:
            if pricing is not None:
                raise ValueError(
                    "custom pricing is not supported with shards > 1; the "
                    "cluster calibrates per-shard and cluster-level sheets "
                    "itself"
                )
            from repro.cluster.broker import ClusterBroker

            cluster = ClusterBroker.from_values(
                values,
                k=k,
                shards=shards,
                dataset=dataset,
                seed=seed,
                base_price=base_price,
                loss_probability=loss_probability,
                partition=partition,
                replicas=replicas,
            )
            market = Marketplace(broker=cluster)
            service = cls(
                broker=cluster, market=market, truth=SortedColumn(values)
            )
            if initial_rate is not None:
                cluster.ensure_rate(initial_rate)
            return service
        shards = partition_even(values, k)
        topology = FlatTopology.with_devices(k)
        channel = Channel(
            loss_probability=loss_probability,
            rng=np.random.default_rng(seed),
        )
        network = Network(topology=topology, channel=channel)
        station = BaseStation(network=network)
        for node_id, shard in enumerate(shards, start=1):
            device = SmartDevice(
                node_id=node_id,
                data=NodeData(node_id=node_id, values=shard),
                rng=np.random.default_rng(seed * 100_003 + node_id),
            )
            station.register(device)
        if pricing is None:
            pricing = InverseVariancePricing(
                VarianceModel(n=len(values)), base_price=base_price
            )
        broker = DataBroker(
            base_station=station,
            pricing=pricing,
            dataset=dataset,
            rng=np.random.default_rng(seed + 1),
        )
        market = Marketplace(broker=broker)
        service = cls(broker=broker, market=market, truth=SortedColumn(values))
        if initial_rate is not None:
            station.collect(initial_rate)
        return service

    @classmethod
    def from_citypulse(
        cls,
        data: CityPulseDataset,
        index: str,
        k: int = 16,
        seed: int = 7,
        **kwargs,
    ) -> "PrivateRangeCountingService":
        """Build the stack over one air-quality index of a CityPulse dataset."""
        return cls.from_values(
            data.values(index), k=k, dataset=index, seed=seed, **kwargs
        )

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    @property
    def station(self) -> BaseStation:
        """The underlying base station."""
        return self.broker.base_station

    @property
    def network(self) -> Network:
        """The simulated network (cost meter lives on ``network.meter``)."""
        return self.station.network

    @property
    def n(self) -> int:
        """Total record count served."""
        return self.station.n

    @property
    def k(self) -> int:
        """Device count."""
        return self.station.k

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def collect(self, p: float) -> None:
        """Run (or top up to) a collection round at rate ``p``."""
        self.station.ensure_rate(p)

    def quote(self, alpha: float, delta: float) -> float:
        """List price of an ``(α, δ)`` product."""
        return self.broker.quote(AccuracySpec(alpha=alpha, delta=delta))

    def answer(
        self,
        low: float,
        high: float,
        alpha: float,
        delta: float,
        consumer: str = "anonymous",
    ) -> PrivateAnswer:
        """Purchase one private ``(α, δ)``-range counting."""
        query = RangeQuery(low=low, high=high, dataset=self.broker.dataset)
        spec = AccuracySpec(alpha=alpha, delta=delta)
        return self.broker.answer(query, spec, consumer=consumer)

    def answer_many(
        self,
        ranges: Sequence["tuple[float, float]"],
        alpha: float,
        delta: float,
        consumer: str = "anonymous",
    ) -> "list[PrivateAnswer]":
        """Purchase many ``(α, δ)``-range countings in one vectorized pass.

        Semantically identical to calling :meth:`answer` per range (each
        release is separately noised and separately charged) but served
        through :meth:`~repro.core.broker.DataBroker.answer_batch`, which
        plans once, estimates all ranges vectorized, and draws all noise
        in one call.
        """
        spec = AccuracySpec(alpha=alpha, delta=delta)
        queries = [
            RangeQuery(low=low, high=high, dataset=self.broker.dataset)
            for low, high in ranges
        ]
        return self.broker.answer_batch(queries, spec, consumer=consumer)

    def serve(
        self,
        config: "Optional[ServingConfig]" = None,
        telemetry: "Optional[MetricsRegistry]" = None,
        cache: "Optional[AnswerCache]" = None,
        admission: "Optional[AdmissionController]" = None,
    ) -> "ServingGateway":
        """Build a concurrent serving gateway over this service's broker.

        The gateway queues and coalesces concurrent requests into the
        vectorized batch path, replays repeat queries from a
        privacy-aware cache at zero extra ε, and sheds load before any
        data is touched.  Use as a context manager (workers stop and the
        queue drains on exit)::

            with service.serve() as gateway:
                future = gateway.submit_range(60, 100, 0.1, 0.5, "web")
                print(future.result().value)

        See :mod:`repro.serving` and ``docs/SERVING.md``.
        """
        from repro.serving.gateway import ServingGateway

        return ServingGateway(
            broker=self.broker,
            config=config,
            telemetry=telemetry,
            cache=cache,
            admission=admission,
        )

    def histogram(
        self,
        low: float,
        high: float,
        buckets: int,
        epsilon: float,
        min_rate: float = 0.1,
    ) -> "HistogramRelease":
        """Release a private equal-width histogram over ``[low, high]``.

        Buckets are disjoint, so parallel composition makes the whole
        histogram cost one bucket's amplified budget ε′, which is journaled
        and charged to the privacy accountant.  ``min_rate`` bounds the
        sample density used (a collection/top-up runs if the stored sample
        is sparser).
        """
        from repro.core.histogram import equal_width_edges, release_histogram
        from repro.privacy.composition import parallel_composition

        edges = equal_width_edges(low, high, buckets)
        self._refuse_unaffordable(
            parallel_composition([epsilon] * (len(edges) - 1)), min_rate
        )
        self.station.ensure_rate(min_rate)
        release = release_histogram(
            self.station.samples(), edges, epsilon, self.broker.rng
        )
        self._charge(
            release.epsilon_prime, f"histogram[{low},{high}]x{buckets}", low, high
        )
        return release

    def private_quantile(
        self,
        q: float,
        epsilon: float,
        min_rate: float = 0.1,
        probes: int = 16,
    ) -> "PrivateQuantileRelease":
        """Release the ``q``-quantile privately (noisy binary search).

        The search domain is the observed value span of the stored truth
        column; the amplified cost ε′ is journaled and charged to the
        accountant.
        """
        from repro.core.private_quantile import release_quantile

        self._refuse_unaffordable(epsilon, min_rate)
        self.station.ensure_rate(min_rate)
        domain = (float(self.truth.values[0]), float(self.truth.values[-1]))
        if domain[0] == domain[1]:
            domain = (domain[0] - 0.5, domain[1] + 0.5)
        release = release_quantile(
            self.station.samples(), q, epsilon, domain, self.broker.rng,
            probes=probes,
        )
        self._charge(release.epsilon_prime, f"quantile[{q}]", *domain)
        return release

    def _refuse_unaffordable(self, epsilon: float, min_rate: float) -> None:
        """Refuse a histogram or quantile the accountant cannot afford,
        before it tops the sample up or draws any noise.

        The release samples at ``max(rate, min_rate)`` (``ensure_rate``
        only ever raises the rate), so its amplified ε′ is known up front;
        a refused release leaves the broker's rng and the store untouched.
        Invalid arguments are left for the release itself to reject.
        """
        from repro.privacy.amplification import amplified_epsilon

        if not (epsilon > 0 and 0.0 < min_rate <= 1.0):
            return
        rate = max(self.station.sampling_rate, min_rate)
        self._check_affordable(amplified_epsilon(epsilon, rate))

    def _check_affordable(self, epsilon_prime: float) -> None:
        """Raise unless the accountant can afford ``epsilon_prime``."""
        broker = self.broker
        if not broker.accountant.can_afford(broker.dataset, epsilon_prime):
            raise PrivacyBudgetExceededError(
                f"dataset {broker.dataset!r}: a release at ε′={epsilon_prime:.6g} "
                f"would exceed capacity {broker.accountant.capacity:.6g} "
                f"(already spent {broker.accountant.spent(broker.dataset):.6g})"
            )

    def _charge(self, epsilon_prime: float, label: str, low: float, high: float) -> None:
        """Journal, then post, an ε′ spend made outside the trade path.

        One ``charge`` row (never billed, no purchase) down the trades'
        own write path: journal-before-charge, so a crash in between makes
        recovery over-count ε, never under-count it, then
        :func:`~repro.core.settlement.post_record`.  A charge the
        accountant would refuse journals nothing and raises
        :class:`~repro.errors.PrivacyBudgetExceededError`.
        """
        broker = self.broker
        self._check_affordable(epsilon_prime)
        record = DispatchRecord(
            kind=[CHARGE],
            consumer=[0],
            consumers=[""],
            dataset=[0],
            datasets=[broker.dataset],
            low=[low],
            high=[high],
            alpha=[0.0],
            delta=[0.0],
            epsilon_prime=[epsilon_prime],
            price=[0.0],
            store_version=[self.station.store_version],
            labels=[label],
        )
        broker.journal.append_many(record)
        post_record(broker, record)

    def estimate_quantile(self, q: float, min_rate: float = 0.1) -> float:
        """Broker-internal ``q``-quantile estimate from the stored sample.

        NOT a private release -- it returns a raw sampled value and is
        meant for the data owner's own calibration (e.g. choosing query
        bands); nothing is charged to the privacy accountant and nothing
        should be handed to consumers.
        """
        from repro.estimators.quantile import estimate_quantile

        self.station.ensure_rate(min_rate)
        return estimate_quantile(self.station.samples(), q)

    def true_count(self, low: float, high: float) -> int:
        """Ground-truth count (experiment harness only; never traded)."""
        return self.truth.count(low, high)

    def communication_report(self) -> Dict[str, int]:
        """Aggregate network-cost counters accumulated so far."""
        return self.network.meter.snapshot()

    def privacy_spent(self) -> float:
        """Cumulative ε′ charged against this service's dataset."""
        return self.broker.accountant.spent(self.broker.dataset)
