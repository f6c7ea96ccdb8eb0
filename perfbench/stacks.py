"""The three benchmark workloads: stack set-up, request plan, correctness gate.

Each workload builds the whole serving stack from its seed -- dataset,
devices, collection, broker, file-backed trade journal, gateway -- and
hands the closed-loop driver a fixed list of requests split into phases.
Everything a run measures is sized by request count, never by duration:
the accountant, ledger and journal grow with every trade, so only a fixed
count makes two runs do the same work.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import make_workload
from repro.cluster.bench import DEFAULT_TIERS, ROUTED_TIERS, make_routed_workload
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.datasets.citypulse import RECORD_COUNT, generate_citypulse
from repro.durability.journal import TradeJournal
from repro.iot.topology import BASE_STATION_ID
from repro.serving.gateway import ServingGateway
from repro.serving.loadgen import expected_accounting
from repro.streaming.bench import DEFAULT_TIERS as STREAM_TIERS
from repro.streaming.runtime import StreamingConfig, build_streaming_cluster

#: One request of the plan: the query, its ``(α, δ)`` tier, the buyer.
Request = Tuple[RangeQuery, AccuracySpec, str]

#: The air-quality index every workload trades.
INDEX = "ozone"

#: The traffic shape of the repository's own closed-loop load generator
#: (the ``repro.serving.loadgen.run_closed_loop`` defaults, which
#: ``repro loadgen`` and ``repro cluster-bench`` use; docs/SERVING.md):
#: 4 consumers, each keeping up to 16 requests in flight.
CONSUMERS = 4
PIPELINE_DEPTH = 16


def _same(observed: float, expected: float) -> bool:
    """Equal up to float summation order (books are summed in another order)."""
    return math.isclose(observed, expected, rel_tol=1e-12, abs_tol=1e-12)


def _uplink_bytes(networks) -> int:
    """Wire bytes every device sent to its base station."""
    total = 0
    for network in networks:
        for node_id in network.topology.node_ids():
            total += network.meter.link(node_id, BASE_STATION_ID).wire_bytes
    return total


@dataclass
class Stack:
    """A built workload: the running gateway plus what the gate needs."""

    gateway: ServingGateway
    journal: TradeJournal
    phases: List[List[Request]]
    #: Set-up stage timings (seconds) reported by the traced run.
    generate_s: float
    collect_s: float
    uplink: Callable[[], int]
    #: Called by the driver after every completion (streaming ingests here).
    on_completion: Optional[Callable[[], None]] = None
    #: Called by the driver after each phase has drained (streaming rolls).
    on_phase_end: Optional[Callable[[], None]] = None
    #: Shard primaries (cluster only), for the double-booking count.
    shard_brokers: Sequence[object] = ()
    #: The streaming cluster (streaming only); one phase per epoch.
    stream: Optional[object] = None

    @property
    def broker(self):
        return self.gateway.broker

    @property
    def requests(self) -> List[Request]:
        return [request for phase in self.phases for request in phase]

    def close(self) -> None:
        self.gateway.stop()
        self.journal.close()


def _citypulse(records: int, seed: int) -> Tuple[np.ndarray, float]:
    started = time.perf_counter()
    values = generate_citypulse(record_count=records, seed=seed).values(INDEX)
    return values, time.perf_counter() - started


def _assign(
    ranges: Sequence[Tuple[float, float]],
    tiers: Sequence[AccuracySpec],
    consumers: int,
) -> List[Request]:
    """Pair range ``i`` with tier ``i mod len(tiers)`` and buyer ``i mod consumers``."""
    return [
        (
            RangeQuery(low=low, high=high, dataset=INDEX),
            tiers[i % len(tiers)],
            f"buyer-{i % consumers}",
        )
        for i, (low, high) in enumerate(ranges)
    ]


def _attach_journal(broker, workdir: Path) -> TradeJournal:
    journal = TradeJournal(path=workdir / "trades.jsonl")
    broker.journal = journal
    return journal


@dataclass(frozen=True)
class FreshTrades:
    """Distinct ``(range, tier)`` requests against the plain broker.

    Every request takes the full release path; the answer cache only
    records misses.
    """

    records: int = RECORD_COUNT
    devices: int = 16
    requests: int = 3000
    consumers: int = CONSUMERS
    clients: int = CONSUMERS * PIPELINE_DEPTH
    name: str = "fresh_trades"

    def plan(self, seed: int) -> List[List[Request]]:
        values, _ = _citypulse(self.records, seed)
        ranges = make_workload(values, num_queries=self.requests, seed=seed).ranges
        return [_assign(ranges, DEFAULT_TIERS, self.consumers)]

    def build(self, seed: int, workdir: Path, phases: List[List[Request]]) -> Stack:
        values, generate_s = _citypulse(self.records, seed)
        service = PrivateRangeCountingService.from_values(
            values, k=self.devices, dataset=INDEX, seed=seed
        )
        broker = service.broker
        journal = _attach_journal(broker, workdir)
        tiers = DEFAULT_TIERS
        started = time.perf_counter()
        broker.base_station.ensure_rate(
            max(broker.planner.required_rate(spec) for spec in tiers)
        )
        collect_s = time.perf_counter() - started
        rate = broker.base_station.sampling_rate
        for spec in tiers:
            broker._plan(spec, rate)  # warm the broker's plan memo
        gateway = ServingGateway(broker).start()
        return Stack(
            gateway=gateway,
            journal=journal,
            phases=phases,
            generate_s=generate_s,
            collect_s=collect_s,
            uplink=lambda: _uplink_bytes([broker.base_station.network]),
        )


@dataclass(frozen=True)
class ClusterRouted:
    """Bimodal routed ranges against a 4-shard range-sharded cluster."""

    records: int = RECORD_COUNT
    devices: int = 16
    shards: int = 4
    requests: int = 3000
    consumers: int = CONSUMERS
    clients: int = CONSUMERS * PIPELINE_DEPTH
    name: str = "cluster_routed"

    def plan(self, seed: int) -> List[List[Request]]:
        values, _ = _citypulse(self.records, seed)
        ranges = make_routed_workload(values, self.requests, seed)
        return [_assign(ranges, ROUTED_TIERS, self.consumers)]

    def build(self, seed: int, workdir: Path, phases: List[List[Request]]) -> Stack:
        values, generate_s = _citypulse(self.records, seed)
        service = PrivateRangeCountingService.from_values(
            values,
            k=self.devices,
            dataset=INDEX,
            seed=seed,
            shards=self.shards,
            partition="range-sharded",
        )
        broker = service.broker
        journal = _attach_journal(broker, workdir)
        tiers = ROUTED_TIERS
        started = time.perf_counter()
        broker.ensure_rate(
            max(broker.planner.required_rate(spec) for spec in tiers)
        )
        collect_s = time.perf_counter() - started
        rate = broker.base_station.sampling_rate
        for query, spec, _ in phases[0]:  # warm route and shard plan memos
            broker.planner.plan_for_range(query.low, query.high, spec, rate)
        gateway = ServingGateway(broker).start()
        networks = []
        for shard in broker.shards:
            networks.append(shard.primary_station.network)
            if shard.replica_station is not None:
                networks.append(shard.replica_station.network)
        return Stack(
            gateway=gateway,
            journal=journal,
            phases=phases,
            generate_s=generate_s,
            collect_s=collect_s,
            uplink=lambda: _uplink_bytes(networks),
            shard_brokers=[shard.primary for shard in broker.shards],
        )


@dataclass(frozen=True)
class StreamDashboard:
    """A hot dashboard set scraped by many buyers over a rolling window.

    The CityPulse column arrives epoch by epoch; the window is filled
    during set-up, and every timed epoch ingests its arrivals in chunks
    between completions, drains, then rolls.  The hot set is every
    streaming tier over six quantile-anchored ranges, the streaming
    bench's default range count (``run_streaming_bench(ranges=6)``).
    """

    records: int = RECORD_COUNT
    shards: int = 4
    devices_per_shard: int = 4
    window: int = 4
    epoch_records: int = 1024
    epochs: int = 8
    requests_per_epoch: int = 512
    hot_ranges: int = 6
    chunks_per_epoch: int = 16
    consumers: int = CONSUMERS
    clients: int = CONSUMERS * PIPELINE_DEPTH
    name: str = "stream_dashboard"

    def _arrivals(
        self, values: np.ndarray, epoch: int, chunks: int = 1
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Epoch ``epoch``'s arrivals and timestamps, split into ``chunks``."""
        start = (epoch * self.epoch_records) % len(values)
        arrivals = values[(start + np.arange(self.epoch_records)) % len(values)]
        stamps = epoch + np.arange(self.epoch_records) / self.epoch_records
        size = math.ceil(self.epoch_records / chunks)
        return [
            (arrivals[i:i + size], stamps[i:i + size])
            for i in range(0, self.epoch_records, size)
        ]

    def plan(self, seed: int) -> List[List[Request]]:
        values, _ = _citypulse(self.records, seed)
        tiers = [AccuracySpec(alpha, delta) for alpha, delta in STREAM_TIERS]
        hot_ranges = make_workload(
            values, num_queries=self.hot_ranges, seed=seed
        ).ranges
        hot = [
            (RangeQuery(low=low, high=high, dataset=INDEX), spec)
            for low, high in hot_ranges
            for spec in tiers
        ]
        rng = np.random.default_rng(seed)
        phases: List[List[Request]] = []
        for _ in range(self.epochs):
            picks = rng.integers(0, len(hot), size=self.requests_per_epoch)
            buyers = rng.integers(0, self.consumers, size=self.requests_per_epoch)
            phases.append([
                (hot[pick][0], hot[pick][1], f"viewer-{buyer}")
                for pick, buyer in zip(picks, buyers)
            ])
        return phases

    def build(self, seed: int, workdir: Path, phases: List[List[Request]]) -> Stack:
        values, generate_s = _citypulse(self.records, seed)
        cluster = build_streaming_cluster(StreamingConfig(
            shards=self.shards,
            devices_per_shard=self.devices_per_shard,
            window_epochs=self.window,
            dataset=INDEX,
            seed=seed,
            nominal_records=self.epoch_records * self.window,
        ))
        broker = cluster.broker
        journal = _attach_journal(broker, workdir)

        started = time.perf_counter()
        for epoch in range(self.window):
            for chunk in self._arrivals(values, epoch):
                cluster.ingest(*chunk)
            cluster.roll()
        collect_s = time.perf_counter() - started

        # Arrival chunks of the open epoch, ingested between completions.
        stride = max(1, self.requests_per_epoch // self.chunks_per_epoch)
        state = {"epoch": self.window, "pending": [], "completions": 0}

        def open_epoch(epoch: int) -> None:
            state["epoch"] = epoch
            state["pending"] = self._arrivals(values, epoch, self.chunks_per_epoch)
            state["completions"] = 0

        def on_completion() -> None:
            state["completions"] += 1
            if state["pending"] and state["completions"] % stride == 0:
                cluster.ingest(*state["pending"].pop(0))

        def on_phase_end() -> None:
            while state["pending"]:
                cluster.ingest(*state["pending"].pop(0))
            cluster.roll()
            open_epoch(state["epoch"] + 1)

        open_epoch(self.window)
        gateway = ServingGateway(broker, telemetry=cluster.telemetry).start()
        networks = [ingestor.network for ingestor in cluster.ingestors]
        return Stack(
            gateway=gateway,
            journal=journal,
            phases=phases,
            generate_s=generate_s,
            collect_s=collect_s,
            uplink=lambda: _uplink_bytes(networks),
            on_completion=on_completion,
            on_phase_end=on_phase_end,
            stream=cluster,
        )


WORKLOADS = {
    "fresh_trades": FreshTrades,
    "cluster_routed": ClusterRouted,
    "stream_dashboard": StreamDashboard,
}


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
def charged_epsilon(stack: Stack) -> float:
    """ε′ charged to the lifetime accountant, summed order-independently.

    ``math.fsum`` is exactly rounded, so the same multiset of charges
    gives the same bits whatever order the batches settled in.
    """
    broker = stack.broker
    return math.fsum(e.epsilon for e in broker.accountant.history(broker.dataset))


def gate(stack: Stack, answers: Sequence[Optional[PrivateAnswer]]) -> List[str]:
    """Check the books and answers of one timed phase; returns violations.

    * ε′ and revenue drift are zero against the serial expectation
      (``expected_accounting`` for the plain and cluster brokers, the
      ledger-recomputed sums plus the per-epoch window log for streaming);
    * the journal holds exactly one entry per delivered answer;
    * streaming only: no answer replays a value from before a roll.
    """
    problems: List[str] = []
    broker = stack.broker
    delivered = [a for a in answers if a is not None]
    if len(delivered) != len(answers):
        problems.append(f"{len(answers) - len(delivered)} requests failed")
    if len(stack.journal) != len(delivered):
        problems.append(
            f"journal holds {len(stack.journal)} entries for "
            f"{len(delivered)} answers"
        )
    epsilon = charged_epsilon(stack)
    revenue = broker.ledger.total_revenue()
    if stack.stream is None:
        pairs = [
            ((query.low, query.high), spec) for query, spec, _ in stack.requests
        ]
        want_revenue, want_epsilon = expected_accounting(stack.gateway, pairs)
    else:
        transactions = broker.ledger.transactions
        want_epsilon = math.fsum(t.epsilon_prime for t in transactions)
        want_revenue = math.fsum(t.price for t in transactions)
        problems.extend(_epoch_drift(stack))
        problems.extend(_stale_replays(stack.phases, answers))
    if not _same(epsilon, want_epsilon):
        problems.append(f"epsilon drift {epsilon - want_epsilon!r}")
    if not _same(revenue, want_revenue):
        problems.append(f"revenue drift {revenue - want_revenue!r}")
    return problems


def _epoch_drift(stack: Stack) -> List[str]:
    """Per-epoch ledgers must equal the charges journaled to the window log."""
    cluster = stack.stream
    dataset = cluster.config.dataset
    live = set(cluster.station.snapshot().live_epochs)
    journaled: Dict[int, List[float]] = {epoch: [] for epoch in live}
    for entry in cluster.window_log.entries():
        if entry.kind == "charge":
            for epoch in entry.data["epochs"]:
                if int(epoch) in journaled:
                    journaled[int(epoch)].append(float(entry.data["epsilon"]))
    accountant = cluster.broker.epoch_accountant
    return [
        f"epoch {epoch} ledger drift"
        for epoch in sorted(live)
        if not _same(math.fsum(journaled[epoch]), accountant.spent(dataset, epoch))
    ]


def _stale_replays(
    phases: Sequence[Sequence[Request]],
    answers: Sequence[Optional[PrivateAnswer]],
) -> List[str]:
    """An identical raw value on both sides of a roll is a stale replay.

    ``phases`` are the epochs' request lists; ``answers`` follow them in order.
    """
    stale = 0
    last: Dict[tuple, Tuple[int, float]] = {}
    index = 0
    for epoch, phase in enumerate(phases):
        for query, spec, _ in phase:
            answer = answers[index]
            index += 1
            if answer is None:
                continue
            key = (query.low, query.high, spec.alpha, spec.delta)
            seen = last.get(key)
            if seen is not None and seen[0] != epoch and seen[1] == answer.raw_value:
                stale += 1
            if seen is None or seen[0] != epoch:
                last[key] = (epoch, answer.raw_value)
    return [f"{stale} stale replays across a roll"] if stale else []
