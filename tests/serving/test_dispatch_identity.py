"""One broker call per dispatch == the per-consumer call sequence, bit for bit.

The gateway settles a whole dispatch -- cache-hit replays, every
consumer's fresh releases, in-window duplicates -- in one
``answer_batch`` call.  Each test feeds one seeded dispatch through a
:class:`ServingGateway` whose worker picks the whole queue up as one
batch, then replays the same dispatch by hand on a twin stack the
per-consumer way: ``replay`` for each cache hit, one ``answer_batch``
per consumer in first-arrival order, then ``replay`` for each
duplicate.  Answers, journal bytes and books must match exactly, also
when some consumers are refused mid-dispatch.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

import repro.core.broker as core_broker
import repro.streaming.broker as streaming_broker
from repro.chaos.injectors import books_equal
from repro.cluster.broker import ClusterBroker
from repro.core.policy import BrokerPolicy, PolicyViolationError
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.durability.journal import TradeJournal
from repro.durability.recovery import recover_accounting
from repro.errors import (
    DeadlineExceededError,
    PrivacyBudgetExceededError,
    ServiceOverloadedError,
)
from repro.estimators.base import NodeData
from repro.estimators.rank import RankCountingEstimator
from repro.pricing.functions import InverseVariancePricing
from repro.pricing.variance_model import VarianceModel
from repro.records import SLACK, fold
from repro.resilience.deadline import Deadline, ManualClock, deadline_scope
from repro.serving import ServingConfig, ServingGateway
from repro.serving.answer_cache import AnswerCache
from repro.streaming.broker import StreamingBroker, StreamingStation
from repro.streaming.window import EpochSummary

VALUES = np.random.default_rng(0).uniform(0.0, 200.0, 4_000)
RANGES = tuple((10.0 * i, 10.0 * i + 60.0) for i in range(8))
CONSUMERS = ("c0", "c1", "c2", "c3")
KINDS = ("plain", "cluster1", "cluster4", "streaming")

STREAM_FLOOR = AccuracySpec(alpha=0.15, delta=0.5)
TIERS = {
    "plain": (AccuracySpec(alpha=0.1, delta=0.5), AccuracySpec(alpha=0.2, delta=0.6)),
    "streaming": (STREAM_FLOOR, AccuracySpec(alpha=0.25, delta=0.5)),
}
#: A tier no other consumer buys; the spec-band test refuses it.
ODD_TIER = {
    "plain": AccuracySpec(alpha=0.3, delta=0.6),
    "streaming": AccuracySpec(alpha=0.3, delta=0.5),
}

#: (consumer, index into the (range, tier) pairs); pairs 0 and 5 are warm.
DISPATCH = (
    ("c1", 0), ("c0", 1), ("c1", 2), ("c2", 3), ("c0", 4), ("c3", 5),
    ("c1", 6), ("c2", 7), ("c0", 0), ("c2", 2), ("c3", 8), ("c1", 9),
    ("c3", 3), ("c0", 10), ("c2", 11), ("c3", 1), ("c0", 12),
)
WARM = (0, 5)

Pair = Tuple[Tuple[float, float], AccuracySpec]
Request = Tuple[str, Pair]
Outcome = "PrivateAnswer | Exception"


def tiers(kind: str) -> Tuple[AccuracySpec, AccuracySpec]:
    return TIERS["streaming" if kind == "streaming" else "plain"]


def pairs(kind: str) -> List[Pair]:
    return [(r, t) for r in RANGES for t in tiers(kind)]


def stream_broker(seed: int) -> StreamingBroker:
    station = StreamingStation(window_epochs=4)
    rng = np.random.default_rng(11)
    for epoch in range(2):
        samples = tuple(
            NodeData(node_id=node, values=rng.uniform(0.0, 200.0, 200)).sample(0.8, rng)
            for node in range(1, 9)
        )
        station.commit_roll([EpochSummary(
            epoch=epoch, samples=samples, record_count=1_600, rate=0.8,
        )])
    return StreamingBroker(
        station=station,
        pricing=InverseVariancePricing(VarianceModel(n=3_200), base_price=10.0),
        floor=STREAM_FLOOR,
        rng=np.random.default_rng(seed),
    )


def build(kind: str, seed: int = 3, rate_tiers: Optional[Sequence[AccuracySpec]] = None):
    """A seeded stack with an in-memory journal, sampled for ``rate_tiers``."""
    if kind == "plain":
        broker = PrivateRangeCountingService.from_values(VALUES, k=8, seed=seed).broker
    elif kind == "cluster1":
        broker = ClusterBroker.from_values(VALUES, k=8, shards=1, seed=seed)
    elif kind == "cluster4":
        broker = ClusterBroker.from_values(
            VALUES, k=8, shards=4, seed=seed, partition="range-sharded"
        )
    else:
        broker = stream_broker(seed)
    if kind != "streaming":
        wanted = rate_tiers or tiers(kind)
        broker.base_station.ensure_rate(
            max(broker.planner.required_rate(spec) for spec in wanted)
        )
    broker.journal = TradeJournal()
    return broker


def query(broker, low_high: Tuple[float, float]) -> RangeQuery:
    return RangeQuery(low=low_high[0], high=low_high[1], dataset=broker.dataset)


def warm_up(broker, warm: Sequence[Pair]) -> Dict[Pair, PrivateAnswer]:
    if not warm:
        return {}
    answers = broker.answer_batch(
        [query(broker, r) for r, _ in warm], [t for _, t in warm], consumer="warm"
    )
    return dict(zip(warm, answers))


def classify(requests: Sequence[Request], warm: Sequence[Pair], cache: bool):
    """The gateway's split: cache hits, fresh rows, duplicates of a fresh row."""
    hits: List[int] = []
    fresh: List[int] = []
    dups: List[Tuple[int, int]] = []
    first: Dict[Pair, int] = {}
    for idx, (_, pair) in enumerate(requests):
        if cache and pair in warm:
            hits.append(idx)
        elif cache and pair in first:
            dups.append((idx, first[pair]))
        else:
            first[pair] = idx
            fresh.append(idx)
    return hits, fresh, dups


def outcome_of(future) -> Outcome:
    exc = future.exception(timeout=30.0)
    return exc if exc is not None else future.result()


def through_gateway(
    broker,
    requests: Sequence[Request],
    warm: Sequence[Pair],
    *,
    cache: bool = True,
    setup: Callable[[object], None] = lambda broker: None,
    clock: Optional[ManualClock] = None,
    ttl: Optional[float] = None,
    before_submit: Callable[[int], None] = lambda idx: None,
):
    warmed = warm_up(broker, warm)
    setup(broker)
    gateway = ServingGateway(
        broker,
        config=ServingConfig(
            batch_window=10.0,
            max_batch=len(requests),
            enable_cache=cache,
            request_ttl=ttl,
        ),
        clock=clock,
    )
    if cache:
        version = broker.base_station.store_version
        routing = getattr(broker, "routing_signature", lambda q, s: "")
        for (low_high, spec), answer in warmed.items():
            q = query(broker, low_high)
            gateway.cache.put(
                AnswerCache.key_for(q, spec, version, routing(q, spec)), answer
            )
    futures = []
    for idx, (consumer, (low_high, spec)) in enumerate(requests):
        before_submit(idx)
        futures.append(gateway.submit_range(
            low_high[0], low_high[1], spec.alpha, spec.delta, consumer=consumer
        ))
    with gateway:  # the worker picks the whole queue up as one batch
        outcomes = [outcome_of(future) for future in futures]
    assert gateway.telemetry.histogram("gateway.batch_width").count == 1
    assert gateway.telemetry.value("gateway.broker_calls") == 1
    return outcomes, gateway


def by_hand(
    broker,
    requests: Sequence[Request],
    warm: Sequence[Pair],
    *,
    cache: bool = True,
    setup: Callable[[object], None] = lambda broker: None,
    deadlines: Optional[Sequence[Deadline]] = None,
) -> List[Outcome]:
    """The per-consumer reference sequence on a twin stack."""
    warmed = warm_up(broker, warm)
    setup(broker)
    hits, fresh, dups = classify(requests, warm, cache)
    out: List[Optional[Outcome]] = [None] * len(requests)

    def attempt(call) -> Outcome:
        try:
            return call()
        except Exception as exc:  # noqa: BLE001 - the reference records refusals
            return exc

    for idx in hits:
        consumer, pair = requests[idx]
        out[idx] = attempt(lambda: broker.replay(warmed[pair], consumer))
    groups: Dict[str, List[int]] = {}
    for idx in fresh:
        groups.setdefault(requests[idx][0], []).append(idx)
    for consumer, indices in groups.items():
        scope = None
        if deadlines is not None:
            scope = min((deadlines[i] for i in indices), key=lambda d: d.expires_at)
        with deadline_scope(scope):
            answers = attempt(lambda: broker.answer_batch(
                [query(broker, requests[i][1][0]) for i in indices],
                [requests[i][1][1] for i in indices],
                consumer=consumer,
            ))
        for pos, idx in enumerate(indices):
            out[idx] = answers if isinstance(answers, Exception) else answers[pos]
    for idx, source_idx in dups:
        source = out[source_idx]
        if isinstance(source, Exception):
            out[idx] = ServiceOverloadedError("coalesced source release failed")
        else:
            out[idx] = attempt(lambda: broker.replay(source, requests[idx][0]))
    return out  # type: ignore[return-value]


ANSWER_FIELDS = (
    "value", "raw_value", "sample_estimate", "price", "transaction_id",
    "consumer", "spec", "query",
)


def assert_identical(got_broker, got, want_broker, want) -> None:
    assert len(got) == len(want)
    for idx, (g, w) in enumerate(zip(got, want)):
        if isinstance(w, Exception):
            assert type(g) is type(w), (idx, g, w)
            continue
        assert not isinstance(g, Exception), (idx, g)
        for name in ANSWER_FIELDS:
            assert getattr(g, name) == getattr(w, name), (idx, name)
    dataset = want_broker.dataset
    assert got_broker.journal.checksum() == want_broker.journal.checksum()
    assert got_broker.ledger.revenue_by_consumer() == want_broker.ledger.revenue_by_consumer()
    assert got_broker.ledger.snapshot() == want_broker.ledger.snapshot()
    assert got_broker.accountant.spent(dataset) == want_broker.accountant.spent(dataset)
    assert got_broker.accountant.history(dataset) == want_broker.accountant.history(dataset)
    assert got_broker.rng.bit_generator.state == want_broker.rng.bit_generator.state
    if isinstance(want_broker, StreamingBroker):
        for epoch in want_broker.station.snapshot().live_epochs:
            assert got_broker.epoch_accountant.spent(dataset, epoch) == (
                want_broker.epoch_accountant.spent(dataset, epoch)
            )


def mixed_dispatch(kind: str, seed: int = 0, size: int = 48):
    """Four interleaved consumers over repeated (range, tier) pairs."""
    rng = np.random.default_rng(seed)
    catalog = pairs(kind)
    warm = [catalog[i] for i in (0, 5, 10, 15)]
    requests = [
        (CONSUMERS[int(rng.integers(4))], catalog[int(rng.integers(len(catalog)))])
        for _ in range(size)
    ]
    return warm, requests


def fixed_dispatch(kind: str, odd_consumer: Optional[str] = None):
    catalog = pairs(kind)
    requests = []
    for consumer, index in DISPATCH:
        low_high, spec = catalog[index]
        if consumer == odd_consumer and index not in WARM:
            spec = ODD_TIER["streaming" if kind == "streaming" else "plain"]
        requests.append((consumer, (low_high, spec)))
    return [catalog[i] for i in WARM], requests


def compare(kind: str, warm, requests, **kwargs) -> Tuple[list, object]:
    gateway_broker, twin = build(kind), build(kind)
    got, _ = through_gateway(gateway_broker, requests, warm, **kwargs)
    want = by_hand(twin, requests, warm, **{
        k: v for k, v in kwargs.items() if k in ("cache", "setup")
    })
    assert_identical(gateway_broker, got, twin, want)
    return got, gateway_broker


def rows_of(requests: Sequence[Request], consumer: str) -> List[int]:
    return [idx for idx, (name, _) in enumerate(requests) if name == consumer]


# ----------------------------------------------------------------------
# the identity matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no-cache"])
@pytest.mark.parametrize("kind", KINDS)
def test_one_call_matches_the_per_consumer_sequence(kind, cache):
    warm, requests = mixed_dispatch(kind)
    hits, fresh, dups = classify(requests, warm, cache)
    if cache:
        assert hits and dups, "the dispatch must exercise every row kind"
    got, _ = compare(kind, warm, requests, cache=cache)
    assert not any(isinstance(outcome, Exception) for outcome in got)


# ----------------------------------------------------------------------
# refusal isolation: a refused consumer fails only its own rows
# ----------------------------------------------------------------------
def fresh_draws(monkeypatch) -> List[int]:
    """Count the Laplace draws the plain and streaming brokers make."""
    drawn: List[int] = []
    for module in (core_broker, streaming_broker):
        original = module.sample_laplace_many

        def counting(scales, rng, _original=original):
            drawn.append(len(scales))
            return _original(scales, rng)

        monkeypatch.setattr(module, "sample_laplace_many", counting)
    return drawn


def assert_refused(got, requests, warm, consumer, error) -> None:
    """``consumer``'s fresh rows fail with ``error``; no one else's do."""
    _, fresh, _ = classify(requests, warm, True)
    refused = [i for i in fresh if requests[i][0] == consumer]
    assert refused and all(isinstance(got[i], error) for i in refused)
    for idx, outcome in enumerate(got):
        if isinstance(outcome, Exception) and requests[idx][0] != consumer:
            # Only a duplicate of the refused consumer's release may fail.
            assert isinstance(outcome, ServiceOverloadedError), (idx, outcome)


def released_fresh(got, requests, warm) -> int:
    _, fresh, _ = classify(requests, warm, True)
    return sum(1 for i in fresh if not isinstance(got[i], Exception))


REFUSAL_KINDS = ("plain", "cluster4", "streaming")


@pytest.mark.parametrize("kind", REFUSAL_KINDS)
def test_purchase_cap_hit_mid_dispatch(kind, monkeypatch):
    warm, requests = fixed_dispatch(kind)
    # c0 buys 5 answers in this dispatch, everyone else 4 or fewer.
    assert len(rows_of(requests, "c0")) == 5

    def setup(broker):
        bands = dict(min_alpha=STREAM_FLOOR.alpha, max_delta=STREAM_FLOOR.delta) if kind == "streaming" else {}
        broker.policy = BrokerPolicy(max_purchases_per_consumer=4, **bands)

    drawn = fresh_draws(monkeypatch)
    got, _ = compare(kind, warm, requests, setup=setup)
    assert_refused(got, requests, warm, "c0", PolicyViolationError)
    if kind != "cluster4":
        # drawn[0] is the warm-up; drawn[1] the gateway's one dispatch.
        assert drawn[1] == released_fresh(got, requests, warm)


def learned_spend(kind: str, warm, requests) -> Tuple[float, Dict[str, float]]:
    """Warm-up spend and each consumer's fresh ε′, from an unlimited run."""
    broker = build(kind)
    by_hand(broker, requests, warm)
    warm_spend = sum(
        entry.epsilon for entry in broker.accountant.history(broker.dataset)
        if entry.label.startswith("warm:")
    )
    return warm_spend, {c: broker.policy.epsilon_spent_by(c) for c in CONSUMERS}


@pytest.mark.parametrize("kind", REFUSAL_KINDS)
def test_per_consumer_epsilon_cap(kind, monkeypatch):
    warm, requests = fixed_dispatch(kind)
    _, spend = learned_spend(kind, warm, requests)
    ranked = sorted(spend, key=spend.get, reverse=True)
    greedy = ranked[0]
    cap = (spend[ranked[0]] + spend[ranked[1]]) / 2.0
    assert spend[ranked[1]] < cap < spend[greedy]

    def setup(broker):
        bands = dict(min_alpha=STREAM_FLOOR.alpha, max_delta=STREAM_FLOOR.delta) if kind == "streaming" else {}
        broker.policy = BrokerPolicy(max_epsilon_per_consumer=cap, **bands)

    drawn = fresh_draws(monkeypatch)
    got, _ = compare(kind, warm, requests, setup=setup)
    if kind != "cluster4":
        assert drawn[1] == released_fresh(got, requests, warm)
    assert_refused(got, requests, warm, greedy, PolicyViolationError)


@pytest.mark.parametrize("kind", REFUSAL_KINDS)
def test_dataset_budget_runs_out_between_groups(kind, monkeypatch):
    warm, requests = fixed_dispatch(kind)
    warm_spend, spend = learned_spend(kind, warm, requests)
    _, fresh, _ = classify(requests, warm, True)
    order: List[str] = []
    for idx in fresh:
        if requests[idx][0] not in order:
            order.append(requests[idx][0])
    first, second, third, fourth = order
    # The third consumer no longer fits; the smaller fourth still does.
    assert spend[third] > spend[fourth]
    capacity = warm_spend + spend[first] + spend[second] + (
        spend[third] + spend[fourth]
    ) / 2.0

    def setup(broker):
        broker.accountant.capacity = capacity

    drawn = fresh_draws(monkeypatch)
    got, gateway_broker = compare(kind, warm, requests, setup=setup)
    for consumer in (first, second, fourth):
        assert not any(
            isinstance(got[i], Exception) for i in fresh if requests[i][0] == consumer
        )
    assert_refused(got, requests, warm, third, PrivacyBudgetExceededError)
    dataset = gateway_broker.dataset
    assert gateway_broker.accountant.spent(dataset) <= capacity + 1e-12
    if kind != "cluster4":
        assert drawn[1] == released_fresh(got, requests, warm)


def budget_edge(kind: str):
    """A no-cache dispatch and a capacity at its exact budget edge.

    Admission folds each consumer's charges onto the accountant's running
    total, so the last consumer's check is the tightest: the left fold of
    every charge in settlement order, which is also the total the
    accountant records.  The capacity admits that fold.  The dispatch is
    one where the last consumer's charges, summed first and then added to
    the fold of every earlier charge, give a different total, so the
    test sits on a real rounding edge.
    """
    for seed in range(64):
        warm, requests = mixed_dispatch(kind, seed=seed, size=24)
        twin = build(kind)
        by_hand(twin, requests, warm, cache=False)
        history = twin.accountant.history(twin.dataset)
        last = history[-1].label.split(":")[0]
        tail = 1
        while history[-tail - 1].label.split(":")[0] == last:
            tail += 1
        epsilons = [entry.epsilon for entry in history]
        edge = fold(epsilons)
        summed = fold(epsilons[:-tail]) + sum(epsilons[-tail:])
        capacity = edge - SLACK
        while capacity + SLACK < edge:
            capacity = math.nextafter(capacity, math.inf)
        if summed != edge:
            return warm, requests, capacity
    raise AssertionError("no dispatch whose summed last group rounds off its fold")


@pytest.mark.parametrize("kind", REFUSAL_KINDS)
def test_budget_edge_decisions_match_the_per_consumer_sequence(kind):
    warm, requests, capacity = budget_edge(kind)

    def setup(broker):
        broker.accountant.capacity = capacity

    got, broker = compare(kind, warm, requests, cache=False, setup=setup)
    assert not any(isinstance(outcome, Exception) for outcome in got)
    assert broker.accountant.spent(broker.dataset) <= capacity + SLACK
    _, accountant = recover_accounting(broker.journal)
    assert accountant.spent(broker.dataset) == broker.accountant.spent(broker.dataset)


def test_interleaved_consumers_settle_group_by_group():
    """A direct per-row call may interleave consumers; each consumer's
    rows still settle as one block at its first row, so the journal, the
    ledger and the accountant record the same order and recovery
    rebuilds the books exactly."""
    spec = tiers("plain")[0]
    names = ["a", "b", "a", "c", "b", "a"]
    broker = build("plain")
    outcomes = broker.answer_batch(
        [query(broker, RANGES[i]) for i in range(len(names))], spec, names
    )
    assert not any(isinstance(outcome, Exception) for outcome in outcomes)
    order = [0, 2, 5, 1, 4, 3]
    journaled = broker.journal.entries()
    assert [entry.consumer for entry in journaled] == [names[i] for i in order]
    assert [entry.label for entry in broker.accountant.history(broker.dataset)] == [
        entry.label for entry in journaled
    ]
    ids = [outcomes[i].transaction_id for i in order]
    assert ids == sorted(ids)
    ledger, accountant = recover_accounting(broker.journal)
    assert books_equal(ledger, accountant, broker.ledger, broker.accountant)


@pytest.mark.parametrize("kind", REFUSAL_KINDS)
def test_spec_band_refusal(kind, monkeypatch):
    warm, requests = fixed_dispatch(kind, odd_consumer="c2")

    def setup(broker):
        bands = dict(min_alpha=STREAM_FLOOR.alpha, max_delta=STREAM_FLOOR.delta) if kind == "streaming" else {}
        broker.policy = BrokerPolicy(max_alpha=0.25, **bands)

    drawn = fresh_draws(monkeypatch)
    got, _ = compare(kind, warm, requests, setup=setup)
    assert_refused(got, requests, warm, "c2", PolicyViolationError)
    if kind != "cluster4":
        assert drawn[1] == released_fresh(got, requests, warm)


class ClockStep(RankCountingEstimator):
    """Moves a manual clock once, from inside the first estimate."""

    def __init__(self, clock: ManualClock, step: float) -> None:
        super().__init__()
        self.clock, self.step = clock, step

    def estimate_many(self, samples, ranges):
        if self.step:
            self.clock.advance(self.step)
            self.step = 0.0
        return super().estimate_many(samples, ranges)


def deadline_dispatch(kind: str):
    """The fixed dispatch with c1's requests stamped first (at t = 0) and
    everyone else's at t = 0.5; estimation moves the clock to 1.2, past
    c1's 1.0 deadline and inside the others' 1.5."""
    warm, requests = fixed_dispatch(kind)
    early = [idx for idx, (name, _) in enumerate(requests) if name == "c1"]
    rest = [idx for idx in range(len(requests)) if idx not in early]
    return warm, [requests[idx] for idx in early + rest], len(early)


def stamped_run(broker, warm, requests, stamped: int, *, through: bool, cache: bool):
    clock = ManualClock()
    ttl = 1.0

    def setup(broker) -> None:  # after the warm-up
        broker.estimator = ClockStep(clock, 0.7)

    if through:
        def before_submit(idx: int) -> None:
            if idx == stamped:
                clock.advance(0.5)

        return through_gateway(
            broker, requests, warm, cache=cache, setup=setup, clock=clock,
            ttl=ttl, before_submit=before_submit,
        )
    deadlines = [
        Deadline(expires_at=(0.0 if idx < stamped else 0.5) + ttl, clock=clock)
        for idx in range(len(requests))
    ]
    clock.advance(0.5)
    return by_hand(
        broker, requests, warm, cache=cache, setup=setup, deadlines=deadlines
    )


@pytest.mark.parametrize("kind", ("plain", "streaming"))
def test_one_groups_deadline_expires_mid_call(kind):
    warm, requests, stamped = deadline_dispatch(kind)
    gateway_broker, twin = build(kind), build(kind)
    got, _ = stamped_run(
        gateway_broker, warm, requests, stamped, through=True, cache=False
    )
    want = stamped_run(twin, warm, requests, stamped, through=False, cache=False)
    assert_identical(gateway_broker, got, twin, want)
    assert all(isinstance(got[i], DeadlineExceededError) for i in range(stamped))
    assert not any(isinstance(got[i], Exception) for i in range(stamped, len(got)))


def test_replays_are_not_released_past_their_deadline():
    """A cache hit settles inside the one call, so it meets the same
    journal checkpoint: c1's hit fails with its group instead of being
    released after its deadline."""
    warm, requests, stamped = deadline_dispatch("plain")
    broker = build("plain")
    got, gateway = stamped_run(
        broker, warm, requests, stamped, through=True, cache=True
    )
    hits, fresh, _ = classify(requests, warm, True)
    c1_hits = [i for i in hits if i < stamped]
    assert c1_hits
    for idx in range(stamped):
        assert isinstance(got[idx], DeadlineExceededError)
    for idx in fresh + hits:
        if idx >= stamped:
            assert not isinstance(got[idx], Exception)
    assert gateway.telemetry.value("gateway.post_deadline_release") == 0
    assert not any(e.consumer == "c1" for e in broker.journal.entries())


def test_expired_group_at_open_draws_nothing_and_spares_the_rest():
    """A direct per-row call: one consumer's deadline has already passed."""
    clock = ManualClock(10.0)
    spec = tiers("plain")[0]
    names = ["a", "b", "a", "c", "b"]
    ranges = [RANGES[i] for i in range(len(names))]
    late = Deadline(expires_at=5.0, clock=clock)
    live = Deadline(expires_at=50.0, clock=clock)
    broker, twin = build("plain"), build("plain")
    outcomes = broker.answer_batch(
        [query(broker, r) for r in ranges], spec, names,
        deadlines=[late if name == "b" else live for name in names],
    )
    for name in ("a", "c"):
        rows = [i for i, n in enumerate(names) if n == name]
        want = twin.answer_batch([query(twin, ranges[i]) for i in rows], spec, name)
        for i, answer in zip(rows, want):
            assert outcomes[i].value == answer.value
            assert outcomes[i].transaction_id == answer.transaction_id
    assert all(isinstance(outcomes[i], DeadlineExceededError) for i in (1, 4))
    assert broker.rng.bit_generator.state == twin.rng.bit_generator.state
    assert broker.journal.checksum() == twin.journal.checksum()


# ----------------------------------------------------------------------
# the one documented divergence: a later group's tier fires a top-up
# ----------------------------------------------------------------------
def test_top_up_fired_by_a_later_group_keeps_books_exact():
    """One pass tops up once, before any estimate, so the first group's
    answers come from the denser sample (the per-consumer sequence
    answered it first, from the sparser one).  Values may differ; the
    books may not: zero drift, and recovery rebuilds them exactly."""
    loose, strict = AccuracySpec(alpha=0.2, delta=0.6), AccuracySpec(alpha=0.05, delta=0.5)
    broker = build("plain", rate_tiers=[loose])
    rate = broker.base_station.sampling_rate
    assert not broker.planner.supports(strict, rate)
    requests = [
        ("c0", (RANGES[0], loose)), ("c0", (RANGES[1], loose)),
        ("c1", (RANGES[2], strict)), ("c1", (RANGES[3], loose)),
        ("c2", (RANGES[0], loose)),
    ]
    got, _ = through_gateway(broker, requests, [])
    assert broker.base_station.sampling_rate > rate
    assert not any(isinstance(outcome, Exception) for outcome in got)
    dataset = broker.dataset
    # Zero drift: the accountant holds exactly the four fresh releases'
    # ε′ and the ledger every hand-over's price, in row order.
    assert broker.accountant.spent(dataset) == sum(
        got[i].plan.epsilon_prime for i in range(4)
    )
    assert broker.ledger.total_revenue() == sum(answer.price for answer in got)
    ledger, accountant = recover_accounting(broker.journal)
    assert books_equal(ledger, accountant, broker.ledger, broker.accountant)
    version = broker.base_station.store_version
    releases = [e for e in broker.journal.entries() if e.kind == "release"]
    assert len(releases) == 4
    assert {entry.store_version for entry in releases} == {version}
