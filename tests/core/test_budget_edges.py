"""Admission and the budget books agree at the exact edge of every ε cap.

Each book records the left fold of its ε′ charges onto its running total
(:func:`~repro.records.fold`), and admission checks that very fold
(:func:`~repro.records.fold_capped`) against a provisional running total
per book: the consumer's, the dataset's and each live epoch's.  So at a
cap placed exactly at a fold, a group is refused in admission -- before
the journal, the window log or any book moves -- or admitted and settled
in full; it is never admitted and then refused by a book.

Each edge below is also one the pre-fold arithmetic got wrong: summing a
group's ε′ first and adding it to the running total rounds a few ulps
lower than the fold, so that arithmetic admitted these groups.
"""

from __future__ import annotations

import copy
import math
from types import SimpleNamespace
from typing import Dict, List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import BrokerPolicy, PolicyViolationError
from repro.core.query import AccuracySpec, RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.core.settlement import WindowBooks, admit, open_batch
from repro.durability.journal import TradeJournal
from repro.errors import PrivacyBudgetExceededError
from repro.privacy.budget import BudgetAccountant
from repro.records import SLACK, fold
from repro.streaming.accounting import EpochBudgetAccountant
from repro.streaming.journal import WindowLog
from tests.serving.test_dispatch_identity import STREAM_FLOOR, stream_broker

TIERS = (AccuracySpec(alpha=0.1, delta=0.5), AccuracySpec(alpha=0.12, delta=0.5))
VALUES = np.random.default_rng(4).uniform(0, 100, 5000)


def below(total: float) -> float:
    """The largest capacity whose cap (capacity + slack) is under ``total``."""
    low, high = total - 2 * SLACK, total  # low fits, high does not
    while math.nextafter(low, math.inf) < high:
        mid = (low + high) / 2
        if not low < mid < high:
            mid = math.nextafter(low, math.inf)
        if mid + SLACK < total:
            low = mid
        else:
            high = mid
    return low


def ranges(count: int, start: float = 0.0) -> List[RangeQuery]:
    return [RangeQuery(low=start + i, high=start + i + 25.0) for i in range(count)]


def plain(capacity: float = math.inf, cap: float = math.inf):
    broker = PrivateRangeCountingService.from_values(VALUES, k=8, seed=11).broker
    broker.base_station.ensure_rate(
        max(broker.planner.required_rate(spec) for spec in TIERS)
    )
    broker.journal = TradeJournal()
    broker.accountant = BudgetAccountant(capacity=capacity)
    broker.policy = BrokerPolicy(max_epsilon_per_consumer=cap)
    return broker


def streaming(epoch_capacity: float = math.inf):
    broker = stream_broker(3)
    broker.journal = TradeJournal()
    broker.window_log = WindowLog()
    broker.epoch_accountant = EpochBudgetAccountant(capacity=epoch_capacity)
    return broker


def books(broker, consumers: Sequence[str]) -> list:
    """Everything a refused group must leave as it was."""
    dataset = broker.dataset
    state = [
        len(broker.journal), broker.journal.checksum(),
        broker.ledger.snapshot(),
        broker.accountant.history(dataset), broker.accountant.spent(dataset),
        [broker.policy.epsilon_spent_by(c) for c in consumers],
        [broker.policy.purchases_by(c) for c in consumers],
        broker.rng.bit_generator.state,  # refused before the noise draw
    ]
    if hasattr(broker, "epoch_accountant"):
        epochs = broker.station.snapshot().live_epochs
        state += [
            len(broker.window_log), broker.window_log.checksum(),
            [broker.epoch_accountant.spent(dataset, e) for e in epochs],
            [broker.epoch_accountant.history(dataset, e) for e in epochs],
        ]
    return state


def epsilons_of(answers) -> List[float]:
    return [answer.plan.epsilon_prime for answer in answers]


def test_per_consumer_cap_edge_is_refused_in_admission():
    warm = [TIERS[0], TIERS[0]]
    batch = [TIERS[0], TIERS[1], TIERS[1], TIERS[0], TIERS[1]]
    twin = plain()
    spent = fold(epsilons_of(twin.answer_batch(ranges(2), warm, "c")))
    column = epsilons_of(twin.answer_batch(ranges(5, 50.0), batch, "c"))
    cap = below(fold(column, spent))
    assert spent + sum(column) <= cap + SLACK, "the pre-fold sum must fit"

    broker = plain(cap=cap)
    broker.answer_batch(ranges(2), warm, "c")
    before = books(broker, ["c"])
    with pytest.raises(PolicyViolationError):
        broker.answer_batch(ranges(5, 50.0), batch, "c")
    assert books(broker, ["c"]) == before

    broker.policy.max_epsilon_per_consumer = math.nextafter(cap, math.inf)
    assert len(broker.answer_batch(ranges(5, 50.0), batch, "c")) == 5
    assert broker.policy.epsilon_spent_by("c") == fold(column, spent)
    assert broker.policy.purchases_by("c") == len(broker.journal) == 7
    assert len(broker.ledger) == 7


def test_per_epoch_cap_edge_is_refused_in_admission():
    twin = streaming()
    spent = fold(epsilons_of(twin.answer_batch(ranges(2), STREAM_FLOOR, "warm")))
    column = epsilons_of(twin.answer_batch(ranges(9, 50.0), STREAM_FLOOR, "c"))
    cap = below(fold(column, spent))
    assert spent + sum(column) <= cap + SLACK, "the pre-fold sum must fit"

    broker = streaming(epoch_capacity=cap)
    broker.answer_batch(ranges(2), STREAM_FLOOR, "warm")
    before = books(broker, ["warm", "c"])
    with pytest.raises(PrivacyBudgetExceededError):
        broker.answer_batch(ranges(9, 50.0), STREAM_FLOOR, "c")
    assert books(broker, ["warm", "c"]) == before

    broker.epoch_accountant.capacity = math.nextafter(cap, math.inf)
    assert len(broker.answer_batch(ranges(9, 50.0), STREAM_FLOOR, "c")) == 9
    epochs = broker.station.snapshot().live_epochs
    assert len(epochs) == 2
    for epoch in epochs:
        assert broker.epoch_accountant.spent(broker.dataset, epoch) == fold(column, spent)
        assert len(broker.epoch_accountant.history(broker.dataset, epoch)) == 11
    assert len(broker.journal) == len(broker.window_log) == 11
    assert len(broker.ledger) == 11


def test_dataset_cap_edge_never_leaves_spent_above_capacity():
    warm = [TIERS[0], TIERS[0]]
    consumers = ["a", "a", "b", "b", "b"]
    specs = [TIERS[0], TIERS[0], TIERS[1], TIERS[1], TIERS[1]]
    twin = plain()
    spent = fold(epsilons_of(twin.answer_batch(ranges(2), warm, "warm")))
    column = epsilons_of(twin.answer_batch(ranges(5, 50.0), specs, consumers))
    after_a = fold(column[:2], spent)
    capacity = below(fold(column[2:], after_a))
    # The pre-fold arithmetic admitted b and charged it without complaint.
    assert after_a + sum(column[2:]) <= capacity + SLACK
    assert after_a + fold(column[2:]) <= capacity + SLACK

    broker = plain(capacity=capacity)
    broker.answer_batch(ranges(2), warm, "warm")
    outcomes = broker.answer_batch(ranges(5, 50.0), specs, consumers)
    assert all(isinstance(o, PrivacyBudgetExceededError) for o in outcomes[2:])
    assert broker.accountant.spent(broker.dataset) == after_a
    assert broker.accountant.spent(broker.dataset) <= capacity + SLACK
    # b's refusal left every book as a's trades alone leave it.
    reference = plain(capacity=capacity)
    reference.answer_batch(ranges(2), warm, "warm")
    reference.answer_batch(ranges(2, 50.0), specs[:2], "a")
    assert books(broker, ["warm", "a", "b"]) == books(reference, ["warm", "a", "b"])

    roomier = plain(capacity=math.nextafter(capacity, math.inf))
    roomier.answer_batch(ranges(2), warm, "warm")
    outcomes = roomier.answer_batch(ranges(5, 50.0), specs, consumers)
    assert not any(isinstance(o, Exception) for o in outcomes)
    assert roomier.accountant.spent(roomier.dataset) == fold(column[2:], after_a)


# ----------------------------------------------------------------------
# admission decides exactly as each book's own charge would
# ----------------------------------------------------------------------
DATASET = "d"
CONSUMERS = ("a", "b", "c")
EPOCHS = (0, 1)
epsilon = st.floats(min_value=0.0, max_value=0.05, allow_nan=False)


def placed(total: float, ulps: int) -> float:
    """A capacity ``ulps`` ulps above the largest that refuses ``total``."""
    capacity = below(total)
    for _ in range(ulps):
        capacity = math.nextafter(capacity, math.inf)
    return max(capacity, 0.0)


def _charged(book, charge) -> bool:
    try:
        charge(book)
    except (PolicyViolationError, PrivacyBudgetExceededError):
        return False
    return True


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_admission_admits_a_group_exactly_when_every_book_would_charge_it(data):
    draw = data.draw
    consumers = draw(st.lists(st.sampled_from(CONSUMERS), min_size=1, max_size=10))
    row_epsilons = draw(st.lists(epsilon, min_size=len(consumers), max_size=len(consumers)))
    order = list(dict.fromkeys(consumers))
    groups = {c: [e for name, e in zip(consumers, row_epsilons) if name == c] for c in order}

    policy, accountant, epochs = BrokerPolicy(), BudgetAccountant(), EpochBudgetAccountant()
    for c in CONSUMERS:
        for e in draw(st.lists(epsilon, max_size=3)):
            policy.settle(c, e)
    prior = draw(st.lists(epsilon, max_size=4))
    accountant.charge_many(DATASET, prior, ["prior"] * len(prior))
    for epoch in EPOCHS:
        prior = draw(st.lists(epsilon, max_size=3))
        epochs.charge_many(DATASET, [epoch], prior, ["prior"] * len(prior))

    # Place each cap at the fold one book reaches after some groups.
    running: Dict[str, float] = {"dataset": accountant.spent(DATASET)}
    for epoch in EPOCHS:
        running[f"epoch{epoch}"] = epochs.spent(DATASET, epoch)
    folds: Dict[str, List[float]] = {key: [] for key in running}
    for column in groups.values():
        for key in running:
            running[key] = fold(column, running[key])
            folds[key].append(running[key])
    ulps = st.integers(min_value=-1, max_value=2)
    accountant.capacity = placed(draw(st.sampled_from(folds["dataset"])), draw(ulps))
    epochs.capacity = placed(
        draw(st.sampled_from(folds["epoch0"] + folds["epoch1"])), draw(ulps)
    )
    consumer = draw(st.sampled_from(order))
    policy.max_epsilon_per_consumer = placed(
        fold(groups[consumer], policy.epsilon_spent_by(consumer)), draw(ulps)
    )

    broker = SimpleNamespace(
        dataset=DATASET, policy=policy, accountant=accountant,
        base_station=SimpleNamespace(store_version=0),
    )
    batch = open_batch(
        broker, "broker", ranges(len(consumers)), TIERS[0], consumers
    )
    window = WindowBooks(accountant=epochs, log=None, epochs=list(EPOCHS), window_id="w")
    plans = [SimpleNamespace(epsilon_prime=e) for e in row_epsilons]
    reference = [copy.deepcopy(book) for book in (policy, accountant, epochs)]
    admit(broker, batch, batch.fresh, plans, window)

    for name, column in groups.items():
        labels = ["q"] * len(column)
        trial = [copy.deepcopy(book) for book in reference]
        passes = [
            _charged(trial[0], lambda p: [p.settle(name, e) for e in column]),
            _charged(trial[1], lambda a: a.charge_many(DATASET, column, labels)),
            _charged(trial[2], lambda b: b.charge_many(DATASET, list(EPOCHS), column, labels)),
        ]
        rows = [i for i, c in enumerate(consumers) if c == name]
        refused = batch.failed.get(rows[0])
        assert (refused is None) == all(passes), (name, passes, refused)
        if refused is None:
            reference = trial
        else:
            first_failing = passes.index(False)
            expected = PolicyViolationError if first_failing == 0 else PrivacyBudgetExceededError
            assert type(refused) is expected
            assert all(batch.failed.get(i) is refused for i in rows)
