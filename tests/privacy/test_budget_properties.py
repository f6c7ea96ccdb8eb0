"""Hypothesis property tests for the budget accountant."""

from __future__ import annotations

import functools
import operator
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import BrokerPolicy
from repro.core.settlement import post_record
from repro.durability.recovery import BrokerBooks
from repro.errors import PrivacyBudgetExceededError
from repro.pricing.ledger import BillingLedger
from repro.privacy.budget import BudgetAccountant
from repro.records import DispatchRecord

charges = st.lists(
    st.floats(min_value=0.0, max_value=0.5), min_size=0, max_size=20
)


@given(epsilons=charges)
@settings(max_examples=200, deadline=None)
def test_spent_is_exact_sum(epsilons):
    acc = BudgetAccountant()
    for eps in epsilons:
        acc.charge("d", eps)
    assert acc.spent("d") == pytest.approx(sum(epsilons))


@given(epsilons=charges, capacity=st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=200, deadline=None)
def test_capacity_never_exceeded(epsilons, capacity):
    """No interleaving of charges can push spending past capacity."""
    acc = BudgetAccountant(capacity=capacity)
    for eps in epsilons:
        try:
            acc.charge("d", eps)
        except PrivacyBudgetExceededError:
            pass
    assert acc.spent("d") <= capacity + 1e-9


@given(
    a_charges=charges,
    b_charges=charges,
)
@settings(max_examples=100, deadline=None)
def test_datasets_never_interact(a_charges, b_charges):
    acc = BudgetAccountant()
    for eps in a_charges:
        acc.charge("a", eps)
    for eps in b_charges:
        acc.charge("b", eps)
    assert acc.spent("a") == pytest.approx(sum(a_charges))
    assert acc.spent("b") == pytest.approx(sum(b_charges))


@given(epsilons=charges)
@settings(max_examples=100, deadline=None)
def test_history_reconstructs_spending(epsilons):
    acc = BudgetAccountant()
    for i, eps in enumerate(epsilons):
        acc.charge("d", eps, label=f"q{i}")
    history = acc.history("d")
    assert len(history) == len(epsilons)
    assert sum(e.epsilon for e in history) == pytest.approx(sum(epsilons))
    assert [e.label for e in history] == [f"q{i}" for i in range(len(epsilons))]


@given(
    epsilons=charges,
    capacity=st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=100, deadline=None)
def test_can_afford_is_consistent_with_charge(epsilons, capacity):
    """can_afford says yes exactly when charge would succeed."""
    acc = BudgetAccountant(capacity=capacity)
    for eps in epsilons:
        affordable = acc.can_afford("d", eps)
        try:
            acc.charge("d", eps)
            charged = True
        except PrivacyBudgetExceededError:
            charged = False
        assert charged == affordable


# --------------------------------------------------------------------- #
# Running total: spent() is the left fold of history() after every step  #
# --------------------------------------------------------------------- #
def _bits(value):
    return struct.pack("<d", value)


def _fold(accountant, dataset):
    return functools.reduce(
        operator.add, (e.epsilon for e in accountant.history(dataset)), 0.0
    )


_DATASETS = ("a", "b")
_eps = st.floats(min_value=0.0, max_value=2.0) | st.sampled_from(
    [0.0, -0.0, 1e-17, 0.1, 0.2, 0.3, 1e300]
)
_ops = st.one_of(
    st.tuples(st.just("charge"), st.sampled_from(_DATASETS), _eps),
    st.tuples(
        st.just("charge_many"),
        st.sampled_from(_DATASETS),
        st.lists(_eps, min_size=0, max_size=8),
    ),
    st.tuples(
        st.just("post"),
        st.sampled_from(_DATASETS),
        st.lists(st.tuples(st.booleans(), _eps), min_size=0, max_size=6),
    ),
    st.tuples(st.just("reset"), st.sampled_from(_DATASETS), st.just(None)),
)


def _journal_spends(dataset, specs):
    """A dispatch record of releases and replays, as the journal holds it."""
    return DispatchRecord.from_rows(
        {
            "kind": "release" if release else "replay",
            "consumer": "c",
            "dataset": dataset,
            "low": 0.0,
            "high": 1.0,
            "alpha": 0.1,
            "delta": 0.5,
            "epsilon_prime": eps if release else 0.0,
            "price": 1.0,
            "store_version": 1,
            "label": f"j{i}",
        }
        for i, (release, eps) in enumerate(specs)
    )


@given(
    ops=st.lists(_ops, min_size=1, max_size=30),
    capacity=st.sampled_from([float("inf"), 3.0]),
)
@settings(max_examples=300, deadline=None)
def test_running_total_is_left_fold_of_history(ops, capacity):
    """Every mutation keeps spent() bit-equal to a fold over history()."""
    acc = BudgetAccountant(capacity=capacity)
    for op, dataset, arg in ops:
        if op == "charge":
            try:
                acc.charge(dataset, arg)
            except PrivacyBudgetExceededError:
                pass
        elif op == "charge_many":
            try:
                acc.charge_many(dataset, arg, [f"m{i}" for i in range(len(arg))])
            except PrivacyBudgetExceededError:
                pass
        elif op == "post":
            # The one write path from a journaled record to the books.
            try:
                post_record(
                    BrokerBooks(BillingLedger(), acc, BrokerPolicy()),
                    _journal_spends(dataset, arg),
                )
            except PrivacyBudgetExceededError:
                pass
        else:
            acc.reset(dataset)
        for name in _DATASETS:
            assert _bits(acc.spent(name)) == _bits(_fold(acc, name))


@pytest.mark.parametrize("method", ["charge", "charge_many", "can_afford"])
def test_nan_epsilon_is_a_value_error(method):
    acc = BudgetAccountant()
    with pytest.raises(ValueError, match="non-negative"):
        if method == "charge_many":
            acc.charge_many("d", [0.1, float("nan")], ["a", "b"])
        else:
            getattr(acc, method)("d", float("nan"))
    assert acc.history("d") == ()
    assert acc.spent("d") == 0.0
