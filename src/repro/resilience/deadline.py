"""Per-request deadlines, propagated through every fan-out layer.

A :class:`Deadline` is an absolute expiry on an injectable clock.  The
gateway stamps one on each request at submit time; brokers and the
settlement kernel call :func:`check_deadline` at their pre-commit
checkpoints so a request that cannot finish in time fails fast *before*
any journal write, ledger charge, or ε spend — preserving the
:class:`~repro.errors.DeadlineExceededError` never-billed invariant.

Propagation is via a thread-local scope rather than a parameter threaded
through every signature: :func:`deadline_scope` installs the deadline
around a dispatch, and code anywhere below (same thread) reads it with
:func:`current_deadline`.  Scatter-gather executors that hop threads
re-enter the scope explicitly with the captured deadline.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.errors import DeadlineExceededError

__all__ = [
    "Deadline",
    "ManualClock",
    "deadline_scope",
    "current_deadline",
    "check_deadline",
]


class ManualClock:
    """A monotonic clock that only moves when told to.

    Deterministic drills hand this to the gateway (and to breakers) so
    "time" advances exclusively at scheduled fault events — deadline
    misses then land on exactly the same requests in every same-seed
    run, independent of host speed.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._lock = threading.Lock()
        self._now = start

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0.0:
            raise ValueError(f"cannot advance by {seconds}")
        with self._lock:
            self._now += seconds


@dataclass(frozen=True)
class Deadline:
    """An absolute expiry instant on an injectable clock.

    The clock is any zero-argument callable returning monotonic seconds;
    production uses ``time.monotonic``, deterministic drills inject a
    logical clock so deadline misses land on exactly the same requests
    in every same-seed run.
    """

    expires_at: float
    clock: Callable[[], float] = field(default=time.monotonic, compare=False)

    @classmethod
    def after(
        cls, ttl: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """A deadline ``ttl`` seconds from now on ``clock``."""
        if ttl < 0.0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        return cls(expires_at=clock() + ttl, clock=clock)

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self.expires_at - self.clock()

    def expired(self) -> bool:
        """Whether the deadline has passed."""
        return self.clock() > self.expires_at


_STATE = threading.local()


@contextmanager
def deadline_scope(deadline: Optional[Deadline]) -> Iterator[None]:
    """Install ``deadline`` for the current thread for the block's span.

    ``None`` is a true no-op (the previous scope, if any, stays active),
    so callers can pass an optional deadline through unconditionally.
    Scopes nest; the innermost non-``None`` deadline wins.
    """
    if deadline is None:
        yield
        return
    previous = getattr(_STATE, "deadline", None)
    _STATE.deadline = deadline
    try:
        yield
    finally:
        _STATE.deadline = previous


def current_deadline() -> Optional[Deadline]:
    """The innermost deadline installed on this thread, if any."""
    deadline = getattr(_STATE, "deadline", None)
    return deadline if isinstance(deadline, Deadline) else None


def check_deadline(stage: str) -> None:
    """Raise :class:`DeadlineExceededError` if the scoped deadline passed.

    ``stage`` names the checkpoint (e.g. ``"broker.journal"``) so the
    error message tells the operator how far the request got before it
    was cut.  Every call site sits *before* the layer's journal/charge
    sequence, so a raised check never strands partial accounting.
    """
    deadline = current_deadline()
    if deadline is not None and deadline.expired():
        raise DeadlineExceededError(
            f"deadline exceeded at {stage} "
            f"({-deadline.remaining():.6f}s past expiry); request not billed"
        )
