"""The closed-loop driver: one thread keeps a fixed pool of virtual clients busy.

No client threads are started.  Each virtual client has one request in
flight; when its future resolves, a callback (running on the gateway
worker that resolved it) stamps the completion time and queues the
client's slot back to the driver thread, which submits the next request.
The only threads are the program's own: the gateway worker and, where a
scatter is wide enough, the cluster pool.
"""

from __future__ import annotations

import functools
import queue
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.core.query import PrivateAnswer

from perfbench.stacks import Request

#: Longest the driver waits for any one completion before failing the run.
COMPLETION_TIMEOUT_S = 60.0


@dataclass
class LoopResult:
    """Per-request timings and outcomes of one timed phase, in plan order."""

    submitted: List[float]
    completed: List[float]
    answers: List[Optional[PrivateAnswer]]
    futures: list
    started: float
    finished: float

    @property
    def attempted(self) -> int:
        return len(self.answers)

    @property
    def failed(self) -> int:
        return sum(1 for answer in self.answers if answer is None)

    @property
    def latencies_ms(self) -> List[float]:
        return [
            (done - sent) * 1e3
            for sent, done, answer in zip(self.submitted, self.completed, self.answers)
            if answer is not None
        ]


def _completed(done: "queue.SimpleQueue", index: int, _future) -> None:
    done.put((index, time.perf_counter()))


def drive(
    gateway,
    phases: Sequence[Sequence[Request]],
    clients: int,
    on_completion: Optional[Callable[[], None]] = None,
    on_phase_end: Optional[Callable[[], None]] = None,
) -> LoopResult:
    """Run every phase closed-loop with ``clients`` requests in flight.

    A phase ends when all its requests have resolved (the pool drains);
    ``on_phase_end`` then runs before the next phase starts.  A request
    the gateway refuses or fails counts as failed (``answers[i] is None``).
    """
    total = sum(len(phase) for phase in phases)
    submitted = [0.0] * total
    completed = [0.0] * total
    answers: List[Optional[PrivateAnswer]] = [None] * total
    futures: list = [None] * total
    done: "queue.SimpleQueue" = queue.SimpleQueue()
    started = time.perf_counter()
    first = 0
    for phase in phases:
        end = first + len(phase)
        following = first
        in_flight = 0
        while following < end or in_flight:
            while in_flight < clients and following < end:
                query, spec, consumer = phase[following - first]
                submitted[following] = time.perf_counter()
                try:
                    future = gateway.submit(query, spec, consumer=consumer)
                except Exception:  # a refused request is a failed operation
                    completed[following] = time.perf_counter()
                    following += 1
                    continue
                futures[following] = future
                in_flight += 1
                future.add_done_callback(
                    functools.partial(_completed, done, following)
                )
                following += 1
            if not in_flight:
                continue
            index, stamp = done.get(timeout=COMPLETION_TIMEOUT_S)
            completed[index] = stamp
            in_flight -= 1
            future = futures[index]
            if future.exception() is None:
                answers[index] = future.result()
            if on_completion is not None:
                on_completion()
        if on_phase_end is not None:
            on_phase_end()
        first = end
    return LoopResult(
        submitted=submitted,
        completed=completed,
        answers=answers,
        futures=futures,
        started=started,
        finished=time.perf_counter(),
    )
