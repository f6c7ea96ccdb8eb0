"""Performance scaling: estimator cost vs data size and batch width.

Not a paper figure -- the library's own performance envelope.  Verifies
the implementation scales the way the design promises: estimation work
depends on the *sample* size (not ``n``), the vectorized estimator batch
path amortizes per-query overhead, and -- the end-to-end claim -- the
broker's ``answer_batch`` carries that speedup all the way through
planning, noising, and charging.

Set ``REPRO_BENCH_SMOKE=1`` to run the benches as correctness smoke
tests without timing assertions (the CI benchmark job does this).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import DEVICE_COUNT
from repro.analysis.metrics import make_workload
from repro.core.query import AccuracySpec, RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.datasets.partition import partition_even
from repro.estimators.base import NodeData
from repro.estimators.rank import RankCountingEstimator

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Accumulated across this module's benches; each contributing test
#: rewrites BENCH_scaling.json so the final file carries every section.
_SCALING_RESULTS: dict = {}


def make_samples(n, p, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0, 200, n)
    nodes = [
        NodeData(node_id=i + 1, values=shard)
        for i, shard in enumerate(partition_even(values, DEVICE_COUNT))
    ]
    return values, [node.sample(p, rng) for node in nodes]


@pytest.mark.parametrize("n", [2_000, 17_568, 140_544])
def test_estimate_scales_with_sample_not_data(benchmark, n):
    """8x more data at the same shipped-sample volume costs ~the same."""
    # Hold the expected sample count fixed: p ∝ 1/n.
    p = min(1.0, 2000.0 / n)
    _, samples = make_samples(n, p)
    estimator = RankCountingEstimator()
    result = benchmark(lambda: estimator.estimate(samples, 50.0, 150.0))
    assert result.total_size == n


def test_batch_path_beats_scalar_loop(citypulse, benchmark, save_result,
                                      save_json):
    """estimate_many over 200 queries vs 200 scalar estimates."""
    import time

    values = citypulse.values("ozone")
    _, samples = make_samples(len(values), 0.2, seed=3)
    workload = make_workload(values, num_queries=200, seed=9)
    ranges = list(workload.ranges)
    estimator = RankCountingEstimator()

    batch_out = benchmark(lambda: estimator.estimate_many(samples, ranges))

    start = time.perf_counter()
    scalar_out = [
        estimator.estimate(samples, low, high).estimate
        for low, high in ranges
    ]
    scalar_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    estimator.estimate_many(samples, ranges)
    batch_elapsed = time.perf_counter() - start

    save_result(
        "scaling_estimator_batch_vs_scalar",
        "# scaling: estimator only, 200-query workload, k=16, p=0.2\n"
        f"scalar loop : {scalar_elapsed * 1e3:8.2f} ms\n"
        f"batch path  : {batch_elapsed * 1e3:8.2f} ms\n"
        f"speedup     : {scalar_elapsed / max(batch_elapsed, 1e-9):8.1f}x",
    )
    _SCALING_RESULTS["estimator"] = {
        "queries": len(ranges),
        "scalar_ms": scalar_elapsed * 1e3,
        "batch_ms": batch_elapsed * 1e3,
        "speedup": scalar_elapsed / max(batch_elapsed, 1e-9),
    }
    save_json("scaling", _SCALING_RESULTS)
    assert np.allclose(batch_out, scalar_out)
    if not SMOKE:
        assert batch_elapsed < scalar_elapsed


def _make_service(citypulse, p):
    service = PrivateRangeCountingService.from_values(
        citypulse.values("ozone"), k=DEVICE_COUNT, seed=3
    )
    service.collect(p)
    return service


def test_broker_batch_beats_scalar_answer_loop(citypulse, save_result,
                                               save_json):
    """answer_batch over 200 queries vs 200 scalar answer() trades.

    Two identical stacks (same seeds, same collected samples, same noise
    generator state) answer the same 200-query workload; the batch path
    must produce bit-identical deterministic estimates and, at paper
    scale, at least a 5x end-to-end speedup over the scalar loop.
    """
    p = 0.2
    workload = make_workload(citypulse.values("ozone"), num_queries=200, seed=9)
    spec = AccuracySpec(alpha=0.1, delta=0.5)
    queries = [
        RangeQuery(low=low, high=high) for low, high in workload.ranges
    ]

    scalar_svc = _make_service(citypulse, p)
    start = time.perf_counter()
    scalar_answers = [
        scalar_svc.broker.answer(q, spec, consumer="bench") for q in queries
    ]
    scalar_elapsed = time.perf_counter() - start

    batch_svc = _make_service(citypulse, p)
    start = time.perf_counter()
    batch_answers = batch_svc.broker.answer_batch(
        queries, spec, consumer="bench"
    )
    batch_elapsed = time.perf_counter() - start

    speedup = scalar_elapsed / max(batch_elapsed, 1e-9)
    save_result(
        "scaling_batch_vs_scalar",
        "# scaling: broker end-to-end, 200-query workload, k=16, p=0.2\n"
        "# (plan + estimate + noise + charge per trade; identical stacks)\n"
        f"scalar answer() loop : {scalar_elapsed * 1e3:8.2f} ms\n"
        f"broker answer_batch  : {batch_elapsed * 1e3:8.2f} ms\n"
        f"end-to-end speedup   : {speedup:8.1f}x",
    )
    _SCALING_RESULTS["broker_end_to_end"] = {
        "queries": len(queries),
        "scalar_ms": scalar_elapsed * 1e3,
        "batch_ms": batch_elapsed * 1e3,
        "speedup": speedup,
    }
    save_json("scaling", _SCALING_RESULTS)

    # The deterministic halves of the two paths must agree bit for bit;
    # with identical generator states the noise matches too.
    assert [a.sample_estimate for a in batch_answers] == [
        a.sample_estimate for a in scalar_answers
    ]
    assert [a.value for a in batch_answers] == [
        a.value for a in scalar_answers
    ]
    assert len(batch_svc.broker.ledger) == len(scalar_svc.broker.ledger)
    assert batch_svc.privacy_spent() == pytest.approx(
        scalar_svc.privacy_spent()
    )
    if not SMOKE:
        assert speedup >= 5.0
