"""RankCounting -- the paper's rank-assisted range-counting estimator.

Section III-A, "The RankCounting Estimator".  Each node Bernoulli(p)-samples
its data and transmits ``(value, local rank)`` pairs.  For a query
``[l, u]`` the estimator looks only at the *boundary* samples:

* ``p(l, i)`` -- the sampled element closest below ``l`` (the predecessor);
* ``s(u, i)`` -- the sampled element closest above ``u`` (the successor);

and reconstructs the in-range count from their ranks, applying a ``1/p``
correction per existing boundary witness:

====================  =============================================
case                  estimate of ``γ(l, u, i)``
====================  =============================================
both exist            ``γ(p(l), s(u), i) − 2/p`` = ``r_s − r_p + 1 − 2/p``
only predecessor      ``γ(p(l), lst, i) − 1/p`` = ``n_i − r_p + 1 − 1/p``
only successor        ``γ(fst, s(u), i) − 1/p`` = ``r_s − 1/p``
neither               ``γ(fst, lst, i)`` = ``n_i``
====================  =============================================

**Tie handling.**  Ranks come from a *stable* ascending sort, so duplicates
get distinct consecutive ranks and every rank-interval count is exact.  The
predecessor is chosen among sampled elements with value strictly below ``l``
(the maximum-rank one), the successor among values strictly above ``u``
(the minimum-rank one); elements equal to a bound are inside the range.
With ``m`` elements strictly below ``l``, the boundary gap
``r(l) − r_p`` is then a Geometric(p) variable truncated at ``m`` with an
atom of mass ``(1 − p)^m`` at the no-witness case -- precisely the
distribution that makes the four-case estimator unbiased (Theorem 3.1) with
per-node variance at most ``8/p²`` and global variance at most ``8k/p²``
(Theorem 3.2).
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from typing import Iterator, List, Sequence, Tuple, overload

import numpy as np

from repro.errors import InvalidQueryError
from repro.estimators.base import EstimateResult, NodeSample, validate_range

__all__ = ["RankCountingEstimator", "RankIndex", "rank_counting_node_estimate"]


def rank_counting_node_estimate(sample: NodeSample, low: float, high: float) -> float:
    """Apply the four-case RankCounting rule to one node sample.

    Returns the (possibly fractional or negative) estimate of
    ``γ(low, high, D_i)``.  Requires ``sample.p > 0`` unless the node is
    known to be empty, in which case the answer is exactly 0.
    """
    validate_range(low, high)
    n_i = sample.node_size
    if n_i == 0:
        return 0.0
    p = sample.p
    if p <= 0.0:
        raise ValueError("sampling probability must be positive to estimate")

    values = sample.values
    ranks = sample.ranks

    # Sampled values are rank-ordered, hence value-ordered: binary search
    # locates the boundary witnesses.  ``idx_low`` counts sampled values
    # strictly below ``low``; ``idx_high`` counts those <= ``high``.
    idx_low = int(np.searchsorted(values, low, side="left"))
    idx_high = int(np.searchsorted(values, high, side="right"))

    has_pred = idx_low > 0
    has_succ = idx_high < len(values)

    if has_pred and has_succ:
        r_pred = int(ranks[idx_low - 1])
        r_succ = int(ranks[idx_high])
        return (r_succ - r_pred + 1) - 2.0 / p
    if has_pred:
        r_pred = int(ranks[idx_low - 1])
        return (n_i - r_pred + 1) - 1.0 / p
    if has_succ:
        r_succ = int(ranks[idx_high])
        return float(r_succ) - 1.0 / p
    return float(n_i)


class RankCountingEstimator:
    """The paper's estimator: per-node four-case rule, summed over nodes.

    The global estimate ``γ̂(l, u, S) = Σ_i γ̂(l, u, i)`` is unbiased for
    ``γ(l, u, D)`` with variance at most ``8k/p²`` (Theorem 3.2) -- a bound
    that, unlike BasicCounting's ``γ(1 − p)/p``, does not grow with the
    queried range.
    """

    name = "RankCounting"

    def estimate(
        self, samples: Sequence[NodeSample], low: float, high: float
    ) -> EstimateResult:
        """Estimate ``γ(low, high, D)`` from per-node rank samples."""
        validate_range(low, high)
        if not samples:
            raise ValueError("at least one node sample is required")
        non_empty = [s for s in samples if s.node_size > 0]
        p = non_empty[0].p if non_empty else samples[0].p
        if any(abs(s.p - p) > 1e-12 for s in non_empty):
            raise ValueError("all node samples must share one sampling rate")
        if non_empty and p <= 0.0:
            raise ValueError("sampling probability must be positive to estimate")

        per_node: List[float] = [
            rank_counting_node_estimate(s, low, high) for s in samples
        ]
        k = len(samples)
        total_size = sum(s.node_size for s in samples)
        variance_bound = 8.0 * k / (p * p) if p > 0 else 0.0
        return EstimateResult(
            estimate=float(sum(per_node)),
            variance_bound=variance_bound,
            node_count=k,
            total_size=total_size,
            p=p,
            per_node=per_node,
        )

    def estimate_many(
        self,
        samples: "RankIndex | Sequence[NodeSample]",
        ranges: Sequence[Tuple[float, float]],
    ) -> np.ndarray:
        """Vectorized batch estimation over many ``(low, high)`` ranges.

        Returns one estimate per range, each exactly equal to what
        :meth:`estimate` would produce -- the batch form exists because
        workload sweeps and brokers issue many queries against one sample
        set.  ``samples`` is a :class:`RankIndex` (built once per sample
        set by its owner) or a plain sample sequence, indexed here for
        this call.  The boundary witnesses of every node come from two
        binary searches over the index's merged values; the four-case
        rule then runs once over a (nodes × ranges) matrix, and its rows
        are added in node order, as the scalar path adds its per-node
        estimates.
        """
        if not samples:
            raise ValueError("at least one node sample is required")
        if len(ranges) == 0:
            return np.zeros(0, dtype=np.float64)
        lows = np.asarray([r[0] for r in ranges], dtype=np.float64)
        highs = np.asarray([r[1] for r in ranges], dtype=np.float64)
        if not (np.all(np.isfinite(lows)) and np.all(np.isfinite(highs))):
            raise InvalidQueryError("range bounds must be finite")
        if np.any(lows > highs):
            raise InvalidQueryError("every range needs low <= high")

        index = samples if isinstance(samples, RankIndex) else RankIndex(samples)
        # Same shared-rate validation as the scalar :meth:`estimate`, so a
        # mixed-p sample list fails identically on both paths.
        if index.mixed_rates:
            raise ValueError("all node samples must share one sampling rate")
        totals = np.zeros(len(ranges), dtype=np.float64)
        if index.below.shape[0] == 0:
            return totals
        if index.p <= 0.0:
            raise ValueError("sampling probability must be positive to estimate")

        # Per node: sampled values strictly below ``low`` and those
        # <= ``high``, read off the prefix counts at the merged-order
        # positions of the bounds.
        idx_low = index.below[:, np.searchsorted(index.merged, lows, side="left")]
        idx_high = index.below[:, np.searchsorted(index.merged, highs, side="right")]
        has_pred = idx_low > 0
        has_succ = idx_high < index.counts
        r_pred = index.ranks[index.offsets + idx_low - 1]
        r_succ = index.ranks[index.offsets + idx_high]
        estimates = np.where(
            has_pred,
            np.where(
                has_succ,
                (r_succ - r_pred + 1) - index.two_over_p,
                (index.sizes - r_pred + 1) - index.one_over_p,
            ),
            np.where(has_succ, r_succ - index.one_over_p, index.sizes),
        )
        # Row by row in node order: the scalar path's summation order.
        for row in estimates:
            totals += row
        return totals


class RankIndex(SequenceABC[NodeSample]):
    """One sample set, indexed for :meth:`RankCountingEstimator.estimate_many`.

    Built once per immutable sample set -- a base station's committed
    round, a sealed streaming epoch, a cluster gather over one touched
    shard set -- and reused by every batch until the set changes.  It is
    the sample sequence it was built from (so any estimator can read it)
    plus, over the nodes with ``node_size > 0`` in order:

    * ``merged`` -- every sampled value, sorted;
    * ``below`` -- a nodes × (M + 1) prefix count: ``below[j, t]`` is how
      many of node ``j``'s sampled values are among ``merged[:t]``;
    * ``ranks`` / ``offsets`` / ``counts`` -- the nodes' ranks
      concatenated (plus a trailing sentinel), each node's offset into
      them and its sample count;
    * ``sizes``, ``one_over_p``, ``two_over_p`` -- per-node ``n_i``,
      ``1/p`` and ``2/p``.

    A bound's position ``t`` in ``merged`` always falls between distinct
    values, where ``below[j, t]`` counts exactly node ``j``'s values on
    that side of the bound -- what a per-node binary search returns -- so
    estimates from the index are bit-identical to the per-node rule.
    """

    __slots__ = (
        "_samples", "p", "mixed_rates", "merged", "below", "ranks",
        "offsets", "counts", "sizes", "one_over_p", "two_over_p",
    )

    def __init__(self, samples: Sequence[NodeSample]) -> None:
        self._samples: Tuple[NodeSample, ...] = tuple(samples)
        non_empty = [s for s in self._samples if s.node_size > 0]
        if self._samples:
            self.p = non_empty[0].p if non_empty else self._samples[0].p
        else:
            self.p = 0.0
        self.mixed_rates = any(abs(s.p - self.p) > 1e-12 for s in non_empty)
        counts = np.array([len(s.values) for s in non_empty], dtype=np.intp)
        offsets = np.zeros(len(non_empty), dtype=np.intp)
        np.cumsum(counts[:-1], out=offsets[1:])
        values = np.concatenate(
            [s.values for s in non_empty] + [np.zeros(0, dtype=np.float64)]
        )
        order = np.argsort(values, kind="stable")
        self.merged = values[order]
        # The narrowest signed type that holds every count: the matrix
        # grows with nodes × samples, so it is most of the index.
        count_type = np.min_scalar_type(-(len(values) + 1))
        below = np.zeros((len(non_empty), len(values) + 1), dtype=count_type)
        owner = np.repeat(np.arange(len(non_empty)), counts)
        below[owner[order], np.arange(1, len(values) + 1)] = 1
        np.cumsum(below, axis=1, out=below)
        self.below = below
        # A trailing sentinel keeps the masked-out gathers in bounds
        # (``offset - 1`` of the first node wraps onto it, and so does the
        # successor slot one past the last node's samples).
        self.ranks = np.concatenate(
            [s.ranks for s in non_empty] + [np.zeros(1, dtype=np.int64)]
        )
        self.offsets = offsets[:, None]
        self.counts = counts[:, None]
        self.sizes = np.array([[s.node_size] for s in non_empty], dtype=np.int64)
        ps = np.array([[s.p] for s in non_empty], dtype=np.float64)
        self.one_over_p = 1.0 / ps
        self.two_over_p = 2.0 / ps

    @overload
    def __getitem__(self, i: int) -> NodeSample: ...

    @overload
    def __getitem__(self, i: slice) -> Sequence[NodeSample]: ...

    def __getitem__(self, i: "int | slice") -> "NodeSample | Sequence[NodeSample]":
        return self._samples[i]

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[NodeSample]:
        return iter(self._samples)
