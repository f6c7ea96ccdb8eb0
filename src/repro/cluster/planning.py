"""Range-aware routing for the pooled cluster release.

A cluster is one fleet split over shards of the broker's own base
stations.  The RankCounting estimate is a sum of per-node terms
(``Var ≤ 8k/p²``), so the shards a query touches are simply a group of
nodes: the coordinator pools their estimates, plans once over the
touched fleet shape ``(k_t, n_t)`` and draws one Laplace noise per
query.  Nothing here splits the confidence target or depends on the
sampling rate.

For a query ``[low, high]`` :func:`route_query` classifies each shard by
its value *band* (tight under range-sharded partitions):

* **pruned** -- its band cannot intersect the range: it holds zero
  in-range records, contributes exactly 0, and is skipped (no sample
  read, no noise, no ε);
* **exact** -- its band is fully contained in the range: every one of
  its ``n_j`` records is in range, so its contribution is the cached
  shard total ``n_j`` (public partition metadata, like the fleet sizes
  already used for pricing) at zero error and zero ε;
* **queried** -- the band straddles a query edge: these ``t <= s``
  shards' samples feed the one pooled release.

Pruned and exact shards contribute no error, so the whole tolerance
``α·n`` goes to the queried shards: the pooled release targets the
boosted ``α_t = α · n / N_t`` (capped) with ``N_t = Σ_queried n_j`` at
the consumer's own ``δ``.  Total error stays ``<= α·n`` with
probability ``>= δ``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.core.planner import zero_plan
from repro.core.query import AccuracySpec
from repro.datasets.partition import ShardBand

__all__ = [
    "ALPHA_BOOST_CAP",
    "degraded_delta",
    "zero_plan",
    "RoutePlan",
    "route_query",
]


def degraded_delta(delta: float, degraded_shards: int, factor: float) -> float:
    """Reported confidence after ``degraded_shards`` replica failovers.

    A replica answers from a mirrored store, so the math of its release
    is intact -- but the operator may not trust a just-failed-over shard
    at full confidence (the mirror could trail the primary by an
    in-flight round).  Each degraded shard multiplies the reported δ by
    ``factor ∈ (0, 1]``.
    """
    if not 0.0 < factor <= 1.0:
        raise ValueError("degradation factor must be in (0, 1]")
    return delta * factor ** degraded_shards


#: Ceiling on the re-allocated tolerance.  The boost ``α · n / N_t`` can
#: exceed 1 when the queried shards are tiny;
#: :class:`~repro.core.query.AccuracySpec` requires ``α < 1`` strictly.
#: The cap only binds once the queried shards hold under ``α/0.95`` of
#: the fleet (e.g. one shard of eight at α ≥ 0.12); the *absolute*
#: tolerance of the pooled release, ``min(α·n, 0.95·N_t)``, never exceeds
#: the contract's ``α·n``.  Kept just under 1 rather than lower: once the
#: touched shards are small, every unit of forfeited tolerance inflates
#: ε′ hyperbolically.
ALPHA_BOOST_CAP = 0.95


@dataclass(frozen=True)
class RoutePlan:
    """One query's routing decision over a shard set.

    ``pruned`` / ``exact`` / ``queried`` partition the shard indices.
    ``spec`` is the ``(α_t, δ)`` target of the pooled release over the
    queried shards (the consumer's own spec on a broadcast), and
    ``exact_n`` the records the exact shards answer from metadata.
    ``routed`` is False when band metadata gave the planner nothing to
    exploit (no shard pruned or exactly covered): the release then pools
    the whole fleet, exactly as the plain broker does.
    """

    low: float
    high: float
    pruned: Tuple[int, ...]
    exact: Tuple[int, ...]
    queried: Tuple[int, ...]
    spec: AccuracySpec
    routed: bool
    exact_n: int = 0
    #: Stable routing fingerprint for cache keys and provenance:
    #: ``"b"`` for a broadcast, else the exact shard partition.
    signature: str = field(init=False, compare=False)

    def __post_init__(self) -> None:
        signature = "b"
        if self.routed:
            signature = "p{};x{};q{}".format(
                ",".join(str(i) for i in self.pruned),
                ",".join(str(i) for i in self.exact),
                ",".join(str(i) for i in self.queried),
            )
        object.__setattr__(self, "signature", signature)

    @property
    def shards(self) -> int:
        """Total shard count the plan partitions."""
        return len(self.pruned) + len(self.exact) + len(self.queried)

    @property
    def touched(self) -> int:
        """``t``: shards whose samples feed the fresh noisy release."""
        return len(self.queried)


def _boosted_alpha(
    alpha: float, n_total: int, n_queried: int, alpha_cap: float
) -> float:
    """Tolerance re-allocated to the queried shards, capped and monotone.

    Never below the consumer ``α`` (the uncapped boost ``α·n/N_t >= α``
    always holds since ``N_t <= n``), never at or above 1.
    """
    boost = alpha * (float(n_total) / float(n_queried))
    return max(alpha, min(boost, alpha_cap, 0.999999))


def route_query(
    spec: AccuracySpec,
    low: float,
    high: float,
    bands: Sequence[ShardBand],
    sizes: Sequence[int],
    alpha_cap: float = ALPHA_BOOST_CAP,
) -> RoutePlan:
    """Classify every shard against ``[low, high]`` and boost ``α``.

    Parameters
    ----------
    spec:
        The consumer's ``(α, δ)`` contract for the whole cluster answer.
    low, high:
        The query range (closed interval, matching the estimators).
    bands, sizes:
        Per-shard value bands and record counts, index-aligned.
    alpha_cap:
        Ceiling on the re-allocated tolerance.

    Pure interval arithmetic: equal ``(spec, range, bands, sizes)``
    always route identically.
    """
    if len(bands) == 0:
        raise ValueError("at least one shard band is required")
    if len(bands) != len(sizes):
        raise ValueError(
            f"got {len(bands)} bands for {len(sizes)} shard sizes"
        )
    if not low <= high:
        raise ValueError("query range must satisfy low <= high")
    if not 0.0 < alpha_cap < 1.0:
        raise ValueError("alpha_cap must be in (0, 1)")

    pruned: "List[int]" = []
    exact: "List[int]" = []
    queried: "List[int]" = []
    for index, band in enumerate(bands):
        if not band.intersects(low, high):
            pruned.append(index)
        elif band.contained_in(low, high):
            exact.append(index)
        else:
            queried.append(index)

    if not pruned and not exact:
        # Band metadata gave nothing to exploit (typical for full-domain
        # bounds): pool the whole fleet at the consumer's own target.
        return RoutePlan(
            low=low, high=high, pruned=(), exact=(),
            queried=tuple(queried), spec=spec, routed=False,
        )

    release = spec
    if queried:
        n_queried = sum(sizes[j] for j in queried)
        if n_queried <= 0:
            raise ValueError("queried shards must hold at least one record")
        alpha_t = _boosted_alpha(spec.alpha, sum(sizes), n_queried, alpha_cap)
        release = AccuracySpec(alpha=alpha_t, delta=spec.delta)
    return RoutePlan(
        low=low,
        high=high,
        pruned=tuple(pruned),
        exact=tuple(exact),
        queried=tuple(queried),
        spec=release,
        routed=True,
        exact_n=sum(sizes[j] for j in exact),
    )
