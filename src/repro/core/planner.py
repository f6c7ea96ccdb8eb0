"""Query planning: when to reuse samples, when to top up, how to perturb.

The broker serves many queries from one stored sample ("one sample,
multiple queries").  For each request the planner decides:

1. whether the stored sample at rate ``p`` can support the target at all
   (the feasibility condition of optimization problem (3)), and if not,
   which higher rate a top-up collection should aim for;
2. given a feasible rate, the optimal ``(α', δ', ε)`` split via
   :func:`repro.privacy.optimizer.optimize_privacy_plan`.

The top-up target leaves explicit head-room: it calibrates Theorem 3.3 at
``α' = α·alpha_fraction`` and ``δ' = δ + (1 − δ)·delta_fraction`` so that
after collection the optimizer has a non-degenerate search interval.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InfeasiblePlanError
from repro.estimators.calibration import (
    min_feasible_alpha,
    required_sampling_rate,
)
from repro.core.query import AccuracySpec
from repro.privacy.optimizer import (
    PrivacyPlan,
    SensitivityPolicy,
    optimize_privacy_plan,
)

__all__ = ["PlanMemo", "QueryPlanner", "zero_plan"]


@dataclass
class QueryPlanner:
    """Plans private releases for a fixed fleet shape ``(k, n)``.

    Parameters
    ----------
    k, n:
        Node count and total record count of the dataset served.
    grid_points:
        Resolution of the optimizer's ``α'`` sweep.
    alpha_fraction, delta_fraction:
        Head-room policy for top-up targets (see module docstring).
    sensitivity_policy:
        How the optimizer bounds ``Δγ̂``.
    max_node_size:
        Required when the policy is ``WORST_CASE``.
    """

    k: int
    n: int
    grid_points: int = 512
    alpha_fraction: float = 0.5
    delta_fraction: float = 0.5
    sensitivity_policy: SensitivityPolicy = SensitivityPolicy.EXPECTED
    max_node_size: "int | None" = None

    def __post_init__(self) -> None:
        if self.k <= 0 or self.n <= 0:
            raise ValueError("k and n must be positive")
        if not 0.0 < self.alpha_fraction < 1.0:
            raise ValueError("alpha_fraction must be in (0, 1)")
        if not 0.0 < self.delta_fraction < 1.0:
            raise ValueError("delta_fraction must be in (0, 1)")

    def supports(self, spec: AccuracySpec, p: float) -> bool:
        """Whether a sample at rate ``p`` can satisfy ``spec`` at all.

        Feasibility of problem (3) requires some ``α' < α`` with
        ``δ'(α') > δ``, i.e. ``min_feasible_alpha(p, δ) < α``.
        """
        if not 0.0 < p <= 1.0:
            return False
        return min_feasible_alpha(p, self.k, self.n, spec.delta) < spec.alpha

    def required_rate(self, spec: AccuracySpec) -> float:
        """Sampling rate a top-up should target for ``spec``.

        Calibrates Theorem 3.3 at the head-room point
        ``(α·alpha_fraction, δ + (1 − δ)·delta_fraction)`` so the optimizer
        has room on both sides after collection.
        """
        alpha_target = spec.alpha * self.alpha_fraction
        delta_target = spec.delta + (1.0 - spec.delta) * self.delta_fraction
        return required_sampling_rate(alpha_target, delta_target, self.k, self.n)

    def plan(self, spec: AccuracySpec, p: float) -> PrivacyPlan:
        """Solve problem (3) for ``spec`` against a sample at rate ``p``.

        Raises
        ------
        InfeasiblePlanError
            When the sample cannot support the target; the exception's
            message includes the planner's recommended top-up rate.
        """
        if not self.supports(spec, p):
            rate = self.required_rate(spec)
            raise InfeasiblePlanError(
                f"sample rate p={p:.6g} cannot support (alpha={spec.alpha}, "
                f"delta={spec.delta}); top up to p>={rate:.6g}"
            )
        return optimize_privacy_plan(
            alpha=spec.alpha,
            delta=spec.delta,
            p=p,
            k=self.k,
            n=self.n,
            grid_points=self.grid_points,
            sensitivity_policy=self.sensitivity_policy,
            max_node_size=self.max_node_size,
        )


#: Plans (and shape planners) a :class:`PlanMemo` holds before it
#: clears them wholesale.
_PLAN_MEMO_LIMIT = 2048


class PlanMemo:
    """Memoized :meth:`QueryPlanner.plan` solves keyed on ``(α, δ, p, k, n)``.

    The one plan cache of every broker: the plain broker plans its fleet
    through it, the streaming broker each window shape, and the cluster
    coordinator each touched-shard shape.  A solve is a pure function of
    the key.
    """

    def __init__(self, grid_points: int = 512) -> None:
        self.grid_points = grid_points
        self._plans: "dict[tuple[float, float, float, int, int], PrivacyPlan]" = {}
        self._planners: "dict[tuple[int, int], QueryPlanner]" = {}

    def planner(self, k: int, n: int) -> QueryPlanner:
        """The (cached) planner of one fleet shape: feasibility, top-up."""
        planner = self._planners.get((k, n))
        if planner is None:
            if len(self._planners) > _PLAN_MEMO_LIMIT:
                self._planners.clear()
            planner = self._planners[(k, n)] = QueryPlanner(
                k=k, n=n, grid_points=self.grid_points
            )
        return planner

    def plan(self, spec: AccuracySpec, p: float, k: int, n: int) -> PrivacyPlan:
        """``planner(k, n).plan(spec, p)``, solved once per key; raises
        :class:`InfeasiblePlanError` like it."""
        key = (spec.alpha, spec.delta, p, k, n)
        plan = self._plans.get(key)
        if plan is None:
            plan = self.planner(k, n).plan(spec, p)
            if len(self._plans) > _PLAN_MEMO_LIMIT:
                self._plans.clear()
            self._plans[key] = plan
        return plan

    def clear(self) -> None:
        """Forget every memoized plan (the next request re-solves)."""
        self._plans.clear()


def zero_plan(spec: AccuracySpec, n: int = 0, k: int = 0) -> PrivacyPlan:
    """The plan of a release that spent nothing.

    Describes an answer derived purely from public partition metadata (a
    routed cluster's pruned and exactly-covered shards): no sampling
    error reserved, no noise injected, ε = ε′ = 0.
    """
    return PrivacyPlan(
        alpha=spec.alpha,
        delta=spec.delta,
        alpha_prime=0.0,
        delta_prime=1.0,
        epsilon=0.0,
        epsilon_prime=0.0,
        sensitivity=0.0,
        noise_scale=0.0,
        p=1.0,
        k=k,
        n=n,
    )
