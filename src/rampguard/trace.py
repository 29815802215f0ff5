"""The stage loop shared by every policy, with its feed and trace types."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Protocol

import numpy as np

from .posterior import SufficientStats, update_stats
from .schedules import RiskSchedule

if TYPE_CHECKING:
    from .solver import StageDecision

__all__ = [
    "StageOutcome",
    "StageRecord",
    "ExperimentTrace",
    "StageFeed",
    "Stage",
    "Policy",
    "run_stages",
]


@dataclass(frozen=True)
class StageOutcome:
    """What one experiment stage produced, as seen by the stage loop.

    The sums and sums of squares are the observable side (treated outcomes
    under treatment, control outcomes under control). ``true_cost`` is the
    simulator-side sum of per-treated-unit costs, which requires both
    potential outcomes and is never observable in a real deployment.
    ``treated_outcomes`` carries the individual observed treated values, or
    None from a feed that does not report them (the Monte-Carlo solver
    needs them).
    """

    treated_sum: float
    treated_sumsq: float
    control_sum: float
    control_sumsq: float
    true_cost: float
    treated_outcomes: "np.ndarray | None" = None


class StageFeed(Protocol):
    """Per-stage oracle: population sizes up front, outcomes on demand.

    Policies that randomize their assignment (the Thompson baseline) draw
    from the feed's ``rng``.
    """

    rng: np.random.Generator

    @property
    def num_stages(self) -> int: ...

    def population(self, t: int) -> int:
        """Number of incoming units at stage t (1-based)."""
        ...

    def run_stage(self, t: int, m: int) -> StageOutcome:
        """Treat m of the stage-t units and report the outcomes."""
        ...

    def true_variance(self, t: int) -> "tuple[float, float] | None":
        """Ground-truth outcome variances at stage t, if the feed knows them."""
        ...


@dataclass(frozen=True)
class StageRecord:
    """One executed stage: the decision taken and the costs it incurred."""

    stage: int
    n_units: int
    m: int
    branch: str
    treated_sum: float
    control_sum: float
    stage_cost: float
    cum_cost: float


@dataclass(frozen=True)
class ExperimentTrace:
    """The stages one experiment ran, and the statistics after its last stage.

    The final cost is the last record's ``cum_cost``; the budget, and with
    it the surplus and ruin (see ``run_replications``), is the schedule's.
    """

    records: list[StageRecord]
    final_stats: SufficientStats


class Stage(NamedTuple):
    """What a policy may read when it decides stage ``t``.

    ``b_t`` and ``delta_t`` are the stage's threshold and tolerance and
    ``budget`` the schedule's total budget. ``stats`` folds in every
    earlier stage; ``history`` holds the treated outcomes of each earlier
    stage that treated units, as the feed reported them. ``streams(t)`` is
    the sampling stream of stage t for policies that sample.
    """

    t: int
    n_units: int
    b_t: float
    delta_t: float
    budget: float
    stats: SufficientStats
    feed: StageFeed
    history: "list[np.ndarray | None]"
    streams: Callable[[int], np.random.Generator]


class Policy(Protocol):
    """A ramp-size rule. A policy that may treat more than half of a stage
    sets ``cap_at_half = False``; the loop enforces the cap otherwise."""

    def decide(self, stage: Stage) -> "StageDecision": ...


def run_stages(
    schedule: RiskSchedule,
    feed: StageFeed,
    policy: Policy,
    streams: "Callable[[int], np.random.Generator] | None" = None,
) -> ExperimentTrace:
    """Run one experiment: stages 1..min(schedule, feed) under ``policy``.

    Each stage asks the policy for its treated-group size, commits the
    stage through the feed and folds the observed sums into the running
    statistics. A valid schedule admits every one of its stages, so the
    schedule and the feed are the only stop rules. ``streams`` maps a stage
    to its sampling stream; by default stage t samples from a generator
    seeded t.
    """
    if not callable(getattr(policy, "decide", None)):
        raise TypeError(f"{type(policy).__name__} is not a policy: it has no decide method")
    if streams is None:
        streams = np.random.default_rng
    enforce_half_cap = getattr(policy, "cap_at_half", True)

    records: list[StageRecord] = []
    stats = SufficientStats()
    history: list[np.ndarray | None] = []
    cum_cost = 0.0
    stages = min(schedule.num_stages, feed.num_stages)
    for t in range(1, stages + 1):
        n_t = feed.population(t)
        b_t = schedule.stage_budgets[t - 1]
        delta_t = schedule.stage_tolerances[t - 1]
        decision = policy.decide(
            Stage(t, n_t, b_t, delta_t, schedule.budget, stats, feed, history, streams)
        )
        outcome = feed.run_stage(t, decision.m)
        cum_cost += outcome.true_cost
        records.append(
            StageRecord(
                stage=t,
                n_units=n_t,
                m=decision.m,
                branch=decision.branch,
                treated_sum=outcome.treated_sum,
                control_sum=outcome.control_sum,
                stage_cost=outcome.true_cost,
                cum_cost=cum_cost,
            )
        )
        if decision.m > 0:
            history.append(outcome.treated_outcomes)
        stats = update_stats(
            stats,
            decision.m,
            n_t,
            outcome.treated_sum,
            outcome.control_sum,
            outcome.treated_sumsq,
            outcome.control_sumsq,
            enforce_half_cap=enforce_half_cap,
        )
    return ExperimentTrace(records, stats)
