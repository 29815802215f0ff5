"""Struct-of-arrays engine: the analytic ramp loop over a block of replications.

``trace.run_stages`` with an ``AnalyticPolicy`` runs one replication against
a ``ScenarioFeed`` that draws every unit's pair of potential outcomes. Under known variances the
solver needs only each stage's sums, and for Gaussian and scaled-Bernoulli
scenarios those sums have exact laws (``draw_stage_sums``). This engine
keeps one array entry per replication for the running statistics, draws
the stage sums for the whole block at once, folds them into array-valued
posteriors and solves every replication's stage with one
``solve_ramp_sizes`` call. It applies the same schedule validation and
half-population cap as the per-unit loop, which stays the reference that
the tests compare this engine against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .posterior import GaussianPrior, SufficientStats, VariancePolicy, posterior_moments
from .scenarios import Scenario, draw_stage_sums
from .schedules import RiskSchedule, ScheduleError, validate_schedule
from .solver import PredictiveMoments, solve_ramp_sizes

__all__ = ["BlockTraces", "run_rrc_block"]


@dataclass(frozen=True)
class BlockTraces:
    """Per-stage results of a block, shaped (replications, stages run).

    ``branch`` holds indices into ``solver.BRANCHES``.
    """

    m: np.ndarray
    branch: np.ndarray
    stage_cost: np.ndarray
    cum_cost: np.ndarray


def run_rrc_block(
    prior: GaussianPrior,
    variance_policy: VariancePolicy,
    schedule: RiskSchedule,
    scenario: Scenario,
    rng: np.random.Generator,
    size: int,
) -> BlockTraces:
    """Run ``size`` independent replications of the analytic ramp loop.

    Stages run while the schedule has entries and the scenario has stages;
    these stop rules do not depend on the data, so every replication runs
    the same stages.
    ``variance_policy`` must be in known mode (the variances then do not
    depend on the data either) and the scenario's family must have a sum
    law; ``replication.run_replications`` checks both before it gets here.
    """
    report = validate_schedule(schedule)
    if not report.valid:
        raise ScheduleError(f"schedule failed validation: {report}")
    if variance_policy.mode != "known":
        raise ValueError("the batch engine needs known outcome variances")

    counts = (np.zeros(size), np.zeros(size))  # whole numbers, held as floats
    sum_control = np.zeros(size)
    sum_treated = np.zeros(size)
    cum_cost = np.zeros(size)
    columns: list[tuple[np.ndarray, ...]] = []

    for t in range(1, min(schedule.num_stages, scenario.T) + 1):
        delta_t = schedule.stage_tolerances[t - 1]
        n_t = scenario.population[t - 1]
        truth = (scenario.true_var(0, t), scenario.true_var(1, t))
        sigma_sq = variance_policy.resolve(SufficientStats(), truth).sigma_sq
        mu_p, sigma_p_sq = posterior_moments(prior, sigma_sq, counts, (sum_control, sum_treated))
        m, branch = solve_ramp_sizes(
            PredictiveMoments(mu_p, sigma_p_sq, sigma_sq, counts[1]),
            sum_treated,
            schedule.stage_budgets[t - 1],
            delta_t,
            n_t,
        )
        if m.min(initial=0) < 0 or m.max(initial=0) > n_t // 2:
            raise ValueError(f"stage {t}: m outside [0, {n_t // 2}]")

        treated, counterfactual, control = draw_stage_sums(scenario, t, m, rng)
        stage_cost = np.where(m > 0, treated - counterfactual, 0.0)
        cum_cost = cum_cost + stage_cost
        columns.append((m, branch, stage_cost, cum_cost))
        sum_treated = sum_treated + treated
        sum_control = sum_control + control
        counts = (counts[0] + (n_t - m), counts[1] + m)

    if not columns:
        empty = np.zeros((size, 0))
        return BlockTraces(empty.astype(np.int64), empty.astype(np.int8), empty, empty)
    return BlockTraces(*(np.stack(col, axis=1) for col in zip(*columns)))
