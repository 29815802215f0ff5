"""Struct-of-arrays engine: the stage loop over a block of replications.

``trace.run_stages`` runs one replication against a ``ScenarioFeed`` that
draws every unit's pair of potential outcomes. A policy whose decision
reads only the running sums and counts, with variances that do not depend
on the data, needs no individual outcomes, and for Gaussian and
scaled-Bernoulli scenarios the stage sums have exact laws
(``draw_stage_sums``). ``run_block`` keeps one array entry per
replication for the running statistics and asks the policy for every
replication's stage decision at once through its ``decide_block``, which
sits beside the policy's scalar ``decide``:

- ``AnalyticPolicy`` solves the whole block with ``solve_ramp_sizes``;
- ``ThompsonPolicy`` draws the block's treated counts with one binomial
  call at the vectorized assignment probabilities.

``run_block`` may stack blocks into one pass whose numpy calls cover them
all. Per stage each block draws from its own generator what it would alone:
the decision first (the Thompson binomial draw; the analytic solver draws
nothing), then ``draw_stage_sums`` (treated, counterfactual, control). The
loop applies the same treated-count range check as the per-unit loop,
which stays the reference that the tests compare this engine against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple, Protocol

import numpy as np

from .posterior import GaussianPrior, Pair, posterior_moments
from .scenarios import Scenario, draw_stage_sums
from .schedules import RiskSchedule

__all__ = ["BlockStage", "BlockPolicy", "BlockTraces", "run_block"]


@dataclass(frozen=True)
class BlockTraces:
    """Per-stage results of replications, shaped (replications, stages run).

    ``branch`` holds indices into ``labels``, the policy's branch labels.
    """

    m: np.ndarray
    branch: np.ndarray
    stage_cost: np.ndarray
    cum_cost: np.ndarray
    labels: tuple[str, ...]


class BlockStage(NamedTuple):
    """What a policy may read when it decides stage ``t`` for a block.

    ``counts`` (whole numbers held as floats), ``sum_control`` and
    ``sum_treated`` are the running statistics of every replication, one
    array entry each. ``rng`` is the block's generator, or for stacked
    blocks a ``_Streams`` that draws each block's rows from its generator.
    """

    t: int
    n_units: int
    b_t: float
    delta_t: float
    counts: tuple[np.ndarray, np.ndarray]
    sum_control: np.ndarray
    sum_treated: np.ndarray
    scenario: Scenario
    rng: "np.random.Generator | _Streams"

    def true_variance(self, t: int) -> Pair:
        return (self.scenario.true_var(0, t), self.scenario.true_var(1, t))

    def posterior(self, prior: GaussianPrior, sigma_sq: Pair):
        """Array posterior moments ``(mu_p, sigma_p_sq)`` of every replication."""
        return posterior_moments(prior, sigma_sq, self.counts, (self.sum_control, self.sum_treated))


class BlockPolicy(Protocol):
    """A policy the block loop can run. ``decide_block`` returns ``(m,
    branch)`` arrays, ``branch`` indexing ``branch_labels``; a policy that
    may treat more than half of a stage sets ``cap_at_half = False``."""

    branch_labels: tuple[str, ...]

    def decide_block(self, stage: BlockStage) -> tuple[np.ndarray, np.ndarray]: ...


class _Streams:
    """Stacked blocks' generators. Block ``b`` draws rows ``b * size`` up to
    ``(b + 1) * size`` from its own generator, as it would alone: the same
    call shape, on its rows of the parameters. Draws are joined by row."""

    def __init__(self, rngs: Sequence[np.random.Generator], size: int):
        self.parts = [(g, slice(b * size, (b + 1) * size)) for b, g in enumerate(rngs)]

    def standard_normal(self, shape: tuple[int, ...]) -> np.ndarray:
        block = (*shape[:-1], shape[-1] // len(self.parts))
        return np.concatenate([g.standard_normal(block) for g, _ in self.parts], axis=-1)

    def binomial(self, n, p) -> np.ndarray:
        n, p = np.broadcast_arrays(n, p)
        return np.concatenate([g.binomial(n[..., r], p[..., r]) for g, r in self.parts], axis=-1)


def run_block(
    policy: BlockPolicy,
    schedule: RiskSchedule,
    scenario: Scenario,
    rngs: Sequence[np.random.Generator],
    size: int,
) -> BlockTraces:
    """Run blocks of ``size`` independent replications of the stage loop.

    ``rngs`` holds one generator per block; the blocks run stacked as one
    pass with rows in block order.
    Stages run while the schedule has entries and the scenario has stages;
    these stop rules do not depend on the data, so every replication runs
    the same stages. The scenario's family must have a sum law and the
    policy's decision must read only the running sums and counts;
    ``replication.run_replications`` checks both before it gets here.
    """
    half_cap = getattr(policy, "cap_at_half", True)
    rng = rngs[0] if len(rngs) == 1 else _Streams(rngs, size)
    size *= len(rngs)

    counts = (np.zeros(size), np.zeros(size))
    sum_control = np.zeros(size)
    sum_treated = np.zeros(size)
    cum_cost = np.zeros(size)
    columns: list[tuple[np.ndarray, ...]] = []

    for t in range(1, min(schedule.num_stages, scenario.T) + 1):
        n_t = scenario.population[t - 1]
        m, branch = policy.decide_block(
            BlockStage(
                t,
                n_t,
                schedule.stage_budgets[t - 1],
                schedule.stage_tolerances[t - 1],
                counts,
                sum_control,
                sum_treated,
                scenario,
                rng,
            )
        )
        top = n_t // 2 if half_cap else n_t
        if m.min(initial=0) < 0 or m.max(initial=0) > top:
            raise ValueError(f"stage {t}: m outside [0, {top}]")

        treated, counterfactual, control = draw_stage_sums(scenario, t, m, rng)
        stage_cost = np.where(m > 0, treated - counterfactual, 0.0)
        cum_cost = cum_cost + stage_cost
        columns.append((m, branch, stage_cost, cum_cost))
        sum_treated = sum_treated + treated
        sum_control = sum_control + control
        counts = (counts[0] + (n_t - m), counts[1] + m)

    labels = tuple(policy.branch_labels)
    if not columns:
        empty = np.zeros((size, 0))
        return BlockTraces(empty.astype(np.int64), empty.astype(np.int8), empty, empty, labels)
    return BlockTraces(*(np.stack(col, axis=1) for col in zip(*columns)), labels)
