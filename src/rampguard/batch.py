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

- ``AnalyticPolicy`` solves the block with ``solve_ramp_sizes`` (stage 1: one scalar solve);
- ``ThompsonPolicy`` draws the block's treated counts with one binomial
  call at the vectorized assignment probabilities.

``run_block`` may stack blocks into one pass whose numpy calls cover them
all. Per stage each block draws from its own generator what it would alone:
the decision first (the Thompson binomial draw; the analytic solver draws
nothing), then ``draw_stage_sums`` (treated, counterfactual, control).
Every block draws whole; a pass returns exactly the rows its caller keeps
(see ``run_block``). The loop applies the per-unit loop's treated-count
rule, ``trace.check_decision``; the per-unit loop stays the reference that
the tests compare this engine against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple, Protocol

import numpy as np

from .scenarios import Scenario, draw_stage_sums, has_gaussian_sum_law
from .schedules import RiskSchedule
from .solver import AnalyticPolicy
from .trace import Policy, check_decision

__all__ = ["BLOCK_SIZE", "BlockStage", "BlockPolicy", "BlockTraces", "CompactTrace", "run_block"]

# Replications per batch-engine block; every block draws from its stream whole.
BLOCK_SIZE = 256


@dataclass(frozen=True)
class CompactTrace:
    """Per-stage essentials of one replication, in stage order."""

    m: tuple[int, ...]
    branch: tuple[str, ...]
    stage_cost: tuple[float, ...]
    cum_cost: tuple[float, ...]


@dataclass(frozen=True)
class BlockTraces:
    """Per-stage results of replications, shaped (replications, stages run).

    ``branch`` holds indices into ``labels``, the policy's branch labels.
    Iterating yields each replication's ``CompactTrace``, built
    ``BLOCK_SIZE`` rows at a time.
    """

    m: np.ndarray
    branch: np.ndarray
    stage_cost: np.ndarray
    cum_cost: np.ndarray
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.m)

    def __iter__(self):
        labels = np.array(self.labels, dtype=object)
        for start in range(0, len(self), BLOCK_SIZE):
            rows = slice(start, start + BLOCK_SIZE)
            m, branch = self.m[rows].tolist(), labels[self.branch[rows]].tolist()
            costs = self.stage_cost[rows].tolist(), self.cum_cost[rows].tolist()
            for row in zip(m, branch, *costs):
                yield CompactTrace(*map(tuple, row))

    @classmethod
    def empty(cls, rows: int, stages: int, labels) -> "BlockTraces":
        """Unfilled traces: int64 ``m``, int8 codes into ``labels``, float64 costs."""
        dtypes = (np.int64, np.int8, np.float64, np.float64)
        return cls(*(np.empty((rows, stages), d) for d in dtypes), tuple(labels))


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


class BlockPolicy(Policy, Protocol):
    """A policy the block loop can run: ``decide_block`` returns ``(m,
    branch)`` arrays, ``branch`` indexing ``branch_labels``."""

    def decide_block(self, stage: BlockStage) -> tuple[np.ndarray, np.ndarray]: ...


class _Streams:
    """Stacked blocks' generators. Block ``b`` draws its rows from its own
    generator as it would alone: the same call shape, on its rows of the
    parameters. Draws are joined by row, one block's without a copy, and
    only the leading ``rows`` are kept. A trimmed pass refuses ``binomial``:
    how far a binomial draw moves a stream depends on its parameters, so the
    dropped rows would change every later draw of the kept ones."""

    def __init__(self, rngs: Sequence[np.random.Generator], rows: int):
        self.parts = [(g, slice(b * BLOCK_SIZE, (b + 1) * BLOCK_SIZE)) for b, g in enumerate(rngs)]
        self.rows = rows

    def standard_normal(self, shape: tuple[int, ...]) -> np.ndarray:
        block = (*shape[:-1], BLOCK_SIZE)
        draws = [g.standard_normal(block) for g, _ in self.parts]
        return (draws[0] if len(draws) == 1 else np.concatenate(draws, axis=-1))[..., : self.rows]

    def binomial(self, n, p) -> np.ndarray:
        if self.rows < BLOCK_SIZE * len(self.parts):
            raise ValueError("a trimmed block pass cannot draw binomials: it needs every row")
        n, p = np.broadcast_arrays(n, p)
        return np.concatenate([g.binomial(n[..., r], p[..., r]) for g, r in self.parts], axis=-1)


def run_block(
    policy: BlockPolicy,
    schedule: RiskSchedule,
    scenario: Scenario,
    rngs: Sequence[np.random.Generator],
    rows: int,
) -> BlockTraces:
    """The leading ``rows`` replications of the blocks of ``rngs``, one generator each.

    The blocks run stacked as one pass with rows in block order; each draws
    whole. The pass computes only the kept rows where no dropped row changes
    a kept one: the analytic solver draws nothing, and a Gaussian sum law
    draws normals of a fixed shape. Every other pass computes whole blocks
    and writes only the kept rows into its result.
    Stages run while the schedule has entries and the scenario has stages;
    these stop rules do not depend on the data, so every replication runs
    the same stages. The scenario's family must have a sum law and the
    policy's decision must read only the running sums and counts;
    ``replication.run_replications`` checks both before it gets here.
    """
    whole = BLOCK_SIZE * len(rngs)
    width = rows if type(policy) is AnalyticPolicy and has_gaussian_sum_law(scenario) else whole
    rng = rngs[0] if width == whole == BLOCK_SIZE else _Streams(rngs, width)

    stages = min(schedule.num_stages, scenario.T)
    out = BlockTraces.empty(rows, stages, policy.branch_labels)
    counts = (np.zeros(width), np.zeros(width))
    sum_control = np.zeros(width)
    sum_treated = np.zeros(width)
    cum_cost = np.zeros(width)

    for t in range(1, stages + 1):
        n_t = scenario.population[t - 1]
        b_t, delta_t = schedule.stage_budgets[t - 1], schedule.stage_tolerances[t - 1]
        stage = BlockStage(t, n_t, b_t, delta_t, counts, sum_control, sum_treated, scenario, rng)
        m, branch = policy.decide_block(stage)
        check_decision(policy, t, n_t, m.min(initial=0), m.max(initial=0))

        treated, counterfactual, control = draw_stage_sums(scenario, t, m, rng)
        stage_cost = np.where(m > 0, treated - counterfactual, 0.0)
        cum_cost = cum_cost + stage_cost
        out.m[:, t - 1], out.branch[:, t - 1] = m[:rows], branch[:rows]
        out.stage_cost[:, t - 1], out.cum_cost[:, t - 1] = stage_cost[:rows], cum_cost[:rows]
        sum_treated = sum_treated + treated
        sum_control = sum_control + control
        counts = (counts[0] + (n_t - m), counts[1] + m)

    return out
