"""Replicated experiment runs with per-replication random streams.

Two engines run the replications. On a scenario whose stage sums have an
exact law (Gaussian and scaled-Bernoulli families), analytic runs with
known variances and Thompson runs take the batch engine
(``batch.run_block``): replications are grouped into blocks of
``BLOCK_SIZE``, and each block owns one random stream keyed by (seed,
``STREAM_TAG``, block index). Its unit of work is a group of up to
``GROUP_BLOCKS`` consecutive blocks, stacked in one ``run_block`` pass.
Every other run takes the per-unit engine, where each replication owns a
stream keyed by (seed, replication index, 0) and draws every unit's outcomes.

Either way a replication's result depends only on the seed and its index:
every block draws from its stream whole, and workers take whole groups or
whole replications. Each pass returns exactly the replications up to
``K_rep`` of its group, and decides itself how many rows to compute (see
``batch.run_block``). Both engines give ``BlockTraces`` coded by the policy's
``branch_labels``, joined in index order: summaries match at any worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .batch import BLOCK_SIZE, BlockTraces, CompactTrace, run_block
from .scenarios import Scenario, ScenarioFeed, has_sum_law
from .schedules import REPLICATION_CAP, RULES, RiskSchedule, checked
from .solver import AnalyticPolicy
from .thompson import ThompsonPolicy
from .trace import Policy, run_stages

__all__ = [
    "BLOCK_SIZE",
    "GROUP_BLOCKS",
    "REPLICATION_CAP",
    "STREAM_TAG",
    "UNIT_POPULATION_CAP",
    "CompactTrace",
    "ReplicationSummary",
    "run_replications",
    "resolve_workers",
    "replication_stream",
    "usable_cpus",
]

QUANTILE_LEVELS = (25.0, 50.0, 75.0)

# Blocks per batch-engine group, the unit of work: 8,192 replications or fewer run in process.
GROUP_BLOCKS = 32
# Units the per-unit engine draws in one stage at most: 80 MB per drawn array.
UNIT_POPULATION_CAP = 10**7
# Second key word of every batch-engine stream (see replication_stream).
STREAM_TAG = 0xFFFF_FFFF
# The per-stage result columns both engines produce, in BlockTraces order.
_COLUMNS = ("m", "branch", "stage_cost", "cum_cost")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def replication_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, key...) address.

    numpy's ``SeedSequence`` pads short keys with zero words, so
    ``(seed, b)`` and ``(seed, b, 0)`` give the same stream. An untagged
    batch key ``(seed, block)`` would therefore replay the per-unit stream
    ``(seed, rep, 0)`` of replication ``rep == block``. Batch keys are
    ``(seed, STREAM_TAG, block)`` instead: a per-unit key ``(seed, rep, t)``
    can reach one only from a replication index of ``STREAM_TAG = 2**32 - 1``
    or more, which no run can hold in memory.
    """
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(key)))


def _run_chunk(policy, scenario, schedule, seed, reps) -> list[BlockTraces]:
    """Per-unit results of ``reps``: one ``BlockTraces``, each row filled as its replication ends."""
    out = BlockTraces.empty(len(reps), min(schedule.num_stages, scenario.T), policy.branch_labels)
    codes = {label: code for code, label in enumerate(out.labels)}
    cost = getattr(policy, "cost", None)
    for i, rep in enumerate(reps):
        feed = ScenarioFeed(scenario, replication_stream(seed, rep, 0), cost)
        records = run_stages(schedule, feed, policy, partial(replication_stream, seed, rep)).records
        for j, r in enumerate(records):
            if r.branch not in codes:
                raise ValueError(f"stage {r.stage}: branch {r.branch!r} is not in the policy's branch_labels")
            out.m[i, j], out.branch[i, j] = r.m, codes[r.branch]
            out.stage_cost[i, j], out.cum_cost[i, j] = r.stage_cost, r.cum_cost
    return [out]


def _join(chunks: list[list[BlockTraces]]) -> BlockTraces:
    """Every chunk's traces in replication order: one concatenation per column, none for one part."""
    parts = [traces for chunk in chunks for traces in chunk]
    if len(parts) == 1:
        return parts[0]
    columns = (np.concatenate([getattr(p, f) for p in parts]) for f in _COLUMNS)
    return BlockTraces(*columns, parts[0].labels)


def _takes_batch_engine(policy: Policy, scenario: Scenario) -> bool:
    # A policy's decide_block reproduces its own decide, so a subclass,
    # which may override decide alone, keeps the per-unit engine.
    known = type(policy) is AnalyticPolicy and policy.variance.mode == "known"
    return has_sum_law(scenario) and (known or type(policy) is ThompsonPolicy)


def _run_groups(policy, scenario, schedule, seed, K_rep, groups) -> list[BlockTraces]:
    """Each group's traces: its blocks' share of the ``K_rep`` replications, stacked in one pass."""
    n_blocks = -(-K_rep // BLOCK_SIZE)
    traces = []
    for g in groups:
        blocks = range(g * GROUP_BLOCKS, min((g + 1) * GROUP_BLOCKS, n_blocks))
        rngs = [replication_stream(seed, STREAM_TAG, b) for b in blocks]
        rows = min(K_rep, blocks.stop * BLOCK_SIZE) - blocks.start * BLOCK_SIZE
        traces.append(run_block(policy, schedule, scenario, rngs, rows))
    return traces


def _map_chunks(fn, count: int, workers: int, *args) -> list:
    """``fn(*args, items)`` over items 0..count-1: one result per chunk, in item order.

    The pool has ``min(workers, usable CPUs, count)`` processes and gets at
    most four contiguous chunks per process, whatever the worker count; a
    pool of one or none runs all items in this process instead.
    Each pool worker may use its even share of the CPUs for imputation
    threads, so processes times threads never exceed the usable CPU count.
    """
    cpus = usable_cpus()
    pool_size = min(workers, cpus, count)
    if pool_size <= 1:
        return [fn(*args, range(count))]
    from concurrent.futures import ProcessPoolExecutor

    from .mc_solver import set_cpu_share

    n = min(count, 4 * pool_size)
    chunks = [range(count * i // n, count * (i + 1) // n) for i in range(n)]
    with ProcessPoolExecutor(
        max_workers=pool_size, initializer=set_cpu_share, initargs=(cpus // pool_size,)
    ) as pool:
        futures = [pool.submit(fn, *args, chunk) for chunk in chunks]
        return [fut.result() for fut in futures]


@dataclass
class ReplicationSummary:
    """Ruin rate and per-stage quantile curves over all replications."""

    ruin_rate: float
    ruin_half_width: float
    replications: int
    seed: int
    stages: int
    budget: float
    delta: float
    m_quantiles: np.ndarray  # shape (3, stages): rows q25, q50, q75
    surplus_quantiles: np.ndarray  # shape (3, stages)
    final_costs: np.ndarray  # shape (replications,)
    traces: "BlockTraces | None" = None

    def to_json_dict(self) -> dict:
        levels = [f"q{q:.0f}" for q in QUANTILE_LEVELS]
        return {
            "ruin_rate": self.ruin_rate,
            "ruin_half_width": self.ruin_half_width,
            "replications": self.replications,
            "seed": self.seed,
            "stages": self.stages,
            "budget": self.budget,
            "delta": self.delta,
            "m_quantiles": dict(zip(levels, self.m_quantiles.tolist())),
            "surplus_quantiles": dict(zip(levels, self.surplus_quantiles.tolist())),
        }


def resolve_workers(explicit: "int | None" = None) -> int:
    """Worker count: explicit argument, then RAMPGUARD_THREADS, then usable CPUs (at most 8)."""
    if explicit is not None:
        return max(1, int(explicit))
    env = os.environ.get("RAMPGUARD_THREADS")
    if env:
        try:
            count = int(env)
        except ValueError:
            count = 0
        if count < 1:
            raise ValueError(f"RAMPGUARD_THREADS must be an integer >= 1, got {env!r}")
        return count
    return min(usable_cpus(), 8)


def run_replications(
    policy,
    scenario: Scenario,
    schedule: RiskSchedule,
    K_rep: int,
    seed: int = 0,
    *,
    workers: int = 1,
    keep_traces: bool = False,
) -> ReplicationSummary:
    """Run K_rep independent experiments and summarize them.

    Ruin is accounted on the true (counterfactual-aware) costs, in the
    policy's ``cost`` when it has one, so the cost the policy bounds: a
    replication is ruined when its final cumulative cost is at or below the
    budget. Quantile curves cover the treated-group sizes and the running
    budget surplus per stage. The engine follows from the inputs alone
    (see the module docstring). A cost that overflows a float is neither
    ruined nor safe: ``ValueError`` names the first stage it reaches, as it
    does a decision whose branch is not in the policy's ``branch_labels``.
    A posterior mean that overflows raises ``NonFinitePosteriorError`` from
    the stage that forms it. Before any draw, a policy without ``decide`` or
    ``branch_labels`` raises ``TypeError``, and a ``K_rep`` that fails
    ``RULES["replications"]`` (a whole number in ``[1, REPLICATION_CAP]``;
    ``2.5`` and ``True`` fail it) or a per-unit stage of more than
    ``UNIT_POPULATION_CAP`` units, ``ValueError``.
    """
    if not (callable(getattr(policy, "decide", None)) and hasattr(policy, "branch_labels")):
        raise TypeError(f"{type(policy).__name__} is not a policy: it needs decide and branch_labels")
    K_rep = int(checked(RULES["replications"], K_rep, "K_rep"))
    workers = int(workers)

    if _takes_batch_engine(policy, scenario):
        n_groups = -(-K_rep // (BLOCK_SIZE * GROUP_BLOCKS))
        chunks = _map_chunks(_run_groups, n_groups, workers, policy, scenario, schedule, seed, K_rep)
    else:
        for t, n in enumerate(scenario.population[: schedule.num_stages], start=1):
            if n > UNIT_POPULATION_CAP:
                raise ValueError(
                    f"stage {t}: population {n} is more than the {UNIT_POPULATION_CAP} units "
                    "the per-unit engine draws in a stage"
                )
        chunks = _map_chunks(_run_chunk, K_rep, workers, policy, scenario, schedule, seed)
    results = _join(chunks)
    # A running cost that turns inf or NaN stays so: a finite last stage clears every stage.
    if results.cum_cost.shape[1] and not np.isfinite(results.cum_cost[:, -1]).all():
        stage = np.isfinite(results.cum_cost).all(axis=0).argmin() + 1
        raise ValueError(f"cum_cost is not finite at stage {stage}: the costs overflow a float")
    return _summarize(results, schedule, seed, keep_traces)


def _quantiles(matrix: np.ndarray) -> np.ndarray:
    """``np.percentile(matrix, QUANTILE_LEVELS, axis=0)``, bit for bit.

    numpy's ``linear`` rule written out, since ``np.percentile`` imports
    ``numpy.ma`` (about 13 ms) on its first call. Level ``q`` sits at
    virtual index ``(n - 1) * q`` of each sorted column; at or past the
    last index numpy reads the last value on both sides. A column holding
    a NaN gives NaN, and one holding -0.0 and 0.0 may give the other zero.
    """
    ordered = np.sort(matrix, axis=0)
    n = ordered.shape[0]
    virtual = (n - 1) * (np.array(QUANTILE_LEVELS) / 100)
    lo = np.where(virtual >= n - 1, -1, np.floor(virtual)).astype(np.intp)
    hi = np.where(lo < 0, -1, lo + 1)
    gamma = (virtual - lo)[:, None]
    a, b = ordered[lo], ordered[hi]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    np.copyto(out, ordered[-1], where=np.isnan(ordered[-1]))
    return out


def _summarize(results: BlockTraces, schedule, seed, keep_traces) -> ReplicationSummary:
    cum_matrix = results.cum_cost
    K_rep, stages = cum_matrix.shape
    # A copy: a view would keep the whole cost matrix alive in the summary.
    final_costs = cum_matrix[:, -1].copy() if stages else np.zeros(K_rep)
    ruined = final_costs <= schedule.budget
    ruin_rate = float(ruined.mean())
    half_width = 1.96 * math.sqrt(ruin_rate * (1.0 - ruin_rate) / K_rep)
    # One sort for both curves: m, exact as floats, beside the surplus.
    quantiles = _quantiles(np.hstack([results.m, cum_matrix - schedule.budget]))

    return ReplicationSummary(
        ruin_rate=ruin_rate,
        ruin_half_width=half_width,
        replications=K_rep,
        seed=seed,
        stages=stages,
        budget=schedule.budget,
        delta=schedule.delta,
        m_quantiles=quantiles[:, :stages],
        surplus_quantiles=quantiles[:, stages:],
        final_costs=final_costs,
        traces=results if keep_traces else None,
    )
