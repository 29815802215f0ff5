"""The batch engine against its exact laws and against the per-unit engine."""

import math

import numpy as np
import pytest

from rampguard import AnalyticPolicy, CantelliPolicy, ThompsonPolicy, batch, replication
from rampguard.posterior import GaussianPrior, VariancePolicy
from rampguard.replication import (
    STREAM_TAG,
    replication_stream,
    resolve_workers,
    run_replications,
)
from rampguard.scenarios import builtin_scenarios, draw_stage_sums
from rampguard.schedules import RiskSchedule, ScheduleError

PRIOR = GaussianPrior((0.0, 0.0), (100.0, 100.0))
ANALYTIC = AnalyticPolicy(prior=PRIOR, variance=VariancePolicy())
SCHED_05 = RiskSchedule.uniform(-500.0, 0.05, 10)
WORKERS = resolve_workers()


def stream_state(seed, *key):
    state = replication_stream(seed, *key).bit_generator.state["state"]
    return state["state"], state["inc"]


class TestStreamKeys:
    def test_untagged_block_key_would_replay_a_per_unit_stream(self):
        # Why batch keys carry STREAM_TAG: numpy pads short keys with zeros.
        for seed, index in ((0, 0), (3, 17), (11, 255)):
            assert stream_state(seed, index) == stream_state(seed, index, 0)

    def test_block_keys_never_reach_per_unit_keys(self):
        assert STREAM_TAG != 0
        for seed in (0, 7):
            per_unit = {stream_state(seed, rep, t) for rep in range(1000) for t in range(11)}
            blocks = {stream_state(seed, STREAM_TAG, block) for block in range(64)}
            assert len(blocks) == 64
            assert not per_unit & blocks


SUM_LAW_CASES = [("norm", 3), ("dec", 4), ("corr", 2), ("bern", 5)]


@pytest.mark.parametrize("name,t", SUM_LAW_CASES)
def test_stage_sums_follow_their_exact_law(name, t):
    """200k draws at a fixed m; every moment within 5 standard errors.

    Means use the analytic standard error, variances and covariances the
    empirical one of the squared or cross deviations.
    """
    k_se = 5.0
    scn = builtin_scenarios()[name]
    m0, draws = 40, 200_000
    n = scn.population[t - 1]
    treated, counterfactual, control = draw_stage_sums(
        scn, t, np.full(draws, m0, dtype=np.int64), np.random.default_rng(2024)
    )
    v0, v1 = scn.true_var(0, t), scn.true_var(1, t)
    rho = scn.correlation or 0.0
    series = {
        "treated": (treated, m0 * scn.true_mean(1, t), m0 * v1),
        "counterfactual": (counterfactual, m0 * scn.true_mean(0, t), m0 * v0),
        "control": (control, (n - m0) * scn.true_mean(0, t), (n - m0) * v0),
        "cost": (treated - counterfactual, m0 * scn.true_effect(t), m0 * scn.effect_variance(t)),
    }
    for label, (x, mean, var) in series.items():
        assert abs(x.mean() - mean) <= k_se * math.sqrt(var / draws), label
        sq = (x - x.mean()) ** 2
        assert abs(sq.mean() - var) <= k_se * sq.std() / math.sqrt(draws), label
    pairs = {
        ("treated", "counterfactual"): m0 * rho * math.sqrt(v0 * v1),
        ("treated", "control"): 0.0,
        ("counterfactual", "control"): 0.0,
    }
    for (a, b), cov in pairs.items():
        x, y = series[a][0], series[b][0]
        cross = (x - x.mean()) * (y - y.mean())
        assert abs(cross.mean() - cov) <= k_se * cross.std() / math.sqrt(draws), (a, b)


@pytest.mark.parametrize("name", ["norm", "dec", "corr", "bern"])
def test_batch_statistics_match_the_per_unit_engine(name):
    scn = builtin_scenarios()[name]
    k_batch, k_unit = 50_000, 5_000
    fast = run_replications(ANALYTIC, scn, SCHED_05, k_batch, 0, workers=WORKERS)
    traces = replication._map_chunks(
        replication._run_chunk, k_unit, WORKERS, ANALYTIC, scn, SCHED_05, 0
    )
    ref = replication._summarize_traces(traces, SCHED_05, 0, keep_traces=False)

    pooled = (fast.ruin_rate * k_batch + ref.ruin_rate * k_unit) / (k_batch + k_unit)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / k_batch + 1.0 / k_unit))
    assert abs(fast.ruin_rate - ref.ruin_rate) <= 4.0 * se, (fast.ruin_rate, ref.ruin_rate)
    assert np.all(np.abs(fast.m_quantiles[1] - ref.m_quantiles[1]) <= 2.0), (
        fast.m_quantiles[1],
        ref.m_quantiles[1],
    )
    assert fast.m_quantiles[:, 0].tolist() == ref.m_quantiles[:, 0].tolist()


def test_prefix_property():
    scn = builtin_scenarios()["norm"]
    short = run_replications(ANALYTIC, scn, SCHED_05, 100, 3, keep_traces=True)
    long = run_replications(ANALYTIC, scn, SCHED_05, 300, 3, workers=2, keep_traces=True)
    assert long.traces[:100] == short.traces
    np.testing.assert_array_equal(long.final_costs[:100], short.final_costs)


def test_engine_follows_the_inputs(monkeypatch):
    calls = []

    def spy(prior, variance, schedule, scenario, rng, size):
        calls.append(scenario.name)
        return real(prior, variance, schedule, scenario, rng, size)

    real = replication.run_rrc_block
    monkeypatch.setattr(replication, "run_rrc_block", spy)
    sched = RiskSchedule.uniform(-500.0, 0.05, 3)
    scenarios = builtin_scenarios()
    batch_names = ["norm", "npte", "corr", "bern", "dec"]
    for name in batch_names:
        run_replications(ANALYTIC, scenarios[name], sched, 3, 0)
    assert calls == batch_names

    estimated = AnalyticPolicy(PRIOR, VariancePolicy(mode="estimated", pretrial=(10.0, 10.0)))
    per_unit = [
        (ANALYTIC, "fat"),
        (estimated, "norm"),
        (CantelliPolicy(PRIOR, VariancePolicy(), samples=200), "norm"),
        (ThompsonPolicy(c=1.0, prior=PRIOR), "norm"),
    ]
    for policy, name in per_unit:
        run_replications(policy, scenarios[name], sched, 2, 0)
    assert calls == batch_names


def test_block_keeps_the_per_unit_checks(monkeypatch):
    scn = builtin_scenarios()["norm"]
    bad = RiskSchedule(-500.0, 0.01, (-500.0,) * 3, (0.02, 0.0, 0.0))
    with pytest.raises(ScheduleError):
        run_replications(ANALYTIC, scn, bad, 5, 0)

    # A schedule longer than the scenario stops when the feed runs out.
    long = RiskSchedule.uniform(-500.0, 0.05, 12)
    assert run_replications(ANALYTIC, scn, long, 5, 0).stages == scn.T

    def over_cap(moments, S, b_t, delta_t, n_t):
        m = np.full(S.shape, n_t // 2 + 1, dtype=np.int64)
        return m, np.zeros(S.shape, dtype=np.int8)

    monkeypatch.setattr(batch, "solve_ramp_sizes", over_cap)
    with pytest.raises(ValueError, match="outside"):
        run_replications(ANALYTIC, scn, SCHED_05, 5, 0)

