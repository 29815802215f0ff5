"""The batch engine against its exact laws and against the per-unit engine."""

import json
import math

import numpy as np
import pytest

from rampguard import AnalyticPolicy, CantelliPolicy, ThompsonPolicy, batch, replication, solver
from rampguard.batch import BlockStage, BlockTraces, run_block
from rampguard.posterior import (
    GaussianPrior,
    OutcomeVariance,
    SufficientStats,
    VariancePolicy,
    compute_posterior,
    init_posterior,
)
from rampguard.replication import (
    BLOCK_SIZE,
    GROUP_BLOCKS,
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
NORM = builtin_scenarios()["norm"]
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
    rows = replication._map_chunks(
        replication._run_chunk, k_unit, WORKERS, ANALYTIC, scn, SCHED_05, 0
    )
    ref = replication._summarize(replication._stack(rows), SCHED_05, 0, keep_traces=False)

    pooled = (fast.ruin_rate * k_batch + ref.ruin_rate * k_unit) / (k_batch + k_unit)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / k_batch + 1.0 / k_unit))
    assert abs(fast.ruin_rate - ref.ruin_rate) <= 4.0 * se, (fast.ruin_rate, ref.ruin_rate)
    assert np.all(np.abs(fast.m_quantiles[1] - ref.m_quantiles[1]) <= 2.0), (
        fast.m_quantiles[1],
        ref.m_quantiles[1],
    )
    assert fast.m_quantiles[:, 0].tolist() == ref.m_quantiles[:, 0].tolist()


@pytest.mark.parametrize("name", ["npte", "norm", "bern"])
@pytest.mark.parametrize("c", [0.25, 4.0])
def test_batch_thompson_matches_the_per_unit_engine(name, c):
    """Per-stage mean m and mean final cost within 5 standard errors.

    The flat prior starts every replication at p = 1/2, so both values of
    c treat about half of stage 1 and then diverge. Five stages cover the
    dynamics (``npte``'s treatment mean rises from -2 to 0 over them) at
    half the cost of ten.
    """
    scn = builtin_scenarios()[name]
    policy = ThompsonPolicy(c=c, prior=PRIOR)
    sched = RiskSchedule.uniform(-500.0, 0.01, 5)
    assert replication._takes_batch_engine(policy, scn)
    k_batch, k_unit = 50_000, 4_000
    n_blocks = -(-k_batch // BLOCK_SIZE)
    groups = replication._map_chunks(
        replication._run_groups, -(-n_blocks // GROUP_BLOCKS), WORKERS, policy, scn, sched, 0,
        k_batch,
    )
    unit = replication._stack(
        replication._map_chunks(replication._run_chunk, k_unit, WORKERS, policy, scn, sched, 0)
    )
    fast = (np.concatenate([g.m for g in groups]), np.concatenate([g.cum_cost[:, -1] for g in groups]))
    ref = (unit.m, unit.cum_cost[:, -1])
    assert {label for g in groups for label in g.labels} == {"thompson"}
    for label, x, y in zip(("m", "final cost"), fast, ref):
        se = np.sqrt(x.var(axis=0) / len(x) + y.var(axis=0) / len(y))
        gap = np.abs(x.mean(axis=0) - y.mean(axis=0))
        assert np.all(gap <= 5.0 * se), (label, x.mean(axis=0), y.mean(axis=0), se)


def blocks_run_alone(policy, scn, sched, reps, seed) -> BlockTraces:
    """The reference of the stacked engine: every block through run_block alone."""
    blocks = [
        run_block(policy, sched, scn, [replication_stream(seed, STREAM_TAG, b)], BLOCK_SIZE)
        for b in range(-(-reps // BLOCK_SIZE))
    ]
    fields = ("m", "branch", "stage_cost", "cum_cost")
    columns = (np.concatenate([getattr(b, f) for b in blocks])[:reps] for f in fields)
    return BlockTraces(*columns, blocks[0].labels)


STACKED_CASES = [
    *((ANALYTIC, name) for name in ("norm", "corr", "bern", "npte", "dec")),
    (ThompsonPolicy(c=0.25, prior=PRIOR), "npte"),
    (ThompsonPolicy(c=4.0, prior=PRIOR), "npte"),
    (ThompsonPolicy(c=1.0, prior=PRIOR, cap_at_half=True), "npte"),
]


@pytest.mark.parametrize(
    "policy,name",
    STACKED_CASES,
    ids=["norm", "corr", "bern", "npte", "dec", "thompson-c0.25", "thompson-c4", "thompson-capped"],
)
def test_stacked_blocks_equal_blocks_run_alone(policy, name):
    """One group of five blocks, the last one partly kept, bit for bit."""
    scn, reps = builtin_scenarios()[name], 4 * BLOCK_SIZE + 17
    stacked = run_replications(policy, scn, SCHED_05, reps, 9, keep_traces=True).traces
    alone = blocks_run_alone(policy, scn, SCHED_05, reps, 9)
    assert stacked.labels == alone.labels
    for field in ("m", "branch", "stage_cost", "cum_cost"):
        got, want = getattr(stacked, field), getattr(alone, field)
        assert got.dtype == want.dtype and got.shape == want.shape, field
        np.testing.assert_array_equal(got, want, err_msg=field)


@pytest.mark.parametrize("reps", [1, 255, 256, 257, 8192, 8193, 20_000])
def test_group_boundaries_keep_summaries_byte_identical(reps):
    scn = builtin_scenarios()["norm"]
    traces = blocks_run_alone(ANALYTIC, scn, SCHED_05, reps, 4)
    alone = replication._summarize(traces, SCHED_05, 4, keep_traces=False)
    want = json.dumps(alone.to_json_dict(), sort_keys=True, indent=2)
    for workers in (1, 2):
        summary = run_replications(ANALYTIC, scn, SCHED_05, reps, 4, workers=workers)
        assert json.dumps(summary.to_json_dict(), sort_keys=True, indent=2) == want, workers
        np.testing.assert_array_equal(summary.final_costs, alone.final_costs)


def test_capped_thompson_batch_stays_within_half():
    scn = builtin_scenarios()["pte"]
    policy = ThompsonPolicy(c=0.25, prior=PRIOR, cap_at_half=True)
    assert replication._takes_batch_engine(policy, scn)
    summary = run_replications(policy, scn, SCHED_05, 1000, 0, keep_traces=True)
    m = np.array([t.m for t in summary.traces])
    assert m.max() == scn.population[0] // 2  # the cap binds
    assert np.all(m <= np.array(scn.population) // 2)


def test_prefix_property():
    scn = builtin_scenarios()["norm"]
    short = run_replications(ANALYTIC, scn, SCHED_05, 100, 3, keep_traces=True)
    long = run_replications(ANALYTIC, scn, SCHED_05, 300, 3, workers=2, keep_traces=True)
    assert list(long.traces)[:100] == list(short.traces)
    np.testing.assert_array_equal(long.final_costs[:100], short.final_costs)


PREFIX_CASES = {
    **{name: (ANALYTIC, name, True) for name in ("norm", "corr", "npte", "dec")},
    "bern": (ANALYTIC, "bern", False),
    "thompson-norm": (ThompsonPolicy(c=1.0, prior=PRIOR), "norm", False),
}


@pytest.mark.parametrize("reps", [1, 100, 255, 257, 8193])
@pytest.mark.parametrize("case", PREFIX_CASES)
def test_a_study_is_the_head_of_the_study_of_whole_blocks(monkeypatch, case, reps):
    """K replications equal the first K of the next multiple of BLOCK_SIZE.

    The analytic solver on a Gaussian sum law computes only the kept rows
    of its last group; every other run computes whole blocks. The stage
    sums are drawn at the width a pass computes.
    """
    policy, name, trimmed = PREFIX_CASES[case]
    padded = -(-reps // BLOCK_SIZE) * BLOCK_SIZE
    computed, group = reps if trimmed else padded, GROUP_BLOCKS * BLOCK_SIZE
    group_rows = {min(computed - start, group) for start in range(0, computed, group)}

    def spy(scenario, t, m, rng):  # asserts in a pool worker too: the error comes back
        assert len(m) in group_rows, (len(m), group_rows)
        return real(scenario, t, m, rng)

    scn, workers = builtin_scenarios()[name], 2 if reps > group else 1
    whole = run_replications(policy, scn, SCHED_05, padded, 5, keep_traces=True)
    real = batch.draw_stage_sums
    monkeypatch.setattr(batch, "draw_stage_sums", spy)
    short = run_replications(policy, scn, SCHED_05, reps, 5, workers=workers, keep_traces=True)
    assert short.traces.labels == whole.traces.labels
    for field in ("m", "branch", "stage_cost", "cum_cost"):
        got, want = getattr(short.traces, field), getattr(whole.traces, field)[:reps]
        assert got.dtype == want.dtype, field
        np.testing.assert_array_equal(got, want, err_msg=field)


@pytest.mark.parametrize(
    "policy,name", [(ThompsonPolicy(c=1.0, prior=PRIOR), "norm"), (ANALYTIC, "bern")]
)
def test_a_trimmed_pass_refuses_binomial_draws(policy, name):
    """A dropped row would move a binomial stream, so trimming such a run fails loudly."""
    streams = batch._Streams([replication_stream(0, STREAM_TAG, 0)], 100)
    stage = BlockStage(1, 500, -500.0, 0.005, (np.zeros(100),) * 2, np.zeros(100),
                       np.zeros(100), builtin_scenarios()[name], streams)
    with pytest.raises(ValueError, match="binomial"):
        m, _ = policy.decide_block(stage)
        draw_stage_sums(stage.scenario, 1, m, streams)


@pytest.mark.parametrize(
    "policy,name", [(ThompsonPolicy(c=1.0, prior=PRIOR), "norm"), (ANALYTIC, "bern")]
)
def test_kept_traces_hold_no_padded_rows(policy, name):
    """A study of whole blocks keeps only its own rows, not a view of the padded ones."""
    traces = run_replications(policy, builtin_scenarios()[name], SCHED_05, 300, 0,
                              keep_traces=True).traces
    for field in ("m", "branch", "stage_cost", "cum_cost"):
        array = getattr(traces, field)
        assert len(array) == 300 and (array.base is None or len(array.base) == 300), field


class SubclassedThompson(ThompsonPolicy):
    """May override decide alone, so it keeps the per-unit engine."""


def test_engine_follows_the_inputs(monkeypatch):
    calls = []

    def spy(policy, schedule, scenario, rngs, rows):
        calls.append(scenario.name)
        return real(policy, schedule, scenario, rngs, rows)

    real = replication.run_block
    monkeypatch.setattr(replication, "run_block", spy)
    sched = RiskSchedule.uniform(-500.0, 0.05, 3)
    scenarios = builtin_scenarios()
    thompson = ThompsonPolicy(c=1.0, prior=PRIOR)
    batch_runs = [
        (ANALYTIC, "norm"),
        (ANALYTIC, "npte"),
        (ANALYTIC, "corr"),
        (ANALYTIC, "bern"),
        (ANALYTIC, "dec"),
        (thompson, "norm"),
    ]
    for policy, name in batch_runs:
        run_replications(policy, scenarios[name], sched, 3, 0)
    batch_names = [name for _, name in batch_runs]
    assert calls == batch_names

    estimated = AnalyticPolicy(PRIOR, VariancePolicy(mode="estimated", pretrial=(10.0, 10.0)))
    per_unit = [
        (ANALYTIC, "fat"),
        (estimated, "norm"),
        (CantelliPolicy(PRIOR, VariancePolicy(), samples=200), "norm"),
        (thompson, "fat"),
        (SubclassedThompson(c=1.0, prior=PRIOR), "norm"),
    ]
    for policy, name in per_unit:
        run_replications(policy, scenarios[name], sched, 2, 0)
    assert calls == batch_names


def test_block_keeps_the_per_unit_checks(monkeypatch):
    scn = builtin_scenarios()["norm"]
    with pytest.raises(ScheduleError):
        RiskSchedule(-500.0, 0.01, (-500.0,) * 3, (0.02, 0.0, 0.0))

    # A schedule longer than the scenario stops when the feed runs out.
    long = RiskSchedule.uniform(-500.0, 0.05, 12)
    assert run_replications(ANALYTIC, scn, long, 5, 0).stages == scn.T

    def over_cap(moments, S, b_t, delta_t, n_t):
        m = np.full(S.shape, n_t // 2 + 1, dtype=np.int64)
        return m, np.zeros(S.shape, dtype=np.int8)

    monkeypatch.setattr(solver, "solve_ramp_sizes", over_cap)
    with pytest.raises(ValueError, match="outside"):
        run_replications(ANALYTIC, scn, SCHED_05, 5, 0)


def test_stage_one_goes_through_the_scalar_solver(monkeypatch):
    # Every replication starts from the empty statistics, so one scalar
    # solve decides stage 1 of a block: a wrong scalar decision shows in
    # every replication.
    original = solver.solve_ramp_size

    def shrunk(*args, **kwargs):
        d = original(*args, **kwargs)
        return type(d)(max(d.m - 1, 0), d.branch, d.assignment_probability)

    def stage_one_m():
        summary = run_replications(ANALYTIC, NORM, SCHED_05, 5, 0, keep_traces=True)
        return summary.traces.m[:, 0]

    want = stage_one_m()
    monkeypatch.setattr(solver, "solve_ramp_size", shrunk)
    got = stage_one_m()
    assert len(want) == 5 and want.min() > 0
    assert (got != want).all()


# (prior, N_1, b_1, Delta_1, branch). At b_1 = -22.25... the prior's mean,
# which does not survive (mu0 * p) / p, decides m: its copy (init_posterior)
# gives m = 5, the posterior of the empty statistics m = 6.
ODD_PRIOR = GaussianPrior((-0.7, 0.7), (0.3, 0.3))
STAGE_ONE_CASES = [
    (PRIOR, 500, -500.0, 0.0, "zero_tolerance"),
    (PRIOR, 1, -500.0, 0.01, "cap_at_half"),
    (PRIOR, 26, -500.0, 0.005, "cap_at_half"),
    (PRIOR, 500, -500.0, 0.005, "root_selected"),
    (ODD_PRIOR, 500, -22.25128641189264, 0.005, "root_selected"),
]


@pytest.mark.parametrize("prior, n_1, b_1, delta_1, branch", STAGE_ONE_CASES)
def test_stage_one_decision_equals_the_block_solver_on_the_zero_state(
    prior, n_1, b_1, delta_1, branch
):
    zeros = np.zeros(7)
    stage = BlockStage(
        1, n_1, b_1, delta_1, (zeros, zeros), zeros, zeros, NORM, np.random.default_rng(0)
    )
    m, code = AnalyticPolicy(prior, VariancePolicy()).decide_block(stage)

    sigma_sq = stage.scenario.true_variance(1)
    mu_p, sigma_p_sq = stage.posterior(prior, sigma_sq)
    moments = solver.PredictiveMoments(mu_p, sigma_p_sq, sigma_sq, zeros)
    want_m, want_code = solver.solve_ramp_sizes(moments, zeros, b_1, delta_1, n_1)
    assert (m.dtype, code.dtype) == (want_m.dtype, want_code.dtype)
    assert (m.tobytes(), code.tobytes()) == (want_m.tobytes(), want_code.tobytes())
    assert solver.BRANCHES[code[0]] == branch


def test_the_odd_prior_tells_the_empty_posterior_from_a_copy_of_the_prior():
    variance = OutcomeVariance((NORM.true_var(0, 1), NORM.true_var(1, 1)))
    empty = compute_posterior(ODD_PRIOR, variance, SufficientStats())
    assert empty.mu_p != init_posterior(ODD_PRIOR).mu_p
    stage = (variance, 0, 0.0, -22.25128641189264, 0.005, 500)
    copied = solver.solve_ramp_size(init_posterior(ODD_PRIOR), *stage)
    assert (copied.m, solver.solve_ramp_size(empty, *stage).m) == (5, 6)


@pytest.mark.parametrize("cap,excess", [(False, 501), (True, 251)])
def test_block_checks_the_thompson_range(monkeypatch, cap, excess):
    # Uncapped Thompson may treat the whole stage, and no more.
    def too_many(self, stage):
        m = np.full(stage.sum_treated.shape, excess, dtype=np.int64)
        return m, np.zeros(m.shape, dtype=np.int8)

    monkeypatch.setattr(ThompsonPolicy, "decide_block", too_many)
    policy = ThompsonPolicy(c=1.0, prior=PRIOR, cap_at_half=cap)
    with pytest.raises(ValueError, match=f"outside \\[0, {excess - 1}\\]"):
        run_replications(policy, builtin_scenarios()["norm"], SCHED_05, 5, 0)

