import concurrent.futures
import gc
import json
import os
import tracemalloc
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

from rampguard import AnalyticPolicy, CantelliPolicy, ThompsonPolicy, cli, mc_solver, replication
from rampguard.posterior import GaussianPrior, NonFinitePosteriorError, VariancePolicy
from rampguard.batch import run_block
from rampguard.replication import (
    BLOCK_SIZE,
    GROUP_BLOCKS,
    STREAM_TAG,
    CompactTrace,
    replication_stream,
    resolve_workers,
    run_replications,
)
from rampguard.scenarios import Scenario, ScenarioFeed, builtin_scenarios
from rampguard.schedules import REPLICATION_CAP, RiskSchedule
from rampguard.solver import StageDecision
from rampguard.trace import run_stages

PRIOR = GaussianPrior((0.0, 0.0), (100.0, 100.0))
ANALYTIC = AnalyticPolicy(prior=PRIOR, variance=VariancePolicy())


def summary_fingerprint(summary):
    return json.dumps(summary.to_json_dict(), sort_keys=True)


class TestStreams:
    def test_streams_are_independent_and_reproducible(self):
        a = replication_stream(7, 3, 0).standard_normal(4)
        b = replication_stream(7, 3, 0).standard_normal(4)
        c = replication_stream(7, 4, 0).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.setenv("RAMPGUARD_THREADS", "3")
        assert resolve_workers() == 3
        assert resolve_workers(5) == 5
        monkeypatch.delenv("RAMPGUARD_THREADS")
        assert resolve_workers() >= 1

    @pytest.mark.parametrize("value", ["0", "-3", "abc", "2.5"])
    def test_resolve_workers_refuses_a_thread_variable_below_one(self, monkeypatch, value):
        monkeypatch.setenv("RAMPGUARD_THREADS", value)
        message = f"RAMPGUARD_THREADS must be an integer >= 1, got '{value}'"
        with pytest.raises(ValueError, match=message):
            resolve_workers()


class InlineExecutor:
    """Stands in for ProcessPoolExecutor: records its size, its worker
    initializer and each submitted chunk, runs inline without calling the
    initializer."""

    sizes: list = []
    initializers: list = []
    chunks: list = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.sizes.append(max_workers)
        self.initializers.append((initializer, initargs))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.chunks.append(args[-1])
        future = Future()
        future.set_result(fn(*args))
        return future


def _cpu_share_of(items):
    return mc_solver._cpu_share


class PerUnitThompson(ThompsonPolicy):
    """A subclass keeps the per-unit engine, which pools replications."""


class TestPoolBound:
    @pytest.fixture
    def executor(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(InlineExecutor, "sizes", [])
        monkeypatch.setattr(InlineExecutor, "initializers", [])
        monkeypatch.setattr(InlineExecutor, "chunks", [])
        return InlineExecutor

    @pytest.mark.parametrize(
        "policy,name,reps,cpus,expected",
        [
            (PerUnitThompson(c=1.0, prior=PRIOR), "npte", 3, 64, 3),  # bounded by chunks
            (PerUnitThompson(c=1.0, prior=PRIOR), "npte", 40, 3, 3),  # bounded by CPUs
            # Batch engine: 3 groups, the last of one block.
            (ANALYTIC, "norm", 2 * GROUP_BLOCKS * BLOCK_SIZE + 1, 64, 3),
        ],
    )
    def test_pool_size(self, executor, monkeypatch, policy, name, reps, cpus, expected):
        monkeypatch.setattr(replication, "usable_cpus", lambda: cpus)
        sched = RiskSchedule.uniform(-500.0, 0.05, 2)
        scn = builtin_scenarios()[name]
        pooled = run_replications(policy, scn, sched, reps, 1, workers=10_000)
        assert executor.sizes == [expected]
        # Each worker's imputation threads get its even share of the CPUs.
        assert executor.initializers == [(mc_solver.set_cpu_share, (cpus // expected,))]
        serial = run_replications(policy, scn, sched, reps, 1, workers=1)
        assert executor.sizes == [expected]  # one worker never builds a pool
        assert summary_fingerprint(pooled) == summary_fingerprint(serial)

    def test_the_pool_not_the_worker_count_sizes_the_chunks(self, executor, monkeypatch):
        # 10,000 workers on 3 CPUs: a pool of 3 and at most four chunks per process.
        monkeypatch.setattr(replication, "usable_cpus", lambda: 3)
        sched = RiskSchedule.uniform(-500.0, 0.05, 2)
        scn = builtin_scenarios()["npte"]
        policy = PerUnitThompson(c=1.0, prior=PRIOR)
        pooled = run_replications(policy, scn, sched, 40, 1, workers=10_000)
        assert executor.sizes == [3]
        assert len(executor.chunks) <= 12
        assert [rep for chunk in executor.chunks for rep in chunk] == list(range(40))
        serial = run_replications(policy, scn, sched, 40, 1, workers=1)
        assert summary_fingerprint(pooled) == summary_fingerprint(serial)
        # A worker count below one runs in process too.
        run_replications(policy, scn, sched, 40, 1, workers=0)
        assert executor.sizes == [3]

    def test_pool_workers_share_the_cpus(self):
        cpus = replication.usable_cpus()
        threads = replication._map_chunks(_cpu_share_of, 4, 2)
        assert min(2, cpus) * max(threads) <= cpus

    @pytest.mark.parametrize("policy", [ANALYTIC, ThompsonPolicy(c=1.0, prior=PRIOR)])
    def test_one_group_runs_in_process(self, monkeypatch, policy):
        pids = []

        def spy(*args):
            pids.append(os.getpid())  # a pool worker appends to its own copy
            return real(*args)

        real = replication.run_block
        monkeypatch.setattr(replication, "run_block", spy)
        monkeypatch.setattr(replication, "usable_cpus", lambda: 64)
        sched = RiskSchedule.uniform(-500.0, 0.05, 2)
        reps = GROUP_BLOCKS * BLOCK_SIZE
        run_replications(policy, builtin_scenarios()["npte"], sched, reps, 0, workers=8)
        assert pids == [os.getpid()]

    def test_an_affinity_mask_bounds_workers_and_pool(self, executor, monkeypatch):
        # Pinned to 2 of 64 CPUs: 2 workers, each with a share of 1.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 17}, raising=False)
        monkeypatch.delenv("RAMPGUARD_THREADS", raising=False)
        assert replication.usable_cpus() == resolve_workers() == 2
        sched = RiskSchedule.uniform(-500.0, 0.05, 2)
        policy = PerUnitThompson(c=1.0, prior=PRIOR)
        run_replications(policy, builtin_scenarios()["npte"], sched, 40, 1, workers=8)
        assert executor.sizes == [2]
        assert executor.initializers == [(mc_solver.set_cpu_share, (1,))]

    def test_usable_cpus_fall_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert replication.usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert replication.usable_cpus() == 1

    def test_one_cpu_runs_in_process(self, executor, monkeypatch):
        monkeypatch.setattr(replication, "usable_cpus", lambda: 1)
        sched = RiskSchedule.uniform(-500.0, 0.05, 2)
        run_replications(ANALYTIC, builtin_scenarios()["fat"], sched, 5, 0, workers=8)
        assert executor.sizes == []


class TestRunReplications:
    def test_zero_tolerance_schedule(self):
        sched = RiskSchedule(-500.0, 0.0, (-500.0,) * 5, (0.0,) * 5)
        summary = run_replications(ANALYTIC, builtin_scenarios()["pte"], sched, 50, 0)
        assert summary.ruin_rate == 0.0
        assert np.all(summary.m_quantiles == 0.0)
        assert summary.stages == 5

    def test_ruin_accounting_is_counterfactual(self):
        # dec has decaying true effects; observed sums alone would not
        # reveal the loss. The ruin rate must be visibly positive.
        sched = RiskSchedule.uniform(-500.0, 0.05, 10)
        summary = run_replications(ANALYTIC, builtin_scenarios()["dec"], sched, 300, 0)
        assert summary.ruin_rate > 0.05
        assert summary.final_costs.shape == (300,)

    def test_quantiles_are_ordered(self):
        sched = RiskSchedule.uniform(-500.0, 0.05, 10)
        summary = run_replications(ANALYTIC, builtin_scenarios()["npte"], sched, 80, 1)
        assert np.all(summary.m_quantiles[0] <= summary.m_quantiles[1])
        assert np.all(summary.m_quantiles[1] <= summary.m_quantiles[2])
        assert np.all(summary.surplus_quantiles[0] <= summary.surplus_quantiles[2])

    @pytest.mark.parametrize(
        "k", [*range(1, 70), 100, 255, 256, 257, 500, 1_000, 4_999, 5_000, 8_193]
    )
    def test_quantiles_equal_numpy_percentile(self, k):
        rng = np.random.default_rng(k)
        counts = rng.integers(0, 250, (k, 4))
        costs = rng.standard_normal((k, 4)) * 100.0
        costs[:, 1] = np.round(costs[:, 1])  # ties
        costs[rng.integers(k), 3] = np.nan  # a NaN column gives NaN
        for matrix in (counts, costs):
            want = np.percentile(matrix, replication.QUANTILE_LEVELS, axis=0)
            got = replication._quantiles(matrix)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert np.isnan(got[:, 3]).all()

    @pytest.mark.parametrize("k", [1, 2, 3, 100])
    def test_quantiles_of_the_merged_layout_equal_numpy_percentile(self, k):
        # _summarize sorts m, as floats, beside the surplus in one (K, 2T) matrix.
        rng = np.random.default_rng(k)
        m = rng.integers(0, 4, (k, 5))  # ties
        surplus = rng.choice([-0.0, 1.5, -2.25, 1.5, 7.0], (k, 5))  # -0.0 and repeats
        surplus[:, 0] = -0.0
        merged = np.hstack([m.astype(float), surplus])
        got = replication._quantiles(merged)
        levels = replication.QUANTILE_LEVELS
        assert got.tobytes() == np.percentile(merged, levels, axis=0).tobytes()
        assert got[:, :5].tobytes() == np.percentile(m, levels, axis=0).tobytes()
        assert got[:, 5:].tobytes() == np.percentile(surplus, levels, axis=0).tobytes()

    def test_worker_count_does_not_change_results(self):
        sched = RiskSchedule.uniform(-500.0, 0.05, 10)
        scn = builtin_scenarios()["norm"]
        one = run_replications(ANALYTIC, scn, sched, 60, 5, workers=1)
        many = run_replications(ANALYTIC, scn, sched, 60, 5, workers=4)
        assert summary_fingerprint(one) == summary_fingerprint(many)

    def test_seed_changes_results(self):
        sched = RiskSchedule.uniform(-500.0, 0.05, 10)
        scn = builtin_scenarios()["norm"]
        a = run_replications(ANALYTIC, scn, sched, 40, 0)
        b = run_replications(ANALYTIC, scn, sched, 40, 1)
        assert summary_fingerprint(a) != summary_fingerprint(b)

    def test_traces_optional(self):
        sched = RiskSchedule.uniform(-500.0, 0.05, 10)
        scn = builtin_scenarios()["pte"]
        without = run_replications(ANALYTIC, scn, sched, 10, 0)
        with_traces = run_replications(ANALYTIC, scn, sched, 10, 0, keep_traces=True)
        assert without.traces is None
        assert with_traces.traces is not None and len(with_traces.traces) == 10
        trace = next(iter(with_traces.traces))
        assert len(trace.m) == len(trace.cum_cost) == 10
        np.testing.assert_allclose(np.cumsum(trace.stage_cost), trace.cum_cost)

    @pytest.mark.parametrize("name", ["norm", "fat"])  # the batch and the per-unit engine
    def test_zero_stage_study(self, name):
        sched = RiskSchedule(-500.0, 0.05, (), ())
        scn = builtin_scenarios()[name]
        summary = run_replications(ANALYTIC, scn, sched, 7, 3, keep_traces=True)
        for field in ("m", "branch", "stage_cost", "cum_cost"):
            assert getattr(summary.traces, field).shape == (7, 0), field
        assert summary.stages == 0 and summary.ruin_rate == 0.0
        np.testing.assert_array_equal(summary.final_costs, np.zeros(7))
        got = summary.to_json_dict()
        assert got["m_quantiles"] == got["surplus_quantiles"] == {"q25": [], "q50": [], "q75": []}
        assert list(summary.traces) == [CompactTrace((), (), (), ())] * 7

    def test_cantelli_policy_round_trip(self):
        sched = RiskSchedule.uniform(-500.0, 0.05, 5)
        policy = CantelliPolicy(prior=PRIOR, variance=VariancePolicy(), samples=1000)
        scn = builtin_scenarios()["norm"]
        one = run_replications(policy, scn, sched, 6, 2, workers=1)
        two = run_replications(policy, scn, sched, 6, 2, workers=3)
        assert summary_fingerprint(one) == summary_fingerprint(two)
        assert one.stages == 5

    def test_thompson_policy_runs(self):
        sched = RiskSchedule.uniform(-500.0, 0.01, 10)
        policy = ThompsonPolicy(c=1.0, prior=GaussianPrior((0.0, -2.0), (0.05, 0.05)))
        summary = run_replications(policy, builtin_scenarios()["npte"], sched, 25, 0)
        assert summary.stages == 10
        # Uncapped baseline can exceed half of the population.
        assert summary.m_quantiles.max() <= 500

    def test_thompson_worker_determinism(self):
        sched = RiskSchedule.uniform(-500.0, 0.01, 10)
        policy = ThompsonPolicy(c=0.25, prior=GaussianPrior((0.0, -2.0), (0.05, 0.05)))
        scn = builtin_scenarios()["npte"]
        one = run_replications(policy, scn, sched, 30, 9, workers=1)
        many = run_replications(policy, scn, sched, 30, 9, workers=2)
        assert summary_fingerprint(one) == summary_fingerprint(many)

    def test_bad_inputs(self):
        sched = RiskSchedule.uniform(-500.0, 0.05, 3)
        with pytest.raises(ValueError):
            run_replications(ANALYTIC, builtin_scenarios()["pte"], sched, 0, 0)
        with pytest.raises(TypeError):
            run_replications(object(), builtin_scenarios()["pte"], sched, 3, 0)

    @pytest.mark.parametrize("name", ["norm", "fat"])  # the batch and the per-unit engine
    def test_more_replications_than_the_cap_are_refused_before_any_work(self, monkeypatch, name):
        def no_work(*args):
            raise AssertionError("a study past the replication cap started")

        monkeypatch.setattr(replication, "_map_chunks", no_work)
        sched = RiskSchedule.uniform(-500.0, 0.05, 3)
        for reps in (10**6 + 1, 10**300):
            with pytest.raises(ValueError, match=r"K_rep must be a whole number in \[1, 1000000\]"):
                run_replications(ANALYTIC, builtin_scenarios()[name], sched, reps, 0)
        assert REPLICATION_CAP == 10**6

    def test_supplied_variances_whose_quotient_overflows_are_refused_at_the_posterior(self):
        # Each treated unit adds -1e30 to the treated sum, and over 1e-280 that passes the
        # float maximum in the posterior mean that stage 2 forms.
        scn = Scenario("far", "gaussian_iid", 10, 500, 0.0, -1e30, 10.0, 10.0)
        sched = RiskSchedule.uniform(-500.0, 0.05, 10)
        tiny = (1e-280, 1e-280)
        for policy in (
            AnalyticPolicy(PRIOR, VariancePolicy("known", tiny)),
            CantelliPolicy(PRIOR, VariancePolicy("known", tiny), samples=10),
            ThompsonPolicy(1.0, PRIOR, sigma_sq=tiny),
        ):
            with pytest.raises(NonFinitePosteriorError, match="arm 1's posterior mean"):
                run_replications(policy, scn, sched, 5, 0)
        # The control sum, of mean 0, keeps a finite quotient even over 1e-280; estimated
        # mode and the feed's own variances divide by variances of about 10.
        for policy in (
            AnalyticPolicy(PRIOR, VariancePolicy("known", (1e-280, 10.0))),
            AnalyticPolicy(PRIOR, VariancePolicy("estimated", tiny, pretrial=(10.0, 10.0))),
            AnalyticPolicy(PRIOR, VariancePolicy()),
            ThompsonPolicy(1.0, PRIOR),
        ):
            run_replications(policy, scn, sched, 5, 0)

    @pytest.mark.parametrize("family, extra", [
        ("gaussian_iid", {}),  # the batch engine
        ("student_t_shifted", {"tail_df": 4.0}),  # the per-unit engine
    ])
    @pytest.mark.parametrize("population, mean, stage", [
        ((4, 1, 1), 2.5e307, 1),  # stage 1 treats 4 units, each an effect of 5e307
        ((1, 1, 1), 5e307, 2),  # the running cost reads 1e308, then 2e308
        ((1, 1, 1), 3.5e307, 3),  # 7e307, 1.4e308, then 2.1e308
    ])
    def test_non_finite_costs_are_refused(self, family, extra, population, mean, stage):
        # Each arm's posterior mean stays finite, but the effects add up past the float
        # maximum: Thompson, sure of a positive effect, treats every unit.
        scn = Scenario("overflow", family, 3, population, -mean, mean, 1e10, 1e10, **extra)
        policy = ThompsonPolicy(1.0, GaussianPrior((0.0, 100.0), (1.0, 1.0)))
        sched = RiskSchedule.uniform(-500.0, 0.05, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings, if any
            with pytest.raises(ValueError, match=f"cum_cost is not finite at stage {stage}:"):
                run_replications(policy, scn, sched, 5, 0)


# The one-object-per-replication traces the summary once stored, kept here
# as the reference that iterating the kept arrays must reproduce.
def _compact(trace) -> CompactTrace:
    return CompactTrace(
        m=tuple(r.m for r in trace.records),
        branch=tuple(r.branch for r in trace.records),
        stage_cost=tuple(r.stage_cost for r in trace.records),
        cum_cost=tuple(r.cum_cost for r in trace.records),
    )


def _compact_traces(block, count):
    rows = (
        block.m[:count].tolist(),
        np.array(block.labels, dtype=object)[block.branch[:count]].tolist(),
        block.stage_cost[:count].tolist(),
        block.cum_cost[:count].tolist(),
    )
    return [CompactTrace(*map(tuple, row)) for row in zip(*rows)]


def reference_traces(policy, scenario, schedule, count, seed):
    if replication._takes_batch_engine(policy, scenario):
        traces = []
        for block in range(-(-count // BLOCK_SIZE)):
            rng = replication_stream(seed, STREAM_TAG, block)
            result = run_block(policy, schedule, scenario, [rng], BLOCK_SIZE)
            traces += _compact_traces(result, count - block * BLOCK_SIZE)
        return traces
    return [
        _compact(
            run_stages(
                schedule,
                ScenarioFeed(scenario, replication_stream(seed, rep, 0)),
                policy,
                lambda t: replication_stream(seed, rep, t),
            )
        )
        for rep in range(count)
    ]


def float_bits(values):
    return np.array(values, dtype=float).tobytes()


DIFFERENTIAL_CASES = {
    "per-unit fat": (ANALYTIC, "fat", 10, 12, 1),
    "per-unit cantelli": (
        CantelliPolicy(prior=PRIOR, variance=VariancePolicy(), samples=500), "norm", 4, 5, 2
    ),
    "per-unit thompson": (PerUnitThompson(c=1.0, prior=PRIOR), "npte", 5, 9, 1),
    "batch norm": (ANALYTIC, "norm", 10, 300, 2),
    "batch bern": (ANALYTIC, "bern", 10, 257, 1),
    "batch thompson": (ThompsonPolicy(c=0.25, prior=PRIOR), "npte", 10, 260, 1),
}


class TestKeptTraces:
    @pytest.mark.parametrize("case", DIFFERENTIAL_CASES)
    def test_traces_equal_the_per_replication_reference(self, case):
        policy, name, stages, count, workers = DIFFERENTIAL_CASES[case]
        scn = builtin_scenarios()[name]
        sched = RiskSchedule.uniform(-500.0, 0.05, stages)
        summary = run_replications(policy, scn, sched, count, 3, workers=workers, keep_traces=True)
        ref = reference_traces(policy, scn, sched, count, 3)
        assert list(summary.traces) == ref
        for got, want in zip(summary.traces, ref):
            assert got.m == want.m and got.branch == want.branch
            assert float_bits(got.stage_cost) == float_bits(want.stage_cost)
            assert float_bits(got.cum_cost) == float_bits(want.cum_cost)

    @pytest.mark.parametrize("policy", [ANALYTIC, ThompsonPolicy(c=1.0, prior=PRIOR)])
    def test_a_summary_without_traces_holds_no_cost_matrix(self, policy):
        sched = RiskSchedule.uniform(-500.0, 0.05, 10)
        summary = run_replications(policy, builtin_scenarios()["norm"], sched, 300, 0)
        assert summary.traces is None and summary.final_costs.shape == (300,)
        assert summary.final_costs.base is None

    def test_kept_traces_retain_at_most_400_bytes_per_replication(self):
        reps = 5000
        scn = builtin_scenarios()["norm"]
        sched = RiskSchedule.uniform(-500.0, 0.05, 10)
        run_replications(ANALYTIC, scn, sched, 10, 0, keep_traces=True)  # warm imports and caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            summary = run_replications(ANALYTIC, scn, sched, reps, 0, keep_traces=True)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert summary.stages == 10 and len(summary.traces) == reps
        assert retained / reps <= 400, retained / reps

    def test_per_unit_traced_peak_grows_at_most_400_bytes_per_replication(self):
        # Each replication's stages land in its chunk's BlockTraces as it ends, 25 bytes
        # a stage, and one chunk joins without a copy: no object branch column, no
        # recoding of the joined labels.
        scn = builtin_scenarios()["fat"]
        sched = RiskSchedule.uniform(-500.0, 0.05, scn.T)
        assert not replication._takes_batch_engine(ANALYTIC, scn) and scn.T == 10
        run_replications(ANALYTIC, scn, sched, 2, 0)  # warm imports and caches
        peaks = []
        for reps in (40, 240):
            gc.collect()
            tracemalloc.start()
            try:
                run_replications(ANALYTIC, scn, sched, reps, 0, keep_traces=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        growth = (peaks[1] - peaks[0]) / 200
        assert growth <= 400, growth

    def test_per_unit_chunks_join_like_one_chunk(self, tmp_path):
        # Two workers take 8 replications in 8 chunks of one, which see different
        # branch subsets; every chunk codes them by the policy's branch_labels.
        scn = builtin_scenarios()["fat"]
        sched = RiskSchedule.uniform(-500.0, 0.05, scn.T)
        serial, pooled = (
            run_replications(ANALYTIC, scn, sched, 8, 1, workers=w, keep_traces=True).traces
            for w in (1, 2)
        )
        assert len({frozenset(row) for row in serial.branch.tolist()}) > 1
        assert pooled.labels == serial.labels
        for field in ("m", "branch", "stage_cost", "cum_cost"):
            assert np.array_equal(getattr(pooled, field), getattr(serial, field)), field
        args = ["run", "--scenario", "fat", "--budget", "-500", "--delta", "0.05", "--reps", "8",
                "--seed", "1"]
        for workers in ("1", "2"):
            assert cli.main([*args, "--workers", workers, "--out", str(tmp_path / workers)]) == 0
        assert (tmp_path / "1" / "schedule.csv").read_bytes() == (
            tmp_path / "2" / "schedule.csv"
        ).read_bytes()


THOMPSON_PRIOR = GaussianPrior((0.0, -2.0), (0.05, 0.05))
# Studies of every policy on both engines: (policy, scenario, takes the batch engine).
LABEL_CASES = {
    "analytic batch": (ANALYTIC, "norm", True),
    "analytic per-unit estimated": (
        AnalyticPolicy(PRIOR, VariancePolicy("estimated", pretrial=(10.0, 10.0))), "norm", False
    ),
    "thompson batch": (ThompsonPolicy(c=1.0, prior=THOMPSON_PRIOR), "npte", True),
    "thompson per-unit": (ThompsonPolicy(c=1.0, prior=THOMPSON_PRIOR), "fat", False),
    "cantelli": (CantelliPolicy(PRIOR, VariancePolicy(), samples=200), "norm", False),
}


class Mislabelled(AnalyticPolicy):
    """Decides like the analytic policy, under a branch it does not declare from stage 2."""

    def decide(self, stage):
        d = super().decide(stage)
        return d if stage.t < 2 else StageDecision(d.m, "improvised", d.assignment_probability)


class DecideOnly:
    """Has ``decide`` but no ``branch_labels``."""

    def decide(self, stage):
        return ANALYTIC.decide(stage)


class TestBranchLabels:
    @pytest.mark.parametrize("case", LABEL_CASES)
    def test_both_engines_code_branches_by_the_policy_labels(self, case):
        policy, name, batch = LABEL_CASES[case]
        scn = builtin_scenarios()[name]
        assert replication._takes_batch_engine(policy, scn) is batch
        sched = RiskSchedule.uniform(-500.0, 0.05, 4)
        for workers in (1, 2):
            traces = run_replications(policy, scn, sched, 6, 0, workers=workers,
                                      keep_traces=True).traces
            assert traces.labels == policy.branch_labels
            assert traces.branch.dtype == np.int8 and traces.branch.shape == (6, 4)
            assert 0 <= traces.branch.min() and traces.branch.max() < len(traces.labels)

    def test_a_branch_outside_the_labels_names_its_stage_and_label(self):
        scn = builtin_scenarios()["norm"]
        sched = RiskSchedule.uniform(-500.0, 0.05, 3)
        policy = Mislabelled(PRIOR, VariancePolicy())
        message = "^stage 2: branch 'improvised' is not in the policy's branch_labels$"
        with pytest.raises(ValueError, match=message):
            run_replications(policy, scn, sched, 2, 0)

    @pytest.mark.parametrize("policy", [object(), DecideOnly()], ids=["object", "decide-only"])
    def test_a_policy_without_decide_or_labels_is_refused_before_any_draw(
        self, monkeypatch, policy
    ):
        def no_draw(*args):
            raise AssertionError("a study of a non-policy drew")

        monkeypatch.setattr(replication, "replication_stream", no_draw)
        monkeypatch.setattr(replication, "_map_chunks", no_draw)
        sched = RiskSchedule.uniform(-500.0, 0.05, 3)
        message = f"^{type(policy).__name__} is not a policy: it needs decide and branch_labels$"
        for name in ("norm", "fat"):
            with pytest.raises(TypeError, match=message):
                run_replications(policy, builtin_scenarios()[name], sched, 3, 0)
