"""The stage loop's contract: every stage has a unit, and a decision is
checked before the feed runs its stage."""

import numpy as np
import pytest

from rampguard.mc_solver import CantelliPolicy
from rampguard.posterior import GaussianPrior, VariancePolicy
from rampguard.scenarios import ScenarioFeed, builtin_scenarios
from rampguard.schedules import RiskSchedule
from rampguard.solver import AnalyticPolicy, StageDecision
from rampguard.thompson import ThompsonPolicy
from rampguard.trace import BlockTraces, StageOutcome, check_decision, run_stages

PRIOR = GaussianPrior((0.0, 0.0), (100.0, 100.0))
# Stage 1 has zero tolerance: the stage that the three policies once answered three ways.
SCHEDULE = RiskSchedule(-500.0, 0.05, (-500.0,) * 2, (0.0, 0.05))


class TwoStageFeed:
    """A two-stage feed with the given populations that records each stage it runs."""

    num_stages = 2

    def __init__(self, populations):
        self.populations = populations
        self.rng = np.random.default_rng(0)
        self.ran = []

    def population(self, t):
        return self.populations[t - 1]

    def true_variance(self, t):
        return (10.0, 10.0)

    def run_stage(self, t, m):
        self.ran.append((t, m))
        return StageOutcome(0.0, 0.0, 0.0, 0.0, 0.0, np.zeros(max(m, 0)))


class BlindFeed(TwoStageFeed):
    """A two-stage feed that does not know its outcome variances."""

    def true_variance(self, t):
        return None


class Overreach:
    """A policy that decides one unit past its range, or -1."""

    branch_labels = ("overreach",)

    def __init__(self, cap_at_half, below=False):
        self.cap_at_half = cap_at_half
        self.below = below

    def decide(self, stage):
        top = stage.n_units // 2 if self.cap_at_half else stage.n_units
        m = -1 if self.below else top + 1
        return StageDecision(m, "overreach", m / stage.n_units)


@pytest.mark.parametrize(
    "policy",
    [
        AnalyticPolicy(PRIOR, VariancePolicy()),
        CantelliPolicy(PRIOR, VariancePolicy(), samples=100),
        ThompsonPolicy(c=1.0, prior=PRIOR),
    ],
    ids=["analytic", "cantelli", "thompson"],
)
def test_a_stage_without_units_is_refused_for_every_policy(policy):
    feed = TwoStageFeed((0, 500))
    message = "^stage 1: the feed has 0 units; a stage needs at least 1$"
    with pytest.raises(ValueError, match=message):
        run_stages(SCHEDULE, feed, policy)
    assert feed.ran == []


@pytest.mark.parametrize(
    "policy, top",
    [(Overreach(True), 250), (Overreach(False), 500), (Overreach(True, below=True), 250)],
    ids=["capped", "uncapped", "negative"],
)
def test_a_decision_out_of_range_is_refused_before_the_feed_runs(policy, top):
    feed = TwoStageFeed((500, 500))
    with pytest.raises(ValueError, match=rf"^stage 1: m outside \[0, {top}\]$"):
        run_stages(SCHEDULE, feed, policy)
    assert feed.ran == []


class Unlabelled(Overreach):
    """A policy whose in-range decision takes a branch it does not declare."""

    def decide(self, stage):
        return StageDecision(0, "improvised", 0.0)


def test_a_branch_outside_the_labels_is_refused_before_the_feed_runs():
    feed = TwoStageFeed((500, 500))
    message = "^stage 1: branch 'improvised' is not in the policy's branch_labels$"
    with pytest.raises(ValueError, match=message):
        run_stages(SCHEDULE, feed, Unlabelled(True))
    assert feed.ran == []


def test_the_trace_is_one_row_of_block_traces():
    policy = AnalyticPolicy(PRIOR, VariancePolicy())
    feed = ScenarioFeed(builtin_scenarios()["pte"], np.random.default_rng(0))
    stages = run_stages(RiskSchedule.uniform(-500.0, 0.05, 4), feed, policy).stages
    assert isinstance(stages, BlockTraces) and stages.labels == policy.branch_labels
    assert len(stages) == 4
    for column, dtype in zip(stages.columns(), (np.int64, np.int8, np.float64, np.float64)):
        assert column.shape == (4,) and column.dtype == dtype
    assert stages.cum_cost.tolist() == np.cumsum(stages.stage_cost).tolist()


def test_block_traces_index_rows_as_views():
    traces = BlockTraces.empty(5, 3, ("a", "b"))
    for column in traces.columns():
        column[...] = np.arange(15).reshape(5, 3)
    for index, want in ((1, 1), (-1, 4)):
        row = traces[index]
        assert isinstance(row, BlockTraces) and row.labels == traces.labels
        for column, whole in zip(row.columns(), traces.columns()):
            assert column.shape == (3,) and np.shares_memory(column, whole)
            assert column.tolist() == whole[want].tolist()
    head = traces[1:3]
    assert len(head) == 2 and head.labels == traces.labels
    for column, whole in zip(head.columns(), traces.columns()):
        assert column.shape == (2, 3) and np.array_equal(column, whole[1:3])
    rows = list(traces)
    assert len(rows) == len(traces) == 5
    assert [row.m.tolist() for row in rows] == traces.m.tolist()


def test_uncapped_thompson_may_treat_the_whole_stage():
    sure = GaussianPrior((0.0, 5.0), (1.0, 1.0))  # treatment is almost surely better
    policy = ThompsonPolicy(c=4.0, prior=sure, sigma_sq=(10.0, 10.0))
    feed = ScenarioFeed(builtin_scenarios()["pte"], np.random.default_rng(0))
    trace = run_stages(RiskSchedule.uniform(-500.0, 0.05, 3), feed, policy)
    assert trace.stages.m.max() > 250
    check_decision(policy, 1, 500, 0, 500)
    with pytest.raises(ValueError, match=r"^stage 1: m outside \[0, 500\]$"):
        check_decision(policy, 1, 500, 0, 501)


@pytest.mark.parametrize(
    "policy",
    [AnalyticPolicy(PRIOR, VariancePolicy()), ThompsonPolicy(c=1.0, prior=PRIOR)],
    ids=["analytic", "thompson"],
)
def test_a_known_variance_policy_without_variances_names_them(policy):
    # Thompson decides stage 1 from its prior and needs variances from stage 2 on.
    message = (
        "^known-variance mode needs explicit values or a feed that reports true variances$"
    )
    with pytest.raises(ValueError, match=message):
        run_stages(RiskSchedule.uniform(-500.0, 0.05, 2), BlindFeed((500, 500)), policy)
