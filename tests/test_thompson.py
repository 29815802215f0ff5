import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rampguard.batch import BlockStage
from rampguard.posterior import GaussianPrior, PosteriorState, SufficientStats
from rampguard.scenarios import ScenarioFeed, builtin_scenarios
from rampguard.schedules import RiskSchedule
from rampguard.thompson import (
    ThompsonPolicy,
    thompson_assignment_probabilities,
    thompson_assignment_probability,
)
from rampguard.trace import Stage, run_stages

BANDIT_PRIOR = GaussianPrior((0.0, -2.0), (0.05, 0.05))


def posterior_with_p(p):
    """Construct a posterior whose positive-effect probability equals p."""
    from rampguard.normal import normal_quantile

    z = normal_quantile(p)
    # sigma_p_sq both 0.5 so the denominator is exactly 1.
    return PosteriorState((0.0, z), (0.5, 0.5))


class TestAssignmentProbability:
    def test_symmetric_is_half(self):
        post = PosteriorState((0.0, 0.0), (1.0, 1.0))
        for c in (0.1, 1.0, 7.0):
            assert thompson_assignment_probability(post, c) == pytest.approx(0.5)

    def test_c_one_is_identity(self):
        post = posterior_with_p(0.9)
        assert thompson_assignment_probability(post, 1.0) == pytest.approx(0.9, rel=1e-9)

    def test_sharpened_ratio(self):
        post = posterior_with_p(0.9)
        # p^c / (p^c + (1-p)^c) at p = 0.9, c = 2.
        assert thompson_assignment_probability(post, 2.0) == pytest.approx(
            0.81 / 0.82, rel=1e-9
        )

    def test_extreme_posteriors_stay_finite(self):
        sure_bad = PosteriorState((0.0, -50.0), (0.01, 0.01))
        sure_good = PosteriorState((0.0, 50.0), (0.01, 0.01))
        for c in (0.25, 1.0, 4.0):
            lo = thompson_assignment_probability(sure_bad, c)
            hi = thompson_assignment_probability(sure_good, c)
            assert 0.0 <= lo < 1e-6
            assert 1.0 - 1e-6 < hi <= 1.0

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            thompson_assignment_probability(posterior_with_p(0.6), 0.0)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize(
        "sharpen",
        [
            lambda c: thompson_assignment_probability(posterior_with_p(0.6), c),
            lambda c: thompson_assignment_probabilities(
                (np.zeros(3), np.full(3, 0.2)), (np.ones(3), np.ones(3)), c
            ),
            lambda c: ThompsonPolicy(c=c, prior=BANDIT_PRIOR),
        ],
        ids=["scalar", "batch", "policy"],
    )
    def test_every_entry_refuses_a_c_that_is_not_finite_and_positive(self, sharpen, c):
        # The scalar gave nan at c = nan and 1.0 at c = inf; the batch gave 0.47 at c = -1.
        with pytest.raises(ValueError, match=r"c must be finite and > 0"):
            sharpen(c)

    @given(
        p1=st.floats(0.501, 0.999),
        p2=st.floats(0.501, 0.999),
        c=st.floats(0.05, 10.0),
    )
    def test_monotone_in_p(self, p1, p2, c):
        lo, hi = sorted((p1, p2))
        assert thompson_assignment_probability(
            posterior_with_p(lo), c
        ) <= thompson_assignment_probability(posterior_with_p(hi), c) + 1e-12

    @given(
        p=st.floats(0.55, 0.999),
        c1=st.floats(0.05, 10.0),
        c2=st.floats(0.05, 10.0),
    )
    def test_sharpening_in_c_above_half(self, p, c1, c2):
        lo, hi = sorted((c1, c2))
        post = posterior_with_p(p)
        assert thompson_assignment_probability(post, hi) >= (
            thompson_assignment_probability(post, lo) - 1e-12
        )


POSTERIORS = st.lists(
    st.tuples(
        st.floats(-1e3, 1e3),
        st.floats(-1e3, 1e3),
        st.floats(1e-6, 1e3),
        st.floats(1e-6, 1e3),
    ),
    min_size=1,
    max_size=40,
)


@given(rows=POSTERIORS, c=st.floats(0.01, 20.0))
# p rounds to 1, p rounds to 0 (|z| ~ 7e5), the fig1e prior, and p = 1/2.
@example(rows=[(0.0, 10.0, 0.5, 0.5)], c=1.0)
# erfc's last subnormal (z = -38.4, p = 7e-323) and its underflow to 0 (z = -38.6);
# p rounds to 1 from z = 8.3 on.
@example(rows=[(0.0, -38.4, 0.5, 0.5), (0.0, -38.6, 0.5, 0.5)], c=0.25)
@example(rows=[(0.0, -38.4, 0.5, 0.5), (0.0, -38.6, 0.5, 0.5)], c=4.0)
@example(rows=[(0.0, 8.2, 0.5, 0.5), (0.0, 8.3, 0.5, 0.5)], c=0.25)
@example(rows=[(0.0, -1e3, 1e-6, 1e-6)], c=0.25)
@example(rows=[(0.0, -2.0, 0.05, 0.05)], c=0.25)
@example(rows=[(1.5, 1.5, 2.0, 3.0)], c=4.0)
def test_block_probability_equals_the_scalar(rows, c):
    mu0, mu1, s0, s1 = (np.array(col) for col in zip(*rows))
    got = thompson_assignment_probabilities((mu0, mu1), (s0, s1), c)
    want = [
        thompson_assignment_probability(PosteriorState((a, b), (x, y)), c)
        for a, b, x, y in rows
    ]
    assert got.tolist() == want


class RecordingRng:
    """Records the assignment probabilities a policy draws with; treats no one."""

    def __init__(self):
        self.p = []

    def binomial(self, n, p):
        self.p += np.atleast_1d(p).tolist()
        return np.zeros(np.shape(p), dtype=np.int64)


@pytest.mark.parametrize("t", [1, 2, 4])
@pytest.mark.parametrize("sigma_sq", [None, (3.0, 5.0)])
def test_block_decision_draws_at_the_scalar_probabilities(t, sigma_sq):
    # linkedin's variances change by stage, so the stage-1 fallback shows.
    scn = builtin_scenarios()["linkedin"]
    policy = ThompsonPolicy(c=0.25, prior=BANDIT_PRIOR, sigma_sq=sigma_sq)
    rng = np.random.default_rng(t)
    counts = (rng.integers(0, 20_000, 30).astype(float), rng.integers(0, 20_000, 30).astype(float))
    sums = (rng.normal(0.0, 300.0, 30), rng.normal(0.0, 300.0, 30))
    n_t = scn.population[t - 1]

    block_rng = RecordingRng()
    policy.decide_block(BlockStage(t, n_t, -500.0, 0.01, counts, *sums, scn, block_rng))
    scalar_rng = RecordingRng()
    feed = ScenarioFeed(scn, scalar_rng)
    for c0, c1, s0, s1 in zip(*counts, *sums):
        stats = SufficientStats(sum_treated=s1, sum_control=s0, counts=(int(c0), int(c1)))
        policy.decide(Stage(t, n_t, -500.0, 0.01, -500.0, stats, feed, [], None))
    assert block_rng.p == scalar_rng.p
    assert len(set(block_rng.p)) == (1 if t == 1 else 30)


class TestRunThompson:
    def _run(self, c, seed=0, scenario="npte", stages=None):
        scn = builtin_scenarios()[scenario]
        sched = RiskSchedule.uniform(-500.0, 0.01, stages or scn.T)
        feed = ScenarioFeed(scn, np.random.default_rng(seed))
        policy = ThompsonPolicy(c=c, prior=BANDIT_PRIOR, sigma_sq=(10.0, 10.0))
        return run_stages(sched, feed, policy)

    def test_rejects_nonpositive_c(self):
        for c in (0.0, -1.0, float("inf")):
            with pytest.raises(ValueError):
                ThompsonPolicy(c=c, prior=BANDIT_PRIOR)

    @pytest.mark.parametrize(
        "kwargs, error, match",
        [
            *(({"sigma_sq": v}, ValueError, "sigma_sq") for v in [
                (0.0, 1.0), (1.0, -2.0), (float("inf"), 1.0), (1.0, float("nan")), (1.0,),
                (1.0, 2.0, 3.0),
            ]),
            # The cap at half the stage is no argument: the assignment rule has none.
            ({"cap_at_half": True}, TypeError, "cap_at_half"),
        ],
    )
    def test_rejects_a_bad_argument_when_built(self, kwargs, error, match):
        with pytest.raises(error, match=match):
            ThompsonPolicy(c=1.0, prior=BANDIT_PRIOR, **kwargs)

    def test_stores_the_variance_pair_as_floats(self):
        policy = ThompsonPolicy(c=1.0, prior=BANDIT_PRIOR, sigma_sq=[3, np.float32(5.0)])
        assert policy.sigma_sq == (3.0, 5.0)
        assert [type(v) for v in policy.sigma_sq] == [float, float]
        assert ThompsonPolicy(c=1.0, prior=BANDIT_PRIOR).sigma_sq is None

    def test_symmetric_prior_treats_about_half(self):
        scn = builtin_scenarios()["pte"]
        sched = RiskSchedule.uniform(-500.0, 0.01, scn.T)
        policy = ThompsonPolicy(
            c=3.0, prior=GaussianPrior((0.0, 0.0), (100.0, 100.0)), sigma_sq=(10.0, 10.0)
        )
        firsts = []
        for seed in range(100):
            feed = ScenarioFeed(scn, np.random.default_rng(seed))
            trace = run_stages(sched, feed, policy)
            firsts.append(trace.records[0].m)
        # Binomial(500, 0.5): mean 250, sd ~11; the average of 100 runs
        # stays within a few standard errors.
        assert np.mean(firsts) == pytest.approx(250, abs=5)

    def test_stops_where_the_schedule_ends(self):
        # The loop runs min(schedule, feed) stages, and the npte feed has 10.
        assert len(self._run(1.0, seed=1, stages=3).records) == 3
        assert len(self._run(1.0, seed=1).records) == 10

    def test_rigidity_ordering_in_c(self):
        stage1 = {
            c: np.median([self._run(c, seed).records[0].m for seed in range(60)])
            for c in (0.25, 1.0, 4.0)
        }
        assert stage1[0.25] >= stage1[1.0] >= stage1[4.0]
        assert stage1[0.25] > stage1[4.0]

    def test_never_exceeds_population_and_runs_all_stages(self):
        trace = self._run(0.25, seed=3)
        assert len(trace.records) == 10
        for r in trace.records:
            assert 0 <= r.m <= r.n_units

    def test_budget_accounting_present_despite_no_awareness(self):
        trace = self._run(1.0, seed=7)
        running = 0.0
        for r in trace.records:
            running += r.stage_cost
            assert r.cum_cost == pytest.approx(running)
        # The schedule's budget is -500, so the surplus is the final cost + 500.
        assert trace.records[-1].cum_cost - (-500.0) == pytest.approx(running + 500.0)
