import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rampguard.mc_solver import PosteriorQuantities, solve_ramp_size_cantelli
from rampguard.normal import normal_quantile
from rampguard.posterior import (
    GaussianPrior,
    OutcomeVariance,
    PosteriorState,
    VariancePolicy,
)
from rampguard.scenarios import ScenarioFeed, builtin_scenarios
from rampguard.schedules import RiskSchedule, ScheduleError
from rampguard.solver import (
    BRANCH_CAP,
    BRANCH_EMPTY,
    BRANCH_NO_REAL_ROOT,
    BRANCH_ROOT,
    BRANCH_ZERO_TOL,
    BRANCHES,
    Z_SLACK,
    AnalyticPolicy,
    PredictiveMoments,
    quadratic_coefficients,
    solve_ramp_size,
    solve_ramp_sizes,
)
from rampguard.trace import run_stages

PRIOR = GaussianPrior((0.0, 0.0), (100.0, 100.0))
VAR10 = OutcomeVariance((10.0, 10.0))
FLAT_POST = PosteriorState(mu_p=(0.0, 0.0), sigma_p_sq=(100.0, 100.0))


def oracle_max_m(posterior, variance, m1_prev, s_t1_prev, b_t, delta_t, n_t):
    """Exhaustive reference: largest m in [0, N/2] meeting the tail bound.

    Written independently of the solver: the feasibility predicate is
    evaluated on every candidate directly from the moment formulas.
    """
    if delta_t == 0.0:
        return 0
    q = normal_quantile(delta_t)
    mp0, mp1 = posterior.mu_p
    sp0, sp1 = posterior.sigma_p_sq
    v0, v1 = variance.sigma_sq
    best = 0
    for m in range(n_t // 2, -1, -1):
        mu = mp1 * m - mp0 * (m + m1_prev)
        var = m * m * sp1 + m * v1 + (m + m1_prev) ** 2 * sp0 + (m + m1_prev) * v0
        num = b_t - s_t1_prev - mu
        if var <= 0.0:
            z = -math.inf if num < 0.0 else math.inf
        else:
            z = num / math.sqrt(var)
        if z <= q + Z_SLACK:
            best = m
            break
    return best


def random_stage_config(rng, n_max=1000):
    posterior = PosteriorState(
        mu_p=(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))),
        sigma_p_sq=(float(rng.uniform(1e-3, 100)), float(rng.uniform(1e-3, 100))),
    )
    variance = OutcomeVariance(
        (float(rng.uniform(0.1, 50)), float(rng.uniform(0.1, 50)))
    )
    m1_prev = int(rng.integers(0, 2000))
    s_t1_prev = float(rng.uniform(-500, 500))
    b_t = float(rng.uniform(-1000, -1))
    kind = rng.random()
    if kind < 0.1:
        delta_t = 0.0
    elif kind < 0.8:
        delta_t = float(10 ** rng.uniform(-6, math.log10(0.49)))
    else:
        delta_t = float(rng.uniform(0.5, 0.99))
    n_t = int(rng.integers(1, n_max + 1))
    return posterior, variance, m1_prev, s_t1_prev, b_t, delta_t, n_t


class TestPredictiveMoments:
    def test_symmetric_prior_no_history(self):
        mom = PredictiveMoments(FLAT_POST.mu_p, FLAT_POST.sigma_p_sq, VAR10.sigma_sq, 0)
        for m in (0, 1, 13, 250):
            assert mom.mu_tilde(m) == 0.0

    def test_direct_substitution(self):
        mom = PredictiveMoments(FLAT_POST.mu_p, FLAT_POST.sigma_p_sq, VAR10.sigma_sq, 0)
        for m in (0, 1, 7, 100):
            assert mom.sigma_tilde_sq(m) == pytest.approx(200 * m * m + 20 * m)

    def test_variance_strictly_increasing(self):
        mom = PredictiveMoments((0.3, -0.2), (2.0, 5.0), (3.0, 7.0), 40)
        values = [mom.sigma_tilde_sq(m) for m in range(0, 200)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_history_enters_the_mean(self):
        mom = PredictiveMoments((1.5, 0.5), (1.0, 1.0), VAR10.sigma_sq, 20)
        # mu(1) * m - mu(0) * (m + history)
        assert mom.mu_tilde(10) == pytest.approx(0.5 * 10 - 1.5 * 30)


class TestSolveRampSize:
    def test_stage_one_worked_example(self):
        d = solve_ramp_size(FLAT_POST, VAR10, 0, 0.0, -500.0, 0.005, 500)
        assert d.m == 13
        assert d.branch == BRANCH_ROOT
        assert d.assignment_probability == pytest.approx(13 / 500)
        # Boundary witnesses for the chosen m.
        mom = PredictiveMoments(FLAT_POST.mu_p, FLAT_POST.sigma_p_sq, VAR10.sigma_sq, 0)
        q = normal_quantile(0.005)
        z13 = -500.0 / math.sqrt(mom.sigma_tilde_sq(13))
        z14 = -500.0 / math.sqrt(mom.sigma_tilde_sq(14))
        assert z13 == pytest.approx(-2.709, abs=2e-3)
        assert z13 <= q < z14

    def test_strong_positive_effect_hits_cap(self):
        posterior = PosteriorState((0.0, 50.0), (0.01, 0.01))
        d = solve_ramp_size(posterior, VAR10, 100, 5000.0, -1.0, 0.005, 501)
        assert d.m == 250
        assert d.branch == BRANCH_CAP

    def test_a_negative_treated_history_is_refused(self):
        with pytest.raises(ValueError, match="M1_prev must be >= 0, got -1"):
            solve_ramp_size(FLAT_POST, VAR10, -1, 0.0, -500.0, 0.005, 500)

    def test_zero_tolerance(self):
        d = solve_ramp_size(FLAT_POST, VAR10, 0, 0.0, -500.0, 0.0, 500)
        assert d.m == 0
        assert d.branch == BRANCH_ZERO_TOL

    def test_population_of_one(self):
        d = solve_ramp_size(FLAT_POST, VAR10, 0, 0.0, -500.0, 0.01, 1)
        assert d.m == 0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_ramp_size(FLAT_POST, VAR10, 0, 0.0, -500.0, 1.0, 500)
        with pytest.raises(ValueError):
            solve_ramp_size(FLAT_POST, VAR10, 0, 0.0, -500.0, 0.01, 0)

    def test_monotone_in_budget_magnitude(self):
        sizes = [
            solve_ramp_size(FLAT_POST, VAR10, 0, 0.0, b, 0.005, 2000).m
            for b in (-50.0, -100.0, -250.0, -500.0, -900.0)
        ]
        assert sizes == sorted(sizes)

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(800):
            cfg = random_stage_config(rng)
            got = solve_ramp_size(*cfg)
            want = oracle_max_m(*cfg)
            assert got.m == want, f"solver {got} vs oracle {want} on {cfg}"

    def test_maximality_of_root_branch(self):
        rng = np.random.default_rng(99)
        q_cache = {}
        checked = 0
        for _ in range(4000):
            cfg = random_stage_config(rng)
            d = solve_ramp_size(*cfg)
            posterior, variance, m1_prev, s, b, delta, n = cfg
            if d.branch != BRANCH_ROOT or d.m < 1:
                continue
            checked += 1
            q = q_cache.setdefault(delta, normal_quantile(delta))
            mom = PredictiveMoments(
                posterior.mu_p, posterior.sigma_p_sq, variance.sigma_sq, m1_prev
            )
            z = (b - s - mom.mu_tilde(d.m)) / math.sqrt(mom.sigma_tilde_sq(d.m))
            assert z <= q + Z_SLACK
            nxt = d.m + 1
            if nxt <= n // 2:
                z_next = (b - s - mom.mu_tilde(nxt)) / math.sqrt(mom.sigma_tilde_sq(nxt))
                assert z_next > q + Z_SLACK
        assert checked > 50

    def test_quadratic_roots_restore_equality(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(500):
            posterior, variance, m1_prev, s, b, delta, _ = random_stage_config(rng)
            if delta == 0.0:
                continue
            q = normal_quantile(delta)
            mom = PredictiveMoments(
                posterior.mu_p, posterior.sigma_p_sq, variance.sigma_sq, m1_prev
            )
            A, B, C = quadratic_coefficients(mom, s, b, q)
            if A == 0.0:
                continue
            disc = B * B - 4 * A * C
            if disc < 0:
                continue
            for root in (
                (-B + math.sqrt(disc)) / (2 * A),
                (-B - math.sqrt(disc)) / (2 * A),
            ):
                var = mom.sigma_tilde_sq(root)
                if var <= 1e-12 or abs(root) > 1e8:
                    continue
                lhs = b - s - mom.mu_tilde(root)
                # Un-floored roots satisfy the tail condition with equality
                # up to sign: squaring maps both sides onto the quadratic.
                assert abs(abs(lhs) - abs(q) * math.sqrt(var)) <= 1e-6 * max(
                    1.0, abs(lhs)
                )
                checked += 1
        assert checked > 100


@st.composite
def stage_configs(draw):
    posterior = PosteriorState(
        mu_p=(
            draw(st.floats(-4, 4, allow_nan=False)),
            draw(st.floats(-4, 4, allow_nan=False)),
        ),
        sigma_p_sq=(
            draw(st.floats(0.01, 80, allow_nan=False)),
            draw(st.floats(0.01, 80, allow_nan=False)),
        ),
    )
    variance = OutcomeVariance(
        (draw(st.floats(0.2, 40)), draw(st.floats(0.2, 40)))
    )
    m1_prev = draw(st.integers(0, 1500))
    s = draw(st.floats(-400, 400))
    b = draw(st.floats(-900, -1))
    delta = draw(st.one_of(st.just(0.0), st.floats(1e-6, 0.95)))
    n = draw(st.integers(1, 600))
    return posterior, variance, m1_prev, s, b, delta, n


# At Delta_t = 1/2 (q = 0) the quadratic has a double root, and its
# discriminant rounds to -3.6e-15 here; m = 1 is admissible.
DOUBLE_ROOT = (
    PosteriorState((0.0, -1.8440850451518425), (1.0, 1.0)),
    OutcomeVariance((1.0, 1.0)),
    0,
    1.0,
    -2.0,
    0.5,
    4,
)


@settings(max_examples=150, deadline=None)
@given(stage_configs())
@example(DOUBLE_ROOT)
def test_solver_equals_oracle_property(cfg):
    assert solve_ramp_size(*cfg).m == oracle_max_m(*cfg)


def solve_vectorized(states, b_t, delta_t, n_t):
    """solve_ramp_sizes over (posterior, variance, m1_prev, s_t1_prev) states."""
    cols = np.array(
        [p.mu_p + p.sigma_p_sq + v.sigma_sq + (m1, s) for p, v, m1, s in states], dtype=float
    ).T
    moments = PredictiveMoments(
        mu_p=(cols[0], cols[1]), sigma_p_sq=(cols[2], cols[3]), sigma_sq=(cols[4], cols[5]),
        m1_prev=cols[6],
    )
    m, branch = solve_ramp_sizes(moments, cols[7], b_t, delta_t, n_t)
    return [(int(mi), BRANCHES[bi]) for mi, bi in zip(m, branch)]


def assert_vectorized_equals_scalar(states, b_t, delta_t, n_t):
    got = solve_vectorized(states, b_t, delta_t, n_t)
    for state, vec in zip(states, got):
        d = solve_ramp_size(*state, b_t, delta_t, n_t)
        assert vec == (d.m, d.branch), f"vectorized {vec} vs scalar {d} on {state}"


def _degenerate_state(effect_sign):
    """A state whose quadratic has A == 0: effect**2 == q**2 (sp0 + sp1)."""
    q, sp = normal_quantile(0.01), 0.5
    effect = effect_sign * math.sqrt(2 * q * q * sp)
    return PosteriorState((0.0, effect), (sp, sp)), VAR10, q, effect


def _degenerate_no_root():
    # B == 0 as well: b_t - S cancels q**2 (v0 + v1) against 2 * slack * effect.
    post, var, q, effect = _degenerate_state(-1.0)
    b_t = -q * q * 20.0 / (2 * effect)
    return (post, var, 0, 0.0), b_t, 0.01, 500


BRANCH_CASES = [
    (BRANCH_CAP, ((PosteriorState((0.0, 50.0), (0.01, 0.01)), VAR10, 100, 5000.0), -1.0, 0.005, 501)),
    (BRANCH_CAP, ((FLAT_POST, VAR10, 0, 0.0), -500.0, 0.01, 1)),
    (BRANCH_ROOT, ((FLAT_POST, VAR10, 0, 0.0), -500.0, 0.005, 500)),
    (BRANCH_EMPTY, ((FLAT_POST, VAR10, 0, -600.0), -500.0, 0.005, 500)),
    (BRANCH_EMPTY, ((_degenerate_state(-1.0)[0], VAR10, 0, 0.0), 30.0, 0.01, 500)),
    (BRANCH_NO_REAL_ROOT, ((PosteriorState((0.0, 0.0), (1.0, 1.0)), VAR10, 1000, -500.0), -500.0, 0.01, 500)),
    (BRANCH_NO_REAL_ROOT, _degenerate_no_root()),
    (BRANCH_ZERO_TOL, ((FLAT_POST, VAR10, 0, 0.0), -500.0, 0.0, 500)),
    (BRANCH_ROOT, (DOUBLE_ROOT[:4], *DOUBLE_ROOT[4:])),
]


class TestSolveRampSizes:
    @pytest.mark.parametrize("branch,case", BRANCH_CASES)
    def test_each_branch_by_hand(self, branch, case):
        state, b_t, delta_t, n_t = case
        assert solve_ramp_size(*state, b_t, delta_t, n_t).branch == branch
        assert_vectorized_equals_scalar([state], b_t, delta_t, n_t)

    def test_randomized_groups(self):
        # Rows of different branches share each array call.
        rng = np.random.default_rng(31)
        for _ in range(200):
            _, _, _, _, b_t, delta_t, n_t = random_stage_config(rng)
            states = [random_stage_config(rng)[:4] for _ in range(40)]
            assert_vectorized_equals_scalar(states, b_t, delta_t, n_t)

    def test_bad_inputs(self):
        states = [(FLAT_POST, VAR10, 0, 0.0)]
        with pytest.raises(ValueError):
            solve_vectorized(states, -500.0, 1.0, 500)
        with pytest.raises(ValueError):
            solve_vectorized(states, -500.0, 0.01, 0)


# Quantities with every draw surviving and a unit fresh-cost variance.
SURVIVING = PosteriorQuantities(1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 100, 100)


def _scalar(delta_t, n_t):
    d = solve_ramp_size(FLAT_POST, VAR10, 0, 0.0, -500.0, delta_t, n_t)
    return d.m, d.branch


def _vectorized(delta_t, n_t):
    return solve_vectorized([(FLAT_POST, VAR10, 0, 0.0)] * 2, -500.0, delta_t, n_t)[0]


def _cantelli(delta_t, n_t, quantities=SURVIVING):
    d = solve_ramp_size_cantelli(quantities, -500.0, delta_t, n_t)
    return d.m, d.branch


@pytest.mark.parametrize("solve", [_scalar, _vectorized, _cantelli],
                         ids=["scalar", "vectorized", "cantelli"])
def test_every_solver_shares_one_stage_entry(solve):
    for n_t in (0, -1, True, 501.5, "500", 2**53 + 1):
        with pytest.raises(ValueError) as refused:
            solve(0.01, n_t)
        assert str(refused.value) == f"N_t must be a whole number in [1, 2**53], got {n_t!r}"
    for delta_t in (1.0, -0.1, math.nan, False, "0.01"):
        with pytest.raises(ValueError) as refused:
            solve(delta_t, 500)
        assert str(refused.value) == f"Delta_t must be in [0, 1), got {delta_t!r}"
    assert solve(0.0, 500) == (0, BRANCH_ZERO_TOL)
    assert solve(0.01, 1) == (0, BRANCH_CAP)
    assert solve(0.01, np.int64(500)) == solve(0.01, 500)


def test_cantelli_without_survivors_is_empty_before_the_cap():
    # Cantelli's phi0 == 0 exit sits between the zero-tolerance and the empty-cap exits.
    none_survive = PosteriorQuantities(0.0, *(math.nan,) * 7, 100, 0)
    assert _cantelli(0.01, 1, none_survive) == (0, BRANCH_EMPTY)
    assert _cantelli(0.0, 1, none_survive) == (0, BRANCH_ZERO_TOL)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# mu_p = (1e160, 0): the quadratic's A overflows to -inf and its roots to NaN.
OVERFLOWING_ROOTS = (PosteriorState((1e160, 0.0), (1.0, 1.0)), VAR10, 13, -3.0)
# At q = 0 and a zero effect, B = 2 * inf * 0 is NaN and A is 0.
NAN_B = (PosteriorState((0.0, 0.0), (1.0, 1.0)), OutcomeVariance((1.0, 1.0)), 0, -8.98846567431158e307)

# A degenerate state where B == 0, so no m solves B m + C = 0; the same state
# at a slack of -100, where the linear root gives m = 17.
(NO_ROOT_STATE, NO_ROOT_B_T, _, _) = _degenerate_no_root()
LINEAR_ROOT_STATE = (*NO_ROOT_STATE[:3], NO_ROOT_B_T + 100.0)


# solve_ramp_sizes tests the cap (row 0) and the four floored-root candidates
# (rows 1-4) in one stacked tail check; each example puts rows of different
# branches into one call.
@settings(max_examples=150, deadline=None)
@given(
    st.lists(stage_configs(), min_size=1, max_size=6),
    st.floats(-900, -1),
    st.one_of(st.just(0.0), st.floats(1e-6, 0.95)),
    st.integers(1, 600),
)
# The cap 13 is admissible and the larger root floors to 13, so row 0 and a
# candidate row hold the same m; the second row takes the root branch.
@example([(FLAT_POST, VAR10, 0, 0.0), (FLAT_POST, VAR10, 0, -250.0)], -500.0, 0.005, 27)
# The larger root rounds to 2.9999999999999996; the admissible m = 3 is the
# upper neighbour of its floor.
@example([(FLAT_POST, VAR10, 0, 0.0), (FLAT_POST, VAR10, 0, 50.0)], -111.0896380311839, 0.005, 1000)
# A == 0 exactly: the degenerate quadratic's linear root -C/B gives m = 17.
@example([(_degenerate_state(-1.0)[0], VAR10, 0, 0.0), (FLAT_POST, VAR10, 0, 0.0)], -100.0, 0.01, 500)
# Every row degenerate: one with no root, one with a linear root.
@example([NO_ROOT_STATE, LINEAR_ROOT_STATE], NO_ROOT_B_T, 0.01, 500)
# A degenerate row after rows that solve the quadratic.
@example([(FLAT_POST, VAR10, 0, 0.0), (FLAT_POST, VAR10, 0, -250.0),
          (_degenerate_state(-1.0)[0], VAR10, 0, 0.0)], -100.0, 0.01, 500)
# Coefficients that overflow: B is NaN, or A and B are -inf and the roots NaN.
@example([NAN_B, (FLAT_POST, VAR10, 0, 0.0)], 0.0, 0.5, 2)
@example([OVERFLOWING_ROOTS, (FLAT_POST, VAR10, 0, 0.0)], -500.0, 0.005, 500)
def test_vectorized_solver_equals_scalar_property(cfgs, b_t, delta_t, n_t):
    assert_vectorized_equals_scalar([cfg[:4] for cfg in cfgs], b_t, delta_t, n_t)


class TestRunExperiment:
    def test_zero_tolerance_schedule_runs_nothing_risky(self):
        sched = RiskSchedule(-500.0, 0.0, (-500.0,) * 5, (0.0,) * 5)
        feed = ScenarioFeed(builtin_scenarios()["pte"], np.random.default_rng(0))
        trace = run_stages(sched, feed, AnalyticPolicy(PRIOR, VariancePolicy()))
        assert [r.m for r in trace.records] == [0] * 5
        assert trace.records[-1].cum_cost == 0.0
        assert all(r.stage_cost == 0.0 for r in trace.records)

    def test_cap_respected_everywhere(self):
        sched = RiskSchedule.uniform(-500.0, 0.05, 10)
        feed = ScenarioFeed(builtin_scenarios()["pte"], np.random.default_rng(1))
        trace = run_stages(sched, feed, AnalyticPolicy(PRIOR, VariancePolicy()))
        assert all(r.m <= r.n_units // 2 for r in trace.records)
        # The loop runs min(schedule, feed) stages: here the schedule's 10.
        assert len(trace.records) == sched.num_stages == 10

    def test_feed_shorter_than_schedule_stops_the_run(self):
        sched = RiskSchedule.uniform(-500.0, 0.05, 12)
        feed = ScenarioFeed(builtin_scenarios()["pte"], np.random.default_rng(1))
        trace = run_stages(sched, feed, AnalyticPolicy(PRIOR, VariancePolicy()))
        # The feed's 10 stages end the run before the schedule's 12.
        assert len(trace.records) == feed.num_stages == 10

    def test_spent_tolerance_then_zero_stages_still_run(self):
        sched = RiskSchedule(-500.0, 0.05, (-500.0,) * 4, (0.03, 1 - 0.95 / 0.97, 0.0, 0.0))
        feed = ScenarioFeed(builtin_scenarios()["pte"], np.random.default_rng(1))
        trace = run_stages(sched, feed, AnalyticPolicy(PRIOR, VariancePolicy()))
        assert [r.branch for r in trace.records[2:]] == [BRANCH_ZERO_TOL] * 2
        assert [r.m for r in trace.records[2:]] == [0, 0]

    def test_cumulative_cost_identity(self):
        sched = RiskSchedule.uniform(-500.0, 0.05, 10)
        feed = ScenarioFeed(builtin_scenarios()["nte"], np.random.default_rng(2))
        trace = run_stages(sched, feed, AnalyticPolicy(PRIOR, VariancePolicy()))
        running = 0.0
        for r in trace.records:
            running += r.stage_cost
            assert r.cum_cost == pytest.approx(running, rel=1e-12)
        assert trace.records[-1].cum_cost - sched.budget == pytest.approx(running + 500.0)

    def test_estimated_variance_mode_matches_known_at_stage_one(self):
        sched = RiskSchedule.uniform(-500.0, 0.05, 3)
        feed = ScenarioFeed(builtin_scenarios()["pte"], np.random.default_rng(3))
        policy = VariancePolicy(mode="estimated", pretrial=(10.0, 10.0))
        trace = run_stages(sched, feed, AnalyticPolicy(PRIOR, policy))
        assert len(trace.records) == 3
        known_feed = ScenarioFeed(builtin_scenarios()["pte"], np.random.default_rng(3))
        known_policy = AnalyticPolicy(PRIOR, VariancePolicy(values=(10.0, 10.0)))
        known = run_stages(sched, known_feed, known_policy)
        # Stage 1 has no data, so the pretrial pair acts as the known pair.
        assert trace.records[0].m == known.records[0].m

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ScheduleError):
            RiskSchedule(-500.0, 0.01, (-500.0,) * 3, (0.02, 0.0, 0.0))

    def test_pte_median_reaches_max_power(self):
        # Median over a small replication batch; the full-size check lives
        # in the acceptance suite.
        sched = RiskSchedule.uniform(-500.0, 0.05, 10)
        scenario = builtin_scenarios()["pte"]
        finals = []
        for rep in range(40):
            feed = ScenarioFeed(scenario, np.random.default_rng(1000 + rep))
            trace = run_stages(sched, feed, AnalyticPolicy(PRIOR, VariancePolicy()))
            finals.append(max(r.m for r in trace.records))
        assert np.median(finals) == 250


@settings(max_examples=400, deadline=None)
@given(
    st.builds(PosteriorState, st.tuples(FINITE, FINITE), st.tuples(POSITIVE, POSITIVE)),
    st.builds(OutcomeVariance, st.tuples(POSITIVE, POSITIVE)),
    st.integers(0, 2**40),
    FINITE,
    FINITE,
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(1, 10**6),
)
@example(*OVERFLOWING_ROOTS, -500.0, 0.005, 500)
@example(*NAN_B, 0.0, 0.5, 2)
def test_solvers_are_total_and_agree_at_extreme_magnitudes(post, var, m1, s, b_t, delta_t, n_t):
    """The scalar solver never raises on finite inputs and equals the vector solver."""
    assert_vectorized_equals_scalar([(post, var, m1, s)], b_t, delta_t, n_t)
