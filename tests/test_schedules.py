import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampguard.diagnostics import robustness_diagnostics
from rampguard.mc_solver import (
    GaussianPosteriorSampler,
    TreatmentEffectCost,
    estimate_posterior_quantities,
)
from rampguard.posterior import (
    GaussianPrior,
    OutcomeVariance,
    PosteriorState,
    SufficientStats,
    VariancePolicy,
    estimate_variance,
    update_stats,
)
from rampguard.scenarios import builtin_scenarios
from rampguard.schedules import (
    REL_SLACK,
    RiskSchedule,
    ScheduleError,
    as_float,
    sinc_gamma,
    sinc_schedule,
    uniform_tolerance,
)
from rampguard.thompson import ThompsonPolicy


def bisect_sinc_root(delta, tol=1e-10):
    """Independent oracle: bisection on sin(pi g)/(pi g) - (1 - delta)."""
    f = lambda g: (math.sin(math.pi * g) / (math.pi * g) if g else 1.0) - (1.0 - delta)
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestUniformTolerance:
    def test_zero_delta(self):
        assert uniform_tolerance(0.0, 5) == (0.0,) * 5

    def test_product_recovers_delta(self):
        tol = uniform_tolerance(0.01, 10)
        assert all(t == tol[0] for t in tol)
        assert tol[0] == pytest.approx(0.0010045, abs=5e-8)
        prod = np.prod([1 - t for t in tol])
        assert prod == pytest.approx(0.99, rel=1e-12)

    def test_single_stage(self):
        assert uniform_tolerance(0.5, 1) == (0.5,)

    @pytest.mark.parametrize("delta,T", [(-0.1, 5), (1.0, 5), (0.1, 0)])
    def test_domain_errors(self, delta, T):
        with pytest.raises(ScheduleError):
            uniform_tolerance(delta, T)


class TestSincSchedule:
    def test_zero_delta_is_all_zero(self):
        assert sinc_gamma(0.0) == 0.0
        assert sinc_schedule(0.0, 4) == (0.0,) * 4

    def test_root_against_bisection_oracle(self):
        g = sinc_gamma(0.05)
        assert g == pytest.approx(bisect_sinc_root(0.05), abs=1e-9)
        assert g == pytest.approx(0.1757, abs=5e-5)
        assert sinc_schedule(0.05, 1)[0] == pytest.approx(g * g, rel=1e-12)
        assert sinc_schedule(0.05, 1)[0] == pytest.approx(0.03087, abs=1e-5)

    def test_inverse_square_scaling(self):
        d1, d2, d3 = sinc_schedule(0.05, 3)
        assert d2 == pytest.approx(d1 / 4)
        assert d3 == pytest.approx(d1 / 9)

    @pytest.mark.parametrize("delta", [0.001, 0.01, 0.05, 0.3])
    def test_root_residual(self, delta):
        g = sinc_gamma(delta)
        residual = math.sin(math.pi * g) / (math.pi * g) - (1.0 - delta)
        assert abs(residual) <= 1e-10

    def test_partial_products_stay_above_target(self):
        for delta in (0.01, 0.2, 0.7):
            tol = sinc_schedule(delta, 50)
            prod = 1.0
            for d in tol:
                prod *= 1 - d
                assert prod >= (1 - delta) * (1 - 1e-12)

    @pytest.mark.parametrize("delta", [-0.01, 1.0, math.nan])
    def test_delta_outside_the_unit_interval_is_refused(self, delta):
        for build in (sinc_gamma, lambda d: sinc_schedule(d, 3)):
            with pytest.raises(ScheduleError, match=r"delta must be in \[0, 1\)"):
                build(delta)

    @pytest.mark.parametrize("horizon", [0, -2])
    def test_a_horizon_below_one_is_refused(self, horizon):
        wants = rf"horizon must be a whole number in \[1, 10000\], got {horizon}"
        with pytest.raises(ScheduleError, match=wants):
            sinc_schedule(0.05, horizon)

    def test_infinite_product_limit(self):
        # Tail check: the first 1e6 factors already land within 1e-4.
        delta = 0.05
        g = sinc_gamma(delta)
        t = np.arange(1, 1_000_001, dtype=float)
        log_prod = np.log1p(-((g / t) ** 2)).sum()
        assert abs(math.exp(log_prod) - (1 - delta)) <= 1e-4


class TestValidation:
    """The schedule rule, checked where a schedule is built."""

    def test_uniform_construction_is_valid(self):
        sched = RiskSchedule.uniform(-500.0, 0.01, 10)
        assert sched.tolerance_product() == pytest.approx(0.99, rel=1e-12)

    def test_sinc_construction_is_valid(self):
        sched = RiskSchedule(-500.0, 0.05, (-500.0,) * 25, sinc_schedule(0.05, 25))
        assert sched.num_stages == 25

    def test_budget_floor_violation_reports_index(self):
        budgets = [-500.0] * 10
        budgets[2] = -600.0
        with pytest.raises(ScheduleError, match=r"^stage 3: budget -600\.0"):
            RiskSchedule(-500.0, 0.01, tuple(budgets), uniform_tolerance(0.01, 10))

    def test_ration_tolerance_sequence_is_valid(self):
        # Front-loaded small tolerances, rationed for the later stages.
        tol = (0.0001,) * 5 + (0.0019,) * 5
        sched = RiskSchedule(-500.0, 0.01, (-500.0,) * 10, tol)
        assert sched.tolerance_product() == pytest.approx(0.990048, abs=1e-5)
        assert sched.tolerance_product() >= 0.99

    def test_overspent_tolerance_reports_first_prefix(self):
        tol = (0.005, 0.005, 0.005)
        with pytest.raises(ScheduleError, match=r"^stage 3: tolerance product"):
            RiskSchedule(-500.0, 0.01, (-500.0,) * 3, tol)

    def test_tolerance_range_violation(self):
        wants = r"^stage 2: tolerance must be in \[0, 1\), got 1.5$"
        with pytest.raises(ScheduleError, match=wants):
            RiskSchedule(-500.0, 0.5, (-500.0,) * 2, (0.2, 1.5))

    def test_prefix_monotonicity(self):
        sched = RiskSchedule(-100.0, 0.3, (-100.0,) * 12, sinc_schedule(0.3, 12))
        truncated = RiskSchedule(
            sched.budget, sched.delta, sched.stage_budgets[:-1], sched.stage_tolerances[:-1]
        )
        assert truncated.num_stages == 11

    @given(
        delta=st.floats(min_value=0.0, max_value=0.9),
        T=st.integers(min_value=1, max_value=40),
    )
    def test_generators_always_validate(self, delta, T):
        assert RiskSchedule.uniform(-10.0, delta, T).num_stages == T
        assert RiskSchedule(-10.0, delta, (-10.0,) * T, sinc_schedule(delta, T)).num_stages == T


def old_rule_accepts(budget, delta, budgets, tolerances) -> bool:
    """Oracle: the scalar and shape checks of the former constructor, then
    the former ``validate_schedule``, as they stood before the rule moved
    into ``RiskSchedule``."""
    if not (math.isfinite(budget) and budget < 0.0) or not 0.0 <= delta < 1.0:
        return False
    budgets = tuple(float(b) for b in budgets)
    tolerances = tuple(float(d) for d in tolerances)
    if len(budgets) != len(tolerances):
        return False
    if not all(math.isfinite(b) for b in budgets):
        return False
    if not all(math.isfinite(d) for d in tolerances):
        return False
    budget_violations = tuple(t for t, b in enumerate(budgets, start=1) if b < budget)
    range_violations = tuple(
        t for t, d in enumerate(tolerances, start=1) if not 0.0 <= d < 1.0
    )
    threshold = (1.0 - delta) * (1.0 - REL_SLACK)
    prod = 1.0
    first_bad = None
    for t, d in enumerate(tolerances, start=1):
        prod *= 1.0 - d
        if first_bad is None and prod < threshold:
            first_bad = t
    return not budget_violations and not range_violations and first_bad is None


def old_extension_accepts(sched: RiskSchedule, b_next, delta_next) -> bool:
    """Oracle: the former ``RiskSchedule.extended``, its closing
    constructor call included."""
    if b_next < sched.budget or not 0.0 <= delta_next < 1.0:
        return False
    new_prod = sched.tolerance_product() * (1.0 - delta_next)
    if new_prod < (1.0 - sched.delta) * (1.0 - REL_SLACK):
        return False
    return math.isfinite(b_next)


def builds(*args) -> bool:
    try:
        RiskSchedule(*args)
    except ScheduleError:
        return False
    return True


_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf])
_NEAR_ONE = st.sampled_from([math.nextafter(1.0, 0.0), 1.0 - 1e-12, 0.999])


def mostly(draw, common, odd):
    """A draw from ``common``, or from ``odd`` one time in eight."""
    return draw(odd) if draw(st.integers(min_value=0, max_value=7)) == 0 else draw(common)


@st.composite
def schedule_inputs(draw):
    """Budgets at, above and just below the floor; tolerances of 0, near 1,
    out of range, and a last stage whose product lands within a few
    ``REL_SLACK`` of ``1 - delta``."""
    budget = mostly(draw, st.floats(min_value=-1e4, max_value=-1e-3),
                    st.sampled_from([0.0, 1.0, -math.inf, math.nan]))
    delta = mostly(draw, st.floats(min_value=0.0, max_value=0.999) | st.just(0.0) | _NEAR_ONE,
                   st.sampled_from([1.0, -1e-300, 1.5]) | _SPECIAL)
    T = draw(st.integers(min_value=0, max_value=6))
    below = math.nextafter(budget, -math.inf) if math.isfinite(budget) else -1.0
    budgets = [
        mostly(draw, st.just(budget) | st.floats(min_value=budget, max_value=1e3),
               st.just(below) | st.floats(max_value=budget) | _SPECIAL)
        if math.isfinite(budget) else draw(st.floats(min_value=-2e4, max_value=1e3))
        for _ in range(T)
    ]
    tolerances = [
        mostly(draw, st.just(0.0) | st.floats(min_value=0.0, max_value=0.02),
               _NEAR_ONE | st.sampled_from([1.0, -1e-12, 2.0]) | _SPECIAL)
        for _ in range(T)
    ]
    if T and draw(st.booleans()) and 0.0 <= delta < 1.0:
        # Replace the last tolerance by one that spends the headroom to
        # within a few relative slacks, on either side of the threshold.
        prod = 1.0
        for d in tolerances[:-1]:
            prod *= 1.0 - d
        if prod > 0.0:
            k = draw(st.integers(min_value=-40, max_value=40))
            tolerances[-1] = 1.0 - (1.0 - delta) / prod * (1.0 + k * REL_SLACK / 8)
    if T and mostly(draw, st.just(False), st.just(True)):
        budgets = budgets[:-1]  # a length mismatch
    return budget, delta, tuple(budgets), tuple(tolerances)


class TestRuleAgainstTheFormerValidator:
    @settings(max_examples=400)
    @given(schedule_inputs())
    def test_construction_refuses_exactly_the_invalid_schedules(self, inputs):
        assert builds(*inputs) == old_rule_accepts(*inputs)

    @settings(max_examples=200)
    @given(
        base=schedule_inputs().filter(lambda inputs: old_rule_accepts(*inputs)),
        b_next=st.one_of(st.floats(min_value=-2e4, max_value=1e3), _SPECIAL),
        at_floor=st.booleans(),
        delta_next=st.one_of(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            st.just(0.0),
            _NEAR_ONE,
            st.sampled_from([1.0, -1e-12]),
            _SPECIAL,
        ),
        headroom=st.integers(min_value=-40, max_value=40) | st.none(),
    )
    def test_extension_admits_exactly_what_it_admitted(
        self, base, b_next, at_floor, delta_next, headroom
    ):
        sched = RiskSchedule(*base)
        if at_floor:
            b_next = sched.budget
        if headroom is not None:
            # A next tolerance that spends the remaining headroom to
            # within a few relative slacks.
            delta_next = 1.0 - (1.0 - sched.delta) / sched.tolerance_product() * (
                1.0 + headroom * REL_SLACK / 8
            )
        try:
            longer = sched.extended(b_next, delta_next)
        except ScheduleError:
            assert not old_extension_accepts(sched, b_next, delta_next)
        else:
            assert old_extension_accepts(sched, b_next, delta_next)
            assert longer.stage_budgets == sched.stage_budgets + (b_next,)
            assert longer.stage_tolerances == sched.stage_tolerances + (delta_next,)


class TestConstructionAndExtension:
    def test_basic_domain_checks(self):
        with pytest.raises(ScheduleError):
            RiskSchedule(0.0, 0.1, (-1.0,), (0.1,))
        with pytest.raises(ScheduleError):
            RiskSchedule(-1.0, 1.0, (-1.0,), (0.1,))
        with pytest.raises(ScheduleError):
            RiskSchedule(-1.0, 0.1, (-1.0, -1.0), (0.1,))

    def test_extension_accepted_within_headroom(self):
        sched = RiskSchedule(-500.0, 0.05, (-500.0,) * 2, (0.01, 0.01))
        longer = sched.extended(-450.0, 0.02)
        assert longer.num_stages == 3
        assert longer.stage_budgets[-1] == -450.0 and longer.stage_tolerances[-1] == 0.02

    def test_extension_rejected_beyond_headroom(self):
        sched = RiskSchedule(-500.0, 0.05, (-500.0,) * 2, (0.02, 0.02))
        with pytest.raises(ScheduleError):
            sched.extended(-500.0, 0.02)

    def test_spent_schedule_is_exhausted_but_admits_zero_tolerance(self):
        spent = RiskSchedule.uniform(-500.0, 0.05, 10)
        assert spent.exhausted()
        assert spent.extended(-500.0, 0.0).num_stages == 11
        with pytest.raises(ScheduleError):
            spent.extended(-500.0, 1e-6)
        fresh = RiskSchedule(-500.0, 0.05, (-500.0,) * 9, uniform_tolerance(0.05, 10)[:9])
        assert not fresh.exhausted()

    def test_extension_rejected_below_budget_floor(self):
        sched = RiskSchedule.uniform(-500.0, 0.05, 2)
        with pytest.raises(ScheduleError):
            sched.extended(-600.0, 0.001)


class TestOneTestOfANumber:
    """``as_float`` decides what a number is for every value that enters the library."""

    def test_a_float_comes_back_as_is(self):
        value = 1234.5678
        assert as_float(value) is value
        assert math.copysign(1.0, as_float(-0.0)) == -1.0
        assert math.isnan(as_float(math.nan))
        assert as_float(math.inf) == math.inf

    @pytest.mark.parametrize(
        "value", [np.float64(0.1), np.float32(0.1), 7, np.int64(-3), Fraction(1, 3)]
    )
    def test_other_numbers_convert_as_float_does(self, value):
        number = as_float(value)
        assert type(number) is float and number == float(value)

    @pytest.mark.parametrize(
        "value", [10**400, True, np.bool_(True), "10", None, Decimal("1.5")],
        ids=["huge-int", "bool", "np-bool", "str", "None", "Decimal"],
    )
    def test_what_is_not_a_number(self, value):
        assert as_float(value) is None

    PRIOR = GaussianPrior((0.0, 0.0), (1.0, 1.0))

    @pytest.mark.parametrize(
        "build,error,message",
        [
            (lambda: GaussianPrior((True, "2"), ("10", 10)), ValueError, "mu0 must be a pair"),
            (lambda: GaussianPrior(5.0, (1, 1)), ValueError, "mu0 must be a pair"),
            (lambda: GaussianPrior({2.0, 1.0}, (1.0, 1.0)), ValueError, "mu0 must be a pair"),
            (lambda: GaussianPrior((v for v in (1.0, 2.0)), (1.0, 1.0)), ValueError,
             "mu0 must be a pair"),
            (lambda: GaussianPrior((np.bool_(True), 0.0), (1.0, 1.0)), ValueError, "mu0 must"),
            (lambda: GaussianPrior((0.0, 0.0), ("10", 10.0)), ValueError, "sigma0_sq must"),
            (lambda: VariancePolicy("known", ("10", True)), ValueError, "values must be a pair"),
            (lambda: VariancePolicy("estimated", pretrial=(np.bool_(True), 1.0)), ValueError,
             "pretrial must be a pair"),
            (lambda: OutcomeVariance((True, "3")), ValueError, "sigma_sq must be a pair"),
            (lambda: PosteriorState((0.0, 0.0), ("1", 1.0)), ValueError, "sigma_p_sq must"),
            (lambda: ThompsonPolicy(c=1.0, prior=TestOneTestOfANumber.PRIOR,
                                    sigma_sq=("1", True)), ValueError, "sigma_sq must be a pair"),
            (lambda: RiskSchedule(-500.0, 0.05, ("-100",), (0.01,)), ScheduleError,
             "^stage 1: budget '-100' must be"),
            (lambda: RiskSchedule(-500.0, 0.05, (True,), ("0.01",)), ScheduleError,
             "^stage 1: budget True must be"),
            (lambda: RiskSchedule(-500.0, 0.05, (-500.0,), ("0.01",)), ScheduleError,
             r"^stage 1: tolerance must be in \[0, 1\), got '0.01'"),
            (lambda: RiskSchedule(-500.0, 0.05, (-500.0,), (np.bool_(False),)), ScheduleError,
             "^stage 1: tolerance must be"),
            (lambda: RiskSchedule("-500", 0.05, (), ()), ScheduleError, "^budget must be"),
            (lambda: RiskSchedule(-500.0, False, (), ()), ScheduleError, "^delta must be"),
            (lambda: RiskSchedule(-500.0, 0.05, (10**400,), (0.01,)), ScheduleError,
             "^stage 1: budget 1000"),
            (lambda: update_stats(SufficientStats(), 1, 2, "5", True), ValueError,
             "treated_sum must be a number, got '5'"),
            (lambda: update_stats(SufficientStats(), 1, 2, 5.0, True), ValueError,
             "control_sum must be a number, got True"),
            (lambda: update_stats(SufficientStats(), 1, 2, 5.0, 1.0, np.bool_(True)), ValueError,
             "treated_sumsq must be a number"),
            (lambda: update_stats(SufficientStats(), 1, 2, 5.0, 1.0, 1.0, "10"), ValueError,
             "control_sumsq must be a number"),
            (lambda: estimate_variance(SufficientStats(), fallback=("10", 1.0)), ValueError,
             "fallback must be a number, got '10'"),
            (lambda: robustness_diagnostics(builtin_scenarios()["norm"], [1] * 10,
                                            TestOneTestOfANumber.PRIOR, ("10", True)),
             ValueError, "sigma_sq must be a pair, each a number"),
        ],
        ids=["prior-bool-str", "prior-scalar", "prior-set", "prior-generator",
             "prior-np-bool", "prior-str-variance",
             "known-values", "pretrial", "outcome-variance", "posterior-variance", "thompson",
             "stage-budget-str", "stage-budget-bool", "stage-tolerance-str",
             "stage-tolerance-np-bool", "budget-str", "delta-bool", "stage-budget-huge-int",
             "treated-sum", "control-sum", "treated-sumsq", "control-sumsq", "fallback",
             "diagnostics"],
    )
    def test_what_is_no_number_is_refused_by_name(self, build, error, message):
        with pytest.raises(error, match=message):
            build()

    def test_valid_values_keep_their_form(self):
        # The stage entries become floats; the budget and delta are stored as given, so
        # an integer budget keeps its bytes in to_config().
        schedule = RiskSchedule(-500, 0.05, [-500, np.float64(-400.0)], (0.01, Fraction(0)))
        assert schedule.to_config() == {
            "budget": -500, "delta": 0.05,
            "stage_budgets": [-500.0, -400.0], "stage_tolerances": [0.01, 0.0],
        }
        assert type(schedule.budget) is int
        assert all(type(v) is float for v in schedule.stage_budgets + schedule.stage_tolerances)
        # An overflowing sum of squares is reported as inf, which stays a number.
        stats = update_stats(SufficientStats(), 1, 2, 5, 1.0, math.inf, 0)
        assert stats.treated_sumsq == math.inf and stats.sum_treated == 5.0


def _estimate(K):
    sampler = GaussianPosteriorSampler(
        PosteriorState((0.0, 0.0), (1.0, 1.0)), OutcomeVariance((1.0, 1.0))
    )
    return estimate_posterior_quantities(
        sampler, TreatmentEffectCost(), -500.0, K, np.random.default_rng(0)
    )


class TestOneToleranceAndCountRule:
    """Every tolerance reads ``RULES["tolerance"]`` and every count its ``RULES`` entry; the
    solvers' ``Delta_t`` is in ``test_solver.test_every_solver_shares_one_stage_entry``."""

    TOLERANCE = r"must be in \[0, 1\), got "
    STAGES = r"must be a whole number in \[1, 10000\], got "

    @pytest.mark.parametrize(
        "build,error,message",
        [
            (lambda: uniform_tolerance(0.05, True), ScheduleError,
             "^stage count " + STAGES + "True"),
            (lambda: uniform_tolerance(False, 3), ScheduleError, "^delta " + TOLERANCE + "False"),
            (lambda: uniform_tolerance(0.05, 2.5), ScheduleError, "^stage count " + STAGES + "2.5"),
            (lambda: uniform_tolerance("0.05", 3), ScheduleError, "^delta " + TOLERANCE + "'0.05'"),
            (lambda: uniform_tolerance(0.05, 10_001), ScheduleError,
             "^stage count " + STAGES + "10001"),
            (lambda: sinc_gamma(False), ScheduleError, "^delta " + TOLERANCE + "False"),
            (lambda: sinc_schedule("0.05", 3), ScheduleError, "^delta " + TOLERANCE + "'0.05'"),
            (lambda: sinc_schedule(0.05, 2.5), ScheduleError, "^horizon " + STAGES + "2.5"),
            (lambda: sinc_schedule(0.05, True), ScheduleError, "^horizon " + STAGES + "True"),
            (lambda: RiskSchedule.uniform(-500.0, 0.05, True), ScheduleError,
             "^stage count " + STAGES + "True"),
            (lambda: RiskSchedule.uniform(-500.0, 0.05, 2.5), ScheduleError,
             "^stage count " + STAGES + "2.5"),
            (lambda: _estimate(2.5), ValueError,
             r"^K must be a whole number in \[1, 1000000\], got 2.5"),
            (lambda: _estimate(True), ValueError,
             r"^K must be a whole number in \[1, 1000000\], got True"),
        ],
        ids=["uniform-T-bool", "uniform-delta-bool", "uniform-T-fraction", "uniform-delta-str",
             "uniform-T-past-cap", "gamma-delta-bool", "sinc-delta-str", "sinc-horizon-fraction",
             "sinc-horizon-bool", "schedule-T-bool", "schedule-T-fraction", "K-fraction",
             "K-bool"],
    )
    def test_each_value_is_refused_by_its_rule(self, build, error, message):
        with pytest.raises(error, match=message) as refused:
            build()
        assert type(refused.value) is error

    @pytest.mark.parametrize("count", [3.0, np.int64(3)], ids=["whole-float", "np-int64"])
    def test_a_whole_count_of_any_type_builds_what_the_integer_builds(self, count):
        assert uniform_tolerance(0.05, count) == uniform_tolerance(0.05, 3)
        assert sinc_schedule(0.05, count) == sinc_schedule(0.05, 3)
        assert RiskSchedule.uniform(-500.0, 0.05, count) == RiskSchedule.uniform(-500.0, 0.05, 3)
        assert _estimate(count) == _estimate(3)
