import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rampguard.schedules import (
    RiskSchedule,
    ScheduleError,
    schedule_from_config,
    sinc_gamma,
    sinc_schedule,
    uniform_tolerance,
    validate_schedule,
)


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

    def test_infinite_product_limit(self):
        # Tail check: the first 1e6 factors already land within 1e-4.
        delta = 0.05
        g = sinc_gamma(delta)
        t = np.arange(1, 1_000_001, dtype=float)
        log_prod = np.log1p(-((g / t) ** 2)).sum()
        assert abs(math.exp(log_prod) - (1 - delta)) <= 1e-4


class TestValidation:
    def test_uniform_construction_is_valid(self):
        sched = RiskSchedule.uniform(-500.0, 0.01, 10)
        report = validate_schedule(sched)
        assert report.valid
        assert report.product == pytest.approx(0.99, rel=1e-12)

    def test_sinc_construction_is_valid(self):
        report = validate_schedule(RiskSchedule.sinc(-500.0, 0.05, 25))
        assert report.valid

    def test_budget_floor_violation_reports_index(self):
        budgets = [-500.0] * 10
        budgets[2] = -600.0
        sched = RiskSchedule(-500.0, 0.01, tuple(budgets), uniform_tolerance(0.01, 10))
        report = validate_schedule(sched)
        assert not report.valid
        assert report.budget_violations == (3,)
        assert report.product_ok

    def test_ration_tolerance_sequence_is_valid(self):
        # Front-loaded small tolerances, rationed for the later stages.
        tol = (0.0001,) * 5 + (0.0019,) * 5
        sched = RiskSchedule(-500.0, 0.01, (-500.0,) * 10, tol)
        report = validate_schedule(sched)
        assert report.valid
        assert report.product == pytest.approx(0.990048, abs=1e-5)
        assert report.product >= 0.99

    def test_overspent_tolerance_reports_first_prefix(self):
        tol = (0.005, 0.005, 0.005)
        sched = RiskSchedule(-500.0, 0.01, (-500.0,) * 3, tol)
        report = validate_schedule(sched)
        assert not report.valid
        assert report.first_prefix_violation == 3

    def test_tolerance_range_violation(self):
        sched = RiskSchedule(-500.0, 0.5, (-500.0,) * 2, (0.2, 1.5))
        report = validate_schedule(sched)
        assert not report.valid
        assert report.tolerance_range_violations == (2,)

    def test_prefix_monotonicity(self):
        sched = RiskSchedule.sinc(-100.0, 0.3, 12)
        assert validate_schedule(sched).valid
        truncated = RiskSchedule(
            sched.budget, sched.delta, sched.stage_budgets[:-1], sched.stage_tolerances[:-1]
        )
        assert validate_schedule(truncated).valid

    @given(
        delta=st.floats(min_value=0.0, max_value=0.9),
        T=st.integers(min_value=1, max_value=40),
    )
    def test_generators_always_validate(self, delta, T):
        assert validate_schedule(RiskSchedule.uniform(-10.0, delta, T)).valid
        assert validate_schedule(RiskSchedule.sinc(-10.0, delta, T)).valid


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
        assert validate_schedule(longer).valid

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


class TestConfigRoundTrip:
    def test_generator_specs(self):
        uniform = schedule_from_config(
            {"budget": -500, "delta": 0.01, "stage_tolerances": {"type": "uniform", "T": 10}}
        )
        assert uniform.stage_tolerances == uniform_tolerance(0.01, 10)
        assert uniform.stage_budgets == (-500.0,) * 10

        sinc = schedule_from_config(
            {"budget": -500, "delta": 0.05, "stage_tolerances": {"type": "sinc", "horizon": 7}}
        )
        assert sinc.stage_tolerances == sinc_schedule(0.05, 7)

        explicit = schedule_from_config(
            {
                "budget": -500,
                "delta": 0.01,
                "stage_tolerances": {"type": "explicit", "values": [0.001, 0.002]},
                "stage_budgets": -400,
            }
        )
        assert explicit.stage_tolerances == (0.001, 0.002)
        assert explicit.stage_budgets == (-400.0, -400.0)

    def test_round_trip(self):
        sched = RiskSchedule.uniform(-500.0, 0.05, 4, stage_budgets=[-400, -400, -500, -500])
        again = schedule_from_config(sched.to_config())
        assert again == sched

    def test_unknown_generator(self):
        with pytest.raises(ScheduleError):
            schedule_from_config(
                {"budget": -1, "delta": 0.1, "stage_tolerances": {"type": "nope"}}
            )
