import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from rampguard.diagnostics import robustness_diagnostics
from rampguard.posterior import GaussianPrior, NonFinitePosteriorError, VariancePolicy
from rampguard.replication import run_replications
from rampguard.scenarios import (
    Scenario,
    ScenarioFeed,
    builtin_scenarios,
    draw_stage_sums,
    generate_stage_outcomes,
    scenario_from_config,
)
from rampguard.schedules import RiskSchedule
from rampguard.solver import AnalyticPolicy
from rampguard.trace import run_stages

PRIOR = GaussianPrior((0.0, 0.0), (100.0, 100.0))


def big_sample(scenario, t=1, n=100_000, seed=0):
    sized = dataclasses.replace(scenario, population=(n,) + scenario.population[1:])
    return generate_stage_outcomes(sized, t, np.random.default_rng(seed))


class TestGeneration:
    def test_gaussian_effect_mean(self):
        scn = builtin_scenarios()["pte"]
        y0, y1 = big_sample(scn)
        diff = y1 - y0
        # Var(diff) = 20, so the CLT band at n = 1e5 is about +-0.045.
        assert abs(diff.mean() - 1.0) < 0.05

    def test_correlated_difference_variance(self):
        scn = builtin_scenarios()["corr"]
        y0, y1 = big_sample(scn)
        # 10 + 10 - 2 * 0.8 * 10 = 4
        assert np.var(y1 - y0) == pytest.approx(4.0, rel=0.1)
        assert np.corrcoef(y0, y1)[0, 1] == pytest.approx(0.8, abs=0.02)
        assert scn.effect_variance(1) == pytest.approx(4.0)

    def test_bernoulli_support_and_means(self):
        scn = builtin_scenarios()["bern"]
        y0, y1 = big_sample(scn)
        assert set(np.unique(y0)) <= {0.0, 6.4}
        assert set(np.unique(y1)) <= {0.0, 6.4}
        assert y0.mean() == pytest.approx(6.4 * 0.5786, abs=0.05)
        assert y1.mean() == pytest.approx(6.4 * 0.4224, abs=0.05)
        assert np.var(y0) == pytest.approx(10.0, rel=0.05)

    def test_student_t_variance(self):
        scn = builtin_scenarios()["fat"]
        y0, y1 = big_sample(scn, n=400_000)
        # 1 + sqrt(5) t_4: variance 5 * 4 / 2 = 10. Fat tails make the
        # sample variance noisy, hence the wide band.
        assert y0.mean() == pytest.approx(1.0, abs=0.05)
        assert y1.mean() == pytest.approx(0.0, abs=0.05)
        assert np.var(y0) == pytest.approx(10.0, rel=0.25)

    def test_stage_bounds_checked(self):
        scn = builtin_scenarios()["pte"]
        with pytest.raises(ValueError):
            generate_stage_outcomes(scn, 11, np.random.default_rng(0))


class TestRegistry:
    def test_names(self):
        registry = builtin_scenarios()
        assert set(registry) == {
            "pte", "nte", "npte", "norm", "corr", "bern", "fat", "dec", "linkedin",
        }

    def test_pte(self):
        scn = builtin_scenarios()["pte"]
        assert scn.true_mean(0, 1) == 0.0
        assert scn.true_mean(1, 1) == 1.0
        assert scn.true_var(0, 1) == 10.0
        assert scn.population == (500,) * 10

    def test_npte_mean_path(self):
        scn = builtin_scenarios()["npte"]
        assert scn.true_mean(1, 1) == -2.0
        assert scn.true_mean(1, 9) == 2.0
        assert scn.true_mean(1, 10) == 2.0  # capped
        assert scn.true_mean(0, 5) == 0.0

    def test_dec_mean_path(self):
        scn = builtin_scenarios()["dec"]
        assert [scn.true_mean(1, t) for t in (1, 2, 10)] == [0.0, -1.0, -9.0]

    def test_linkedin_table(self):
        scn = builtin_scenarios()["linkedin"]
        assert scn.T == 6
        assert scn.true_mean(0, 4) == 0.2317
        assert scn.true_var(0, 4) == 1.1165
        assert scn.population[3] == 7580
        assert scn.population == (10756, 10460, 10598, 7580, 10550, 10688)

    def test_budget_quartet_is_harmful_unit_effect(self):
        registry = builtin_scenarios()
        for name in ("norm", "corr", "bern", "fat"):
            scn = registry[name]
            assert scn.true_effect(1) == pytest.approx(-1.0, abs=1e-3), name
            assert scn.true_var(0, 1) == pytest.approx(10.0, abs=0.02), name
            assert scn.true_var(1, 1) == pytest.approx(10.0, abs=0.02), name


class TestConfig:
    def test_by_name(self):
        assert scenario_from_config("pte").name == "pte"
        with pytest.raises(KeyError):
            scenario_from_config("nope")

    def test_inline_gaussian(self):
        scn = scenario_from_config(
            {
                "family": "gaussian_iid",
                "T": 3,
                "population": 100,
                "mean_control": 0.0,
                "mean_treatment": [1.0, 2.0, 3.0],
                "var_control": 4.0,
                "var_treatment": 4.0,
            }
        )
        assert scn.true_mean(1, 2) == 2.0
        assert scn.population == (100, 100, 100)

    def test_inline_bernoulli(self):
        scn = scenario_from_config(
            {
                "family": "bernoulli_scaled",
                "T": 2,
                "population": 50,
                "bernoulli_scale": 2.0,
                "bernoulli_p": [0.5, 0.25],
            }
        )
        assert scn.true_mean(0, 1) == pytest.approx(1.0)
        assert scn.true_var(1, 1) == pytest.approx(4.0 * 0.25 * 0.75)

    def test_inline_unknown_key_is_refused(self):
        spec = {
            "family": "student_t_shifted", "T": 2, "population": 50, "mean_control": 0.0,
            "mean_treatment": 1.0, "var_control": 4.0, "var_treatment": 4.0, "tail_dof": 3,
        }
        with pytest.raises(KeyError, match="tail_dof"):
            scenario_from_config(spec)


GAUSSIAN = {
    "name": "g", "family": "gaussian_iid", "T": 3, "population": 100, "mean_control": 0.0,
    "mean_treatment": -1.0, "var_control": 4.0, "var_treatment": 4.0,
}


class TestConstruction:
    def test_numbers_broadcast_over_the_stages(self):
        scn = Scenario(**{**GAUSSIAN, "mean_treatment": [1, 2, 3.5]})
        assert scn.population == (100, 100, 100)
        assert scn.mean_control == (0.0, 0.0, 0.0)
        assert scn.mean_treatment == (1.0, 2.0, 3.5)
        assert scn.var_treatment == (4.0,) * 3

    def test_numpy_scalars_construct_as_python_numbers(self):
        scn = Scenario(
            "g", "gaussian_iid", np.int64(3), np.int64(100), np.float64(0.0),
            [np.float64(-1.0)] * 3, np.float32(4.0), np.int32(4),
        )
        assert scn == Scenario(**GAUSSIAN)
        assert type(scn.T) is int and type(scn.population[0]) is int
        assert type(scn.mean_treatment[0]) is float and type(scn.var_treatment[0]) is float

    def test_whole_floats_count_as_whole_numbers(self):
        scn = Scenario(**{**GAUSSIAN, "T": 3.0, "population": [100.0, 200, 300.0]})
        assert scn.T == 3 and scn.population == (100, 200, 300)

    def test_bernoulli_moments_are_derived(self):
        scn = Scenario("b", "bernoulli_scaled", 2, 50, bernoulli_scale=2.0, bernoulli_p=[0.5, 0.25])
        assert scn.mean_control == (1.0, 1.0) and scn.mean_treatment == (0.5, 0.5)
        assert scn.var_control == (1.0, 1.0) and scn.var_treatment == (0.75, 0.75)
        assert scn.bernoulli_p == (0.5, 0.25)
        # Given moments are accepted when they equal the derived ones.
        assert dataclasses.replace(scn, mean_control=1.0) == scn
        with pytest.raises(ValueError, match="mean_control of a bernoulli_scaled scenario"):
            dataclasses.replace(scn, mean_control=1.5)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"name": 7}, "name must be a string"),
            ({"family": "gaussian"}, "family must be one of"),
            ({"family": ["gaussian_iid"]}, "family must be one of"),
            ({"T": 0}, "T must be a whole number in [1, 10000], got 0"),
            ({"T": 2.5}, "T must be a whole number"),
            ({"T": True}, "T must be a whole number"),
            ({"T": "3"}, "T must be a whole number"),
            ({"T": 10_001}, "T must be a whole number"),
            ({"population": 2**53 + 1}, "population must be a whole number"),
            ({"population": 2**53 + 2}, "population must be a whole number"),
            ({"population": 10**400}, "population must be a whole number"),
            ({"population": [100, 100]}, "population must have one value per stage (T=3), has 2"),
            ({"population": [100, 0, 100]}, "population must be a whole number in [1, 2**53]"),
            ({"mean_control": math.nan}, "mean_control must be a finite number, got nan"),
            ({"mean_treatment": [0.0, -math.inf, 0.0]}, "mean_treatment must be a finite number"),
            ({"mean_control": -(10**400)}, "mean_control must be a finite number"),
            ({"mean_control": None}, "a gaussian_iid scenario needs mean_control"),
            ({"var_treatment": math.inf}, "var_treatment must be a finite number >= 1e-280"),
            ({"var_treatment": "4"}, "var_treatment must be a finite number >= 1e-280, got '4'"),
            ({"correlation": 0.5}, "a gaussian_iid scenario takes no correlation"),
            ({"tail_df": 4}, "a gaussian_iid scenario takes no tail_df"),
            ({"bernoulli_p": (0.5, 0.5)}, "a gaussian_iid scenario takes no bernoulli_p"),
            ({"family": "gaussian_correlated"}, "a gaussian_correlated scenario needs correlation"),
            ({"family": "bernoulli_scaled"}, "a bernoulli_scaled scenario needs bernoulli_scale"),
            ({"var_control": 1e-300}, "var_control must be a finite number >= 1e-280, got 1e-300"),
        ],
    )
    def test_each_fault_names_its_field(self, changes, message):
        with pytest.raises(ValueError) as info:
            Scenario(**{**GAUSSIAN, **changes})
        assert message in str(info.value)

    @pytest.mark.parametrize(
        "changes",
        [
            {"mean_control": 1e306},  # the control sum reaches 3e308
            {"var_control": 1e307},  # var * n, the sum law's, passes the maximum
        ],
    )
    def test_moments_whose_sums_overflow_are_refused_at_the_posterior(self, changes):
        scn = Scenario(**{**GAUSSIAN, **changes})
        policy = AnalyticPolicy(PRIOR, VariancePolicy())
        # The simulator's own draws overflow and warn; the posterior they feed is refused.
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NonFinitePosteriorError, match="arm 0's posterior mean"):
                run_replications(policy, scn, RiskSchedule.uniform(-500.0, 0.05, 3), 20, 0)

    @pytest.mark.parametrize(
        "changes, harmful",
        [
            # 300 units at mean 5e25 sum to 1.5e28, which over 1e-280 is 1.5e308 <= 1.8e308.
            ({"mean_control": 5e25, "var_control": 1e-280}, True),
            # Treating all 300 units would sum to 2.1e28, past the maximum over 1e-280, but
            # stage 1 treats a few units and the solver treats none after.
            ({"mean_treatment": -7e25, "var_treatment": 1e-280}, True),
            # Noise of a variance of 1e300 over one of 1e-280 at another stage.
            ({"family": "gaussian_time_varying", "var_treatment": [1e300, 1e-280, 4.0]}, False),
        ],
    )
    def test_moments_whose_posterior_stays_finite_run_without_overflow(self, changes, harmful):
        scn = Scenario(**{**GAUSSIAN, **changes})
        policy = AnalyticPolicy(PRIOR, VariancePolicy())
        summary = run_replications(policy, scn, RiskSchedule.uniform(-500.0, 0.05, 3), 20, 0,
                                   keep_traces=True)
        # A harmful enough effect leaves every stage after the first untreated.
        assert (summary.traces.m[:, 1:] == 0).all() == harmful

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"bernoulli_p": [0.5, 0.0]}, "bernoulli_p must be two numbers in (0, 1), got 0.0"),
            ({"bernoulli_scale": -1}, "bernoulli_scale must be a finite number > 0"),
            (
                {"bernoulli_scale": 1e200},
                "var_control from bernoulli_scale and bernoulli_p must be a finite number >= 1e-280",
            ),
            (
                {"bernoulli_scale": 1e-145},
                "var_control from bernoulli_scale and bernoulli_p must be a finite number >= 1e-280",
            ),
        ],
    )
    def test_bernoulli_faults_name_their_field(self, changes, message):
        spec = {"family": "bernoulli_scaled", "T": 2, "population": 50,
                "bernoulli_scale": 2.0, "bernoulli_p": [0.5, 0.25], **changes}
        with pytest.raises(ValueError) as info:
            scenario_from_config(spec)
        assert message in str(info.value)

    @pytest.mark.parametrize("name", sorted(builtin_scenarios()))
    def test_registry_round_trips_through_the_config(self, name):
        scn = builtin_scenarios()[name]
        spec = {field.name: getattr(scn, field.name) for field in dataclasses.fields(scn)}
        assert scenario_from_config(json.loads(json.dumps(spec))) == scn
        assert scenario_from_config(spec) == scn

    def test_bern_rebuilds_from_scale_and_probabilities(self):
        spec = {"name": "bern", "family": "bernoulli_scaled", "T": 10, "population": 500,
                "bernoulli_scale": 6.4, "bernoulli_p": [0.5786, 0.4224]}
        assert scenario_from_config(spec) == builtin_scenarios()["bern"]

    def test_inline_scenario_needs_family_t_and_population(self):
        with pytest.raises(KeyError, match="an inline scenario needs family, population"):
            scenario_from_config({"T": 3, "mean_control": 0.0})


class TestFeed:
    def test_true_cost_uses_both_potentials(self):
        scn = builtin_scenarios()["nte"]
        feed = ScenarioFeed(scn, np.random.default_rng(0))
        out = feed.run_stage(1, 100)
        assert out.treated_outcomes is not None and out.treated_outcomes.shape == (100,)
        assert out.treated_sum == pytest.approx(float(out.treated_outcomes.sum()))
        # Effect is -1: the true cost should sit well below the observed sum
        # minus any control-based proxy at this sample size.
        assert out.true_cost < 0.0 or abs(out.true_cost) < 200.0

    def test_outcome_shapes_and_counts(self):
        scn = builtin_scenarios()["pte"]
        feed = ScenarioFeed(scn, np.random.default_rng(1))
        out = feed.run_stage(1, 0)
        assert out.treated_sum == 0.0
        assert out.true_cost == 0.0
        assert feed.population(2) == 500
        assert feed.num_stages == 10

    @pytest.mark.parametrize("m", [-1, 501])
    def test_a_treated_count_outside_the_stage_is_refused(self, m):
        feed = ScenarioFeed(builtin_scenarios()["norm"], np.random.default_rng(0))
        with pytest.raises(ValueError, match=rf"m={m} outside \[0, N_t=500\] at stage 2"):
            feed.run_stage(2, m)

    @pytest.mark.parametrize("t", [0, 11])
    def test_stage_sums_outside_the_scenario_are_refused(self, t):
        m = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError, match=f"stage {t} outside 1..10"):
            draw_stage_sums(builtin_scenarios()["norm"], t, m, np.random.default_rng(0))


def per_trace_diagnostics(scenario, trace, prior, sigma_sq):
    """The per-stage loop the array form replaced, kept as its reference.

    Returns one tuple per stage with a nonzero ramp: (stage, m, prior mean
    ok, prior variance ok, effect non-decreasing, control variance ok,
    effect variance ok, has history), with None where a check does not apply.
    """
    tol = 1e-9

    def at_least(lhs, rhs):
        return lhs >= rhs - tol * max(1.0, abs(rhs))

    v0, v1 = float(sigma_sq[0]), float(sigma_sq[1])
    out = []
    hist_m = 0
    hist_effect = 0.0
    hist_var0 = 0.0
    for record in trace.records:
        t, m = record.stage, record.m
        if m == 0:
            continue
        effect_t = scenario.true_effect(t)
        diff_var_t = scenario.effect_variance(t)
        if t == 1:
            prior_mean_ok = at_least(effect_t, prior.mu0[1] - prior.mu0[0])
            prior_variance_ok = at_least(
                v0 + v1 + m * (prior.sigma0_sq[0] + prior.sigma0_sq[1]), diff_var_t
            )
        else:
            prior_mean_ok = None
            prior_variance_ok = None
        if hist_m > 0:
            effect_nondecreasing = at_least(effect_t, hist_effect / hist_m)
            control_variance_ok = at_least(v0, hist_var0 / hist_m)
        else:
            effect_nondecreasing = None
            control_variance_ok = None
        effect_variance_ok = at_least(v0 + v1, diff_var_t)
        out.append((t, m, prior_mean_ok, prior_variance_ok, effect_nondecreasing,
                    control_variance_ok, effect_variance_ok, hist_m > 0))
        hist_m += m
        hist_effect += m * effect_t
        hist_var0 += m * scenario.true_var(0, t)
    return out


def fields(checks):
    """The record's arrays, in the order of ``per_trace_diagnostics``' tuples."""
    return (checks.prior_mean_ok, checks.prior_variance_ok, checks.effect_nondecreasing,
            checks.control_variance_ok, checks.effect_variance_ok, checks.has_history)


class TestDiagnostics:
    def _trace(self, name, seed=0, delta=0.05):
        scn = builtin_scenarios()[name]
        sched = RiskSchedule.uniform(-500.0, delta, scn.T)
        feed = ScenarioFeed(scn, np.random.default_rng(seed))
        trace = run_stages(sched, feed, AnalyticPolicy(PRIOR, VariancePolicy()))
        m = np.array([r.m for r in trace.records])
        return scn, m, robustness_diagnostics(scn, m, PRIOR, (10.0, 10.0))

    def test_stationary_scenario_passes(self):
        scn, m, checks = self._trace("pte")
        assert m.any(), "expected at least one treated stage"
        assert checks.effect_nondecreasing.all()
        assert checks.control_variance_ok.all()
        assert checks.effect_variance_ok.all()
        assert checks.passed.all()

    def test_decreasing_effect_fails_from_stage_two(self):
        scn, m, checks = self._trace("dec")
        treated = np.flatnonzero(m)
        late = treated[treated >= 1]
        assert late.size, "solver never treated after stage 1"
        assert checks.has_history[late].all()
        assert not checks.effect_nondecreasing[late].any()
        assert checks.passed[treated[0]]  # stage 1 is still conservative

    def test_fat_tails_pass_variance_checks_at_equality(self):
        scn, m, checks = self._trace("fat")
        assert m.any()
        # True difference variance is exactly 10 + 10.
        assert checks.effect_variance_ok.all()
        assert checks.control_variance_ok.all()

    def test_zero_ramp_stages_carry_no_checks(self):
        scn = builtin_scenarios()["pte"]
        sched = RiskSchedule(-500.0, 0.0, (-500.0,) * 3, (0.0,) * 3)
        feed = ScenarioFeed(scn, np.random.default_rng(0))
        trace = run_stages(sched, feed, AnalyticPolicy(PRIOR, VariancePolicy()))
        m = np.array([r.m for r in trace.records])
        checks = robustness_diagnostics(scn, m, PRIOR, (10.0, 10.0))
        assert m.shape == (3,) and not m.any()
        assert checks.passed.all() and not checks.has_history.any()

    @pytest.mark.parametrize("name", sorted(builtin_scenarios()))
    def test_array_form_equals_the_per_stage_loop(self, name):
        scn = builtin_scenarios()[name]
        rng = np.random.default_rng(sorted(builtin_scenarios()).index(name))
        for _ in range(20):
            T = int(rng.integers(1, scn.T + 1))
            m = rng.integers(0, 300, size=(12, T)) * (rng.random((12, T)) < 0.7)
            m[0] = 0  # a row that treats no one
            m[1, 0] = 0  # a zero first stage
            prior = GaussianPrior(
                tuple(rng.normal(0.0, 1.0, 2)), tuple(rng.uniform(0.01, 100.0, 2))
            )
            truth = (scn.true_var(0, 1), scn.true_var(1, 1))
            pairs = (
                (10.0, 10.0),
                tuple(float(v) for v in rng.uniform(0.5, 40.0, 2)),
                # Just outside and just inside the relative slack of 1e-9.
                (truth[0] * (1.0 - 1e-8), truth[1]),
                (truth[0] * (1.0 - 1e-10), truth[1]),
            )
            for sigma_sq in pairs:
                checks = robustness_diagnostics(scn, m, prior, sigma_sq)
                assert checks.passed.shape == checks.has_history.shape == m.shape
                for row, *row_fields in zip(m, *fields(checks)):
                    trace = SimpleNamespace(records=[
                        SimpleNamespace(stage=t, m=int(v)) for t, v in enumerate(row, 1)
                    ])
                    expected = [
                        tuple(True if v is None else v for v in entry)
                        for entry in per_trace_diagnostics(scn, trace, prior, sigma_sq)
                    ]
                    one = robustness_diagnostics(scn, row, prior, sigma_sq)
                    for f, g in zip(row_fields, fields(one)):
                        assert np.array_equal(f, g)
                    treated = np.flatnonzero(row)
                    got = [(i + 1, int(row[i]), *(bool(f[i]) for f in fields(one)))
                           for i in treated]
                    assert got == expected
                    idle = np.flatnonzero(row == 0)
                    assert one.passed[idle].all()

    def test_history_sums_round_like_the_running_total(self):
        # Stage 2's effect sits exactly at the slack below stage 1's. A
        # history taken as cumsum minus the current term rounds up to
        # 0.04100000000000001 here and would fail condition (b).
        scn = Scenario(
            name="edge", family="gaussian_iid", T=2, population=(500, 1000),
            mean_control=(0.0, 0.0), mean_treatment=(0.041, 0.040999999),
            var_control=(10.0, 10.0), var_treatment=(10.0, 10.0),
        )
        m = np.array([139, 408])
        trace = SimpleNamespace(records=[SimpleNamespace(stage=1, m=139),
                                         SimpleNamespace(stage=2, m=408)])
        assert per_trace_diagnostics(scn, trace, PRIOR, (10.0, 10.0))[1][4] is True
        checks = robustness_diagnostics(scn, m, PRIOR, (10.0, 10.0))
        assert checks.effect_nondecreasing.tolist() == [True, True]

    def test_a_per_unit_study_checks_like_its_rollouts(self):
        scn = builtin_scenarios()["fat"]  # Student-t outcomes take the per-unit engine
        sched = RiskSchedule.uniform(-500.0, 0.05, scn.T)
        policy = AnalyticPolicy(PRIOR, VariancePolicy())
        summary = run_replications(policy, scn, sched, 30, seed=5, keep_traces=True)
        checks = robustness_diagnostics(scn, summary.traces.m, PRIOR, (10.0, 10.0))
        for k, trace in enumerate(summary.traces):
            one = robustness_diagnostics(scn, list(trace.m), PRIOR, (10.0, 10.0))
            for f, g in zip(fields(checks), fields(one)):
                assert np.array_equal(f[k], g)

    def test_study_pin_on_the_batch_engine(self):
        sched = RiskSchedule.uniform(-500.0, 0.05, 10)
        policy = AnalyticPolicy(PRIOR, VariancePolicy("known", (10.0, 10.0)))
        fails = {}
        for name in ("dec", "norm", "nte", "npte"):
            scn = builtin_scenarios()[name]
            summary = run_replications(policy, scn, sched, 5_000, seed=0, keep_traces=True)
            m = summary.traces.m
            checks = robustness_diagnostics(scn, m, PRIOR, (10.0, 10.0))
            fails[name] = float((~checks.effect_nondecreasing).any(axis=1).mean())
            if name == "dec":
                assert summary.ruin_rate == pytest.approx(0.1932)
        assert fails == {"dec": 1.0, "norm": 0.0, "nte": 0.0, "npte": 0.0}
