import numpy as np
import pytest

from rampguard.diagnostics import robustness_diagnostics
from rampguard.posterior import GaussianPrior, VariancePolicy
from rampguard.scenarios import (
    Scenario,
    ScenarioFeed,
    builtin_scenarios,
    generate_stage_outcomes,
    scenario_from_config,
)
from rampguard.schedules import RiskSchedule
from rampguard.solver import AnalyticPolicy
from rampguard.trace import run_stages

PRIOR = GaussianPrior((0.0, 0.0), (100.0, 100.0))


def big_sample(scenario, t=1, n=100_000, seed=0):
    sized = Scenario(
        name=scenario.name,
        family=scenario.family,
        T=scenario.T,
        population=(n,) + scenario.population[1:],
        mean_control=scenario.mean_control,
        mean_treatment=scenario.mean_treatment,
        var_control=scenario.var_control,
        var_treatment=scenario.var_treatment,
        correlation=scenario.correlation,
        bernoulli_scale=scenario.bernoulli_scale,
        bernoulli_p=scenario.bernoulli_p,
        tail_df=scenario.tail_df,
    )
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


class TestDiagnostics:
    def _trace(self, name, seed=0, delta=0.05):
        scn = builtin_scenarios()[name]
        sched = RiskSchedule.uniform(-500.0, delta, scn.T)
        feed = ScenarioFeed(scn, np.random.default_rng(seed))
        return scn, run_stages(sched, feed, AnalyticPolicy(PRIOR, VariancePolicy()))

    def test_stationary_scenario_passes(self):
        scn, trace = self._trace("pte")
        checks = robustness_diagnostics(scn, trace, PRIOR, (10.0, 10.0))
        assert checks, "expected at least one treated stage"
        for c in checks:
            assert c.effect_nondecreasing is not False
            assert c.control_variance_ok is not False
            assert c.effect_variance_ok
            assert c.passed

    def test_decreasing_effect_fails_from_stage_two(self):
        scn, trace = self._trace("dec")
        checks = robustness_diagnostics(scn, trace, PRIOR, (10.0, 10.0))
        by_stage = {c.stage: c for c in checks}
        late = [c for c in checks if c.stage >= 2]
        assert late, "solver never treated after stage 1"
        assert all(c.effect_nondecreasing is False for c in late)
        assert by_stage[min(by_stage)].passed  # stage 1 is still conservative

    def test_fat_tails_pass_variance_checks_at_equality(self):
        scn, trace = self._trace("fat")
        checks = robustness_diagnostics(scn, trace, PRIOR, (10.0, 10.0))
        assert checks
        # True difference variance is exactly 10 + 10.
        for c in checks:
            assert c.effect_variance_ok
            assert c.control_variance_ok is not False

    def test_zero_ramp_stages_carry_no_checks(self):
        scn = builtin_scenarios()["pte"]
        sched = RiskSchedule(-500.0, 0.0, (-500.0,) * 3, (0.0,) * 3)
        feed = ScenarioFeed(scn, np.random.default_rng(0))
        trace = run_stages(sched, feed, AnalyticPolicy(PRIOR, VariancePolicy()))
        assert robustness_diagnostics(scn, trace, PRIOR, (10.0, 10.0)) == []
