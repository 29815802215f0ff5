import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rampguard.posterior import (
    GaussianPrior,
    InsufficientDataError,
    OutcomeVariance,
    SufficientStats,
    VariancePolicy,
    compute_posterior,
    estimate_variance,
    init_posterior,
    update_stats,
)


def grid_bayes_oracle(mu0, sigma0_sq, sigma_sq, observations):
    """Posterior mean/variance by direct numerical integration.

    Brute-force check of the conjugate formulas: evaluate
    prior(mu) * prod_i N(y_i; mu, sigma^2) on a dense grid and integrate.
    """
    obs = np.asarray(observations, dtype=float)
    n = obs.size
    post_sd_guess = math.sqrt(1.0 / (1.0 / sigma0_sq + n / sigma_sq))
    center = (mu0 / sigma0_sq + obs.sum() / sigma_sq) * post_sd_guess**2
    lo, hi = center - 12 * post_sd_guess, center + 12 * post_sd_guess
    mu = np.linspace(lo, hi, 40_001)
    log_post = -0.5 * (mu - mu0) ** 2 / sigma0_sq
    for y in obs:
        log_post = log_post - 0.5 * (y - mu) ** 2 / sigma_sq
    log_post -= log_post.max()
    w = np.exp(log_post)
    w /= np.trapezoid(w, mu)
    mean = np.trapezoid(w * mu, mu)
    var = np.trapezoid(w * (mu - mean) ** 2, mu)
    return mean, var


PRIOR = GaussianPrior(mu0=(0.0, 0.0), sigma0_sq=(100.0, 100.0))
VAR10 = OutcomeVariance((10.0, 10.0))


class TestInit:
    def test_posterior_equals_prior(self):
        post = init_posterior(PRIOR)
        assert post.mu_p == (0.0, 0.0)
        assert post.sigma_p_sq == (100.0, 100.0)

    def test_bandit_style_prior_verbatim(self):
        prior = GaussianPrior(mu0=(0.0, -2.0), sigma0_sq=(0.05, 0.05))
        post = init_posterior(prior)
        assert post.mu_p == (0.0, -2.0)
        assert post.sigma_p_sq == (0.05, 0.05)

    def test_prior_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            GaussianPrior(mu0=(0.0, 0.0), sigma0_sq=(0.0, 1.0))

    @pytest.mark.parametrize("mu0", [(math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf)])
    def test_prior_rejects_a_mean_that_is_not_finite(self, mu0):
        with pytest.raises(ValueError, match="mu0 components must be finite, got"):
            GaussianPrior(mu0=mu0, sigma0_sq=(1.0, 1.0))

    @pytest.mark.parametrize("pair", [(), (1.0,), (1.0, 2.0, 3.0)])
    def test_pairs_of_another_length_are_refused(self, pair):
        with pytest.raises(ValueError, match="mu0 must have exactly two"):
            GaussianPrior(mu0=pair, sigma0_sq=(1.0, 1.0))
        with pytest.raises(ValueError, match="sigma0_sq must have exactly two"):
            GaussianPrior(mu0=(0.0, 0.0), sigma0_sq=pair)
        with pytest.raises(ValueError, match="sigma_sq must have exactly two"):
            OutcomeVariance(pair)


class TestUpdateStats:
    def test_empty_treatment_group(self):
        stats = update_stats(SufficientStats(), 0, 500, 0.0, 12.5)
        assert stats.sum_treated == 0.0
        assert stats.counts == (500, 0)
        assert stats.sum_control == 12.5

    def test_direct_accumulation(self):
        stats = update_stats(SufficientStats(), 10, 500, treated_sum=20.0, control_sum=3.0)
        assert stats.counts == (490, 10)
        assert stats.sum_treated == 20.0

    def test_merge_equals_sequence(self):
        a = update_stats(SufficientStats(), 10, 100, 5.0, 7.0, 2.0, 3.0)
        a = update_stats(a, 20, 200, 11.0, -2.0, 4.0, 1.0)
        merged = update_stats(SufficientStats(), 30, 300, 16.0, 5.0, 6.0, 4.0)
        assert a == merged

    def test_cap_enforced(self):
        # The half cap is a policy's rule (trace.check_decision); the fold
        # admits any treated count up to the whole stage, and no more.
        stats = update_stats(SufficientStats(), 400, 500, 1.0, 1.0)
        assert stats.counts == (100, 400)
        with pytest.raises(ValueError, match=r"m_t must be in \[0, N_t=500\], got 501"):
            update_stats(SufficientStats(), 501, 500, 0.0, 0.0)

    def test_a_negative_stage_size_is_refused(self):
        with pytest.raises(ValueError, match="N_t must be >= 0, got -1"):
            update_stats(SufficientStats(), 0, -1, 0.0, 0.0)


class TestComputePosterior:
    def test_no_data_returns_prior(self):
        post = compute_posterior(PRIOR, VAR10, SufficientStats())
        assert post.mu_p == PRIOR.mu0
        assert post.sigma_p_sq == PRIOR.sigma0_sq

    def test_closed_form_example(self):
        stats = update_stats(SufficientStats(), 10, 500, treated_sum=20.0, control_sum=0.0)
        post = compute_posterior(PRIOR, VAR10, stats)
        assert post.mu_p[1] == pytest.approx(2.0 / 1.01, rel=1e-12)
        assert post.sigma_p_sq[1] == pytest.approx(1.0 / 1.01, rel=1e-12)

    def test_precision_weighted_average_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            mu0 = rng.normal(0, 3)
            s0, s = rng.uniform(0.5, 20), rng.uniform(0.5, 20)
            m = int(rng.integers(1, 50))
            total = float(rng.normal(0, 10))
            prior = GaussianPrior((mu0, mu0), (s0, s0))
            var = OutcomeVariance((s, s))
            stats = update_stats(
                SufficientStats(), m, 2 * m + 1, treated_sum=total, control_sum=0.0
            )
            post = compute_posterior(prior, var, stats)
            w1 = (1 / s0) / (1 / s0 + m / s)
            expected = w1 * mu0 + (1 - w1) * (total / m)
            assert post.mu_p[1] == pytest.approx(expected, rel=1e-10)

    def test_matches_grid_integration_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n_c = int(rng.integers(1, 21))
            n_t = int(rng.integers(1, 21))
            y_c = rng.normal(1.0, 2.0, n_c)
            y_t = rng.normal(-0.5, 3.0, n_t)
            prior = GaussianPrior((0.5, -0.3), (4.0, 9.0))
            var = OutcomeVariance((4.0, 9.0))
            stats = update_stats(
                SufficientStats(),
                n_t,
                n_t + n_c,
                float(y_t.sum()),
                float(y_c.sum()),
            )
            post = compute_posterior(prior, var, stats)
            mean_t, var_t = grid_bayes_oracle(-0.3, 9.0, 9.0, y_t)
            mean_c, var_c = grid_bayes_oracle(0.5, 4.0, 4.0, y_c)
            assert post.mu_p[1] == pytest.approx(mean_t, rel=1e-6, abs=1e-9)
            assert post.sigma_p_sq[1] == pytest.approx(var_t, rel=1e-6)
            assert post.mu_p[0] == pytest.approx(mean_c, rel=1e-6, abs=1e-9)
            assert post.sigma_p_sq[0] == pytest.approx(var_c, rel=1e-6)

    def test_streaming_equals_merged(self):
        rng = np.random.default_rng(3)
        seq = SufficientStats()
        totals = np.zeros(4)
        counts = np.zeros(2, dtype=int)
        for _ in range(12):
            m, n = int(rng.integers(0, 40)), 100
            ts, cs = float(rng.normal(0, 20)), float(rng.normal(0, 20))
            tq, cq = float(rng.uniform(0, 50)), float(rng.uniform(0, 50))
            seq = update_stats(seq, m, n, ts, cs, tq, cq)
            totals += (ts, cs, tq, cq)
            counts += (n - m, m)
        merged = update_stats(
            SufficientStats(),
            int(counts[1]),
            int(counts.sum()),
            totals[0],
            totals[1],
            totals[2],
            totals[3],
        )
        p_seq = compute_posterior(PRIOR, VAR10, seq)
        p_merge = compute_posterior(PRIOR, VAR10, merged)
        for w in (0, 1):
            assert p_seq.mu_p[w] == pytest.approx(p_merge.mu_p[w], rel=1e-10)
            assert p_seq.sigma_p_sq[w] == pytest.approx(p_merge.sigma_p_sq[w], rel=1e-10)

    @given(st.integers(min_value=0, max_value=2000), st.integers(min_value=1, max_value=2000))
    def test_posterior_variance_decreasing_in_count(self, m1, extra):
        stats_small = update_stats(SufficientStats(), m1, 2 * m1 + 2, 0.0, 0.0)
        stats_big = update_stats(stats_small, extra, 2 * extra, 0.0, 0.0)
        v_small = compute_posterior(PRIOR, VAR10, stats_small).sigma_p_sq[1]
        v_big = compute_posterior(PRIOR, VAR10, stats_big).sigma_p_sq[1]
        assert v_big < v_small
        assert v_small <= PRIOR.sigma0_sq[1]


class TestEstimateVariance:
    def _stats_from_data(self, control, treated):
        control = np.asarray(control, dtype=float)
        treated = np.asarray(treated, dtype=float)
        n = len(control) + len(treated)
        return update_stats(
            SufficientStats(),
            len(treated),
            max(n, 2 * len(treated)),
            float(treated.sum()),
            float(control.sum()),
            float((treated**2).sum()),
            float((control**2).sum()),
        )

    def test_constant_data_degenerates_to_floor(self):
        stats = self._stats_from_data([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        est = estimate_variance(stats)
        assert est.sigma_sq[0] == pytest.approx(0.0, abs=1e-10)

    def test_two_point_sample(self):
        stats = self._stats_from_data([0.0, 2.0], [5.0, 9.0])
        est = estimate_variance(stats)
        assert est.sigma_sq[0] == pytest.approx(2.0)
        assert est.sigma_sq[1] == pytest.approx(8.0)

    def test_statistical_consistency(self):
        rng = np.random.default_rng(11)
        y = rng.normal(3.0, math.sqrt(10.0), 10_000)
        stats = self._stats_from_data(y, y[:100])
        est = estimate_variance(stats)
        assert 9.0 <= est.sigma_sq[0] <= 11.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        y = rng.normal(0, 2, 50)
        a = self._stats_from_data(y, y)
        b = self._stats_from_data(rng.permutation(y), rng.permutation(y))
        assert estimate_variance(a).sigma_sq == pytest.approx(estimate_variance(b).sigma_sq)

    def test_insufficient_data_raises_and_fallback_fills(self):
        stats = update_stats(SufficientStats(), 1, 3, 4.0, 2.0, 16.0, 4.0)
        with pytest.raises(InsufficientDataError):
            estimate_variance(stats)
        est = estimate_variance(stats, fallback=(7.0, 9.0))
        assert est.sigma_sq[1] == 9.0  # treated arm had one observation


class TestVariancePolicy:
    def test_known_explicit_values(self):
        policy = VariancePolicy(mode="known", values=(3.0, 4.0))
        assert policy.resolve(SufficientStats(), (9.0, 9.0)).sigma_sq == (3.0, 4.0)

    def test_known_falls_back_to_feed_truth(self):
        policy = VariancePolicy(mode="known")
        assert policy.resolve(SufficientStats(), (9.0, 8.0)).sigma_sq == (9.0, 8.0)
        with pytest.raises(ValueError):
            policy.resolve(SufficientStats(), None)

    def test_estimated_requires_pretrial_at_start(self):
        policy = VariancePolicy(mode="estimated")
        with pytest.raises(InsufficientDataError):
            policy.resolve(SufficientStats(), None)
        primed = VariancePolicy(mode="estimated", pretrial=(10.0, 10.0))
        assert primed.resolve(SufficientStats(), None).sigma_sq == (10.0, 10.0)

    def test_unknown_mode_is_refused_at_construction(self):
        # A misspelt mode would otherwise run as estimated and drop the values.
        with pytest.raises(ValueError, match="'knwon'"):
            VariancePolicy(mode="knwon", values=(10.0, 10.0), pretrial=(1.0, 1.0))

    @pytest.mark.parametrize("name", ["values", "pretrial"])
    @pytest.mark.parametrize(
        "pair", [(-1.0, 5.0), (0.0, 5.0), (1.0, math.nan), (1.0, math.inf), (1.0,), (1.0, 2.0, 3.0)]
    )
    def test_a_bad_pair_is_refused_at_construction(self, name, pair):
        # A negative pretrial variance used to resolve to (1e-12, 5.0), and bad
        # known values failed only at the first resolve, in the middle of a study.
        with pytest.raises(ValueError, match=name):
            VariancePolicy(mode="estimated", **{name: pair})

    def test_pairs_are_kept_as_floats(self):
        policy = VariancePolicy(values=[3, np.float32(5.0)], pretrial=(2, 4))
        assert (policy.values, policy.pretrial) == ((3.0, 5.0), (2.0, 4.0))
        assert {type(v) for v in policy.values + policy.pretrial} == {float}
        assert VariancePolicy().values is None and VariancePolicy().pretrial is None
