import concurrent.futures
import json
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampguard import mc_solver
from rampguard.mc_solver import (
    CappedEffectCost,
    CantelliPolicy,
    CostFunction,
    GaussianPosteriorSampler,
    PosteriorQuantities,
    TreatmentEffectCost,
    estimate_posterior_quantities,
    solve_ramp_size_cantelli,
)
from rampguard.posterior import (
    GaussianPrior,
    OutcomeVariance,
    PosteriorState,
    VariancePolicy,
)
from rampguard.replication import replication_stream, run_replications
from rampguard.scenarios import ScenarioFeed, builtin_scenarios, generate_stage_outcomes
from rampguard.schedules import FLOOR_CAP, SAMPLE_CAP, RiskSchedule
from rampguard.solver import BRANCH_ZERO_TOL, solve_ramp_size
from rampguard.trace import StageOutcome, run_stages


GOLDEN = Path(__file__).parent / "data"


class ZeroCost(CostFunction):
    def evaluate(self, y1, y0):
        return np.zeros(np.broadcast(np.asarray(y1), np.asarray(y0)).shape)


class HingeCost(CostFunction):
    """A user cost that defines only ``evaluate``: losses count twice."""

    def evaluate(self, y1, y0):
        d = np.asarray(y1) - np.asarray(y0)
        return np.where(d < 0.0, 2.0 * d, d)


def reference_cost_batch(sampler, cost, k, rng, impute_rng=None):
    """The allocating per-unit formula that the sharded kernel replaced.

    The means, the linear cost's imputed total and the fresh units come
    from ``rng``; a non-linear cost's per-unit counterfactuals come from
    ``impute_rng`` (they used to come from ``rng`` too, between the means
    and the fresh units).
    """
    mp, sp = sampler.posterior.mu_p, sampler.posterior.sigma_p_sq
    mu0 = mp[0] + math.sqrt(sp[0]) * rng.standard_normal(k)
    mu1 = mp[1] + math.sqrt(sp[1]) * rng.standard_normal(k)
    v0, v1 = sampler.variance.sigma_sq
    sd0, sd1 = math.sqrt(v0), math.sqrt(v1)
    if sampler.m1_prev == 0:
        r_prev = np.zeros(k)
    elif cost.is_linear_effect:
        m = float(sampler.m1_prev)
        imputed_total = m * mu0 + math.sqrt(m * v0) * rng.standard_normal(k)
        r_prev = sampler.observed_treated_sum - imputed_total
    else:
        r_prev = np.zeros(k)
        chunk = max(1, int(4e6 // max(sampler.m1_prev, 1)))
        for lo in range(0, k, chunk):
            hi = min(lo + chunk, k)
            block = np.zeros(hi - lo)
            for arr in sampler.history:
                imputed = mu0[lo:hi, None] + sd0 * impute_rng.standard_normal(
                    (hi - lo, arr.shape[0])
                )
                block += cost.evaluate(arr[None, :], imputed).sum(axis=1)
            r_prev[lo:hi] = block
    h = []
    for _ in range(2):
        fresh0 = mu0 + sd0 * rng.standard_normal(k)
        fresh1 = mu1 + sd1 * rng.standard_normal(k)
        h.append(np.asarray(cost.evaluate(fresh1, fresh0), dtype=float))
    return r_prev, h[0], h[1]


def quantities(**kw):
    base = dict(
        phi0=1.0, phi1=0.0, phi2=0.0, phi3=1.0, phi4=0.0, phi5=0.0, phi6=0.0,
        phi6_natural=0.0, sample_count=1000, survivor_count=1000,
    )
    base.update(kw)
    return PosteriorQuantities(**base)


def oracle_cantelli_max(q, b_t, delta_t, n_t):
    """Independent grid reference over every m in [0, N/2].

    Shares the solver's predicate definition: the exchangeable-pair
    covariance enters clamped at zero and the history covariance slot uses
    the direct estimate.
    """
    if delta_t == 0.0 or q.phi0 == 0.0:
        return 0
    qt = 1.0 / delta_t - 1.0
    pair = max(q.phi4, 0.0)
    A = q.phi1**2 - qt * pair
    B = 2 * q.phi1 * (q.phi2 - b_t) - qt * q.phi3 + qt * pair - qt * q.phi6_natural
    C = (q.phi2 - b_t) ** 2 - qt * q.phi5
    best = 0
    for m in range(n_t // 2, -1, -1):
        if m * q.phi1 + q.phi2 >= b_t and A * m * m + B * m + C >= 0.0:
            best = m
            break
    return best


class TestCostFunctions:
    def test_treatment_effect(self):
        cost = TreatmentEffectCost()
        assert cost.evaluate(3.0, 1.0) == 2.0
        np.testing.assert_allclose(
            cost.evaluate(np.array([1.0, 2.0]), np.array([0.5, 3.0])), [0.5, -1.0]
        )

    def test_capped_effect(self):
        cost = CappedEffectCost(floor=-1.0)
        np.testing.assert_allclose(
            cost.evaluate(np.array([0.0, 5.0]), np.array([4.0, 1.0])), [-1.0, 4.0]
        )


class TestSampler:
    def test_point_prior_pins_the_means(self):
        # Near-zero posterior and outcome variances: every fresh cost is
        # mu(1) - mu(0) = -5, and the history cost of four treated zeros
        # is 0 - 4 * mu(0) = -8.
        posterior = PosteriorState((2.0, -3.0), (1e-18, 1e-18))
        sampler = GaussianPosteriorSampler(
            posterior, OutcomeVariance((1e-18, 1e-18)), [np.zeros(4)]
        )
        r_prev, h1, h2 = sampler.draw_cost_batch(
            TreatmentEffectCost(), 10, np.random.default_rng(0)
        )
        np.testing.assert_allclose(h1, -5.0, atol=1e-8)
        np.testing.assert_allclose(h2, -5.0, atol=1e-8)
        np.testing.assert_allclose(r_prev, -8.0, atol=1e-8)

    def test_counterfactual_sum_moments(self):
        # Mean M * mu_p(0); variance M^2 sp0 + M v0.
        posterior = PosteriorState((0.7, 0.0), (0.09, 0.5))
        variance = OutcomeVariance((2.5, 1.0))
        m1_prev = 40
        history = [np.zeros(m1_prev)]
        sampler = GaussianPosteriorSampler(posterior, variance, history)
        rng = np.random.default_rng(7)
        k = 100_000
        r_prev, _, _ = sampler.draw_cost_batch(TreatmentEffectCost(), k, rng)
        sums = 0.0 - r_prev  # observed treated sum is zero here
        want_mean = m1_prev * 0.7
        want_var = m1_prev**2 * 0.09 + m1_prev * 2.5
        se = math.sqrt(want_var / k)
        assert abs(sums.mean() - want_mean) <= 3 * se
        assert np.var(sums) == pytest.approx(want_var, rel=0.05)

    def test_linear_fast_path_matches_per_unit_distribution(self):
        # Same model sampled through the aggregate shortcut and through
        # per-unit imputation (by a nonlinear-but-identity cost wrapper)
        # must agree in mean and variance.
        class EffectNoFlag(CostFunction):
            def evaluate(self, y1, y0):
                return np.asarray(y1) - np.asarray(y0)

        posterior = PosteriorState((0.3, 1.0), (0.2, 0.4))
        variance = OutcomeVariance((3.0, 2.0))
        history = [np.full(30, 1.1), np.full(20, 0.4)]
        k = 60_000
        fast = GaussianPosteriorSampler(posterior, variance, history).draw_cost_batch(
            TreatmentEffectCost(), k, np.random.default_rng(3)
        )
        slow = GaussianPosteriorSampler(posterior, variance, history).draw_cost_batch(
            EffectNoFlag(), k, np.random.default_rng(4)
        )
        assert fast[0].mean() == pytest.approx(slow[0].mean(), abs=4 * 50 / math.sqrt(k))
        assert np.var(fast[0]) == pytest.approx(np.var(slow[0]), rel=0.05)

    def test_fresh_costs_share_the_mean_draw(self):
        # With large posterior spread the two fresh units' costs correlate.
        posterior = PosteriorState((0.0, 0.0), (50.0, 50.0))
        sampler = GaussianPosteriorSampler(posterior, OutcomeVariance((0.1, 0.1)))
        _, h1, h2 = sampler.draw_cost_batch(
            TreatmentEffectCost(), 20_000, np.random.default_rng(5)
        )
        assert np.corrcoef(h1, h2)[0, 1] > 0.95


class TestShardedImputation:
    POSTERIOR = PosteriorState((0.3, 1.0), (0.2, 0.4))
    VARIANCE = OutcomeVariance((3.0, 2.0))

    def sampler(self, *sizes):
        rng = np.random.default_rng(17)
        history = [1.0 + rng.standard_normal(n) for n in sizes]
        return GaussianPosteriorSampler(self.POSTERIOR, self.VARIANCE, history)

    @pytest.mark.parametrize("k", [1, 7, 8, 1003])
    def test_output_ignores_threads_and_buffer_size(self, monkeypatch, k):
        # An empty history array, and at a 64-double buffer one array of
        # 10 units (6 rows per chunk) and one of 100 (one row per chunk).
        sampler = self.sampler(10, 0, 100)
        cost = CappedEffectCost(floor=0.0)

        def draw(share, buffer):
            monkeypatch.setattr(mc_solver, "_cpu_share", share)
            monkeypatch.setattr(mc_solver, "_BUFFER_DOUBLES", buffer)
            return sampler.draw_cost_batch(cost, k, np.random.default_rng(9))

        want = draw(8, 2**19)
        # The means and the fresh units keep their place on the stage stream.
        pinned = reference_cost_batch(
            sampler, cost, k, np.random.default_rng(9), np.random.default_rng(0)
        )
        for a, b in zip(want[1:], pinned[1:]):
            assert a.tobytes() == b.tobytes()
        for share in (1, 2, 3, 8, 64):
            for buffer in (2**19, 64):
                got = draw(share, buffer)
                for a, b in zip(want, got):
                    assert a.tobytes() == b.tobytes(), (share, buffer)

    @pytest.mark.parametrize(
        "cost", [CappedEffectCost(floor=0.0), HingeCost()], ids=["capped", "user-cost"]
    )
    def test_sharded_history_cost_has_the_reference_law(self, cost):
        sampler = self.sampler(30, 0, 45)
        k = 60_000
        got, _, _ = sampler.draw_cost_batch(cost, k, np.random.default_rng(21))
        want, _, _ = reference_cost_batch(
            sampler, cost, k, np.random.default_rng(22), np.random.default_rng(23)
        )
        se = math.sqrt((got.var() + want.var()) / k)
        assert abs(got.mean() - want.mean()) <= 4 * se
        assert got.var() == pytest.approx(want.var(), rel=0.05)

    @pytest.mark.parametrize(
        "cost,sizes",
        [
            (TreatmentEffectCost(), (30, 0, 45)),
            (TreatmentEffectCost(), ()),
            (CappedEffectCost(floor=0.0), (30, 0, 45)),
            (HingeCost(), (12,)),
        ],
        ids=["linear", "linear-first-stage", "capped", "user-cost"],
    )
    def test_parent_stream_draws_are_unchanged(self, cost, sizes):
        sampler = self.sampler(*sizes)
        got = sampler.draw_cost_batch(cost, 501, np.random.default_rng(5))
        want = reference_cost_batch(
            sampler, cost, 501, np.random.default_rng(5), np.random.default_rng(6)
        )
        same = slice(None) if cost.is_linear_effect else slice(1, None)
        for a, b in zip(got[same], want[same]):
            assert a.tobytes() == b.tobytes()

    def test_spawning_draws_nothing_from_the_parent_stream(self):
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        self.sampler(20).draw_cost_batch(CappedEffectCost(floor=0.0), 100, rng)
        # No history: the same draws from the stream, and no spawn.
        self.sampler().draw_cost_batch(CappedEffectCost(floor=0.0), 100, twin)
        assert rng.random() == twin.random()

    @pytest.mark.parametrize(
        "cost",
        [TreatmentEffectCost(), CappedEffectCost(floor=-0.5), HingeCost()],
        ids=["effect", "capped", "base-fallback"],
    )
    def test_evaluate_into_equals_evaluate_in_place(self, cost):
        rng = np.random.default_rng(8)
        y1 = rng.standard_normal(40)
        y0 = rng.standard_normal((25, 40))
        want = cost.evaluate(y1, y0.copy())
        got = cost.evaluate_into(y1, y0, y0)
        assert got is y0
        assert y0.tobytes() == np.asarray(want, dtype=float).tobytes()

    def test_cpu_share_bounds_the_threads(self, executors, monkeypatch):
        # The helper pools beside the calling thread: the share, at most one
        # thread per shard, and at least the calling thread alone.
        monkeypatch.setattr(mc_solver, "_cpu_share", mc_solver._cpu_share)
        for share, helpers in ((3, [2]), (64, [mc_solver._SHARDS - 1]), (0, [])):
            mc_solver.set_cpu_share(share)
            executors.clear()
            self.sampler(20).draw_cost_batch(CappedEffectCost(floor=0.0), 50, np.random.default_rng(1))
            assert executors == helpers, share

    @pytest.fixture
    def executors(self, monkeypatch):
        """The worker count of every thread pool a call builds."""
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        return sizes

    @pytest.mark.parametrize("share,helpers", [(1, []), (2, [1]), (3, [2]), (8, [7]), (64, [7])])
    def test_the_share_counts_the_calling_thread(self, executors, monkeypatch, share, helpers):
        monkeypatch.setattr(mc_solver, "_cpu_share", share)
        self.sampler(20).draw_cost_batch(CappedEffectCost(floor=0.0), 50, np.random.default_rng(1))
        assert executors == helpers

    @pytest.mark.parametrize(
        "cost,sizes",
        [(TreatmentEffectCost(), (20,)), (CappedEffectCost(floor=0.0), ())],
        ids=["linear", "first-stage"],
    )
    def test_nothing_to_impute_starts_no_helper(self, executors, monkeypatch, cost, sizes):
        monkeypatch.setattr(mc_solver, "_cpu_share", 8)
        self.sampler(*sizes).draw_cost_batch(cost, 50, np.random.default_rng(1))
        assert executors == []

    @pytest.mark.parametrize("share", [1, 2, 3])
    def test_a_failing_shard_stops_the_hand_out(self, monkeypatch, share):
        # The first shard to start fails at once; every other shard takes
        # 50 ms, so each thread can have taken at most one shard before the
        # failure empties the hand-out.
        monkeypatch.setattr(mc_solver, "_cpu_share", share)
        sampler = self.sampler(5)
        impute, lock, started = sampler._impute_shard, threading.Lock(), []

        def failing(*shard):
            with lock:
                started.append(shard)
                first = len(started) == 1
            if first:
                raise ArithmeticError("broken shard")
            time.sleep(0.05)
            impute(*shard)

        monkeypatch.setattr(sampler, "_impute_shard", failing)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="broken shard"):
            sampler.draw_cost_batch(CappedEffectCost(floor=0.0), 16, np.random.default_rng(1))
        assert 1 <= len(started) <= share
        assert threading.active_count() == before

    def test_the_hand_out_survives_rapid_thread_switches(self, monkeypatch):
        # Seven helpers on a small buffer, switching threads every
        # microsecond: a shard lost or taken twice changes its rows.
        sampler = self.sampler(10, 100)
        cost = CappedEffectCost(floor=0.0)
        monkeypatch.setattr(mc_solver, "_BUFFER_DOUBLES", 16)
        monkeypatch.setattr(mc_solver, "_cpu_share", 1)
        want = sampler.draw_cost_batch(cost, 64, np.random.default_rng(4))[0]
        monkeypatch.setattr(mc_solver, "_cpu_share", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                got = sampler.draw_cost_batch(cost, 64, np.random.default_rng(4))[0]
                assert got.tobytes() == want.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_no_thread_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(mc_solver, "_cpu_share", 8)
        before = threading.active_count()
        self.sampler(50).draw_cost_batch(CappedEffectCost(floor=0.0), 2000, np.random.default_rng(1))
        assert threading.active_count() == before

    def test_a_failing_cost_raises_from_the_call(self, monkeypatch):
        class Broken(CostFunction):
            def evaluate(self, y1, y0):
                raise ArithmeticError("broken cost")

        monkeypatch.setattr(mc_solver, "_cpu_share", 2)
        with pytest.raises(ArithmeticError, match="broken cost"):
            self.sampler(5).draw_cost_batch(Broken(), 16, np.random.default_rng(1))


class TestEstimator:
    @pytest.mark.parametrize("K", [0, -3])
    def test_a_sample_count_below_one_is_refused(self, K):
        sampler = GaussianPosteriorSampler(
            PosteriorState((0.0, 0.0), (1.0, 1.0)), OutcomeVariance((1.0, 1.0))
        )
        wants = rf"K must be a whole number in \[1, 1000000\], got {K}"
        with pytest.raises(ValueError, match=wants):
            estimate_posterior_quantities(
                sampler, ZeroCost(), -500.0, K, np.random.default_rng(0)
            )

    def test_zero_cost_never_ruins(self):
        sampler = GaussianPosteriorSampler(
            PosteriorState((0.0, 0.0), (1.0, 1.0)), OutcomeVariance((1.0, 1.0)),
            [np.ones(10)],
        )
        q = estimate_posterior_quantities(
            sampler, ZeroCost(), -500.0, 2000, np.random.default_rng(0)
        )
        assert q.phi0 == 1.0
        assert q.survivor_count == 2000
        for name in ("phi1", "phi2", "phi3", "phi4", "phi5", "phi6"):
            assert getattr(q, name) == pytest.approx(0.0, abs=1e-9), name

    def test_degenerate_samples_zero_variances(self):
        posterior = PosteriorState((1.0, 1.0), (1e-18, 1e-18))
        variance = OutcomeVariance((1e-18, 1e-18))
        sampler = GaussianPosteriorSampler(posterior, variance, [np.ones(4)])
        q = estimate_posterior_quantities(
            sampler, TreatmentEffectCost(), -500.0, 500, np.random.default_rng(1)
        )
        assert q.phi3 == pytest.approx(0.0, abs=1e-12)
        assert q.phi4 == pytest.approx(0.0, abs=1e-12)
        assert q.phi5 == pytest.approx(0.0, abs=1e-12)

    def test_first_stage_history_terms_are_exactly_zero(self):
        sampler = GaussianPosteriorSampler(
            PosteriorState((0.0, 0.0), (100.0, 100.0)), OutcomeVariance((10.0, 10.0))
        )
        q = estimate_posterior_quantities(
            sampler, TreatmentEffectCost(), -500.0, 4000, np.random.default_rng(2)
        )
        assert q.phi0 == 1.0
        assert q.phi2 == 0.0
        assert q.phi5 == 0.0
        # Fresh-unit cost variance: sp0 + sp1 + v0 + v1 = 220.
        assert q.phi3 == pytest.approx(220.0, rel=0.1)
        assert q.phi4 == pytest.approx(200.0, rel=0.1)

    def test_empty_survivor_set_signals_through_phi0(self):
        posterior = PosteriorState((100.0, 0.0), (1e-12, 1e-12))
        variance = OutcomeVariance((1e-6, 1e-6))
        # History cost is hugely negative with certainty: no survivors.
        sampler = GaussianPosteriorSampler(posterior, variance, [np.zeros(100)])
        q = estimate_posterior_quantities(
            sampler, TreatmentEffectCost(), -500.0, 100, np.random.default_rng(3)
        )
        assert q.phi0 == 0.0
        assert q.survivor_count == 0
        assert math.isnan(q.phi1)
        d = solve_ramp_size_cantelli(q, -500.0, 0.1, 500)
        assert d.m == 0

    def test_natural_phi6_tracks_history_covariance(self):
        posterior = PosteriorState((0.0, 0.0), (4.0, 4.0))
        variance = OutcomeVariance((1.0, 1.0))
        sampler = GaussianPosteriorSampler(posterior, variance, [np.zeros(50)])
        q = estimate_posterior_quantities(
            sampler, TreatmentEffectCost(), -1e9, 200_000, np.random.default_rng(4)
        )
        # Cov(h, R_hist) = Cov(-mu0 noise...) : h = y1f - y0f, R = -sum(imputed)
        # share mu0: Cov = 50 * sp0 = 200.
        assert q.phi6_natural == pytest.approx(200.0, rel=0.1)
        # The printed phi6 reuses the fresh-pair product: Cov(h1, h2) = sp0+sp1.
        assert q.phi6 == pytest.approx(8.0, rel=0.25)


class TestCantelliSolver:
    def test_linear_case_worked_example(self):
        q = quantities(phi1=0.0, phi2=0.0, phi3=1.0, phi4=0.0, phi5=0.0, phi6=0.0)
        # Delta = 0.5 makes the variance multiplier 1; the quadratic
        # degenerates to 100 - m >= 0 and the budget line is always met.
        for n_t, expected in ((500, 100), (150, 75), (1000, 100)):
            d = solve_ramp_size_cantelli(q, -10.0, 0.5, n_t)
            assert d.m == expected == min(100, n_t // 2)

    def test_zero_survivors_and_zero_tolerance(self):
        q = quantities(phi0=0.0)
        assert solve_ramp_size_cantelli(q, -10.0, 0.5, 100).m == 0
        q2 = quantities()
        d = solve_ramp_size_cantelli(q2, -10.0, 0.0, 100)
        assert d.m == 0 and d.branch == BRANCH_ZERO_TOL

    def test_cantelli_bound_halves_at_one_sigma(self):
        # One-sided variance bound: 1 / (1 + lambda^2 / V) at lambda = sqrt(V).
        for v in (0.5, 1.0, 9.0):
            lam = math.sqrt(v)
            assert 1.0 / (1.0 + lam * lam / v) == pytest.approx(0.5)

    def test_grid_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(600):
            q = quantities(
                phi0=float(rng.uniform(0.05, 1.0)),
                phi1=float(rng.uniform(-5, 5)),
                phi2=float(rng.uniform(-800, 100)),
                phi3=float(rng.uniform(0, 100)),
                phi4=float(rng.uniform(-10, 10)),
                phi5=float(rng.uniform(0, 100)),
                phi6=float(rng.uniform(-50, 50)),
                phi6_natural=float(rng.uniform(-50, 50)),
            )
            b = float(rng.uniform(-900, -1))
            delta = float(rng.uniform(1e-4, 0.99))
            n = int(rng.integers(1, 1001))
            assert solve_ramp_size_cantelli(q, b, delta, n).m == oracle_cantelli_max(
                q, b, delta, n
            )

    def test_large_population_candidate_path(self):
        # Large populations take the same boundary-candidate path as small ones.
        q = quantities(phi1=0.0, phi2=0.0, phi3=1.0)
        d = solve_ramp_size_cantelli(q, -10.0, 0.5, 40_000)
        assert d.m == oracle_cantelli_max(q, -10.0, 0.5, 40_000) == 100
        q2 = quantities(phi1=1.0, phi2=0.0, phi3=4.0, phi5=2.0)
        d2 = solve_ramp_size_cantelli(q2, -50.0, 0.2, 50_000)
        assert d2.m == oracle_cantelli_max(q2, -50.0, 0.2, 50_000)

    def test_tiny_effect_root_does_not_cancel_at_large_population(self):
        # A = phi1**2 = 1e-20: the textbook root formula cancels the small
        # root to 0 and gave m = 1 at 30,000 units against m = 5 at 500.
        q = quantities(phi1=1e-10, phi3=1.0 + 2e-9, phi5=95.0)
        for n_t in (500, 30_000):
            assert solve_ramp_size_cantelli(q, -10.0, 0.5, n_t).m == 5

    @settings(max_examples=150, deadline=None)
    @given(
        phis=st.lists(
            st.one_of(
                st.floats(-1e-300, 1e-300),
                st.sampled_from([0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308]),
                st.floats(-1e3, 1e3),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=6,
            max_size=6,
        ),
        tiny=st.tuples(
            st.floats(-1e-8, 1e-8), st.floats(-1e-8, 1e-8), st.booleans(), st.booleans()
        ),
        b_t=st.floats(-1e4, 0.0),
        delta_t=st.floats(1e-4, 0.999),
        n_t=st.integers(1, 100_000),
    )
    def test_total_and_exact_at_any_population(self, phis, tiny, b_t, delta_t, n_t):
        phi1, phi2, phi3, phi4, phi5, phi6 = phis
        phi1 = tiny[0] if tiny[2] else phi1
        phi4 = tiny[1] if tiny[3] else phi4
        values = dict(phi1=phi1, phi2=phi2, phi3=abs(phi3), phi4=phi4, phi5=abs(phi5))
        q = quantities(**values, phi6_natural=phi6)
        m = solve_ramp_size_cantelli(q, b_t, delta_t, n_t).m
        assert 0 <= m <= n_t // 2
        # Within this range no coefficient of the quadratic overflows.
        if max(abs(v) for v in (*values.values(), phi6)) <= 1e60:
            assert m == oracle_cantelli_max(q, b_t, delta_t, n_t)

    def test_conservatism_versus_analytic(self):
        # Stage-1 comparison on the Gaussian model with the plain effect
        # cost: the variance-bound solver should almost never treat more.
        rng = np.random.default_rng(21)
        wins = 0
        trials = 200
        for _ in range(trials):
            prior_var = float(rng.uniform(0.5, 150))
            noise = float(rng.uniform(0.5, 40))
            posterior = PosteriorState((0.0, 0.0), (prior_var, prior_var))
            variance = OutcomeVariance((noise, noise))
            b = float(rng.uniform(-900, -50))
            delta = float(rng.uniform(0.001, 0.4))
            n = int(rng.integers(10, 1001))
            sampler = GaussianPosteriorSampler(posterior, variance)
            q = estimate_posterior_quantities(
                sampler, TreatmentEffectCost(), b, 100_000, rng
            )
            m_mc = solve_ramp_size_cantelli(q, b, delta, n).m
            m_exact = solve_ramp_size(posterior, variance, 0, 0.0, b, delta, n).m
            if m_mc <= m_exact:
                wins += 1
        assert wins >= 0.95 * trials


class NoTreatedOutcomesFeed:
    """A two-stage feed that reports sums but not the treated outcomes."""

    num_stages = 2

    def population(self, t):
        return 500

    def true_variance(self, t):
        return (10.0, 10.0)

    def run_stage(self, t, m):
        return StageOutcome(float(m), float(m), 0.0, 0.0, float(m))


class TestRunCantelli:
    PRIOR = GaussianPrior((0.0, 0.0), (100.0, 100.0))

    @pytest.mark.parametrize("floor", [1e101, -1e101, 1e300, math.inf, -math.inf, math.nan])
    def test_a_capped_floor_past_the_bound_is_refused_when_built(self, floor):
        with pytest.raises(ValueError, match=r"floor must be a number in \[-1e\+100, 1e\+100\]"):
            CappedEffectCost(floor)
        assert CappedEffectCost(-1e100).floor == -1e100 == -FLOOR_CAP

    @pytest.mark.parametrize("samples", [0, -1, 10**6 + 1, 10**12, 2.5, 1e300, math.nan, "10"])
    def test_a_sample_count_outside_the_bound_is_refused_when_built(self, samples):
        with pytest.raises(ValueError, match=r"samples must be a whole number in \[1, 1000000\]"):
            CantelliPolicy(self.PRIOR, VariancePolicy(), samples=samples)

    @pytest.mark.parametrize("samples", [1, 10**6, np.int64(500), 500.0])
    def test_a_sample_count_within_the_bound_is_kept(self, samples):
        kept = CantelliPolicy(self.PRIOR, VariancePolicy(), samples=samples).samples
        assert kept == samples and type(kept) is int
        assert SAMPLE_CAP == 10**6

    def test_short_run_shape_and_cap(self):
        scn = builtin_scenarios()["norm"]
        sched = RiskSchedule.uniform(-500.0, 0.05, 10)
        feed = ScenarioFeed(scn, np.random.default_rng(0))
        sample_rng = np.random.default_rng(1)
        trace = run_stages(
            sched,
            feed,
            CantelliPolicy(self.PRIOR, VariancePolicy(), samples=2000),
            lambda t: sample_rng,
        )
        assert len(trace.records) == 10
        assert all(r.m <= r.n_units // 2 for r in trace.records)

    def test_requires_treated_outcome_retention(self):
        sched = RiskSchedule.uniform(-500.0, 0.05, 2)
        policy = CantelliPolicy(self.PRIOR, VariancePolicy(), samples=500)
        with pytest.raises(ValueError, match="treated outcomes"):
            run_stages(sched, NoTreatedOutcomesFeed(), policy)

    def test_zero_tolerance_stage_draws_no_samples(self):
        sched = RiskSchedule(-500.0, 0.05, (-500.0,) * 2, (0.0, 0.05))
        feed = ScenarioFeed(builtin_scenarios()["pte"], np.random.default_rng(0))
        drawn = []

        def streams(t):
            drawn.append(t)
            return np.random.default_rng(t)

        trace = run_stages(sched, feed, CantelliPolicy(self.PRIOR, VariancePolicy()), streams)
        assert trace.records[0].m == 0 and trace.records[0].branch == BRANCH_ZERO_TOL
        assert drawn == [2]

    def test_capped_summary_golden(self):
        # Freezes the shard layout of the non-linear imputation: K = 2003
        # splits into uneven shards of 250 and 251 rows.
        policy = CantelliPolicy(
            self.PRIOR, VariancePolicy(), samples=2003, cost=CappedEffectCost(floor=-5.0)
        )
        summary = run_replications(
            policy, builtin_scenarios()["norm"], RiskSchedule.uniform(-500.0, 0.05, 10), 3, 4
        )
        got = json.dumps(summary.to_json_dict(), sort_keys=True, indent=2) + "\n"
        assert got == (GOLDEN / "golden_cantelli_capped_summary.json").read_text()

    def test_stage_costs_are_the_cost_the_policy_bounds(self):
        # Each stage's cost is the capped cost of its treated units, the
        # first m units that the replication's feed stream drew.
        scn, seed, floor = builtin_scenarios()["norm"], 1, -0.5
        policy = CantelliPolicy(
            self.PRIOR, VariancePolicy(), samples=500, cost=CappedEffectCost(floor=floor)
        )
        summary = run_replications(
            policy, scn, RiskSchedule.uniform(-500.0, 0.05, 10), 2, seed, keep_traces=True
        )
        columns = summary.traces
        for rep in range(2):
            rng = replication_stream(seed, rep, 0)
            for t in range(1, scn.T + 1):
                y0, y1 = generate_stage_outcomes(scn, t, rng)
                m = columns.m[rep, t - 1]
                capped = np.maximum(y1[:m] - y0[:m], floor).sum()
                assert columns.stage_cost[rep, t - 1] == capped
        assert columns.m.sum() > 0
        assert (columns.stage_cost >= floor * columns.m).all()

    def test_more_conservative_than_analytic_on_stage_one(self):
        scn = builtin_scenarios()["pte"]
        sched = RiskSchedule.uniform(-500.0, 0.05, 1)
        feed = ScenarioFeed(scn, np.random.default_rng(2))
        sample_rng = np.random.default_rng(3)
        trace = run_stages(
            sched,
            feed,
            CantelliPolicy(self.PRIOR, VariancePolicy(), samples=50_000),
            lambda t: sample_rng,
        )
        assert 0 <= trace.records[0].m <= 13
