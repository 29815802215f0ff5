"""Closed-form tail inversion versus the Monte-Carlo variance bound.

The analytic solver inverts an exact Gaussian tail; the sampling solver
only assumes finite variances and bounds the tail with a one-sided
variance inequality, which is much looser at small tolerances. The same
posterior therefore yields a much smaller ramp under the sampling solver,
and general per-unit costs (here: effects capped below) are its reason to
exist.
"""

import numpy as np

from rampguard import (
    CappedEffectCost,
    GaussianPosteriorSampler,
    GaussianPrior,
    OutcomeVariance,
    TreatmentEffectCost,
    estimate_posterior_quantities,
    init_posterior,
    solve_ramp_size,
    solve_ramp_size_cantelli,
)

prior = GaussianPrior((0.0, 0.0), (100.0, 100.0))
variance = OutcomeVariance((10.0, 10.0))
posterior = init_posterior(prior)
B = -500.0

print(f"{'Delta_t':>9} {'analytic m':>11} {'sampling m':>11}")
for delta_t in (0.05, 0.01, 0.005, 0.001):
    exact = solve_ramp_size(posterior, variance, 0, 0.0, B, delta_t, 500)
    sampler = GaussianPosteriorSampler(posterior, variance)
    q = estimate_posterior_quantities(
        sampler, TreatmentEffectCost(), B, 100_000, np.random.default_rng(1)
    )
    mc = solve_ramp_size_cantelli(q, B, delta_t, 500)
    print(f"{delta_t:>9} {exact.m:>11} {mc.m:>11}")

print("\nWith a floored per-unit cost (losses capped at -5), only the")
print("sampling solver applies; capping losses makes larger ramps safe:")
q_capped = estimate_posterior_quantities(
    GaussianPosteriorSampler(posterior, variance),
    CappedEffectCost(floor=-5.0),
    B,
    100_000,
    np.random.default_rng(2),
)
for delta_t in (0.05, 0.005):
    d = solve_ramp_size_cantelli(q_capped, B, delta_t, 500)
    print(f"  Delta_t={delta_t}: m = {d.m}")
