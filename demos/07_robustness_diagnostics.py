"""When does the Gaussian-based solver stay safe off-model?

The solver remains conservative when (a) the prior does not flatter the
feature at the first stage, (b) the true effect never drops below the
history-weighted effect of already-treated units, and (c) the plug-in
variances do not understate the truth. The diagnostics evaluate these with
the simulator's knowledge of the true moments.

The fat-tailed scenario passes the history and variance checks at every
stage; only its first stage flags, because a neutral prior is optimistic
about a feature whose true effect is -1 (the conditions are sufficient,
not necessary, and its realized ruin stays near 1%). The decaying
scenario fails the effect check from stage 2 onward and really does
overshoot its tolerance.
"""

import numpy as np

from rampguard import (
    AnalyticPolicy,
    GaussianPrior,
    RiskSchedule,
    ScenarioFeed,
    VariancePolicy,
    builtin_scenarios,
    robustness_diagnostics,
    run_stages,
)

prior = GaussianPrior((0.0, 0.0), (100.0, 100.0))
schedule = RiskSchedule.uniform(-500.0, 0.05, 10)

for name in ("fat", "dec"):
    scenario = builtin_scenarios()[name]
    feed = ScenarioFeed(scenario, np.random.default_rng(3))
    trace = run_stages(schedule, feed, AnalyticPolicy(prior, VariancePolicy()))
    checks = robustness_diagnostics(scenario, trace, prior, (10.0, 10.0))
    print(f"\nscenario {name}: stages with treated units = {[c.stage for c in checks]}")
    print(f"{'stage':>5} {'m':>5} {'effect>=hist':>13} {'var ok':>7} {'verdict':>8}")
    for c in checks:
        nondec = "-" if c.effect_nondecreasing is None else str(c.effect_nondecreasing)
        var_ok = c.effect_variance_ok and c.control_variance_ok is not False
        print(f"{c.stage:>5} {c.m:>5} {nondec:>13} {str(var_ok):>7} "
              f"{'pass' if c.passed else 'FLAG':>8}")
