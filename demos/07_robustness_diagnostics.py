"""When does the Gaussian-based solver stay safe off-model?

The solver remains conservative when (a) the prior does not flatter the
feature at the first stage, (b) the true effect never drops below the
history-weighted effect of already-treated units, and (c) the plug-in
variances do not understate the truth. The diagnostics evaluate these with
the simulator's knowledge of the true moments, from the treated counts of
one rollout here; the same call takes a whole study's ``(K, T)`` counts.

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
    m = np.array([r.m for r in trace.records])
    checks = robustness_diagnostics(scenario, m, prior, (10.0, 10.0))
    treated = [int(i) for i in np.flatnonzero(m)]
    print(f"\nscenario {name}: stages with treated units = {[i + 1 for i in treated]}")
    print(f"{'stage':>5} {'m':>5} {'effect>=hist':>13} {'var ok':>7} {'verdict':>8}")
    for i in treated:
        nondec = str(checks.effect_nondecreasing[i]) if checks.has_history[i] else "-"
        var_ok = checks.effect_variance_ok[i] & checks.control_variance_ok[i]
        print(f"{i + 1:>5} {m[i]:>5} {nondec:>13} {str(var_ok):>7} "
              f"{'pass' if checks.passed[i] else 'FLAG':>8}")
