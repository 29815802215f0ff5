"""Walk through one adaptive rollout, stage by stage.

A feature with a genuinely positive effect is released to ten waves of 500
users under a total cost budget of -500 and a 5% ruin tolerance. Watch the
solver start cautiously (the prior admits the possibility of a harmful
feature), then jump to the half-population cap once the data rules that
out.
"""

import numpy as np

from rampguard import (
    AnalyticPolicy,
    GaussianPrior,
    OutcomeVariance,
    RiskSchedule,
    ScenarioFeed,
    VariancePolicy,
    builtin_scenarios,
    compute_posterior,
    run_stages,
)

prior = GaussianPrior(mu0=(0.0, 0.0), sigma0_sq=(100.0, 100.0))
schedule = RiskSchedule.uniform(budget=-500.0, delta=0.05, T=10)
scenario = builtin_scenarios()["pte"]
feed = ScenarioFeed(scenario, np.random.default_rng(7))

trace = run_stages(schedule, feed, AnalyticPolicy(prior, VariancePolicy()))
# Posterior after every observation, under the last stage's known variances.
final = compute_posterior(
    prior, OutcomeVariance(feed.true_variance(len(trace.records))), trace.final_stats
)
# The loop ran min(schedule, feed) stages; the budget and the ruin rule are the schedule's.
final_cost = trace.records[-1].cum_cost
surplus = final_cost - schedule.budget
ruined = final_cost <= schedule.budget

print(f"budget {schedule.budget:+.0f}, tolerance {schedule.delta:.0%}, "
      f"per-stage tolerance {schedule.stage_tolerances[0]:.4%}")
print()
print(f"{'stage':>5} {'treated':>8} {'branch':>15} {'stage cost':>11} {'cum cost':>9}")
for r in trace.records:
    print(f"{r.stage:>5} {r.m:>8} {r.branch:>15} {r.stage_cost:>11.1f} {r.cum_cost:>9.1f}")
print()
print(f"ran {len(trace.records)} stages = min(schedule {schedule.num_stages}, "
      f"feed {feed.num_stages})")
print(f"final cumulative cost {final_cost:+.1f} -> budget surplus "
      f"{surplus:+.1f} ({'ruined' if ruined else 'budget respected'})")
print(f"posterior effect estimate: "
      f"{final.mu_p[1] - final.mu_p[0]:+.3f}")
