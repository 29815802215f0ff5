"""Byte identity of the batch engine over a grid of studies.

Each line of ``data/golden_batch_digests.txt`` is a study's key and the
sha256 of its ``m``, ``branch``, ``stage_cost`` and ``cum_cost`` arrays and
its ``summary.json`` bytes. The grid crosses every builtin scenario with a
sum law, the analytic policy with known variances and Thompson at c = 1,
three schedules, two priors and two replication counts (one trimmed block,
and three stacked blocks). Regenerate the file only for a change that is
meant to move the outputs:

    PYTHONPATH=src python tests/test_batch_digests.py > tests/data/golden_batch_digests.txt
"""

import hashlib
import json
from itertools import product
from pathlib import Path

import numpy as np

from rampguard import AnalyticPolicy, ThompsonPolicy
from rampguard.posterior import GaussianPrior, VariancePolicy
from rampguard.replication import run_replications
from rampguard.scenarios import builtin_scenarios, has_sum_law
from rampguard.schedules import RiskSchedule, sinc_schedule
from rampguard.solver import BRANCHES

DIGESTS = Path(__file__).parent / "data" / "golden_batch_digests.txt"
SEED = 11

SCHEDULES = {
    "uniform": RiskSchedule.uniform(-500.0, 0.05, 10),
    "sinc": RiskSchedule(-500.0, 0.05, (-500.0,) * 10, sinc_schedule(0.05, 10)),
    # A zero-tolerance first stage, a stage at Delta_t = 1/2 (q = 0, a double
    # root) and thresholds close to zero, where few or no m pass.
    "tight": RiskSchedule(
        -50.0, 0.6, (-5.0, -10.0, -15.0, -20.0, -25.0, -30.0, -35.0, -40.0, -45.0, -50.0),
        (0.0, 0.5, 0.1, 0.05, 0.01, 0.005, 0.001, 0.001, 0.0005, 0.0),
    ),
}
PRIORS = {
    "flat": GaussianPrior((0.0, 0.0), (100.0, 100.0)),
    "harmful": GaussianPrior((0.0, -2.0), (0.05, 0.05)),
}
POLICIES = {
    "analytic": lambda prior: AnalyticPolicy(prior=prior, variance=VariancePolicy()),
    "thompson": lambda prior: ThompsonPolicy(c=1.0, prior=prior),
}
REPS = (100, 700)


def study_digests():
    """``(key, sha256 hex, traces)`` of every study of the grid, in file order."""
    scenarios = {name: s for name, s in builtin_scenarios().items() if has_sum_law(s)}
    grid = product(scenarios.items(), POLICIES.items(), SCHEDULES.items(), PRIORS.items(), REPS)
    for (name, scenario), (algo, make), (sched_name, schedule), (prior_name, prior), reps in grid:
        summary = run_replications(make(prior), scenario, schedule, reps, SEED, keep_traces=True)
        traces = summary.traces
        digest = hashlib.sha256()
        for column in (traces.m, traces.branch, traces.stage_cost, traces.cum_cost):
            digest.update(column.tobytes())
        written = json.dumps(summary.to_json_dict(), sort_keys=True, indent=2) + "\n"
        digest.update(written.encode())
        yield f"{name}/{algo}/{sched_name}/{prior_name}/{reps}", digest.hexdigest(), traces


def test_every_batch_study_keeps_its_digest():
    expected = [line.split() for line in DIGESTS.read_text().splitlines()]
    computed = list(study_digests())
    assert [key for key, *_ in computed] == [key for key, _ in expected]
    for (key, got, _), (_, want) in zip(computed, expected):
        assert got == want, f"first study whose outputs differ: {key}"
    # The analytic studies reach every solver branch.
    branches = {traces.labels[code] for key, _, traces in computed if "/analytic/" in key
                for code in np.unique(traces.branch)}
    assert branches == set(BRANCHES)


if __name__ == "__main__":
    for key, hexdigest, _ in study_digests():
        print(key, hexdigest)
