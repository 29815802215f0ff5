"""Byte identity of the per-unit engine over a grid of studies.

Each line of ``data/golden_unit_digests.txt`` is a study's key and the
sha256 of its ``m``, ``branch``, ``stage_cost`` and ``cum_cost`` arrays and
its ``summary.json`` bytes. Every study takes the per-unit engine: the
analytic policy with known variances on a scenario without a sum law, the
analytic policy with estimated variances, Thompson on ``fat`` and a
``ThompsonPolicy`` subclass on ``npte``, and the linear and capped Cantelli
policies. Each runs under one schedule with a flat and an informative prior.
Regenerate the file only for a change that is meant to move the outputs:

    PYTHONPATH=src python tests/test_unit_digests.py > tests/data/golden_unit_digests.txt
"""

import hashlib
import json
from pathlib import Path

from rampguard import AnalyticPolicy, CantelliPolicy, ThompsonPolicy
from rampguard.mc_solver import CappedEffectCost, TreatmentEffectCost
from rampguard.posterior import GaussianPrior, VariancePolicy
from rampguard.replication import _takes_batch_engine, run_replications
from rampguard.scenarios import builtin_scenarios
from rampguard.schedules import RiskSchedule

DIGESTS = Path(__file__).parent / "data" / "golden_unit_digests.txt"
SEED = 5
REPS = 12
SCHEDULE = RiskSchedule.uniform(-500.0, 0.05, 10)
PRIORS = {
    "flat": GaussianPrior((0.0, 0.0), (100.0, 100.0)),
    "informative": GaussianPrior((0.0, -1.0), (0.5, 0.5)),
}
ESTIMATED = VariancePolicy("estimated", pretrial=(10.0, 10.0))


class SubclassedThompson(ThompsonPolicy):
    """A subclass keeps the per-unit engine."""


STUDIES = {
    "fat/analytic-known": lambda p: AnalyticPolicy(prior=p, variance=VariancePolicy()),
    "norm/analytic-estimated": lambda p: AnalyticPolicy(prior=p, variance=ESTIMATED),
    "corr/analytic-estimated": lambda p: AnalyticPolicy(prior=p, variance=ESTIMATED),
    "bern/analytic-estimated": lambda p: AnalyticPolicy(prior=p, variance=ESTIMATED),
    "fat/thompson": lambda p: ThompsonPolicy(c=1.0, prior=p),
    "npte/thompson-subclass": lambda p: SubclassedThompson(c=1.0, prior=p),
    "norm/cantelli-linear": lambda p: CantelliPolicy(
        p, VariancePolicy(), samples=200, cost=TreatmentEffectCost()
    ),
    "norm/cantelli-capped": lambda p: CantelliPolicy(
        p, VariancePolicy(), samples=200, cost=CappedEffectCost(-5.0)
    ),
}


def study_digests():
    """``(key, sha256 hex)`` of every study of the grid, in file order."""
    scenarios = builtin_scenarios()
    for study, make in STUDIES.items():
        scenario = scenarios[study.split("/")[0]]
        for prior_name, prior in PRIORS.items():
            policy = make(prior)
            assert not _takes_batch_engine(policy, scenario)
            summary = run_replications(policy, scenario, SCHEDULE, REPS, SEED, keep_traces=True)
            traces = summary.traces
            digest = hashlib.sha256()
            for column in (traces.m, traces.branch, traces.stage_cost, traces.cum_cost):
                digest.update(column.tobytes())
            written = json.dumps(summary.to_json_dict(), sort_keys=True, indent=2) + "\n"
            digest.update(written.encode())
            yield f"{study}/{prior_name}", digest.hexdigest()


def test_every_unit_study_keeps_its_digest():
    expected = [line.split() for line in DIGESTS.read_text().splitlines()]
    computed = list(study_digests())
    assert [key for key, _ in computed] == [key for key, _ in expected]
    for (key, got), (_, want) in zip(computed, expected):
        assert got == want, f"first study whose outputs differ: {key}"


if __name__ == "__main__":
    for key, hexdigest in study_digests():
        print(key, hexdigest)
