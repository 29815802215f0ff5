"""Risk-of-ruin constrained ramp scheduling for phased releases.

The package sizes treatment groups across release stages so that the
probability of the cumulative experiment cost breaching a fixed budget
stays below a chosen tolerance, and ships a replication simulator for
studying schedules under stock outcome models.

Importing the package loads no submodule: each name in ``__all__`` is
imported from its submodule on first access, so a caller that needs only
the closed-form solver never pays for numpy and the simulator. Import a
submodule itself (``import rampguard.replication``) to reach its other
names.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule with the names the package exports from it.
_EXPORTS = {
    "diagnostics": ("RobustnessChecks", "robustness_diagnostics"),
    "mc_solver": (
        "CantelliPolicy", "CappedEffectCost", "CostFunction", "GaussianPosteriorSampler",
        "PosteriorQuantities", "TreatmentEffectCost", "estimate_posterior_quantities",
        "solve_ramp_size_cantelli",
    ),
    "normal": ("normal_cdf", "normal_pdf", "normal_quantile"),
    "posterior": (
        "GaussianPrior", "InsufficientDataError", "NonFinitePosteriorError", "OutcomeVariance",
        "PosteriorState", "SufficientStats", "VariancePolicy", "compute_posterior",
        "estimate_variance", "init_posterior", "update_stats",
    ),
    "replication": (
        "CompactTrace", "ReplicationSummary", "resolve_workers", "run_replications",
    ),
    "scenarios": (
        "Scenario", "ScenarioFeed", "builtin_scenarios", "scenario_from_config",
    ),
    "schedules": (
        "RiskSchedule", "ScheduleError", "sinc_gamma", "sinc_schedule", "uniform_tolerance",
    ),
    "solver": (
        "AnalyticPolicy", "PredictiveMoments", "StageDecision", "quadratic_coefficients",
        "solve_ramp_size",
    ),
    "thompson": ("ThompsonPolicy", "thompson_assignment_probability"),
    "trace": (
        "ExperimentTrace", "Policy", "Stage", "StageFeed", "StageOutcome", "StageRecord",
        "run_stages",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
