"""Risk-of-ruin constrained ramp scheduling for phased releases.

The package sizes treatment groups across release stages so that the
probability of the cumulative experiment cost breaching a fixed budget
stays below a chosen tolerance, and ships a replication simulator for
studying schedules under stock outcome models.
"""

from .diagnostics import StageDiagnostic, robustness_diagnostics
from .mc_solver import (
    CappedEffectCost,
    CostFunction,
    GaussianPosteriorSampler,
    PosteriorQuantities,
    TreatmentEffectCost,
    cost_from_config,
    CantelliPolicy,
    estimate_posterior_quantities,
    solve_ramp_size_cantelli,
)
from .normal import normal_cdf, normal_pdf, normal_quantile
from .posterior import (
    GaussianPrior,
    InsufficientDataError,
    OutcomeVariance,
    PosteriorState,
    SufficientStats,
    VariancePolicy,
    compute_posterior,
    estimate_variance,
    init_posterior,
    update_stats,
)
from .replication import (
    CompactTrace,
    ReplicationSummary,
    replication_stream,
    resolve_workers,
    run_replications,
)
from .scenarios import (
    Scenario,
    ScenarioFeed,
    builtin_scenarios,
    generate_stage_outcomes,
    scenario_from_config,
)
from .schedules import (
    RiskSchedule,
    ScheduleError,
    ScheduleReport,
    schedule_from_config,
    sinc_gamma,
    sinc_schedule,
    uniform_tolerance,
    validate_schedule,
)
from .solver import (
    AnalyticPolicy,
    PredictiveMoments,
    QuadraticCoefficients,
    StageDecision,
    predictive_moments,
    quadratic_coefficients,
    solve_ramp_size,
)
from .thompson import ThompsonPolicy, thompson_assignment_probability
from .trace import (
    ExperimentTrace,
    Policy,
    Stage,
    StageFeed,
    StageOutcome,
    StageRecord,
    run_stages,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticPolicy",
    "CantelliPolicy",
    "CappedEffectCost",
    "CompactTrace",
    "CostFunction",
    "ExperimentTrace",
    "GaussianPosteriorSampler",
    "GaussianPrior",
    "InsufficientDataError",
    "OutcomeVariance",
    "Policy",
    "PosteriorQuantities",
    "PosteriorState",
    "PredictiveMoments",
    "QuadraticCoefficients",
    "ReplicationSummary",
    "RiskSchedule",
    "Scenario",
    "ScenarioFeed",
    "ScheduleError",
    "ScheduleReport",
    "Stage",
    "StageDecision",
    "StageDiagnostic",
    "StageFeed",
    "StageOutcome",
    "StageRecord",
    "SufficientStats",
    "ThompsonPolicy",
    "TreatmentEffectCost",
    "VariancePolicy",
    "builtin_scenarios",
    "compute_posterior",
    "cost_from_config",
    "estimate_posterior_quantities",
    "estimate_variance",
    "generate_stage_outcomes",
    "init_posterior",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "predictive_moments",
    "quadratic_coefficients",
    "replication_stream",
    "resolve_workers",
    "robustness_diagnostics",
    "run_replications",
    "run_stages",
    "scenario_from_config",
    "schedule_from_config",
    "sinc_gamma",
    "sinc_schedule",
    "solve_ramp_size",
    "solve_ramp_size_cantelli",
    "thompson_assignment_probability",
    "uniform_tolerance",
    "update_stats",
    "validate_schedule",
]
