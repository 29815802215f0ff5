"""Per-layer metrics from a traced run. Layers are the modules of
``src/rampguard/``; a span's layer is the first component of its name."""

from __future__ import annotations

from .harness import median, percentile
from .tracing import SpanSummary

BRANCHES = ("root_selected", "empty_valid_set", "cap_at_half", "no_real_root", "zero_tolerance")
LAYERS = (
    "scenarios", "solver", "normal", "posterior", "mc_solver",
    "thompson", "replication", "schedules", "cli",
)


def counting_hooks() -> dict:
    """Counters recorded at the span boundaries where the work happens."""

    def branch(tracer, args, kwargs, result):
        tracer.count(f"solver.branch.{result.branch}")

    def units(tracer, args, kwargs, result):
        feed, t = args[0], args[1]
        tracer.count("scenarios.units_drawn", 2 * feed.population(t))  # both potential outcomes

    def imputation(tracer, args, kwargs, result):
        sampler, cost, k = args[0], args[1], args[3]
        history = getattr(sampler, "m1_prev", 0)
        if history:
            per_sample = 1 if getattr(cost, "is_linear_effect", False) else history
            tracer.count("mc_solver.imputed_draws", k * per_sample)
        tracer.count("mc_solver.samples", result.sample_count)
        tracer.count("mc_solver.survivors", result.survivor_count)

    return {
        "solver.solve_ramp_size": branch,
        "scenarios.ScenarioFeed.run_stage": units,
        "mc_solver.estimate_posterior_quantities": imputation,
    }


def layer_metrics(s: SpanSummary, counters: dict, reps: int) -> dict:
    """name -> (value, unit). ``reps`` is the replications (or rollouts) traced."""
    def per_call_us(name, scale=1e6):
        d = s.durations.get(name)
        return median(d) * scale if d else 0.0

    def calls(name):
        return s.calls.get(name, 0)

    layer_self = s.layer_self()
    wall = s.root_total or 1.0
    out = {}
    for layer in LAYERS:
        out[f"{layer}.share"] = (layer_self.get(layer, 0.0) / wall, "share")

    units = counters.get("scenarios.units_drawn", 0.0)
    out["scenarios.run_stage_us"] = (per_call_us("scenarios.ScenarioFeed.run_stage"), "us")
    out["scenarios.units_drawn"] = (units, "count")
    out["scenarios.bytes_computed"] = (8.0 * units, "B")  # float64 per drawn outcome

    solve = s.durations.get("solver.solve_ramp_size", [])
    out["solver.solve_us"] = (per_call_us("solver.solve_ramp_size"), "us")
    out["solver.solve_us_p99"] = (percentile(solve, 99.0) * 1e6 if solve else 0.0, "us")
    out["solver.calls"] = (calls("solver.solve_ramp_size"), "count")
    for b in BRANCHES:
        out[f"solver.branch.{b}"] = (counters.get(f"solver.branch.{b}", 0.0), "count")
    out["normal.quantile_us"] = (per_call_us("normal.normal_quantile"), "us")
    out["normal.calls"] = (calls("normal.normal_quantile"), "count")

    out["posterior.compute_us"] = (per_call_us("posterior.compute_posterior"), "us")
    out["posterior.compute_calls"] = (calls("posterior.compute_posterior"), "count")
    out["posterior.update_us"] = (per_call_us("posterior.update_stats"), "us")
    out["posterior.resolve_us"] = (per_call_us("posterior.VariancePolicy.resolve"), "us")

    samples = counters.get("mc_solver.samples", 0.0)
    out["mc_solver.estimate_ms"] = (per_call_us("mc_solver.estimate_posterior_quantities", 1e3), "ms")
    out["mc_solver.imputed_draws"] = (counters.get("mc_solver.imputed_draws", 0.0), "count")
    out["mc_solver.survivor_ratio"] = (
        counters.get("mc_solver.survivors", 0.0) / samples if samples else 0.0, "ratio")
    out["mc_solver.solve_us"] = (per_call_us("mc_solver.solve_ramp_size_cantelli"), "us")

    out["thompson.assign_us"] = (per_call_us("thompson.thompson_assignment_probability"), "us")
    out["thompson.calls"] = (calls("thompson.thompson_assignment_probability"), "count")

    out["replication.self_us_per_rep"] = (
        s.self_total.get("replication.run_replications", 0.0) / reps * 1e6
        if calls("replication.run_replications") else 0.0, "us")

    out["schedules.validate_us"] = (per_call_us("schedules.validate_schedule"), "us")
    out["schedules.validate_calls"] = (calls("schedules.validate_schedule"), "count")

    cli_calls = calls("cli.main")
    out["cli.self_us"] = (
        s.self_total.get("cli.main", 0.0) / cli_calls * 1e6 if cli_calls else 0.0, "us")

    out["bench.traced_us_per_rep"] = (s.root_total / reps * 1e6, "us")
    out["bench.self_sum_us_per_rep"] = (sum(s.self_total.values()) / reps * 1e6, "us")
    return out
