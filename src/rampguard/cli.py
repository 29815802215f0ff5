"""Command-line interface.

Three subcommands:

- ``run``: execute a replication study from flags and/or a JSON config and
  write ``schedule.csv``, ``summary.json`` and ``quantiles.csv``.
- ``reproduce``: run one of the bundled study presets (fig1a..fig1i,
  fig2a..fig2e) and write its quantile or ruin tables with a provenance
  header.
- ``next-stage``: operational single-step mode; feeds observed sums into a
  JSON state file and prints the next treated-group size.

Exit codes: 0 success (``--help`` too), 1 config error (a usage error such
as an unknown flag included), 2 invalid schedule, 3 runtime failure, 4
tolerance budget exhausted (next-stage only). The environment variable
``RAMPGUARD_THREADS`` bounds the worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any

# next-stage needs only these numpy-free modules; the studies import the
# simulator where they run, so an operator call never loads numpy.
from .posterior import (
    GaussianPrior,
    InsufficientDataError,
    SufficientStats,
    VariancePolicy,
    compute_posterior,
    update_stats,
)
from .schedules import (
    RiskSchedule,
    ScheduleError,
    schedule_from_config,
    validate_schedule,
)
from .solver import AnalyticPolicy, solve_ramp_size

if TYPE_CHECKING:
    from .replication import ReplicationSummary
    from .scenarios import Scenario

__all__ = ["main", "cmd_run", "cmd_reproduce", "cmd_next_stage"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SCHEDULE = 2
EXIT_RUNTIME = 3
EXIT_EXHAUSTED = 4

ALGORITHMS = ("rrc_analytic", "rrc_cantelli", "thompson")


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 1."""


def _fail(code: int, message: str) -> int:
    print(f"rampguard: {message}", file=sys.stderr)
    return code


def _load_json(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None


def _pair(values) -> tuple[float, float]:
    out = tuple(float(v) for v in values)
    if len(out) != 2:
        raise ConfigError(f"expected two values (control, treatment), got {values!r}")
    return out


def _variance_pair(flag: str, values) -> tuple[float, float]:
    """``_pair`` of outcome or prior variances, each finite and > 0."""
    out = _pair(values)
    if not all(map(_is_variance, out)):
        raise ConfigError(f"{flag} must be two finite numbers > 0, got {list(out)}")
    return out


def _count(name: str, value) -> int:
    """A replication or sample count: a whole number >= 1, checked before anything runs."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 1 or value % 1:
        raise ConfigError(f"{name} must be a whole number >= 1, got {value!r}")
    return int(value)


def _workers(explicit: "int | None") -> int:
    from .replication import resolve_workers

    try:
        return resolve_workers(explicit)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ----------------------------------------------------------------- run


@dataclass
class RunConfig:
    """Fully resolved inputs of one replication study."""

    scenario: Scenario
    algorithm: str
    schedule: RiskSchedule
    prior: GaussianPrior
    variance: VariancePolicy
    replications: int
    seed: int
    out_dir: str
    workers: int
    thompson_c: float
    thompson_cap: bool
    mc_samples: int


def _resolve_run_config(args: argparse.Namespace) -> RunConfig:
    from .scenarios import scenario_from_config

    cfg: dict[str, Any] = _load_json(args.config) if args.config else {}

    scenario_spec = args.scenario if args.scenario is not None else cfg.get("scenario")
    if scenario_spec is None:
        raise ConfigError("a scenario is required (--scenario or config 'scenario')")
    try:
        scenario = scenario_from_config(scenario_spec)
    except KeyError as exc:
        raise ConfigError(str(exc.args[0])) from None

    algorithm = args.algo if args.algo is not None else cfg.get("algorithm", "rrc_analytic")
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")

    budget = args.budget if args.budget is not None else cfg.get("budget")
    delta = args.delta if args.delta is not None else cfg.get("delta")
    if budget is None or delta is None:
        raise ConfigError("budget and delta are required (flags or config)")

    sched_cfg = dict(cfg.get("schedule", {}))
    sched_cfg["budget"] = float(budget)
    sched_cfg["delta"] = float(delta)
    if args.T is not None:
        sched_cfg["stage_tolerances"] = {"type": "uniform", "T": int(args.T)}
        sched_cfg.pop("stage_budgets", None)
    elif "stage_tolerances" not in sched_cfg:
        sched_cfg["stage_tolerances"] = {"type": "uniform", "T": scenario.T}
    try:
        schedule = schedule_from_config(sched_cfg)
    except ScheduleError as exc:
        raise ConfigError(f"bad schedule config: {exc}") from None

    prior_cfg = cfg.get("prior", {})
    mu0 = _pair(args.prior_mu0 if args.prior_mu0 else prior_cfg.get("mu0", (0.0, 0.0)))
    sigma0 = args.prior_sigma0_sq or prior_cfg.get("sigma0_sq", (100.0, 100.0))
    sigma0 = _variance_pair("--prior-sigma0-sq", sigma0)
    prior = GaussianPrior(mu0=mu0, sigma0_sq=sigma0)

    mode = args.variance_mode or cfg.get("variance_mode", "known")
    if mode not in ("known", "estimated"):
        raise ConfigError(f"variance mode must be 'known' or 'estimated', got {mode!r}")
    known = args.sigma_sq or cfg.get("sigma_sq")
    known = _variance_pair("--sigma-sq", known) if known else None
    pretrial = args.pretrial_sigma_sq or cfg.get("pretrial_sigma_sq")
    pretrial = _variance_pair("--pretrial-sigma-sq", pretrial) if pretrial else None
    variance = VariancePolicy(mode=mode, values=known, pretrial=pretrial)
    if mode == "estimated" and pretrial is None:
        raise ConfigError("estimated variance mode requires --pretrial-sigma-sq")

    thompson_cfg = cfg.get("thompson", {})
    mc_cfg = cfg.get("mc", {})
    reps = args.reps if args.reps is not None else cfg.get("replications", 500)
    return RunConfig(
        scenario=scenario,
        algorithm=algorithm,
        schedule=schedule,
        prior=prior,
        variance=variance,
        replications=_count("replications", reps),
        seed=int(args.seed if args.seed is not None else cfg.get("seed", 0)),
        out_dir=args.out or cfg.get("out", "."),
        workers=_workers(args.workers),
        thompson_c=float(thompson_cfg.get("c", 1.0)),
        thompson_cap=bool(thompson_cfg.get("cap_at_half", False)),
        mc_samples=_count("mc.samples", mc_cfg.get("samples", 10_000)),
    )


def _policy_for(config: RunConfig):
    if config.algorithm == "rrc_analytic":
        return AnalyticPolicy(prior=config.prior, variance=config.variance)
    if config.algorithm == "rrc_cantelli":
        from .mc_solver import CantelliPolicy

        return CantelliPolicy(
            prior=config.prior, variance=config.variance, samples=config.mc_samples
        )
    from .thompson import ThompsonPolicy

    return ThompsonPolicy(
        c=config.thompson_c,
        prior=config.prior,
        sigma_sq=config.variance.values,
        cap_at_half=config.thompson_cap,
    )


def _write_summary_json(path: str, summary: ReplicationSummary) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_schedule_csv(path: str, summary: ReplicationSummary) -> None:
    import numpy as np

    assert summary.traces is not None
    c = summary.traces.columns
    rep, stage = np.divmod(np.arange(c.m.size), c.m.shape[1])
    branch = np.array(c.labels, dtype=object)[c.branch]
    columns = (rep, stage + 1, c.m, branch, c.stage_cost, c.cum_cost)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replication", "stage", "m", "branch", "stage_cost", "cum_cost"])
        writer.writerows(zip(*(np.ravel(col).tolist() for col in columns)))


def _write_table(path: str, header_lines, columns, rows) -> None:
    """CSV file with ``# `` provenance lines, a column row and the data rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _write_quantiles_csv(path: str, summary: ReplicationSummary, header_lines=()) -> None:
    _write_table(
        path,
        header_lines,
        ["stage", "m_q25", "m_q50", "m_q75", "surplus_q25", "surplus_q50", "surplus_q75"],
        (
            [t + 1, *summary.m_quantiles[:, t], *summary.surplus_quantiles[:, t]]
            for t in range(summary.stages)
        ),
    )


def cmd_run(args: argparse.Namespace) -> int:
    from .replication import run_replications

    config = _resolve_run_config(args)
    report = validate_schedule(config.schedule)
    if not report.valid:
        return _fail(EXIT_SCHEDULE, f"schedule failed validation: {report}")

    summary = run_replications(
        _policy_for(config),
        config.scenario,
        config.schedule,
        config.replications,
        config.seed,
        workers=config.workers,
        keep_traces=True,
    )
    os.makedirs(config.out_dir, exist_ok=True)
    _write_schedule_csv(os.path.join(config.out_dir, "schedule.csv"), summary)
    _write_summary_json(os.path.join(config.out_dir, "summary.json"), summary)
    _write_quantiles_csv(os.path.join(config.out_dir, "quantiles.csv"), summary)
    print(
        f"wrote {config.out_dir}/schedule.csv, summary.json, quantiles.csv "
        f"(ruin_rate={summary.ruin_rate:.4f}, reps={summary.replications})"
    )
    return EXIT_OK


# ----------------------------------------------------------- reproduce


def _noninformative_prior() -> GaussianPrior:
    return GaussianPrior(mu0=(0.0, 0.0), sigma0_sq=(100.0, 100.0))


def _bandit_prior() -> GaussianPrior:
    # Conservative bandit initialisation: treatment believed harmful.
    return GaussianPrior(mu0=(0.0, -2.0), sigma0_sq=(0.05, 0.05))


def _ramp_jobs(scenario_name: str, configs) -> list[dict[str, Any]]:
    jobs = []
    for label, schedule in configs:
        jobs.append(
            {
                "label": label,
                "scenario": scenario_name,
                "algorithm": "rrc_analytic",
                "schedule": schedule,
                "policy": AnalyticPolicy(prior=_noninformative_prior(), variance=VariancePolicy()),
            }
        )
    return jobs


def _thompson_jobs(scenario_name: str, budget: float, c_values) -> list[dict[str, Any]]:
    from .scenarios import builtin_scenarios
    from .thompson import ThompsonPolicy

    scenario = builtin_scenarios()[scenario_name]
    schedule = RiskSchedule.uniform(budget, 0.01, scenario.T)
    jobs = []
    for c in c_values:
        jobs.append(
            {
                "label": f"c{c:g}",
                "scenario": scenario_name,
                "algorithm": "thompson",
                "schedule": schedule,
                "policy": ThompsonPolicy(c=c, prior=_bandit_prior()),
            }
        )
    return jobs


def _ration_budget_schedule() -> RiskSchedule:
    budgets = tuple(-400.0 if t <= 5 else -500.0 for t in range(1, 11))
    return RiskSchedule.uniform(-500.0, 0.01, 10, stage_budgets=budgets)


def _ration_tolerance_schedule() -> RiskSchedule:
    tolerances = tuple(0.0001 if t <= 5 else 0.0019 for t in range(1, 11))
    return RiskSchedule(-500.0, 0.01, (-500.0,) * 10, tolerances)


def _linkedin_ration_schedule() -> RiskSchedule:
    # Stage thresholds -400 through stage 4, then the full budget.
    budgets = tuple(-400.0 if t <= 4 else -1500.0 for t in range(1, 7))
    return RiskSchedule.uniform(-1500.0, 0.01, 6, stage_budgets=budgets)


def _figure_jobs(figure: str) -> tuple[list[dict[str, Any]], int]:
    """Job list and default replication count for one bundled figure."""
    pairs_std = [
        ("B-500_d0.05", RiskSchedule.uniform(-500.0, 0.05, 10)),
        ("B-500_d0.01", RiskSchedule.uniform(-500.0, 0.01, 10)),
    ]
    if figure in ("fig1a",):
        return _ramp_jobs("pte", pairs_std), 500
    if figure in ("fig1b", "fig1g"):
        return _ramp_jobs("nte", pairs_std), 500
    if figure in ("fig1c", "fig1h"):
        configs = pairs_std + [
            ("ration_budget", _ration_budget_schedule()),
            ("ration_tolerance", _ration_tolerance_schedule()),
        ]
        return _ramp_jobs("npte", configs), 500
    if figure == "fig1d":
        configs = [
            ("B-1500_d0.01", RiskSchedule.uniform(-1500.0, 0.01, 6)),
            ("ration_budget_linkedin", _linkedin_ration_schedule()),
        ]
        return _ramp_jobs("linkedin", configs), 500
    if figure in ("fig1e", "fig1i"):
        return _thompson_jobs("npte", -500.0, (0.25, 1.0, 4.0)), 500
    if figure == "fig1f":
        return _thompson_jobs("linkedin", -1500.0, (0.25, 1.0, 4.0)), 500
    if figure in ("fig2a", "fig2b", "fig2c", "fig2d", "fig2e"):
        scenario = {"fig2a": "norm", "fig2b": "corr", "fig2c": "bern", "fig2d": "fat", "fig2e": "dec"}[
            figure
        ]
        jobs = _ramp_jobs(scenario, [("B-500_d0.05", RiskSchedule.uniform(-500.0, 0.05, 10))])
        return jobs, 5000
    raise ConfigError(f"unknown figure id {figure!r}; known: fig1a..fig1i, fig2a..fig2e")


def cmd_reproduce(args: argparse.Namespace) -> int:
    from .replication import run_replications
    from .scenarios import builtin_scenarios

    figure = args.figure
    jobs, default_reps = _figure_jobs(figure)
    reps = _count("--reps", args.reps) if args.reps is not None else default_reps
    seed = int(args.seed) if args.seed is not None else 0
    workers = _workers(args.workers)
    out_dir = os.path.join(args.out or ".", figure)
    os.makedirs(out_dir, exist_ok=True)

    provenance: dict[str, Any] = {"figure": figure, "seed": seed, "replications": reps, "runs": []}
    if figure == "fig1d":
        provenance["actual_series"] = (
            "the production ramp overlay is not bundled; supply it as a user file"
        )

    for job in jobs:
        scenario = builtin_scenarios()[job["scenario"]]
        schedule: RiskSchedule = job["schedule"]
        summary = run_replications(job["policy"], scenario, schedule, reps, seed, workers=workers)
        header = [
            f"figure={figure} label={job['label']} scenario={job['scenario']} "
            f"algo={job['algorithm']} budget={schedule.budget} delta={schedule.delta} "
            f"T={schedule.num_stages} reps={reps} seed={seed}"
        ]
        _write_quantiles_csv(
            os.path.join(out_dir, f"quantiles_{job['label']}.csv"), summary, header
        )
        run_info: dict[str, Any] = {
            "label": job["label"],
            "scenario": job["scenario"],
            "algorithm": job["algorithm"],
            "schedule": schedule.to_config(),
            "ruin_rate": summary.ruin_rate,
        }
        if figure.startswith("fig2"):
            _write_table(
                os.path.join(out_dir, "spend.csv"),
                header,
                ["replication", "final_cost", "ruined"],
                (
                    [rep, float(cost), int(cost <= schedule.budget)]
                    for rep, cost in enumerate(summary.final_costs)
                ),
            )
            _write_table(
                os.path.join(out_dir, "ruin.csv"),
                header,
                ["scenario", "ruin_rate", "half_width", "replications", "delta"],
                [
                    [
                        job["scenario"],
                        summary.ruin_rate,
                        summary.ruin_half_width,
                        reps,
                        schedule.delta,
                    ]
                ],
            )
        provenance["runs"].append(run_info)

    with open(os.path.join(out_dir, "provenance.json"), "w", encoding="utf-8") as fh:
        json.dump(provenance, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {out_dir}/ ({len(jobs)} run(s), reps={reps}, seed={seed})")
    return EXIT_OK


# ---------------------------------------------------------- next-stage


# Relative slack of the check sumsq >= sum**2 / count on observed sums.
_SUMSQ_SLACK = 1e-12


def _stats_to_json(stats: SufficientStats) -> dict[str, Any]:
    # Version-1 layout: per-arm pairs whose unobservable halves stay 0.
    return {
        "treated_sums": [0.0, stats.sum_treated],
        "control_sums": [stats.sum_control, 0.0],
        "counts": list(stats.counts),
        "treated_sumsq": stats.treated_sumsq,
        "control_sumsq": stats.control_sumsq,
    }


def _stats_from_json(d: dict[str, Any]) -> SufficientStats:
    return SufficientStats(
        sum_treated=float(d["treated_sums"][1]),
        sum_control=float(d["control_sums"][0]),
        counts=tuple(int(v) for v in d["counts"]),
        treated_sumsq=float(d["treated_sumsq"]),
        control_sumsq=float(d["control_sumsq"]),
    )


def _fresh_state(args: argparse.Namespace) -> dict[str, Any]:
    if args.budget is None or args.delta is None:
        raise ConfigError(
            "a fresh state needs --budget and --delta (no state file found)"
        )
    mode = args.variance_mode or "known"
    if mode == "known" and not args.sigma_sq:
        raise ConfigError("known variance mode needs --sigma-sq v0 v1")
    if mode == "estimated" and not args.pretrial_sigma_sq:
        raise ConfigError("estimated variance mode needs --pretrial-sigma-sq v0 v1")
    prior_mu = _pair(args.prior_mu0) if args.prior_mu0 else (0.0, 0.0)
    prior_s2 = _pair(args.prior_sigma0_sq) if args.prior_sigma0_sq else (100.0, 100.0)
    return {
        "version": 1,
        "budget": float(args.budget),
        "delta": float(args.delta),
        "prior": {"mu0": list(prior_mu), "sigma0_sq": list(prior_s2)},
        "variance_mode": mode,
        "sigma_sq": list(_pair(args.sigma_sq)) if args.sigma_sq else None,
        "pretrial_sigma_sq": (
            list(_pair(args.pretrial_sigma_sq)) if args.pretrial_sigma_sq else None
        ),
        "stage": 1,
        "tolerance_product": 1.0,
        "consumed": {"stage_budgets": [], "stage_tolerances": []},
        "stats": _stats_to_json(SufficientStats()),
        "pending": None,
        "last_call": None,
    }


def _observed_sums(args: argparse.Namespace, pending: dict[str, Any], mode: str):
    """The pending stage's observations, refused where they void the guarantee.

    Non-finite values, nonzero sums for an arm without units and sums of
    squares below ``sum**2 / count`` cannot come from real outcomes; in
    estimated mode, missing sums of squares would read as zero variance.
    """
    if args.treated_sum is None or args.control_sum is None:
        raise ConfigError(
            f"stage {pending['stage']} ran with m={pending['m']}; provide "
            "--treated-sum and --control-sum before the next decision"
        )
    if mode == "estimated" and (args.treated_sumsq is None or args.control_sumsq is None):
        raise ConfigError(
            "estimated variance mode needs --treated-sumsq and --control-sumsq "
            "with the observed sums"
        )
    m, n = int(pending["m"]), int(pending["n"])
    for arm, count, total, sumsq in (
        ("treated", m, args.treated_sum, args.treated_sumsq),
        ("control", n - m, args.control_sum, args.control_sumsq),
    ):
        given = [v for v in (total, sumsq) if v is not None]
        if not all(math.isfinite(v) for v in given):
            raise ConfigError(f"the {arm} sums must be finite, got {given}")
        if count == 0 and any(v != 0.0 for v in given):
            raise ConfigError(f"the {arm} group was empty, so its sums must be 0, got {given}")
        if sumsq is not None and count > 0:
            floor = total * total / count
            if sumsq < floor * (1.0 - _SUMSQ_SLACK):
                raise ConfigError(
                    f"--{arm}-sumsq {sumsq!r} is below {arm}-sum**2 / {count} = {floor!r}"
                )
    return args.treated_sum, args.control_sum, args.treated_sumsq or 0.0, args.control_sumsq or 0.0


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_variance(v) -> bool:
    return _is_number(v) and math.isfinite(v) and v > 0.0


def _list_of(check, length=None):
    return lambda v: (
        isinstance(v, list) and length in (None, len(v)) and all(map(check, v))
    )


_NUMBER = (_is_number, "a number")
_COUNT = (_is_count, "an integer")
_PAIR = (_list_of(_is_number, 2), "a list of two numbers")
_VARIANCES = (_list_of(_is_variance, 2), "a list of two finite numbers > 0")
_NUMBERS = (_list_of(_is_number), "a list of numbers")
_OBJECT = (lambda v: isinstance(v, dict), "an object")

# What next-stage reads from a version-1 state file: each key with the
# check of its value and what the check wants, or with its own keys.
_STATE_SCHEMA = {
    "budget": _NUMBER,
    "delta": _NUMBER,
    "prior": {"mu0": _PAIR, "sigma0_sq": _VARIANCES},
    "variance_mode": (lambda v: v in ("known", "estimated"), "'known' or 'estimated'"),
    "sigma_sq": _VARIANCES,
    "pretrial_sigma_sq": _VARIANCES,
    "stage": _COUNT,
    "consumed": {"stage_budgets": _NUMBERS, "stage_tolerances": _NUMBERS},
    "stats": {
        "treated_sums": _PAIR,
        "control_sums": _PAIR,
        "counts": (_list_of(_is_count, 2), "a list of two integers"),
        "treated_sumsq": _NUMBER,
        "control_sumsq": _NUMBER,
    },
    "pending": {"stage": _COUNT, "m": _COUNT, "n": _COUNT},
    "last_call": {"inputs": _OBJECT, "outputs": _OBJECT},
}
# Keys that may be null or absent.
_NULLABLE_STATE_KEYS = {"sigma_sq", "pretrial_sigma_sq", "pending", "last_call"}


def _check_state_values(path: str, state: dict, schema: dict, prefix: str = "") -> None:
    for key, spec in schema.items():
        name = prefix + key
        value = state.get(key)
        if value is None and name in _NULLABLE_STATE_KEYS:
            continue
        if key not in state:
            raise ConfigError(f"state file {path} lacks {name!r}")
        if isinstance(spec, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"state file {path}: {name} must be an object, got {value!r}")
            _check_state_values(path, value, spec, name + ".")
        elif not spec[0](value):
            raise ConfigError(f"state file {path}: {name} must be {spec[1]}, got {value!r}")


def _check_state(path: str, state: Any) -> None:
    """Refuse a state file this version cannot read, naming the first bad key."""
    if not isinstance(state, dict):
        raise ConfigError(f"state file {path} does not hold a JSON object")
    if state.get("version") != 1:
        raise ConfigError(
            f"state file {path} has version {state.get('version')!r}; this release reads version 1"
        )
    _check_state_values(path, state, _STATE_SCHEMA)
    if state["variance_mode"] == "known" and state.get("sigma_sq") is None:
        raise ConfigError(f"state file {path}: known variance mode needs sigma_sq")


def _check_flags(args: argparse.Namespace) -> None:
    """Refuse flag values no stage can use, before the state is read."""
    if args.n_next is not None and args.n_next < 1:
        raise ConfigError(f"--n-next must be >= 1, got {args.n_next}")
    for flag in ("--sigma-sq", "--pretrial-sigma-sq", "--prior-sigma0-sq"):
        values = getattr(args, flag[2:].replace("-", "_"))
        if values is not None:
            _variance_pair(flag, values)


def cmd_next_stage(args: argparse.Namespace) -> int:
    _check_flags(args)
    if os.path.exists(args.state):
        with open(args.state, "r", encoding="utf-8") as fh:
            try:
                state = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"state file {args.state} is not valid JSON: {exc}") from None
        _check_state(args.state, state)
    else:
        state = _fresh_state(args)
    consumed = state["consumed"]
    schedule = RiskSchedule(
        state["budget"], state["delta"], consumed["stage_budgets"], consumed["stage_tolerances"]
    )

    inputs = {
        "n_next": args.n_next,
        "delta_next": args.delta_next,
        "b_next": args.b_next,
        "treated_sum": args.treated_sum,
        "control_sum": args.control_sum,
        "treated_sumsq": args.treated_sumsq,
        "control_sumsq": args.control_sumsq,
    }
    last = state.get("last_call")
    if last is not None and last["inputs"] == inputs:
        # Idempotent re-run: same inputs reproduce the same outputs with no
        # state advance.
        outputs = last["outputs"]
        if outputs.get("terminal"):
            print("tolerance budget exhausted; no further stages can run")
            return EXIT_EXHAUSTED
        print(json.dumps(outputs, sort_keys=True))
        return EXIT_OK

    stats = _stats_from_json(state["stats"])
    pending = state.get("pending")
    if pending is not None:
        stats = update_stats(
            stats,
            int(pending["m"]),
            int(pending["n"]),
            *_observed_sums(args, pending, state["variance_mode"]),
        )
        state["stats"] = _stats_to_json(stats)
        state["pending"] = None
    elif args.treated_sum is not None or args.control_sum is not None:
        raise ConfigError("no stage is awaiting observations; drop the observed sums")

    # The stage is admitted by the rule that validates a whole schedule.
    # Once delta is spent, every call that names no stage it still admits
    # (a zero-tolerance stage it does) is answered as exhausted.
    try:
        if args.n_next is None or args.delta_next is None or args.b_next is None:
            raise ConfigError("--n-next, --delta-next and --b-next are required")
        next_schedule = schedule.extended(args.b_next, args.delta_next)
    except (ConfigError, ScheduleError):
        if not schedule.exhausted():
            raise
        state["last_call"] = {"inputs": inputs, "outputs": {"terminal": True}}
        _write_state(args.state, state)
        print("tolerance budget exhausted; no further stages can run")
        return EXIT_EXHAUSTED
    n_next = int(args.n_next)

    prior = GaussianPrior(
        mu0=_pair(state["prior"]["mu0"]), sigma0_sq=_pair(state["prior"]["sigma0_sq"])
    )
    policy = VariancePolicy(
        mode=state["variance_mode"],
        values=_pair(state["sigma_sq"]) if state.get("sigma_sq") else None,
        pretrial=_pair(state["pretrial_sigma_sq"]) if state.get("pretrial_sigma_sq") else None,
    )
    variance = policy.resolve(stats, None)
    posterior = compute_posterior(prior, variance, stats)
    decision = solve_ramp_size(
        posterior,
        variance,
        M1_prev=stats.counts[1],
        S_T1_prev=stats.sum_treated,
        b_t=next_schedule.stage_budgets[-1],
        Delta_t=next_schedule.stage_tolerances[-1],
        N_t=n_next,
    )

    stage = int(state["stage"])
    outputs = {
        "stage": stage,
        "m_next": decision.m,
        "p_next": decision.assignment_probability,
        "branch": decision.branch,
    }
    state["pending"] = {"stage": stage, "m": decision.m, "n": n_next}
    state["consumed"] = {
        "stage_budgets": list(next_schedule.stage_budgets),
        "stage_tolerances": list(next_schedule.stage_tolerances),
    }
    state["tolerance_product"] = next_schedule.tolerance_product()
    state["stage"] = stage + 1
    state["last_call"] = {"inputs": inputs, "outputs": outputs}
    _write_state(args.state, state)
    print(json.dumps(outputs, sort_keys=True))
    return EXIT_OK


def _write_state(path: str, state: dict[str, Any]) -> None:
    """Replace the state file atomically: a crash leaves the old or the new one."""
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)), prefix=".rampguard-state-"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(state, fh, sort_keys=True, indent=2)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# --------------------------------------------------------------- main


# Built once per process: building costs more than a whole next-stage call.
@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rampguard",
        description="Budget-constrained ramp scheduling and replication studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a replication study and write result tables")
    run.add_argument("--config", help="JSON config file; flags override its entries")
    run.add_argument("--scenario", help="scenario name from the built-in registry")
    run.add_argument("--algo", choices=ALGORITHMS, help="ramp algorithm")
    run.add_argument("--budget", type=float, help="total budget B (negative)")
    run.add_argument("--delta", type=float, help="overall ruin tolerance in [0, 1)")
    run.add_argument("--T", type=int, help="stage count for a uniform tolerance split")
    run.add_argument("--reps", type=int, help="number of replications")
    run.add_argument("--seed", type=int, help="top-level seed (default 0)")
    run.add_argument("--out", help="output directory (default .)")
    run.add_argument("--workers", type=int, help="worker processes (default RAMPGUARD_THREADS)")
    run.add_argument("--variance-mode", choices=("known", "estimated"))
    run.add_argument("--sigma-sq", nargs=2, type=float, metavar=("V0", "V1"))
    run.add_argument("--pretrial-sigma-sq", nargs=2, type=float, metavar=("V0", "V1"))
    run.add_argument("--prior-mu0", nargs=2, type=float, metavar=("M0", "M1"))
    run.add_argument("--prior-sigma0-sq", nargs=2, type=float, metavar=("S0", "S1"))
    run.set_defaults(func=cmd_run)

    rep = sub.add_parser("reproduce", help="run a bundled study preset")
    rep.add_argument("figure", help="preset id: fig1a..fig1i or fig2a..fig2e")
    rep.add_argument("--out", help="output directory (default .)")
    rep.add_argument("--reps", type=int, help="override the preset replication count")
    rep.add_argument("--seed", type=int, help="seed (default 0)")
    rep.add_argument("--workers", type=int)
    rep.set_defaults(func=cmd_reproduce)

    nxt = sub.add_parser(
        "next-stage", help="operational single-step mode against a JSON state file"
    )
    nxt.add_argument("--state", required=True, help="state file path (created if absent)")
    nxt.add_argument("--budget", type=float, help="total budget (fresh state only)")
    nxt.add_argument("--delta", type=float, help="overall tolerance (fresh state only)")
    nxt.add_argument("--prior-mu0", nargs=2, type=float, metavar=("M0", "M1"))
    nxt.add_argument("--prior-sigma0-sq", nargs=2, type=float, metavar=("S0", "S1"))
    nxt.add_argument("--variance-mode", choices=("known", "estimated"))
    nxt.add_argument("--sigma-sq", nargs=2, type=float, metavar=("V0", "V1"))
    nxt.add_argument("--pretrial-sigma-sq", nargs=2, type=float, metavar=("V0", "V1"))
    nxt.add_argument("--n-next", type=int, help="incoming population of the next stage")
    nxt.add_argument("--delta-next", type=float, help="tolerance of the next stage")
    nxt.add_argument("--b-next", type=float, help="stage budget of the next stage")
    nxt.add_argument("--treated-sum", type=float, help="observed treated-outcome sum")
    nxt.add_argument("--control-sum", type=float, help="observed control-outcome sum")
    nxt.add_argument("--treated-sumsq", type=float, help="observed treated sum of squares")
    nxt.add_argument("--control-sumsq", type=float, help="observed control sum of squares")
    nxt.set_defaults(func=cmd_next_stage)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of an invalid schedule.
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except ScheduleError as exc:
        return _fail(EXIT_SCHEDULE, str(exc))
    except InsufficientDataError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except (OSError, RuntimeError, ValueError) as exc:
        return _fail(EXIT_RUNTIME, f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
