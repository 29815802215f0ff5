"""Command-line interface.

Three subcommands:

- ``run``: execute a replication study from flags and/or a JSON config and
  write ``schedule.csv``, ``summary.json`` and ``quantiles.csv``.
- ``reproduce``: run one of the bundled study presets (fig1a..fig1i,
  fig2a..fig2e), each a list of labelled ``run`` configs in ``_PRESETS``,
  and write its quantile or ruin tables with a provenance header.
- ``next-stage``: operational single-step mode; feeds observed sums into a
  JSON state file and prints the next treated-group size. The file (version
  2) keeps each stage as given: its budget, tolerance, ``n`` and ``m``, and
  the sums observed for it. The stage number, the pending stage and the
  statistics are derived when it is read; a version-1 file is refused.

Exit codes: 0 success (``--help`` too), 1 config error (a usage error such
as an unknown flag included, and inputs under which a posterior mean
overflows a float), 2 invalid schedule, 3 runtime failure, 4
tolerance budget exhausted (next-stage only). The environment variable
``RAMPGUARD_THREADS`` bounds the worker count. A flag that stands for a
config or state entry is written over that entry and checked only as that
entry, by ``_check_values``, the schema checker of config and state files,
before anything is written; ``--n-next`` and ``--workers``, which stand for
no entry, are checked first, before any file is read.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
from functools import lru_cache
from typing import TYPE_CHECKING, Any

# next-stage needs only these numpy-free modules; the studies import the
# simulator where they run, so an operator call never loads numpy.
from .posterior import (
    GaussianPrior,
    NonFinitePosteriorError,
    SufficientStats,
    VariancePolicy,
    compute_posterior,
    update_stats,
)
from .schedules import (RULES, RiskSchedule, ScheduleError, admits, as_float, sinc_schedule,
                        uniform_tolerance, whole)
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


def _load_json(kind: str, path: str) -> dict[str, Any]:
    """The JSON object in ``path``, read as UTF-8 text in one read.

    The bytes are decoded here, since ``json.loads`` would take UTF-16 bytes too, and line
    ends are read as text mode reads them, so a refusal counts lines and characters alike.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        value = json.loads(text)
    except FileNotFoundError:
        raise ConfigError(f"{kind} {path} not found") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8 or nesting too deep
        raise ConfigError(f"{kind} {path} is not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise ConfigError(f"{kind} {path} does not hold a JSON object")
    return value


def _workers(explicit: "int | None") -> int:
    from .replication import resolve_workers

    try:
        return resolve_workers(explicit)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ------------------------------------------------------- checked values


def _list_of(check, length=None):
    return lambda v: (
        isinstance(v, list) and length in (None, len(v)) and all(map(check, v))
    )


def _number(rule):
    """A value rule of ``schedules`` as a schema check: a number that it admits (``admits``)."""
    return (lambda v: admits(rule, v), rule[1])


def _integer(rule):
    """The test of a JSON integer (no bool) that ``rule`` admits as itself, not as a float."""
    return lambda v: isinstance(v, int) and admits(rule, v)


def _pair(rule):
    """The schema check of a list of two numbers that ``rule`` admits, worded as ``_float_pair``."""
    test, wants = _number(rule)
    return (_list_of(test, 2), f"a pair, each {wants}")


_NUMBER = _number(RULES["number"])


def _typed(forms: dict, other):
    """The spec of an object ``{"type": kind, key: value}`` whose ``forms[kind]`` is
    ``(key, spec)``, checked as those keys, or else of a value that ``other`` checks."""
    def spec(v):
        for kind, (key, rule) in forms.items():
            if isinstance(v, dict) and v == {"type": kind, key: v.get(key)}:
                return {"type": (lambda t: t == kind, repr(kind)), key: rule}
        return other
    return spec


# The tolerance generators: type -> the key of their stage count and their builder.
_GENERATORS = {"uniform": ("T", uniform_tolerance), "sinc": ("horizon", sinc_schedule)}
# A generator's stage count has the bound ``Scenario`` puts on T, as no scenario runs past it.
_TOLERANCES = _typed({kind: (key, _number(RULES["stages"]))
                      for kind, (key, _) in _GENERATORS.items()},
                     (lambda v: v != [] and _list_of(_NUMBER[0])(v),
                      "a non-empty list of numbers or a tolerance generator"))
# A cost that ``_resolve`` builds; the linear one is named alone or as an object.
_COST = _typed({"capped_effect": ("floor", _number(RULES["floor"]))},
               (lambda v: v in ("treatment_effect", {"type": "treatment_effect"}),
                '"treatment_effect" or {"type": "capped_effect", "floor": <number>}'))
_POPULATION = (_integer(RULES["population"]), "an integer in [1, 2**53]")
_PAIR = _pair(RULES["finite"])
_VARIANCES = _pair(RULES["variance"])
_NUMBERS = (_list_of(_NUMBER[0]), "a list of numbers")
_OBJECT = (lambda v: isinstance(v, dict), "an object")


# Each key maps to the check of its value and what the check wants, to the
# schema of its own keys, or to a function of the value that gives one of the
# two. The prior and variance keys are the same in a run config and a state file.
_BELIEF_SCHEMA = {
    "prior": {"mu0": _PAIR, "sigma0_sq": _VARIANCES},
    "variance_mode": (lambda v: v in ("known", "estimated"), "'known' or 'estimated'"),
    "sigma_sq": _VARIANCES,
    "pretrial_sigma_sq": _VARIANCES,
}
# What `run` reads from its config once the flags are written over it.
_CONFIG_SCHEMA = {
    "scenario": (lambda v: isinstance(v, (str, dict)), "a scenario name or an object"),
    "algorithm": (lambda v: v in ALGORITHMS, "one of " + ", ".join(ALGORITHMS)),
    "budget": _NUMBER,
    "delta": _NUMBER,
    "schedule": {
        "stage_tolerances": _TOLERANCES,
        "stage_budgets": (lambda v: _NUMBER[0](v) or _NUMBERS[0](v), "a number or " + _NUMBERS[1]),
    },
    **_BELIEF_SCHEMA,
    "replications": _number(RULES["replications"]),
    "seed": _number(whole(0)),
    "out": (lambda v: isinstance(v, str), "a path"),
    "thompson": {"c": _number(RULES["positive"])},
    "mc": {"samples": _number(RULES["samples"]), "cost": _COST},
}
# A version-2 state keeps its stages as given, one column per field: the inputs and sizes
# of each decided stage, then the sums of each observed stage as the flags gave them
# (null for a sum of squares not given). ``_read_stages`` derives everything else.
_DECIDED = ("stage_budgets", "stage_tolerances", "n", "m")
_OBSERVED = ("treated_sum", "control_sum", "treated_sumsq", "control_sumsq")
_SUMSQS = (_list_of(lambda v: v is None or _NUMBER[0](v)), "a list of numbers or nulls")
# What next-stage reads from a version-2 state file; every key is required.
_STATE_SCHEMA = {
    "version": (lambda v: v == 2, "2"),
    "budget": _NUMBER,
    "delta": _NUMBER,
    **_BELIEF_SCHEMA,
    "stages": {
        "stage_budgets": _NUMBERS,
        "stage_tolerances": _NUMBERS,
        "n": (_list_of(_POPULATION[0]), "a list of integers in [1, 2**53]"),
        "m": (_list_of(_integer(whole(0))), "a list of integers >= 0"),
        "treated_sum": _NUMBERS,
        "control_sum": _NUMBERS,
        "treated_sumsq": _SUMSQS,
        "control_sumsq": _SUMSQS,
    },
    "last_call": {"inputs": _OBJECT, "outputs": _OBJECT},
}
# Flags that stand for no config or state entry; every other flag is checked as its entry.
_FLAG_SCHEMA = {"--n-next": _POPULATION, "--workers": _number(whole(1))}
# Keys that may be null, meaning absent.
_NULLABLE_KEYS = {"sigma_sq", "pretrial_sigma_sq", "last_call"}


def _check_values(
    source: str, values: dict, schema: dict, required: bool = False, prefix: str = ""
) -> None:
    """Refuse values the schema does not admit, naming ``source`` and the first bad key.

    Keys the schema lacks are refused. With ``required``, every schema key
    outside ``_NULLABLE_KEYS`` must be present.
    """
    for key in values:
        if key not in schema:
            raise ConfigError(f"{source}: unknown key {prefix + key!r}")
    for key, spec in schema.items():
        name = prefix + key
        value = values.get(key)
        if value is None and name in _NULLABLE_KEYS or key not in values and not required:
            continue
        if key not in values:
            raise ConfigError(f"{source} lacks {name!r}")
        if callable(spec):
            spec = spec(value)
        if isinstance(spec, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{source}: {name} must be an object, got {value!r}")
            _check_values(source, value, spec, required, name + ".")
        elif not spec[0](value):
            raise ConfigError(f"{source}: {name} must be {spec[1]}, got {value!r}")


def _check_flags(command: str, args: argparse.Namespace) -> None:
    given = ((flag, getattr(args, flag[2:].replace("-", "_"), None)) for flag in _FLAG_SCHEMA)
    _check_values(command, {flag: v for flag, v in given if v is not None}, _FLAG_SCHEMA)


# Flags that stand for a config or state entry: attribute -> key.
_FLAG_KEYS = {
    "scenario": "scenario", "algo": "algorithm", "budget": "budget", "delta": "delta",
    "reps": "replications", "seed": "seed", "out": "out", "variance_mode": "variance_mode",
    "sigma_sq": "sigma_sq", "pretrial_sigma_sq": "pretrial_sigma_sq",
}


def _with_flags(args: argparse.Namespace, entries: dict[str, Any]) -> dict[str, Any]:
    """A copy of config or state entries with the given flags written over them."""
    out = dict(entries)
    for attr, key in _FLAG_KEYS.items():
        if getattr(args, attr, None) is not None:
            out[key] = getattr(args, attr)
    prior = {key: getattr(args, "prior_" + key, None) for key in ("mu0", "sigma0_sq")}
    prior = {key: value for key, value in prior.items() if value is not None}
    if prior:
        given = out.get("prior")
        out["prior"] = {**(given if isinstance(given, dict) else {}), **prior}
    if getattr(args, "T", None) is not None:
        # A stage count replaces the whole schedule, thresholds included.
        out["schedule"] = {"stage_tolerances": {"type": "uniform", "T": args.T}}
    return out


# The non-informative prior of a config or state that names none.
_DEFAULT_PRIOR = {"mu0": [0.0, 0.0], "sigma0_sq": [100.0, 100.0]}


def _prior_and_variance(source: str, entries: dict[str, Any]):
    """The prior and the variance policy of checked config or state entries.

    Absent keys take ``_DEFAULT_PRIOR`` and known variances.
    """
    entry = {**_DEFAULT_PRIOR, **entries.get("prior", {})}
    mode = entries.get("variance_mode", "known")
    pretrial = entries.get("pretrial_sigma_sq")
    if mode == "estimated" and pretrial is None:
        raise ConfigError(
            f"{source}: estimated variance mode needs pretrial_sigma_sq (--pretrial-sigma-sq)"
        )
    prior = GaussianPrior(entry["mu0"], entry["sigma0_sq"])
    return prior, VariancePolicy(mode, entries.get("sigma_sq"), pretrial)


def _resolve(source: str, config: dict[str, Any]) -> tuple[Scenario, str, RiskSchedule, Any, int, int]:
    """Scenario, algorithm, schedule, policy, replication count and seed of a `run` config,
    checked first; the count is 500 and the seed 0 unless the config names them."""
    from .scenarios import scenario_from_config

    _check_values(source, config, _CONFIG_SCHEMA)
    if "scenario" not in config:
        raise ConfigError("a scenario is required (--scenario or config 'scenario')")
    if "budget" not in config or "delta" not in config:
        raise ConfigError("budget and delta are required (flags or config)")
    try:
        scenario = scenario_from_config(config["scenario"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{source}: scenario: {exc.args[0]}") from None
    # The schedule, by default a uniform split over the scenario's stages;
    # a number given as stage_budgets holds for every stage.
    budget, delta = float(config["budget"]), float(config["delta"])
    spec = config.get("schedule", {})
    tolerances = spec.get("stage_tolerances", {"type": "uniform", "T": scenario.T})
    if isinstance(tolerances, dict):
        key, build = _GENERATORS[tolerances["type"]]
        tolerances = build(delta, tolerances[key])
    budgets = spec.get("stage_budgets", budget)
    budgets = budgets if isinstance(budgets, list) else [budgets] * len(tolerances)
    schedule = RiskSchedule(budget, delta, budgets, tolerances)

    prior, variance = _prior_and_variance(source, config)
    algorithm = config.get("algorithm", "rrc_analytic")
    if algorithm == "rrc_analytic":
        policy: Any = AnalyticPolicy(prior=prior, variance=variance)
    elif algorithm == "rrc_cantelli":
        from .mc_solver import CantelliPolicy, CappedEffectCost, TreatmentEffectCost

        mc = config.get("mc", {})
        cost = mc.get("cost", "treatment_effect")
        # The schema admits a capped cost only with its floor.
        capped = isinstance(cost, dict) and cost["type"] == "capped_effect"
        policy = CantelliPolicy(
            prior=prior,
            variance=variance,
            samples=mc.get("samples", CantelliPolicy.samples),
            cost=CappedEffectCost(cost["floor"]) if capped else TreatmentEffectCost(),
        )
    elif variance.mode == "estimated":
        raise ConfigError(
            f"{source}: thompson takes no variance_mode 'estimated'; its model has known variances"
        )
    else:
        from .thompson import ThompsonPolicy

        c = config.get("thompson", {}).get("c", 1.0)
        policy = ThompsonPolicy(c=c, prior=prior, sigma_sq=variance.values)
    reps, seed = int(config.get("replications", 500)), int(config.get("seed", 0))
    return scenario, algorithm, schedule, policy, reps, seed


# ----------------------------------------------------------------- run


def _write_json(path: str, value) -> None:
    """Sorted, indented JSON and a newline into ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(value, sort_keys=True, indent=2) + "\n")  # one write, not hundreds


# Rows a table writer formats at a time: writing a file holds one chunk of Python values.
_TABLE_ROWS = 4096


def _write_table(path: str, names, columns, header_lines=()) -> None:
    """CSV of equal-size columns, each flattened, under ``# `` provenance lines and
    a row of ``names``, formatted ``_TABLE_ROWS`` rows at a time."""
    import numpy as np

    columns = [np.ravel(column) for column in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(names)
        for start in range(0, columns[0].size, _TABLE_ROWS):
            writer.writerows(zip(*(c[start:start + _TABLE_ROWS].tolist() for c in columns)))


def _write_schedule_csv(path: str, summary: ReplicationSummary) -> None:
    import numpy as np

    c = summary.traces
    reps, stages = c.m.shape
    # int32 holds every index: at most REPLICATION_CAP replications of STAGE_CAP stages.
    rep = np.arange(reps, dtype=np.int32).repeat(stages)
    stage = np.tile(np.arange(1, stages + 1, dtype=np.int32), reps)
    branch = np.array(c.labels, dtype=object)[c.branch]
    names = ["replication", "stage", "m", "branch", "stage_cost", "cum_cost"]
    _write_table(path, names, (rep, stage, c.m, branch, c.stage_cost, c.cum_cost))


def _write_quantiles_csv(path: str, summary: ReplicationSummary, header_lines=()) -> None:
    _write_table(
        path,
        ["stage", "m_q25", "m_q50", "m_q75", "surplus_q25", "surplus_q50", "surplus_q75"],
        (range(1, summary.stages + 1), *summary.m_quantiles, *summary.surplus_quantiles),
        header_lines,
    )


def cmd_run(args: argparse.Namespace) -> int:
    from .replication import run_replications

    _check_flags("run", args)
    config = _with_flags(args, _load_json("config file", args.config) if args.config else {})
    scenario, _, schedule, policy, reps, seed = _resolve("run config", config)
    summary = run_replications(policy, scenario, schedule, reps, seed,
                               workers=_workers(args.workers), keep_traces=True)
    out_dir = config.get("out", ".")
    os.makedirs(out_dir, exist_ok=True)
    _write_schedule_csv(os.path.join(out_dir, "schedule.csv"), summary)
    _write_json(os.path.join(out_dir, "summary.json"), summary.to_json_dict())
    _write_quantiles_csv(os.path.join(out_dir, "quantiles.csv"), summary)
    print(
        f"wrote {out_dir}/schedule.csv, summary.json, quantiles.csv "
        f"(ruin_rate={summary.ruin_rate:.4f}, reps={summary.replications})"
    )
    return EXIT_OK


# ----------------------------------------------------------- reproduce


# Labelled `run` configs that the figures below share, less their scenario.
_STANDARD = {
    "B-500_d0.05": {"budget": -500, "delta": 0.05},
    "B-500_d0.01": {"budget": -500, "delta": 0.01},
}
_RATIONED = {
    **_STANDARD,
    "ration_budget": {"budget": -500, "delta": 0.01,
                      "schedule": {"stage_budgets": [-400] * 5 + [-500] * 5}},
    "ration_tolerance": {"budget": -500, "delta": 0.01,
                         "schedule": {"stage_tolerances": [0.0001] * 5 + [0.0019] * 5}},
}
_LINKEDIN = {
    "B-1500_d0.01": {"budget": -1500, "delta": 0.01},
    # Stage thresholds -400 through stage 4, then the full budget.
    "ration_budget_linkedin": {"budget": -1500, "delta": 0.01,
                               "schedule": {"stage_budgets": [-400] * 4 + [-1500] * 2}},
}
# Conservative bandit initialisation: treatment believed harmful.
_THOMPSON = {
    f"c{c:g}": {"algorithm": "thompson", "delta": 0.01, "thompson": {"c": c},
                "prior": {"mu0": [0, -2], "sigma0_sq": [0.05, 0.05]}}
    for c in (0.25, 1.0, 4.0)
}


def _on(scenario: str, configs: dict[str, dict], **entries) -> dict[str, dict[str, Any]]:
    return {label: {"scenario": scenario, **entries, **cfg} for label, cfg in configs.items()}


# The bundled studies (arXiv 2305.09626, Figures 1 and 2) as `run` configs:
# figure id -> {label: config}. Figure 1 runs `run`'s default count of 500.
_PRESETS = {
    "fig1a": _on("pte", _STANDARD),
    "fig1b": _on("nte", _STANDARD),
    "fig1c": _on("npte", _RATIONED),
    "fig1d": _on("linkedin", _LINKEDIN),
    "fig1e": _on("npte", _THOMPSON, budget=-500),
    "fig1f": _on("linkedin", _THOMPSON, budget=-1500),
    "fig1g": _on("nte", _STANDARD),
    "fig1h": _on("npte", _RATIONED),
    "fig1i": _on("npte", _THOMPSON, budget=-500),
} | {
    figure: _on(scenario, {"B-500_d0.05": _STANDARD["B-500_d0.05"]}, replications=5000)
    for figure, scenario in zip(("fig2a", "fig2b", "fig2c", "fig2d", "fig2e"),
                                ("norm", "corr", "bern", "fat", "dec"))
}


def cmd_reproduce(args: argparse.Namespace) -> int:
    from .replication import run_replications

    _check_flags("reproduce", args)
    figure = args.figure
    if figure not in _PRESETS:
        raise ConfigError(f"unknown figure id {figure!r}; known: fig1a..fig1i, fig2a..fig2e")
    workers = _workers(args.workers)
    runs = [(label, config, *_resolve(f"preset {figure} {label}", _with_flags(args, config)))
            for label, config in _PRESETS[figure].items()]
    reps, seed = runs[0][-2:]  # a figure's configs share one count and seed
    summaries = [run_replications(policy, scenario, schedule, reps, seed, workers=workers)
                 for _, _, scenario, _, schedule, policy, _, _ in runs]
    out_dir = os.path.join(args.out or ".", figure)
    os.makedirs(out_dir, exist_ok=True)

    provenance: dict[str, Any] = {"figure": figure, "seed": seed, "replications": reps, "runs": []}
    if figure == "fig1d":
        provenance["actual_series"] = (
            "the production ramp overlay is not bundled; supply it as a user file"
        )

    for (label, config, _, algorithm, schedule, *_), summary in zip(runs, summaries):
        header = [
            f"figure={figure} label={label} scenario={config['scenario']} "
            f"algo={algorithm} budget={schedule.budget} delta={schedule.delta} "
            f"T={schedule.num_stages} reps={reps} seed={seed}"
        ]
        _write_quantiles_csv(os.path.join(out_dir, f"quantiles_{label}.csv"), summary, header)
        provenance["runs"].append({
            "label": label, "scenario": config["scenario"], "algorithm": algorithm,
            "schedule": schedule.to_config(), "ruin_rate": summary.ruin_rate,
        })
        if figure.startswith("fig2"):
            costs = summary.final_costs
            _write_table(
                os.path.join(out_dir, "spend.csv"),
                ["replication", "final_cost", "ruined"],
                (range(reps), costs, (costs <= schedule.budget).astype(int)),
                header,
            )
            _write_table(
                os.path.join(out_dir, "ruin.csv"),
                ["scenario", "ruin_rate", "half_width", "replications", "delta"],
                ([value] for value in (config["scenario"], summary.ruin_rate,
                                       summary.ruin_half_width, reps, schedule.delta)),
                header,
            )

    _write_json(os.path.join(out_dir, "provenance.json"), provenance)
    print(f"wrote {out_dir}/ ({len(runs)} run(s), reps={reps}, seed={seed})")
    return EXIT_OK


# ---------------------------------------------------------- next-stage


# Relative slack of the check sumsq >= sum**2 / count on observed sums.
_SUMSQ_SLACK = 1e-12


def _fresh_state(args: argparse.Namespace) -> dict[str, Any]:
    if args.budget is None or args.delta is None:
        raise ConfigError("a fresh state needs --budget and --delta (no state file found)")
    fresh = {
        "version": 2, "last_call": None,
        "prior": dict(_DEFAULT_PRIOR), "variance_mode": "known",
        "sigma_sq": None, "pretrial_sigma_sq": None,
        "stages": {key: [] for key in _DECIDED + _OBSERVED},
    }
    return _with_flags(args, fresh)


def _check_sums(what: str, estimated: bool, m: int, n: int, row) -> None:
    """Refuse a stage's observed ``row`` (its ``_OBSERVED`` entries, a sum of squares None
    where not given) that no outcomes of its ``m`` treated and ``n - m`` control units give,
    or that estimated mode would read as zero variance; each message starts ``what``.

    Given sums must be finite, and 0 for an arm without units, and a given sum of squares
    must be at least ``sum**2 / count`` (Cauchy-Schwarz).
    """
    if estimated and None in row[2:]:
        raise ConfigError(f"{what}: estimated variance mode needs both sums of squares, "
                          "--treated-sumsq and --control-sumsq")
    for arm, count, total, sumsq in zip(("treated", "control"), (m, n - m), row[:2], row[2:]):
        given = [v for v in (total, sumsq) if v is not None]
        if not all(math.isfinite(v) for v in given):
            raise ConfigError(f"{what} {arm} sums must be finite, got {given}")
        if count == 0 and any(v != 0.0 for v in given):
            raise ConfigError(f"{what} {arm} group was empty, so its sums must be 0, got {given}")
        floor = total * total / count if count else 0.0
        if sumsq is not None and sumsq < floor * (1.0 - _SUMSQ_SLACK):
            raise ConfigError(f"{what} {arm} sum of squares {sumsq!r} is below "
                              f"its sum**2 / {count} = {floor!r}")


def _fold(what: str, estimated: bool, stats: SufficientStats, m: int, n: int, row):
    """``stats`` with one observed stage folded in, once ``_check_sums`` admits its row.

    Each running sum, and in estimated mode each running sum of squares, must stay finite:
    two admitted stages can add past the float maximum. Known mode never reads the sums
    of squares, so it keeps taking them as before.
    """
    _check_sums(what, estimated, m, n, row)
    stats = update_stats(stats, m, n, row[0], row[1], row[2] or 0.0, row[3] or 0.0)
    for arm, sums in (("treated", (stats.sum_treated, stats.treated_sumsq)),
                      ("control", (stats.sum_control, stats.control_sumsq))):
        if not all(map(math.isfinite, sums if estimated else sums[:1])):
            raise ConfigError(f"{what} {arm} sums, added to the earlier stages', must stay "
                              f"finite, got {list(sums)}")
    return stats


def _read_stages(source: str, state: dict[str, Any]) -> tuple[RiskSchedule, SufficientStats]:
    """The schedule and the statistics of a checked state's stages, derived from them.

    Each column holds one entry per stage: the ``_DECIDED`` ones per decided stage, the
    ``_OBSERVED`` ones per observed stage, every decided stage but at most the last.
    Every stage keeps ``m <= n // 2``, and each observed one, folded by ``update_stats``
    in stage order, passes the rules of a stage observed now (``_check_sums``).
    Stages that break the schedule rule raise ``ScheduleError``.
    """
    stages = state["stages"]
    for keys in (_DECIDED, _OBSERVED):
        for key in keys[1:]:
            if len(stages[key]) != len(stages[keys[0]]):
                raise ConfigError(f"{source}: stages.{key} must hold one entry per stage of "
                                  f"stages.{keys[0]}, {len(stages[keys[0]])}, "
                                  f"got {len(stages[key])}")
    decided, observed = len(stages["n"]), len(stages["treated_sum"])
    if not 0 <= decided - observed <= 1:
        raise ConfigError(f"{source}: stages must observe every decided stage but at most the "
                          f"last, got {observed} observed of {decided} decided")
    estimated, stats = state["variance_mode"] == "estimated", SufficientStats()
    for t, (m, n) in enumerate(zip(stages["m"], stages["n"]), start=1):
        if m > n // 2:
            raise ConfigError(f"{source}: stage {t} m must be <= n // 2, the cap of a stage, "
                              f"got {m!r} of {n!r}")
        if t <= observed:
            row = [as_float(stages[key][t - 1]) for key in _OBSERVED]
            stats = _fold(f"{source}: stage {t}", estimated, stats, m, n, row)
    schedule = RiskSchedule(
        state["budget"], state["delta"], stages["stage_budgets"], stages["stage_tolerances"]
    )
    return schedule, stats


def _check_unchanged(source: str, args: argparse.Namespace, state: dict[str, Any]) -> None:
    """Refuse a fresh-state flag whose value differs from the state file's entry."""
    given = _with_flags(args, state)
    pairs = [(attr, given[key], state[key]) for attr, key in _FLAG_KEYS.items() if key in state]
    pairs += [("prior_" + key, v, state["prior"][key]) for key, v in given["prior"].items()]
    for attr, value, stored in pairs:
        if value != stored:
            flag = "--" + attr.replace("_", "-")
            raise ConfigError(f"{source}: {flag} {value!r} differs from the file's {stored!r}; "
                              "it applies to a fresh state only")


def cmd_next_stage(args: argparse.Namespace) -> int:
    _check_flags("next-stage", args)
    source = f"state file {args.state}"
    if os.path.exists(args.state):
        state = _load_json("state file", args.state)
        if state.get("version") != 2:
            raise ConfigError(
                f"{source} has version {state.get('version')!r}; this release reads version 2"
            )
    else:
        state = _fresh_state(args)
    _check_values(source, state, _STATE_SCHEMA, required=True)
    # A fresh state holds its flags already, so only a stored one can differ.
    _check_unchanged(source, args, state)
    prior, variance_policy = _prior_and_variance(source, state)
    if state["variance_mode"] == "known" and state.get("sigma_sq") is None:
        raise ConfigError(f"{source}: known variance mode needs sigma_sq (--sigma-sq v0 v1)")
    # Stages that break the schedule rule are refused here (exit 2).
    schedule, stats = _read_stages(source, state)

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
        return _answer(last["outputs"])

    stages, stage = state["stages"], schedule.num_stages + 1
    if len(stages["treated_sum"]) < schedule.num_stages:
        # The last decided stage awaits its observations, which the flags give.
        m, n = stages["m"][-1], stages["n"][-1]
        if args.treated_sum is None or args.control_sum is None:
            raise ConfigError(f"stage {stage - 1} ran with m={m}; provide "
                              "--treated-sum and --control-sum before the next decision")
        row = [inputs[key] for key in _OBSERVED]
        stats = _fold(f"stage {stage - 1}", state["variance_mode"] == "estimated", stats, m, n, row)
        for key, value in zip(_OBSERVED, row):
            stages[key].append(value)
    elif args.treated_sum is not None or args.control_sum is not None:
        raise ConfigError("no stage is awaiting observations; drop the observed sums")

    # The stage is admitted by the schedule rule, as one more stage of the
    # stored schedule. Once delta is spent, every call that names no
    # stage it still admits (a zero-tolerance stage it does) is answered as
    # exhausted.
    try:
        if args.n_next is None or args.delta_next is None or args.b_next is None:
            raise ConfigError("--n-next, --delta-next and --b-next are required")
        next_schedule = schedule.extended(args.b_next, args.delta_next)
    except (ConfigError, ScheduleError):
        if not schedule.exhausted():
            raise
        state["last_call"] = {"inputs": inputs, "outputs": {"terminal": True}}
        _write_state(args.state, state)
        return _answer(state["last_call"]["outputs"])
    n_next = int(args.n_next)

    variance = variance_policy.resolve(stats, None)
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

    outputs = {
        "stage": stage,
        "m_next": decision.m,
        "p_next": decision.assignment_probability,
        "branch": decision.branch,
    }
    decided = (next_schedule.stage_budgets[-1], next_schedule.stage_tolerances[-1],
               n_next, decision.m)
    for key, value in zip(_DECIDED, decided):
        stages[key].append(value)
    state["last_call"] = {"inputs": inputs, "outputs": outputs}
    _write_state(args.state, state)
    return _answer(outputs)


def _answer(outputs: dict[str, Any]) -> int:
    """Print a call's outputs and return its exit code; a re-run answers alike."""
    if outputs.get("terminal"):
        print("tolerance budget exhausted; no further stages can run")
        return EXIT_EXHAUSTED
    print(json.dumps(outputs, sort_keys=True))
    return EXIT_OK


def _write_state(path: str, state: dict[str, Any]) -> None:
    """Replace the state file atomically with its one-line sorted JSON: its bytes go to a
    ``mkstemp`` file, written whole and fsynced, which is then renamed over ``path``, so a
    crash leaves the old file or the new one. The temporary file is removed on failure."""
    data = memoryview((json.dumps(state, sort_keys=True) + "\n").encode("utf-8"))
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)), prefix=".rampguard-state-"
    )
    try:
        try:
            while data:  # a write may take fewer bytes than it is given
                data = data[os.write(fd, data):]
            os.fsync(fd)
        finally:
            os.close(fd)
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
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--budget", type=float, help="total budget B (negative)")
    shared.add_argument("--delta", type=float, help="overall ruin tolerance in [0, 1)")
    shared.add_argument("--variance-mode", choices=("known", "estimated"))
    shared.add_argument("--sigma-sq", nargs=2, type=float, metavar=("V0", "V1"))
    shared.add_argument("--pretrial-sigma-sq", nargs=2, type=float, metavar=("V0", "V1"))
    shared.add_argument("--prior-mu0", nargs=2, type=float, metavar=("M0", "M1"))
    shared.add_argument("--prior-sigma0-sq", nargs=2, type=float, metavar=("S0", "S1"))

    run = sub.add_parser(
        "run", parents=[shared], help="run a replication study and write result tables"
    )
    run.add_argument("--config", help="JSON config file; flags override its entries")
    run.add_argument("--scenario", help="scenario name from the built-in registry")
    run.add_argument("--algo", choices=ALGORITHMS, help="ramp algorithm")
    run.add_argument("--T", type=int, help="stage count for a uniform tolerance split")
    run.add_argument("--reps", type=int, help="number of replications")
    run.add_argument("--seed", type=int, help="top-level seed (default 0)")
    run.add_argument("--out", help="output directory (default .)")
    run.add_argument("--workers", type=int, help="worker processes (default RAMPGUARD_THREADS)")
    run.set_defaults(func=cmd_run)

    rep = sub.add_parser("reproduce", help="run a bundled study preset")
    rep.add_argument("figure", help="preset id: fig1a..fig1i or fig2a..fig2e")
    rep.add_argument("--out", help="output directory (default .)")
    rep.add_argument("--reps", type=int, help="override the preset replication count")
    rep.add_argument("--seed", type=int, help="seed (default 0)")
    rep.add_argument("--workers", type=int)
    rep.set_defaults(func=cmd_reproduce)

    nxt = sub.add_parser(
        "next-stage", parents=[shared],
        help="operational single-step mode against a JSON state file",
        description="The budget, tolerance, prior and variance flags apply to a fresh state only.",
    )
    nxt.add_argument("--state", required=True, help="state file path (created if absent)")
    nxt.add_argument("--n-next", type=int, help="incoming population of the next stage")
    nxt.add_argument("--delta-next", type=float, help="tolerance of the next stage")
    nxt.add_argument("--b-next", type=float, help="stage budget of the next stage")
    nxt.add_argument("--treated-sum", type=float, help="observed treated-outcome sum")
    nxt.add_argument("--control-sum", type=float, help="observed control-outcome sum")
    nxt.add_argument("--treated-sumsq", type=float, help="observed treated sum of squares")
    nxt.add_argument("--control-sumsq", type=float, help="observed control sum of squares")
    nxt.set_defaults(func=cmd_next_stage)

    parser.commands = sub.choices  # name -> the subcommand's parser, for _parse
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, with the same stdout, stderr and exit.

    An argv that opens with a subcommand goes straight to that subcommand's parser,
    which spares the top-level pass over every token, and what it leaves is refused
    as the top level refuses it.
    """
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv: "list[str] | None" = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of an invalid schedule.
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        return args.func(args)
    except (ConfigError, NonFinitePosteriorError) as exc:  # either way the inputs are at fault
        return _fail(EXIT_CONFIG, str(exc))
    except ScheduleError as exc:
        return _fail(EXIT_SCHEDULE, str(exc))
    except (OSError, RuntimeError, ValueError) as exc:
        return _fail(EXIT_RUNTIME, f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
