import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from rampguard import AnalyticPolicy, cli, replication
from rampguard.cli import main
from rampguard.mc_solver import CantelliPolicy, CappedEffectCost, TreatmentEffectCost
from rampguard.posterior import GaussianPrior, VariancePolicy
from rampguard.scenarios import Scenario, ScenarioFeed, builtin_scenarios
from rampguard.schedules import RiskSchedule, sinc_schedule, uniform_tolerance
from rampguard.thompson import ThompsonPolicy
from rampguard.trace import run_stages

GOLDEN = Path(__file__).parent / "data"


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.setdefault("RAMPGUARD_THREADS", "1")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "rampguard.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestRun:
    def test_happy_path_writes_all_files(self, tmp_path):
        code = main(
            [
                "run", "--scenario", "pte", "--algo", "rrc_analytic",
                "--budget", "-500", "--delta", "0.05", "--T", "10",
                "--reps", "20", "--seed", "7", "--out", str(tmp_path),
                "--workers", "1",
            ]
        )
        assert code == 0
        for name in ("schedule.csv", "summary.json", "quantiles.csv"):
            assert (tmp_path / name).exists(), name
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["replications"] == 20
        assert summary["seed"] == 7
        assert len(summary["m_quantiles"]["q50"]) == 10
        header = (tmp_path / "schedule.csv").read_text().splitlines()[0]
        assert header == "replication,stage,m,branch,stage_cost,cum_cost"

    def test_unknown_scenario_exits_one_naming_it(self, capsys):
        code = main(["run", "--scenario", "mystery", "--budget", "-500", "--delta", "0.05"])
        assert code == 1
        assert "mystery" in capsys.readouterr().err

    def test_invalid_schedule_exits_two(self, tmp_path):
        config = {
            "scenario": "pte",
            "budget": -500,
            "delta": 0.01,
            "schedule": {"stage_tolerances": [0.5, 0.5]},
            "replications": 2,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = main(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--budget", "0", "budget must be finite and < 0, got 0.0"),
            ("--delta", "1.5", "delta must be in [0, 1), got 1.5"),
        ],
        ids=["zero-budget", "delta-above-one"],
    )
    def test_scalar_schedule_faults_exit_two_writing_nothing(
        self, tmp_path, capsys, flag, value, message
    ):
        argv = ["run", "--scenario", "pte", "--budget", "-500", "--delta", "0.05", "--reps", "2"]
        argv[argv.index(flag) + 1] = value
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_budget_exits_one(self):
        assert main(["run", "--scenario", "pte"]) == 1

    def test_missing_scenario_exits_one(self, capsys):
        assert main(["run", "--budget", "-500", "--delta", "0.05"]) == 1
        assert "a scenario is required (--scenario or config 'scenario')" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, fault",
        [(None, "not found"), (b"{1,", "is not valid JSON"),
         (b'{"scenario": "norm" \xfe}', "is not valid JSON"), (b"[" * 100_000, "is not valid JSON"),
         (b'{"budget": ' + b"1" * 5000 + b"}", "is not valid JSON"),
         (b"[1, 2]", "does not hold a JSON object")],
        ids=["missing", "invalid", "not-utf-8", "nested-too-deeply", "integer-too-long",
             "not-an-object"],
    )
    def test_unreadable_config_file_exits_one(self, tmp_path, capsys, content, fault):
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_bytes(content)
        assert main(["run", "--config", str(path)]) == 1
        assert f"config file {path} {fault}" in capsys.readouterr().err

    def test_unknown_flag_exits_one_not_two(self, capsys):
        # Exit 2 is kept for an invalid schedule; argparse would use it here.
        assert main(["run", "--bogus"]) == 1
        assert "--bogus" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["next-stage", "--help"]) == 0
        assert "--state" in capsys.readouterr().out

    def test_config_file_with_flag_overrides(self, tmp_path):
        config = {
            "scenario": "pte",
            "budget": -500,
            "delta": 0.05,
            "replications": 4,
            "seed": 3,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--reps", "6", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["replications"] == 6  # flag wins over config

    def test_cantelli_algorithm_via_config(self, tmp_path):
        config = {
            "scenario": "norm",
            "algorithm": "rrc_cantelli",
            "budget": -500,
            "delta": 0.05,
            "replications": 3,
            "mc": {"samples": 500},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out), "--workers", "1"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stages"] == 10

    def test_thompson_algorithm_flags(self, tmp_path):
        config = {
            "scenario": "npte",
            "algorithm": "thompson",
            "budget": -500,
            "delta": 0.01,
            "replications": 3,
            "sigma_sq": [10, 10],
            "prior": {"mu0": [0, -2], "sigma0_sq": [0.05, 0.05]},
            "thompson": {"c": 0.25},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out), "--workers", "1"]) == 0
        rows = (out / "schedule.csv").read_text().splitlines()
        assert all(",thompson," in row for row in rows[1:])

    def test_summary_byte_identical_across_worker_counts(self, tmp_path):
        args = [
            "run", "--scenario", "norm", "--budget", "-500", "--delta", "0.05",
            "--T", "10", "--reps", "24", "--seed", "11",
        ]
        out1, out8 = tmp_path / "w1", tmp_path / "w8"
        assert main([*args, "--out", str(out1), "--workers", "1"]) == 0
        assert main([*args, "--out", str(out8), "--workers", "8"]) == 0
        assert (out1 / "summary.json").read_bytes() == (out8 / "summary.json").read_bytes()
        assert (out1 / "schedule.csv").read_bytes() == (out8 / "schedule.csv").read_bytes()

    GOLDEN_ARGS = [
        "run", "--scenario", "nte", "--budget", "-500", "--delta", "0.05",
        "--T", "4", "--reps", "5", "--seed", "0", "--workers", "1",
    ]

    @staticmethod
    def assert_golden(out_dir, prefix):
        for name in ("quantiles.csv", "schedule.csv", "summary.json"):
            assert (out_dir / name).read_text() == (GOLDEN / f"{prefix}_{name}").read_text(), name

    def test_golden_outputs(self, tmp_path):
        # The per-unit reference engine at the CLI's config and seed, written
        # by the CLI's writers. The command itself takes the batch engine
        # (pinned by the next test), so the replications run here directly.
        config = cli._with_flags(cli._build_parser().parse_args(self.GOLDEN_ARGS), {})
        scenario, _, schedule, policy, reps, seed = cli._resolve("run config", config)
        chunk = replication._run_chunk(policy, scenario, schedule, seed, range(reps))
        summary = replication._summarize(
            replication._join([chunk]), schedule, seed, keep_traces=True
        )
        cli._write_schedule_csv(str(tmp_path / "schedule.csv"), summary)
        cli._write_json(str(tmp_path / "summary.json"), summary.to_json_dict())
        cli._write_quantiles_csv(str(tmp_path / "quantiles.csv"), summary)
        self.assert_golden(tmp_path, "golden")

    def test_writing_the_schedule_holds_the_traces_and_one_chunk(self, tmp_path, monkeypatch):
        # Allocations while schedule.csv is written stay within the trace arrays'
        # bytes again plus one chunk of Python values (a list slot and an object
        # of up to 40 bytes per value), not one Python object per value of the study.
        # One stage keeps the traced write short.
        seen = []

        def traced(path, summary):
            tracemalloc.start()
            try:
                real(path, summary)
                seen.append((tracemalloc.get_traced_memory()[1], summary.traces))
            finally:
                tracemalloc.stop()

        real = cli._write_schedule_csv
        monkeypatch.setattr(cli, "_write_schedule_csv", traced)
        args = ["run", "--scenario", "norm", "--budget", "-500", "--delta", "0.05", "--T", "1",
                "--reps", "20000", "--seed", "1", "--workers", "1", "--out", str(tmp_path)]
        assert main(args) == 0
        [(peak, traces)] = seen
        trace_bytes = sum(a.nbytes for a in (traces.m, traces.branch, traces.stage_cost,
                                              traces.cum_cost))
        chunk_bytes = cli._TABLE_ROWS * 6 * (8 + 40)
        assert traces.m.shape == (20_000, 1)
        assert peak <= trace_bytes + chunk_bytes, (peak, trace_bytes, chunk_bytes)

    def test_golden_outputs_batch_engine(self, tmp_path):
        assert main([*self.GOLDEN_ARGS, "--out", str(tmp_path)]) == 0
        self.assert_golden(tmp_path, "golden_batch")

    def test_golden_outputs_linear_cantelli(self, tmp_path):
        # The linear cost samples its imputed total on the stage stream, so
        # these outputs predate the sharded per-unit imputation unchanged.
        args = [
            "run", "--scenario", "norm", "--algo", "rrc_cantelli", "--budget", "-500",
            "--delta", "0.05", "--T", "10", "--reps", "20", "--seed", "5", "--workers", "1",
        ]
        assert main([*args, "--out", str(tmp_path)]) == 0
        self.assert_golden(tmp_path, "golden_cantelli")

    @pytest.mark.parametrize(
        "entries, flags, message",
        [
            (
                {"algorithm": "thompson", "thompson": {"cap_at_half": True}}, [],
                "unknown key 'thompson.cap_at_half'",
            ),
            ({"algorithm": "thompson", "thompson": {"c": 0}}, [], "thompson.c must be a finite"),
            ({"thompsn": {"c": 0.25}}, [], "unknown key 'thompsn'"),
            ({"mc": {"sample": 500}}, [], "unknown key 'mc.sample'"),
            ({"prior": {"mu0": [0, 0], "sigma": [1, 1]}}, [], "unknown key 'prior.sigma'"),
            (
                {"scenario": {"family": "gaussian_iid", "T": 2, "population": 10, "mean": 0}},
                [], "unknown scenario keys ['mean']",
            ),
            (
                {"schedule": {"stage_tolerances": {"type": "uniform", "T": 10, "t": 5}}}, [],
                "schedule.stage_tolerances must be",
            ),
            (
                {"schedule": {"stage_tolerances": {"type": "nope", "T": 10}}}, [],
                "schedule.stage_tolerances must be",
            ),
            ({"seed": 2.7}, [], "seed must be a whole number >= 0, got 2.7"),
            ({}, ["--seed", "-1"], "seed must be a whole number >= 0, got -1"),
            ({"algorithm": "rrc_cantelli", "mc": {"cost": "capped"}}, [], "mc.cost must be"),
            (
                {"algorithm": "rrc_cantelli", "mc": {"cost": {"type": "capped_effect"}}}, [],
                "mc.cost must be",
            ),
            (
                {},
                ["--algo", "thompson", "--variance-mode", "estimated",
                 "--pretrial-sigma-sq", "10", "10"],
                "thompson takes no variance_mode 'estimated'",
            ),
            # Integers past the float range: refused before they reach a float.
            ({"budget": 10**400}, [], "budget must be a number, got 1000"),
            ({"delta": -(10**400)}, [], "delta must be a number, got -1000"),
            ({"replications": 10**400}, [], "replications must be a whole number in [1, 1000000]"),
            ({"seed": 10**400}, [], "seed must be a whole number >= 0"),
        ],
        ids=[
            "string-cap-at-half", "zero-c", "misspelt-section", "misspelt-mc-key",
            "misspelt-prior-key", "inline-scenario-key", "generator-extra-key", "unknown-generator",
            "fractional-seed",
            "negative-seed-flag", "unknown-cost", "capped-cost-without-floor", "thompson-estimated-variances",
            "huge-budget", "huge-delta", "huge-replications", "huge-seed",
        ],
    )
    def test_bad_config_values_exit_one_naming_the_key(
        self, tmp_path, capsys, entries, flags, message
    ):
        config = {"scenario": "npte", "budget": -500, "delta": 0.01, "replications": 2, **entries}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), *flags, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_mc_cost_is_honoured(self, tmp_path):
        config = {
            "scenario": "norm", "algorithm": "rrc_cantelli", "budget": -500, "delta": 0.05,
            "replications": 2, "seed": 1, "mc": {"samples": 500},
        }
        summaries = {}
        for name, cost in [
            ("default", None),
            ("linear", "treatment_effect"),
            ("linear_object", {"type": "treatment_effect"}),
            ("capped", {"type": "capped_effect", "floor": -0.5}),
        ]:
            mc = config["mc"] if cost is None else {**config["mc"], "cost": cost}
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**config, "mc": mc}))
            out = tmp_path / name
            assert main(["run", "--config", str(path), "--out", str(out), "--workers", "1"]) == 0
            summaries[name] = json.loads((out / "summary.json").read_text())
        assert summaries["linear"] == summaries["linear_object"] == summaries["default"]
        assert summaries["capped"] != summaries["linear"]
        for name, cost in [("linear", TreatmentEffectCost()), ("capped", CappedEffectCost(-0.5))]:
            policy = CantelliPolicy(
                GaussianPrior((0.0, 0.0), (100.0, 100.0)), VariancePolicy(), samples=500, cost=cost
            )
            expected = replication.run_replications(
                policy, builtin_scenarios()["norm"], RiskSchedule.uniform(-500.0, 0.05, 10), 2, 1,
                workers=1,
            )
            assert summaries[name] == expected.to_json_dict(), name

    def test_readme_config_example_resolves(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Command-line interface")[1]
        example = json.loads(section.split("```json\n")[1].split("```")[0])
        scenario, algorithm, schedule, policy, reps, seed = cli._resolve("README", example)
        assert (reps, seed) == (5000, 0)
        assert (scenario.name, algorithm) == ("norm", "rrc_analytic")
        budgets = (-400.0,) * 5 + (-500.0,) * 5
        assert schedule == RiskSchedule.uniform(-500.0, 0.05, 10, stage_budgets=budgets)
        prior = GaussianPrior((0.0, 0.0), (100.0, 100.0))
        assert policy == AnalyticPolicy(prior, VariancePolicy())
        # The thompson and mc sections are read by the algorithms they name.
        _, _, _, policy, _, _ = cli._resolve("README", {**example, "algorithm": "thompson"})
        assert policy == ThompsonPolicy(c=1.0, prior=prior)
        _, _, _, policy, _, _ = cli._resolve("README", {**example, "algorithm": "rrc_cantelli"})
        assert policy == CantelliPolicy(prior, VariancePolicy(), 10_000, TreatmentEffectCost())


class TestScheduleConfig:
    """The schedule `run` builds from its config's budget, delta and schedule entries."""

    real_run = staticmethod(replication.run_replications)

    def run(self, tmp_path, monkeypatch, schedule=None, flags=(), name="cfg", **entries):
        """Exit code, output directory and the schedule the study ran on (None if none ran)."""
        studied = []

        def spy(policy, scenario, schedule, *args, **kwargs):
            studied.append(schedule)
            return self.real_run(policy, scenario, schedule, *args, **kwargs)

        monkeypatch.setattr(replication, "run_replications", spy)
        out = tmp_path / name
        config = {"scenario": "norm", "budget": -500, "delta": 0.01, "replications": 2,
                  "seed": 4, "out": str(out), **entries}
        if schedule is not None:
            config["schedule"] = schedule
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        code = main(["run", "--config", str(path), "--workers", "1", *flags])
        return code, out, studied[0] if studied else None

    @pytest.mark.parametrize(
        "schedule, delta, budgets, tolerances",
        [
            (None, 0.01, (-500.0,) * 10, uniform_tolerance(0.01, 10)),
            ({"stage_tolerances": {"type": "uniform", "T": 10}}, 0.01, (-500.0,) * 10,
             uniform_tolerance(0.01, 10)),
            ({"stage_tolerances": {"type": "uniform", "T": 4.0}}, 0.01, (-500.0,) * 4,
             uniform_tolerance(0.01, 4)),
            ({"stage_tolerances": {"type": "sinc", "horizon": 7}}, 0.05, (-500.0,) * 7,
             sinc_schedule(0.05, 7)),
            ({"stage_tolerances": [0.001, 0.002], "stage_budgets": -400}, 0.01,
             (-400.0, -400.0), (0.001, 0.002)),
            ({"stage_tolerances": [0.001, 0.002], "stage_budgets": [-400, -450]}, 0.01,
             (-400.0, -450.0), (0.001, 0.002)),
        ],
        ids=["default", "uniform", "uniform-float-T", "sinc", "list-one-budget", "lists"],
    )
    def test_generators_give_their_schedule(
        self, tmp_path, monkeypatch, schedule, delta, budgets, tolerances
    ):
        code, out, studied = self.run(tmp_path, monkeypatch, schedule, delta=delta)
        assert code == 0
        assert studied == RiskSchedule(-500.0, delta, budgets, tolerances)
        assert json.loads((out / "summary.json").read_text())["stages"] == len(tolerances)

    def test_a_written_schedule_reproduces_its_study(self, tmp_path, monkeypatch):
        sched = RiskSchedule.uniform(-500.0, 0.05, 4, stage_budgets=[-400, -400, -500, -500])
        generated = {"stage_tolerances": {"type": "uniform", "T": 4},
                     "stage_budgets": [-400, -400, -500, -500]}
        _, out, studied = self.run(tmp_path, monkeypatch, generated, name="generated", delta=0.05)
        written = sched.to_config()
        budget, delta = written.pop("budget"), written.pop("delta")
        _, again, restudied = self.run(
            tmp_path, monkeypatch, written, name="written", budget=budget, delta=delta
        )
        assert studied == restudied == sched
        for name in ("schedule.csv", "summary.json", "quantiles.csv"):
            assert (out / name).read_bytes() == (again / name).read_bytes(), name

    @pytest.mark.parametrize("value", [0, 1.5, 10_001, 1e300, True, "10"])
    @pytest.mark.parametrize("kind, key", [("uniform", "T"), ("sinc", "horizon")])
    def test_stage_counts_outside_the_scenario_bound_exit_one(
        self, tmp_path, monkeypatch, capsys, kind, key, value
    ):
        schedule = {"stage_tolerances": {"type": kind, key: value}}
        code, out, studied = self.run(tmp_path, monkeypatch, schedule)
        assert (code, studied) == (1, None)
        err = capsys.readouterr().err
        # The count is the generator's only fault, so the refusal names the count and its bound.
        assert f"run config: schedule.stage_tolerances.{key} must be a whole number in [1, 10000], got" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind, key", [("uniform", "T"), ("sinc", "horizon")])
    def test_the_largest_stage_count_runs(self, tmp_path, monkeypatch, kind, key):
        schedule = {"stage_tolerances": {"type": kind, key: 10_000}}
        code, out, studied = self.run(tmp_path, monkeypatch, schedule)
        assert (code, studied.num_stages) == (0, 10_000)
        # The study stops with the scenario's ten stages.
        assert json.loads((out / "summary.json").read_text())["stages"] == 10

    def test_a_stage_count_flag_outside_the_bound_exits_one(self, tmp_path, monkeypatch, capsys):
        code, out, studied = self.run(tmp_path, monkeypatch, flags=["--T", "10001"])
        assert (code, studied) == (1, None)
        assert capsys.readouterr().err == (
            "rampguard: run config: schedule.stage_tolerances.T must be a whole number in "
            "[1, 10000], got 10001\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "tolerances",
        [
            {"type": "uniform", "T": 10, "t": 5},
            {"type": "uniform", "T": 10001, "t": 5},
            {"type": "nope", "T": 10},
            {"type": ["uniform"], "T": 10},
            {"type": "explicit", "values": 3},
            {"type": "explicit", "values": [0.001, 0.002]},
            {"T": 10001},
            [0.01, "a"],
            [],
            "uniform",
        ],
    )
    def test_every_other_tolerance_refusal_keeps_its_wording(
        self, tmp_path, monkeypatch, capsys, tolerances
    ):
        code, out, studied = self.run(tmp_path, monkeypatch, {"stage_tolerances": tolerances})
        assert (code, studied) == (1, None)
        assert capsys.readouterr().err == (
            "rampguard: run config: schedule.stage_tolerances must be a non-empty list of numbers "
            f"or a tolerance generator, got {tolerances!r}\n"
        )
        assert not out.exists()


# One valid inline scenario of each checked family, small enough to run fast.
INLINE = {
    "gaussian_iid": {
        "family": "gaussian_iid", "T": 3, "population": [20, 30, 25], "mean_control": 0.0,
        "mean_treatment": -1.0, "var_control": 10.0, "var_treatment": 10.0,
    },
    "gaussian_correlated": {
        "family": "gaussian_correlated", "T": 3, "population": 20, "mean_control": 0.0,
        "mean_treatment": -1.0, "var_control": 10.0, "var_treatment": 10.0, "correlation": 0.8,
    },
    "bernoulli_scaled": {
        "family": "bernoulli_scaled", "T": 3, "population": 20, "bernoulli_scale": 6.4,
        "bernoulli_p": [0.5786, 0.4224],
    },
    "student_t_shifted": {
        "family": "student_t_shifted", "T": 3, "population": 20, "mean_control": 1.0,
        "mean_treatment": 0.0, "var_control": 10.0, "var_treatment": 10.0, "tail_df": 4.0,
    },
}
_REMOVED = object()
# Each single-leaf mutation: the key removed, then the values put in its place.
_MUTATIONS = (_REMOVED, None, "x", True, [1, 1], 0, -1, 2.5, math.nan, math.inf, -math.inf,
              1e300, -1e300)


def _mutants(spec):
    """(leaf, mutated spec) for every key and list entry of ``spec`` and every mutation."""
    for key, value in spec.items():
        entries = range(len(value)) if isinstance(value, list) else ()
        leaves = [(key,)] + [(key, i) for i in entries]
        for leaf in leaves:
            for mutation in _MUTATIONS[len(leaf) - 1:]:  # a list entry is not removed
                mutant = json.loads(json.dumps(spec))
                holder = mutant if len(leaf) == 1 else mutant[key]
                if mutation is _REMOVED:
                    del holder[leaf[-1]]
                else:
                    holder[leaf[-1]] = mutation
                yield leaf, mutant


def _put(*path, value):
    """An edit that sets the leaf at ``path`` of a JSON object to ``value``."""

    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value

    return edit


def _leaf_paths(node, path=()):
    """The path of every leaf of a JSON value: a scalar, an empty list or an empty object."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from _leaf_paths(value, (*path, key))
        else:
            yield (*path, key)


# The odd values that the single-leaf fuzz tests put in each leaf in turn.
_ODD_VALUES = ("x", 0, -1, -1000, 1e300, -1e300, 5e-324, math.nan, math.inf, None, True, [], {},
               10**400, -(10**400))


def _dotted(path) -> str:
    """The name a schema error gives the leaf at ``path``: its keys, not its list indices."""
    return ".".join(key for key in path if isinstance(key, str))


# One leaf of each kind of number a one-stage state file holds.
_HUGE_LEAVES = [
    ("budget",), ("stages", "stage_budgets", 0), ("stages", "stage_tolerances", 0),
    ("stages", "n", 0), ("stages", "m", 0), ("prior", "mu0", 0), ("prior", "sigma0_sq", 1),
    ("sigma_sq", 0),
]
# The observed sums of the first stage of a two-stage state file.
_OBSERVED_LEAVES = [("stages", key, 0)
                    for key in ("treated_sum", "control_sum", "treated_sumsq", "control_sumsq")]


class TestInlineScenarios:
    def run(self, tmp_path, spec, name="cfg", **entries):
        out = tmp_path / f"{name}-out"
        config = {"scenario": spec, "budget": -500, "delta": 0.05, "out": str(out), **entries}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        return main(["run", "--config", str(path), "--reps", "2", "--workers", "1"]), out

    @pytest.mark.parametrize(
        "family, changes, entries, message",
        [
            ("gaussian_iid", {"var_control": -1}, {"sigma_sq": [1, 1]},
             "var_control must be a finite number >= 1e-280, got -1"),
            ("gaussian_iid", {"mean_control": math.nan}, {},
             "mean_control must be a finite number, got nan"),
            ("student_t_shifted", {"tail_df": "four"}, {}, "tail_df must be"),
            ("gaussian_correlated", {"correlation": "high"}, {}, "correlation must be"),
            ("gaussian_iid", {"population": None}, {}, "population must be"),
            ("bernoulli_scaled", {"bernoulli_p": 0.5}, {}, "bernoulli_p must be two numbers"),
            ("gaussian_iid", {"family": "gaussian"}, {}, "family must be one of"),
            ("gaussian_iid", {"family": None}, {}, "family must be one of"),
            ("gaussian_iid", {"T": 0}, {}, "T must be a whole number"),
            ("gaussian_iid", {"T": -1}, {}, "T must be a whole number"),
            ("gaussian_iid", {"population": 0}, {}, "population must be a whole number"),
            ("gaussian_iid", {"population": -5}, {}, "population must be a whole number"),
            ("gaussian_iid", {"population": [20, 20]}, {}, "population must have one value per"),
            ("gaussian_iid", {"mean_treatment": [-1, -1]}, {}, "mean_treatment must have one"),
            ("gaussian_iid", {"var_control": 0}, {}, "var_control must be a finite number >= 1e-280"),
            ("gaussian_iid", {"var_treatment": -2}, {}, "var_treatment must be a finite number"),
            ("student_t_shifted", {"tail_df": _REMOVED}, {},
             "a student_t_shifted scenario needs tail_df"),
            ("student_t_shifted", {"tail_df": 2}, {}, "tail_df must be a finite number > 2"),
            ("gaussian_correlated", {"correlation": 1.5}, {}, "correlation must be a number"),
            ("gaussian_correlated", {"correlation": _REMOVED}, {},
             "a gaussian_correlated scenario needs correlation"),
            ("bernoulli_scaled", {"bernoulli_p": [1.5, 0.5]}, {}, "bernoulli_p must be two"),
            ("bernoulli_scaled", {"bernoulli_p": [0.5]}, {}, "bernoulli_p must be two numbers"),
            ("bernoulli_scaled", {"bernoulli_scale": "x"}, {}, "bernoulli_scale must be"),
            ("gaussian_iid", {"population": 5.7}, {}, "population must be a whole number"),
            ("gaussian_iid", {"family": _REMOVED}, {}, "an inline scenario needs family"),
            ("gaussian_iid", {"var_control": 1e-320}, {"sigma_sq": [1, 1]},
             "var_control must be a finite number >= 1e-280, got 1e-320"),
        ],
    )
    def test_each_probe_exits_one_naming_the_field(
        self, tmp_path, capsys, family, changes, entries, message
    ):
        spec = {**INLINE[family], **changes}
        spec = {key: value for key, value in spec.items() if value is not _REMOVED}
        code, out = self.run(tmp_path, spec, **entries)
        assert code == 1
        assert f"run config: scenario: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family", sorted(INLINE))
    def test_single_leaf_mutations_exit_zero_or_one(self, tmp_path, capsys, family):
        assert self.run(tmp_path, INLINE[family])[0] == 0
        codes = []
        for n, (leaf, spec) in enumerate(_mutants(INLINE[family])):
            code, out = self.run(tmp_path, spec, name=f"m{n}")
            err = capsys.readouterr().err
            assert code in (0, 1), (leaf, spec, err)
            if code == 1:
                assert "run config: scenario: " in err and leaf[0] in err, (leaf, spec, err)
                assert not out.exists(), (leaf, spec)
            codes.append(code)
        assert 0 in codes and 1 in codes

    def test_overflowing_costs_exit_three_writing_nothing(self, tmp_path, capsys):
        # Each arm's sums stay finite, but Thompson, sure of a positive effect, treats every
        # unit, and the running cost reads 1e308, then 2e308.
        spec = {**INLINE["gaussian_iid"], "population": 1, "mean_control": -5e307,
                "mean_treatment": 5e307, "var_control": 1e10, "var_treatment": 1e10}
        thompson = {"algorithm": "thompson", "thompson": {"c": 1.0},
                    "prior": {"mu0": [0, 100], "sigma0_sq": [1, 1]}}
        with pytest.warns(RuntimeWarning, match="overflow"):
            code, out = self.run(tmp_path, spec, **thompson)
        assert code == 3
        assert "cum_cost is not finite at stage 2" in capsys.readouterr().err
        assert not out.exists()

    def test_moments_whose_posterior_overflows_exit_one_writing_nothing(self, tmp_path, capsys):
        # A mean of -1e30 over the units stage 1 treats, over a variance of 1e-280, passes
        # the float maximum in the posterior mean that stage 2 forms.
        spec = {**INLINE["gaussian_iid"], "mean_treatment": -1e30, "var_control": 1e-280,
                "var_treatment": 1e-280}
        code, out = self.run(tmp_path, spec)
        assert code == 1
        assert "arm 1's posterior mean is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_per_unit_studies_bound_the_stage_population(self, tmp_path, capsys, monkeypatch):
        def no_draws(*args):
            raise AssertionError("the per-unit engine drew units")

        monkeypatch.setattr(replication, "_run_chunk", no_draws)
        population = [20, replication.UNIT_POPULATION_CAP + 1, 20]
        code, out = self.run(tmp_path, {**INLINE["student_t_shifted"], "population": population})
        assert code == 3
        message = f"stage 2: population {population[1]} is more than"
        assert message in capsys.readouterr().err
        assert not out.exists()
        # The batch engine draws stage sums, not units, and keeps the full range.
        spec = {**INLINE["gaussian_iid"], "population": population}
        assert self.run(tmp_path, spec, name="batch")[0] == 0

    def test_an_inline_copy_of_a_builtin_runs_like_it(self, tmp_path):
        spec = {**INLINE["gaussian_iid"], "T": 10, "population": 500, "mean_treatment": -1}
        inline, inline_out = self.run(tmp_path, spec, name="inline", seed=4)
        named, named_out = self.run(tmp_path, "norm", name="named", seed=4)
        assert inline == named == 0
        for name in ("schedule.csv", "summary.json", "quantiles.csv"):
            assert (inline_out / name).read_bytes() == (named_out / name).read_bytes(), name


# One small valid run config per policy: three stages or fewer, three replications or fewer.
RUN_CONFIGS = {
    "analytic": {
        "scenario": "norm", "algorithm": "rrc_analytic", "budget": -500, "delta": 0.05,
        "schedule": {"stage_tolerances": {"type": "uniform", "T": 3},
                     "stage_budgets": [-400, -450, -500]},
        "prior": {"mu0": [0, 0], "sigma0_sq": [100, 100]}, "variance_mode": "known",
        "sigma_sq": [10, 10], "replications": 3, "seed": 2,
    },
    "cantelli": {
        "scenario": "norm", "algorithm": "rrc_cantelli", "budget": -500, "delta": 0.05,
        "schedule": {"stage_tolerances": [0.01, 0.02]}, "replications": 2, "seed": 1,
        "mc": {"samples": 200, "cost": {"type": "capped_effect", "floor": -5.0}},
    },
    "thompson": {
        "scenario": "npte", "algorithm": "thompson", "budget": -500, "delta": 0.01,
        "schedule": {"stage_tolerances": {"type": "uniform", "T": 3}},
        "prior": {"mu0": [0, -2], "sigma0_sq": [0.05, 0.05]},
        "thompson": {"c": 1.0}, "replications": 3, "seed": 2,
    },
}


_PRIOR = GaussianPrior((0.0, 0.0), (100.0, 100.0))


def _study(reps):
    """``run_replications`` of the analytic policy on ``norm`` with ``reps`` replications."""
    policy = AnalyticPolicy(_PRIOR, VariancePolicy())
    return replication.run_replications(
        policy, builtin_scenarios()["norm"], RiskSchedule.uniform(-500.0, 0.05, 10), reps
    )


class TestRunConfigBounds:
    def run(self, tmp_path, config, *flags, name="cfg"):
        out = tmp_path / f"{name}-out"
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        argv = ["run", "--config", str(path), "--out", str(out), "--workers", "1", *flags]
        return main(argv), out

    @pytest.fixture
    def no_study(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("a study started")

        monkeypatch.setattr(replication, "_map_chunks", no_work)

    @pytest.mark.parametrize(
        "entries, key",
        [
            ({"replications": 1e300}, "replications"),
            ({"replications": 10**6 + 1}, "replications"),
            ({"algorithm": "rrc_cantelli", "mc": {"samples": 1e12}}, "mc.samples"),
            ({"algorithm": "rrc_cantelli", "mc": {"samples": 1e300}}, "mc.samples"),
            ({"algorithm": "rrc_cantelli", "mc": {"samples": 10**6 + 1}}, "mc.samples"),
        ],
    )
    def test_a_count_past_its_bound_exits_one_before_any_work(
        self, tmp_path, capsys, no_study, entries, key
    ):
        config = {"scenario": "norm", "budget": -500, "delta": 0.05, "replications": 1, **entries}
        code, out = self.run(tmp_path, config)
        assert code == 1
        err = capsys.readouterr().err
        assert f"run config: {key} must be a whole number in [1, 1000000]" in err
        assert not out.exists()

    @pytest.mark.parametrize("floor", [1e101, -1e101, 1e300, -1e300])
    def test_a_floor_past_its_bound_exits_one_naming_it_before_any_work(
        self, tmp_path, capsys, no_study, floor
    ):
        cost = {"type": "capped_effect", "floor": floor}
        code, out = self.run(tmp_path, {**RUN_CONFIGS["cantelli"], "mc": {"cost": cost}})
        assert code == 1
        assert (f"run config: mc.cost.floor must be a number in [-1e+100, 1e+100], got {floor!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("floor", [1e100, -1e100])
    def test_a_floor_at_its_bound_runs_without_overflow(self, tmp_path, floor):
        cost = {"type": "capped_effect", "floor": floor}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            code, out = self.run(tmp_path, {**RUN_CONFIGS["cantelli"], "mc": {"cost": cost}})
        assert code == 0 and not caught, caught[:1]

    @pytest.mark.parametrize("scenario", ["norm", "fat"])  # the batch and the per-unit engine
    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--sigma-sq", "1e-320", "1e-320"], "sigma_sq"),
            (["--prior-sigma0-sq", "1e-300", "1"], "prior.sigma0_sq"),
            (["--algo", "thompson", "--prior-sigma0-sq", "1", "5e-324"], "prior.sigma0_sq"),
            (["--variance-mode", "estimated", "--pretrial-sigma-sq", "1e-281", "1"],
             "pretrial_sigma_sq"),
        ],
    )
    def test_a_variance_below_the_floor_exits_one_before_any_work(
        self, tmp_path, capsys, no_study, scenario, flags, key
    ):
        config = {"scenario": scenario, "budget": -500, "delta": 0.05, "replications": 20}
        code, out = self.run(tmp_path, config, *flags)
        assert code == 1
        assert f"run config: {key} must be a pair, each a finite number >= 1e-280" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["norm", "fat"])
    @pytest.mark.parametrize("algo", ["rrc_analytic", "thompson"])
    def test_variances_at_the_floor_run_without_a_warning(self, tmp_path, scenario, algo):
        config = {"scenario": scenario, "algorithm": algo, "budget": -500, "delta": 0.05,
                  "replications": 20, "sigma_sq": [1e-280, 1e-280],
                  "prior": {"mu0": [0, 0], "sigma0_sq": [1e-280, 1e-280]}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            code, _ = self.run(tmp_path, config)
        assert code == 0 and not caught, caught[:1]

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["run", "--scenario", "norm", "--budget", "-500", "--delta", "0.05"], "replications"),
            (["reproduce", "fig2a"], "replications"),
        ],
    )
    def test_a_reps_flag_past_the_bound_exits_one_before_any_work(
        self, tmp_path, capsys, no_study, argv, name
    ):
        out = tmp_path / "out"
        assert main([*argv, "--reps", "100000000000", "--out", str(out), "--workers", "1"]) == 1
        assert f"{name} must be a whole number in [1, 1000000]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, entries, name, build",
        [
            *(("replications", {"replications": k}, "K_rep", lambda k=k: _study(k)) for k in (2.5, True)),
            ("mc.samples", {"algorithm": "rrc_cantelli", "mc": {"samples": 1e12}}, "samples",
             lambda: CantelliPolicy(_PRIOR, VariancePolicy(), samples=1e12)),
            *(("mc.cost.floor",
               {"algorithm": "rrc_cantelli", "mc": {"cost": {"type": "capped_effect", "floor": f}}},
               "floor", lambda f=f: CappedEffectCost(f)) for f in (1e101, "5", True)),
            *(("thompson.c", {"algorithm": "thompson", "thompson": {"c": c}}, "c",
               lambda c=c: ThompsonPolicy(c=c, prior=_PRIOR)) for c in (0, True)),
            ("sigma_sq", {"sigma_sq": [0, 10]}, "values",
             lambda: VariancePolicy("known", [0, 10])),
            ("scenario: T",
             {"scenario": {"family": "gaussian_iid", "T": 0, "population": 100, "mean_control": 0,
                           "mean_treatment": 0, "var_control": 1, "var_treatment": 1}},
             "T", lambda: Scenario("custom", "gaussian_iid", 0, 100, 0, 0, 1, 1)),
        ],
        ids=["K_rep-fraction", "K_rep-bool", "samples", "floor-past-cap", "floor-string",
             "floor-bool", "c-zero", "c-bool", "sigma_sq", "scenario-T"],
    )
    def test_a_shared_rule_refuses_alike_in_the_cli_and_the_constructor(
        self, tmp_path, capsys, no_study, key, entries, name, build
    ):
        """The CLI's schema and the constructor read one rule of ``schedules.RULES``."""
        with pytest.raises(ValueError) as refused:
            build()
        message = str(refused.value)
        assert message.startswith(f"{name} must be ")
        wants = message[len(f"{name} must be "):].rsplit(", got ", 1)[0]
        config = {"scenario": "norm", "budget": -500, "delta": 0.05, "replications": 1, **entries}
        code, out = self.run(tmp_path, config)
        assert code == 1
        assert f"run config: {key} must be {wants}, got " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "next-stage"])
    def test_a_prior_whose_mean_term_overflows_exits_one_writing_nothing(
        self, tmp_path, capsys, command
    ):
        # mu0 * (1 / sigma0_sq) = 1e30 * 1e280 makes the first posterior mean inf.
        out = tmp_path / "out"
        prior = ["--prior-mu0", "1e30", "0", "--prior-sigma0-sq", "1e-280", "1"]
        if command == "run":
            argv = ["run", "--scenario", "norm", "--budget", "-500", "--delta", "0.05",
                    "--reps", "20", "--out", str(out), *prior]
            source, written = "run config", out / "summary.json"
        else:
            written = tmp_path / "state.json"
            argv = [*TestNextStage.FRESH, "--state", str(written), *prior]
            source = f"state file {written}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            assert main(argv) == 1
        assert not caught, caught[:1]
        err = capsys.readouterr().err
        assert "arm 0's posterior mean is not finite: the prior's mu0 1e+30 over sigma0_sq" in err
        assert not written.exists()

    # The per-unit engine of rrc_cantelli shares 20 replications among a pool of two workers.
    @pytest.mark.parametrize(
        "algo, workers",
        [("rrc_analytic", "1"), ("rrc_cantelli", "1"), ("thompson", "1"), ("rrc_cantelli", "2")],
    )
    def test_supplied_variances_whose_quotient_overflows_exit_one_writing_nothing(
        self, tmp_path, capsys, algo, workers
    ):
        # Each treated unit adds -1e30 to the treated sum, which over a supplied variance of
        # 1e-280 passes the float maximum in the posterior mean that stage 2 forms.
        config = {"scenario": {"family": "gaussian_iid", "T": 10, "population": 500,
                               "mean_control": 0, "mean_treatment": -1e30,
                               "var_control": 10, "var_treatment": 10},
                  "algorithm": algo, "sigma_sq": [1e-280, 1e-280], "budget": -500,
                  "delta": 0.05, "replications": 20}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            code, out = self.run(tmp_path, config, "--workers", workers)
        assert code == 1 and not caught, caught[:1]
        assert "arm 1's posterior mean is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("policy", sorted(RUN_CONFIGS))
    def test_single_leaf_and_flag_mutations_never_fail_at_run_time(
        self, tmp_path, capsys, monkeypatch, policy
    ):
        """Every leaf of a small config, and each count flag, set to each odd value in turn.

        The call exits 0, 1, 2 or 4, never 3 and never with an exception,
        and a non-zero exit writes nothing.
        """
        real = replication.run_replications

        def small(policy, scenario, schedule, K_rep, *args, **kwargs):
            # A larger study comes only from a mutated count, and may not end.
            assert K_rep <= 3, f"a study of {K_rep} replications got past the checks"
            return real(policy, scenario, schedule, K_rep, *args, **kwargs)

        monkeypatch.setattr(replication, "run_replications", small)
        config = RUN_CONFIGS[policy]
        assert self.run(tmp_path, config)[0] == 0
        mutants = []
        for path in _leaf_paths(config):
            for value in _ODD_VALUES:
                mutant = json.loads(json.dumps(config))
                _put(*path, value=value)(mutant)
                mutants.append((path, value, mutant, ()))
        for flag in ("--reps", "--seed", "--workers", "--T"):
            mutants += [(flag, value, config, (f"{flag}={json.dumps(value)}",))
                        for value in _ODD_VALUES]
        codes = set()
        for n, (where, value, mutant, flags) in enumerate(mutants):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                code, out = self.run(tmp_path, mutant, *flags, name=f"m{n}")
            assert not caught, (where, value, caught[0])
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 4), (where, value, err)
            if code != 0:
                assert not out.exists(), (where, value, code)
            codes.add(code)
        assert len(mutants) > 200 and {0, 1, 2} <= codes


def legacy_figure_jobs(figure):
    """The preset builders that the config table replaced: (jobs, default replications)."""
    noninformative = GaussianPrior(mu0=(0.0, 0.0), sigma0_sq=(100.0, 100.0))
    bandit = GaussianPrior(mu0=(0.0, -2.0), sigma0_sq=(0.05, 0.05))

    def ramp_jobs(scenario, configs):
        policy = AnalyticPolicy(prior=noninformative, variance=VariancePolicy())
        return [
            {"label": label, "scenario": scenario, "algorithm": "rrc_analytic",
             "schedule": schedule, "policy": policy}
            for label, schedule in configs
        ]

    def thompson_jobs(scenario, budget):
        schedule = RiskSchedule.uniform(budget, 0.01, builtin_scenarios()[scenario].T)
        return [
            {"label": f"c{c:g}", "scenario": scenario, "algorithm": "thompson",
             "schedule": schedule, "policy": ThompsonPolicy(c=c, prior=bandit)}
            for c in (0.25, 1.0, 4.0)
        ]

    standard = [
        ("B-500_d0.05", RiskSchedule.uniform(-500.0, 0.05, 10)),
        ("B-500_d0.01", RiskSchedule.uniform(-500.0, 0.01, 10)),
    ]
    ration_budget = RiskSchedule.uniform(
        -500.0, 0.01, 10, stage_budgets=tuple(-400.0 if t <= 5 else -500.0 for t in range(1, 11))
    )
    ration_tolerance = RiskSchedule(
        -500.0, 0.01, (-500.0,) * 10, tuple(0.0001 if t <= 5 else 0.0019 for t in range(1, 11))
    )
    linkedin_ration = RiskSchedule.uniform(
        -1500.0, 0.01, 6, stage_budgets=tuple(-400.0 if t <= 4 else -1500.0 for t in range(1, 7))
    )
    if figure == "fig1a":
        return ramp_jobs("pte", standard), 500
    if figure in ("fig1b", "fig1g"):
        return ramp_jobs("nte", standard), 500
    if figure in ("fig1c", "fig1h"):
        rationed = [("ration_budget", ration_budget), ("ration_tolerance", ration_tolerance)]
        return ramp_jobs("npte", standard + rationed), 500
    if figure == "fig1d":
        configs = [
            ("B-1500_d0.01", RiskSchedule.uniform(-1500.0, 0.01, 6)),
            ("ration_budget_linkedin", linkedin_ration),
        ]
        return ramp_jobs("linkedin", configs), 500
    if figure in ("fig1e", "fig1i"):
        return thompson_jobs("npte", -500.0), 500
    if figure == "fig1f":
        return thompson_jobs("linkedin", -1500.0), 500
    scenario = {"fig2a": "norm", "fig2b": "corr", "fig2c": "bern", "fig2d": "fat", "fig2e": "dec"}
    return ramp_jobs(scenario[figure], standard[:1]), 5000


FIGURES = [f"fig1{c}" for c in "abcdefghi"] + [f"fig2{c}" for c in "abcde"]


class TestReproduce:
    def test_a_failing_run_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        real, calls = replication.run_replications, []

        def second_run_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise ValueError("cum_cost is not finite at stage 1")
            return real(*args, **kwargs)

        monkeypatch.setattr(replication, "run_replications", second_run_fails)
        code = main(["reproduce", "fig1a", "--out", str(tmp_path / "out"), "--reps", "4",
                     "--workers", "1"])
        assert (code, len(calls)) == (3, 2)
        assert "cum_cost is not finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fig2c_small(self, tmp_path):
        code = main(
            ["reproduce", "fig2c", "--out", str(tmp_path), "--reps", "40", "--workers", "1"]
        )
        assert code == 0
        fig_dir = tmp_path / "fig2c"
        ruin = (fig_dir / "ruin.csv").read_text().splitlines()
        assert ruin[0].startswith("# figure=fig2c")
        assert "scenario=bern" in ruin[0]
        assert ruin[1] == "scenario,ruin_rate,half_width,replications,delta"
        assert (fig_dir / "spend.csv").exists()
        prov = json.loads((fig_dir / "provenance.json").read_text())
        assert prov["figure"] == "fig2c"
        assert prov["runs"][0]["scenario"] == "bern"

    def test_fig1a_emits_config_labelled_tables(self, tmp_path):
        code = main(
            ["reproduce", "fig1a", "--out", str(tmp_path), "--reps", "12", "--workers", "1"]
        )
        assert code == 0
        fig_dir = tmp_path / "fig1a"
        files = sorted(p.name for p in fig_dir.iterdir())
        assert "quantiles_B-500_d0.05.csv" in files
        assert "quantiles_B-500_d0.01.csv" in files
        body = (fig_dir / "quantiles_B-500_d0.05.csv").read_text().splitlines()
        assert body[0].startswith("# figure=fig1a")
        assert body[1] == "stage,m_q25,m_q50,m_q75,surplus_q25,surplus_q50,surplus_q75"

    def test_fig1d_marks_overlay_as_user_supplied(self, tmp_path):
        code = main(
            ["reproduce", "fig1d", "--out", str(tmp_path), "--reps", "6", "--workers", "1"]
        )
        assert code == 0
        prov = json.loads((tmp_path / "fig1d" / "provenance.json").read_text())
        assert "actual_series" in prov
        labels = {run["label"] for run in prov["runs"]}
        assert "ration_budget_linkedin" in labels

    def test_fig1e_thompson_jobs(self, tmp_path):
        code = main(
            ["reproduce", "fig1e", "--out", str(tmp_path), "--reps", "8", "--workers", "1"]
        )
        assert code == 0
        prov = json.loads((tmp_path / "fig1e" / "provenance.json").read_text())
        assert {run["algorithm"] for run in prov["runs"]} == {"thompson"}
        assert {run["label"] for run in prov["runs"]} == {"c0.25", "c1", "c4"}

    @pytest.mark.parametrize("figure", FIGURES)
    def test_presets_resolve_like_the_builders(self, figure):
        jobs, default_reps = legacy_figure_jobs(figure)
        configs = cli._PRESETS[figure]
        assert list(configs) == [job["label"] for job in jobs]
        for job, (label, config) in zip(jobs, configs.items()):
            assert config["scenario"] == job["scenario"], label
            resolved = cli._resolve(label, config)
            legacy = (builtin_scenarios()[job["scenario"]], job["algorithm"], job["schedule"],
                      job["policy"], default_reps, 0)
            assert resolved == legacy, label

    def test_a_preset_runs_as_run_runs_its_config(self, tmp_path):
        # reproduce writes --reps and --seed over each preset config as run writes its
        # flags over a config file: the two tables match below the provenance line.
        argv = ["reproduce", "fig1c", "--reps", "40", "--seed", "3", "--workers", "1"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        config = {**cli._PRESETS["fig1c"]["ration_budget"], "replications": 40, "seed": 3}
        path = tmp_path / "ration_budget.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert main(["run", "--config", str(path), "--workers", "1", "--out", str(out)]) == 0
        header, body = (tmp_path / "fig1c" / "quantiles_ration_budget.csv").read_bytes().split(
            b"\n", 1
        )
        assert header.startswith(b"# figure=fig1c label=ration_budget ")
        assert body == (out / "quantiles.csv").read_bytes()

    @pytest.mark.parametrize("figure", ["fig1c", "fig1e"])
    def test_golden_outputs(self, tmp_path, figure):
        # Written by the preset builders that the config table replaced.
        argv = ["reproduce", figure, "--reps", "20", "--seed", "3", "--workers", "1"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        golden = GOLDEN / "reproduce" / figure
        names = sorted(p.name for p in golden.iterdir())
        assert sorted(p.name for p in (tmp_path / figure).iterdir()) == names
        for name in names:
            assert (tmp_path / figure / name).read_text() == (golden / name).read_text(), name

    def test_invalid_preset_schedule_exits_two_writing_nothing(self, tmp_path, monkeypatch):
        configs = {
            "valid": {"scenario": "pte", "budget": -500, "delta": 0.05, "replications": 2},
            "invalid": {"scenario": "pte", "budget": -500, "delta": 0.05, "replications": 2,
                        "schedule": {"stage_budgets": -600}},
        }
        monkeypatch.setitem(cli._PRESETS, "fig1a", configs)
        assert main(["reproduce", "fig1a", "--out", str(tmp_path), "--workers", "1"]) == 2
        assert not (tmp_path / "fig1a").exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--scenario", "norm", "--budget", "-500", "--delta", "0.05", "--reps", "5",
             "--workers", "-4"],
            ["reproduce", "fig2a", "--reps", "5", "--workers", "0"],
        ],
        ids=["run", "reproduce"],
    )
    def test_workers_below_one_exit_one(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([*command, "--out", str(out)]) == 1
        assert "--workers must be a whole number >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_one_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["reproduce", "fig2a", "--seed", "-1", "--reps", "5", "--out", str(out)]) == 1
        assert "preset fig2a B-500_d0.05: seed must be a whole number >= 0, got -1" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_unknown_figure_exits_one(self):
        assert main(["reproduce", "fig9z", "--out", "/tmp"]) == 1

    @pytest.mark.parametrize(
        "command",
        [
            ["reproduce", "fig2a", "--reps", "5"],
            ["run", "--scenario", "norm", "--budget", "-500", "--delta", "0.05", "--reps", "5"],
        ],
        ids=["reproduce", "run"],
    )
    def test_non_integer_thread_variable_exits_one(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setenv("RAMPGUARD_THREADS", "abc")
        assert main([*command, "--out", str(tmp_path / "out")]) == 1
        assert "RAMPGUARD_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,config,name",
        [
            (["reproduce", "fig2a", "--reps", "0"], None, "preset fig2a B-500_d0.05: replications"),
            (["run", "--reps", "-1"], {}, "replications"),
            (["run"], {"replications": 0}, "replications"),
            (["run"], {"replications": 2.5}, "replications"),
            (["run"], {"replications": "many"}, "replications"),
            (["run", "--algo", "rrc_cantelli"], {"mc": {"samples": 0}}, "mc.samples"),
        ],
        ids=[
            "reproduce-reps", "run-reps", "run-config-zero", "run-config-fraction",
            "run-config-string", "run-config-samples",
        ],
    )
    def test_count_below_one_exits_one(self, tmp_path, capsys, command, config, name):
        if config is not None:
            config = {"scenario": "norm", "budget": -500, "delta": 0.05, **config}
            (tmp_path / "config.json").write_text(json.dumps(config))
            command = [*command, "--config", str(tmp_path / "config.json")]
        assert main([*command, "--out", str(tmp_path / "out")]) == 1
        assert f"{name} must be a whole number in [1, 1000000]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_odd_count_flags_exit_zero_or_one(self, tmp_path, capsys):
        """``reproduce fig2a`` with each count flag set to each odd text in turn.

        Every call exits 0 or 1, never 3, and an exit 1 writes no ``fig2a/``.
        The other flags stay small: 300 replications are one group of
        blocks, which runs in process whatever the worker count.
        """
        valid = {"--reps": "300", "--seed": "1", "--workers": "2"}
        odd = ("0", "-1", "2.5", "1e300", "nan", "", str(10**400))
        codes = set()
        for n, (flag, text) in enumerate((flag, text) for flag in valid for text in odd):
            out = tmp_path / f"m{n}"
            flags = [f"{f}={v}" for f, v in {**valid, flag: text}.items()]
            code = main(["reproduce", "fig2a", *flags, "--out", str(out)])
            err = capsys.readouterr().err
            assert code in (0, 1), (flag, text, err)
            assert (out / "fig2a").exists() == (code == 0), (flag, text, code)
            codes.add(code)
        assert codes == {0, 1}


class TestNextStage:
    FRESH = [
        "next-stage", "--budget", "-500", "--delta", "0.05",
        "--variance-mode", "known", "--sigma-sq", "10", "10",
        "--n-next", "500", "--delta-next", "0.005", "--b-next", "-500",
    ]

    def test_fresh_state_stage_one_decision(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        code = main([*self.FRESH, "--state", str(state)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {
            "stage": 1, "m_next": 13, "p_next": 13 / 500, "branch": "root_selected"
        }
        saved = json.loads(state.read_text())
        assert saved["stages"] == {
            "stage_budgets": [-500.0], "stage_tolerances": [0.005], "n": [500], "m": [13],
            "treated_sum": [], "control_sum": [], "treated_sumsq": [], "control_sumsq": [],
        }
        assert state.read_text().count("\n") == 1  # one line

    def test_idempotent_rerun(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        assert main([*self.FRESH, "--state", str(state)]) == 0
        first = capsys.readouterr().out
        before = state.read_text()
        assert main([*self.FRESH, "--state", str(state)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert state.read_text() == before

    def test_second_stage_requires_observations(self, tmp_path):
        state = tmp_path / "state.json"
        assert main([*self.FRESH, "--state", str(state)]) == 0
        # Different inputs (so not an idempotent replay) but no observed
        # sums for the pending stage: config error.
        code = main(
            [
                "next-stage", "--state", str(state),
                "--n-next", "500", "--delta-next", "0.004", "--b-next", "-500",
            ]
        )
        assert code == 1

    def test_full_two_stage_flow_and_round_trip(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        assert main([*self.FRESH, "--state", str(state)]) == 0
        capsys.readouterr()
        code = main(
            [
                "next-stage", "--state", str(state),
                "--treated-sum", "13.0", "--control-sum", "487.0",
                "--treated-sumsq", "143.0", "--control-sumsq", "5357.0",
                "--n-next", "500", "--delta-next", "0.005", "--b-next", "-500",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stage"] == 2
        assert 0 <= out["m_next"] <= 250
        stages = json.loads(state.read_text())["stages"]
        # The stages as given: each decided stage's inputs, the observed stage's sums.
        assert stages["stage_tolerances"] == [0.005, 0.005]
        assert stages["n"] == [500, 500] and stages["m"] == [13, out["m_next"]]
        assert (stages["treated_sum"], stages["control_sum"]) == ([13.0], [487.0])
        assert (stages["treated_sumsq"], stages["control_sumsq"]) == ([143.0], [5357.0])

    def test_exhausted_tolerance_exits_four(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        args = [
            "next-stage", "--state", str(state), "--budget", "-500", "--delta", "0.05",
            "--variance-mode", "known", "--sigma-sq", "10", "10",
            "--n-next", "500", "--delta-next", "0.05", "--b-next", "-500",
        ]
        assert main(args) == 0
        capsys.readouterr()
        code = main(
            [
                "next-stage", "--state", str(state),
                "--treated-sum", "10.0", "--control-sum", "480.0",
                "--n-next", "500", "--delta-next", "0.001", "--b-next", "-500",
            ]
        )
        assert code == 4
        assert "exhausted" in capsys.readouterr().out

    def test_an_exhausted_call_rerun_exits_four_again(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        opening = [*self.FRESH, "--state", str(state)]
        opening[opening.index("--delta-next") + 1] = "0.05"
        assert main(opening) == 0
        exhausted = [
            "next-stage", "--state", str(state),
            "--treated-sum", "10.0", "--control-sum", "480.0",
            "--n-next", "500", "--delta-next", "0.001", "--b-next", "-500",
        ]
        capsys.readouterr()
        assert main(exhausted) == 4
        first = capsys.readouterr().out
        before = state.read_bytes()
        assert main(exhausted) == 4
        assert capsys.readouterr().out == first == (
            "tolerance budget exhausted; no further stages can run\n"
        )
        assert state.read_bytes() == before

    def test_observed_sums_without_a_pending_stage_exit_one(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        args = [*self.FRESH, "--state", str(state), "--treated-sum", "1.0", "--control-sum", "2.0"]
        assert main(args) == 1
        assert "no stage is awaiting observations" in capsys.readouterr().err
        assert not state.exists()

    @pytest.mark.parametrize(
        "content, fault",
        [(b"{1,", "is not valid JSON"),
         (b'{"version": 1, "budget": -500.0 \xff}', "is not valid JSON"),
         (b"[" * 100_000, "is not valid JSON"), (b"[1, 2]", "does not hold a JSON object"),
         (b'\xef\xbb\xbf{"version": 2}', "is not valid JSON: Unexpected UTF-8 BOM "
          "(decode using utf-8-sig): line 1 column 1 (char 0)\n"),
         ('{"version": 2}'.encode("utf-16"), "is not valid JSON: 'utf-8' codec can't decode "
          "byte 0xff in position 0: invalid start byte\n"),
         # Line ends are counted as text mode reads them.
         (b'{\r\n"a": }\r\n', "is not valid JSON: Expecting value: line 2 column 6 (char 7)\n"),
         (b'{\r"a":\r }', "is not valid JSON: Expecting value: line 3 column 2 (char 8)\n")],
        ids=["invalid", "not-utf-8", "nested-too-deeply", "not-an-object", "utf-8-bom", "utf-16",
             "crlf", "cr"],
    )
    def test_a_state_file_that_holds_no_object_exits_one(self, tmp_path, capsys, content, fault):
        state = tmp_path / "state.json"
        state.write_bytes(content)
        assert main([*self.FRESH, "--state", str(state)]) == 1
        assert f"state file {state} {fault}" in capsys.readouterr().err
        assert state.read_bytes() == content

    def test_a_missing_file_is_refused_by_the_reader(self, tmp_path):
        # next-stage opens a fresh state where its file is missing; the
        # reader itself refuses a missing file of either kind.
        for kind in ("config file", "state file"):
            with pytest.raises(cli.ConfigError, match=f"{kind} .* not found"):
                cli._load_json(kind, str(tmp_path / "missing.json"))

    def test_overdrawn_stage_tolerance_exits_two(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        assert main([*self.FRESH, "--state", str(state)]) == 0
        capsys.readouterr()
        code = main(
            [
                "next-stage", "--state", str(state),
                "--treated-sum", "13.0", "--control-sum", "487.0",
                "--n-next", "500", "--delta-next", "0.9", "--b-next", "-500",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "stages,message",
        [
            ({"stage_budgets": [-900.0]}, "stage 1: budget -900.0"),
            (
                {"stage_budgets": [-500.0] * 2, "stage_tolerances": [0.04, 0.04],
                 "n": [500, 500], "m": [13, 13], "treated_sum": [13.0], "control_sum": [487.0],
                 "treated_sumsq": [None], "control_sumsq": [None]},
                "stage 2: tolerance product",
            ),
        ],
        ids=["stage-budget-below-floor", "tolerances-spend-more-than-delta"],
    )
    def test_consumed_stages_that_break_the_schedule_exit_two(
        self, tmp_path, capsys, stages, message
    ):
        state = tmp_path / "state.json"
        assert main([*self.FRESH, "--state", str(state)]) == 0
        saved = json.loads(state.read_text())
        saved["stages"].update(stages)
        state.write_text(json.dumps(saved))
        before = state.read_bytes()
        capsys.readouterr()
        argv = ["next-stage", "--state", str(state), "--treated-sum", "13.0",
                "--control-sum", "487.0", *self.NEXT]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert state.read_bytes() == before

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda state: state.update(version=7), "version 7"),
            (lambda state: state.pop("version"), "version None"),
            (lambda state: state.pop("stages"), "'stages'"),
            (lambda state: state["stages"].pop("m"), "stages.m"),
            (lambda state: state.update(budget="-500"), "budget must be a number"),
            (lambda state: state["stages"].update(m=["a"]),
             "stages.m must be a list of integers >= 0"),
            (lambda state: state.update(variance_mode="bogus"), "variance_mode"),
            (lambda state: state.update(sigma_sq=None), "needs sigma_sq"),
            (lambda state: state.update(stages=[1, 13, 500]), "stages must be an object"),
            (lambda state: state["stages"].update(m=[13.5]),
             "stages.m must be a list of integers >= 0, got [13.5]"),
            (
                lambda state: state.update(sigma_sq=[0.0, 10.0]),
                "sigma_sq must be a pair, each a finite number >= 1e-280",
            ),
            (lambda state: state["stages"].update(count=[0, 0]), "unknown key 'stages.count'"),
            # A version-1 counter or statistic in a version-2 file.
            *((lambda state, key=key: state.update({key: 1}), f"unknown key {key!r}")
              for key in ("stage", "tolerance_product", "consumed", "stats", "pending")),
            (
                lambda state: state.update(variance_mode="estimated"),
                "estimated variance mode needs pretrial_sigma_sq",
            ),
            (lambda state: state["stages"].update(m=[-5]),
             "stages.m must be a list of integers >= 0, got [-5]"),
            (
                lambda state: state["stages"].update(m=[501]),
                "stage 1 m must be <= n // 2, the cap of a stage, got 501 of 500",
            ),
            (
                lambda state: state["stages"].update(m=[300]),
                "stage 1 m must be <= n // 2, the cap of a stage, got 300 of 500",
            ),
            # A float rounds 2**53 + 1 down to 2**53; the integer itself is past the bound.
            *(
                (_put("stages", "n", value=[n]),
                 f"stages.n must be a list of integers in [1, 2**53], got [{n}]")
                for n in (0, 2**53 + 1)
            ),
            # Columns of unequal length.
            (
                lambda state: state["stages"].update(n=[500, 500]),
                "stages.n must hold one entry per stage of stages.stage_budgets, 1, got 2",
            ),
            (
                lambda state: state["stages"].update(stage_tolerances=[]),
                "stages.stage_tolerances must hold one entry per stage of stages.stage_budgets, "
                "1, got 0",
            ),
            (
                lambda state: state["stages"].update(treated_sum=[13.0]),
                "stages.control_sum must hold one entry per stage of stages.treated_sum, 1, got 0",
            ),
            # Two stages awaiting observations, and an observed stage never decided.
            (
                lambda state: state["stages"].update(
                    stage_budgets=[-500.0] * 2, stage_tolerances=[0.005] * 2,
                    n=[500, 500], m=[13, 13]),
                "stages must observe every decided stage but at most the last, "
                "got 0 observed of 2 decided",
            ),
            (
                lambda state: state["stages"].update(
                    treated_sum=[13.0] * 2, control_sum=[487.0] * 2,
                    treated_sumsq=[None] * 2, control_sumsq=[None] * 2),
                "stages must observe every decided stage but at most the last, "
                "got 2 observed of 1 decided",
            ),
            (
                lambda state: state["prior"].update(mu0=[float("nan"), 0.0]),
                "prior.mu0 must be a pair, each a finite number",
            ),
            (
                lambda state: state["stages"].update(treated_sumsq=["143"]),
                "stages.treated_sumsq must be a list of numbers or nulls, got ['143']",
            ),
            # Integers past the float range: refused before they reach a float.
            *((_put(*path, value=10**400), f"{_dotted(path)} must be") for path in _HUGE_LEAVES),
            (_put("pretrial_sigma_sq", value=[10**400, 10.0]), "pretrial_sigma_sq must be"),
        ],
        ids=[
            "future-version", "no-version", "no-stages", "no-stages-m",
            "string-budget", "string-m", "unknown-variance-mode", "known-without-sigma-sq",
            "stages-not-object",
            "fractional-m",
            "zero-sigma-sq",
            "unknown-key",
            *(f"version-1-key-{key}"
              for key in ("stage", "tolerance_product", "consumed", "stats", "pending")),
            "estimated-without-pretrial",
            "negative-m",
            "m-above-n",
            "m-above-half",
            "zero-n",
            "n-past-2**53",
            "n-longer-than-the-schedule",
            "tolerances-shorter-than-the-budgets",
            "control-sums-shorter-than-the-treated",
            "two-stages-pending",
            "observed-past-decided",
            "nan-prior-mean",
            "string-sumsq",
            *(f"huge-{_dotted(path)}" for path in _HUGE_LEAVES),
            "huge-pretrial-sigma-sq",
        ],
    )
    def test_unreadable_state_exits_one(self, tmp_path, capsys, edit, message):
        state = tmp_path / "state.json"
        assert main([*self.FRESH, "--state", str(state)]) == 0
        saved = json.loads(state.read_text())
        edit(saved)
        state.write_text(json.dumps(saved))
        before = state.read_text()
        capsys.readouterr()
        code = main(
            [
                "next-stage", "--state", str(state),
                "--treated-sum", "13.0", "--control-sum", "487.0",
                "--n-next", "500", "--delta-next", "0.005", "--b-next", "-500",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert str(state) in err and message in err
        assert state.read_text() == before

    @pytest.mark.parametrize(
        "flag, values",
        [
            ("--n-next", ["0"]),
            ("--n-next", ["-3"]),
            ("--n-next", ["1" + "0" * 400]),
            ("--sigma-sq", ["0", "10"]),
            ("--sigma-sq", ["nan", "10"]),
            ("--pretrial-sigma-sq", ["10", "-1"]),
            ("--prior-sigma0-sq", ["inf", "1"]),
            ("--prior-mu0", ["nan", "0"]),
            ("--prior-mu0", ["0", "inf"]),
            ("--n-next", [str(2**53 + 1)]),
        ],
    )
    def test_bad_operator_inputs_exit_one(self, tmp_path, capsys, flag, values):
        # --n-next stands for no state entry and is named as a flag; a fresh state's
        # belief flags are checked, and named, as the entries they are written over.
        entries = {"--sigma-sq": "sigma_sq", "--pretrial-sigma-sq": "pretrial_sigma_sq",
                   "--prior-sigma0-sq": "prior.sigma0_sq", "--prior-mu0": "prior.mu0"}
        fresh = tmp_path / "fresh.json"
        assert main([*self.FRESH, "--state", str(fresh), flag, *values]) == 1
        name = f"state file {fresh}: {entries[flag]}" if flag in entries else f"next-stage: {flag}"
        assert f"{name} must be" in capsys.readouterr().err
        assert not fresh.exists()

        state = tmp_path / "state.json"
        assert main([*self.FRESH, "--state", str(state)]) == 0
        before = state.read_bytes()
        capsys.readouterr()
        observed = ["--treated-sum", "13.0", "--control-sum", "487.0"]
        argv = ["next-stage", "--state", str(state), *observed, *self.NEXT, flag, *values]
        assert main(argv) == 1
        assert flag in capsys.readouterr().err
        assert state.read_bytes() == before

    @pytest.mark.parametrize(
        "flag, values",
        [
            ("--budget", ["-900"]),
            ("--delta", ["0.1"]),
            ("--prior-mu0", ["0", "1"]),
            ("--prior-sigma0-sq", ["1", "1"]),
            ("--variance-mode", ["estimated"]),
            ("--sigma-sq", ["1", "1"]),
            ("--pretrial-sigma-sq", ["1", "1"]),
        ],
    )
    def test_a_flag_that_differs_from_the_state_exits_one(self, tmp_path, capsys, flag, values):
        state = tmp_path / "state.json"
        assert main([*self.FRESH, "--state", str(state)]) == 0
        before = state.read_bytes()
        capsys.readouterr()
        observed = ["--treated-sum", "13.0", "--control-sum", "487.0"]
        argv = ["next-stage", "--state", str(state), *observed, *self.NEXT, flag, *values]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{flag} " in err and "fresh state only" in err
        assert state.read_bytes() == before

    def test_flags_equal_to_the_state_are_accepted(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        assert main([*self.FRESH, "--state", str(state)]) == 0
        capsys.readouterr()
        observed = ["--treated-sum", "13.0", "--control-sum", "487.0"]
        same = ["--prior-mu0", "0", "0", "--prior-sigma0-sq", "100", "100"]
        assert main([*self.FRESH, "--state", str(state), *observed, *same]) == 0
        assert json.loads(capsys.readouterr().out)["stage"] == 2

    def test_fresh_state_requires_budget(self, tmp_path):
        code = main(["next-stage", "--state", str(tmp_path / "s.json"), "--n-next", "10",
                     "--delta-next", "0.01", "--b-next", "-5"])
        assert code == 1

    @pytest.mark.parametrize(
        "flag, key",
        [("--sigma-sq", "sigma_sq"), ("--prior-sigma0-sq", "prior.sigma0_sq"),
         ("--pretrial-sigma-sq", "pretrial_sigma_sq")],
        ids=["--sigma-sq", "--prior-sigma0-sq", "--pretrial-sigma-sq"],
    )
    def test_a_fresh_variance_below_the_floor_exits_one_and_writes_no_state(
        self, tmp_path, capsys, flag, key
    ):
        state = tmp_path / "state.json"
        assert main([*self.FRESH, "--state", str(state), flag, "1e-320", "1e-320"]) == 1
        assert f"state file {state}: {key} must be a pair, each a finite number >= 1e-280" in (
            capsys.readouterr().err
        )
        assert not state.exists()

    def test_fresh_state_with_nonnegative_budget_exits_two(self, tmp_path):
        state = tmp_path / "state.json"
        args = [*self.FRESH, "--state", str(state)]
        args[args.index("--budget") + 1] = "0"
        args[args.index("--b-next") + 1] = "0"
        assert main(args) == 2
        assert not state.exists()

    def test_zero_tolerance_stage_after_spent_delta_is_decided(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        args = [*self.FRESH, "--state", str(state)]
        args[args.index("--delta-next") + 1] = "0.05"
        assert main(args) == 0
        capsys.readouterr()
        code = main(
            [
                "next-stage", "--state", str(state),
                "--treated-sum", "10.0", "--control-sum", "480.0",
                "--n-next", "500", "--delta-next", "0", "--b-next", "-500",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["m_next"], out["branch"]) == (0, "zero_tolerance")

    ESTIMATED = [
        "next-stage", "--budget", "-500", "--delta", "0.05",
        "--variance-mode", "estimated", "--pretrial-sigma-sq", "10", "10",
        "--n-next", "500", "--delta-next", "0.005", "--b-next", "-500",
    ]
    NEXT = ["--n-next", "500", "--delta-next", "0.005", "--b-next", "-500"]

    @pytest.mark.parametrize(
        "opening, observed",
        [
            # Estimated mode reads missing sums of squares as zero variance.
            ("ESTIMATED", ["--treated-sum", "13.0", "--control-sum", "487.0"]),
            ("ESTIMATED", ["--treated-sum", "13.0", "--control-sum", "487.0",
                           "--treated-sumsq", "143.0"]),
            ("FRESH", ["--treated-sum", "nan", "--control-sum", "487.0"]),
            ("FRESH", ["--treated-sum", "13.0", "--control-sum", "inf"]),
            ("FRESH", ["--treated-sum", "13.0", "--control-sum", "487.0",
                       "--control-sumsq=-inf"]),
            # Cauchy-Schwarz: 13 treated units summing to 13 need sumsq >= 13.
            ("FRESH", ["--treated-sum", "13.0", "--control-sum", "487.0",
                       "--treated-sumsq", "12.9"]),
            ("FRESH", ["--treated-sum", "13.0", "--control-sum", "487.0",
                       "--control-sumsq", "-1.0"]),
        ],
    )
    def test_observations_that_void_the_guarantee_exit_one(self, tmp_path, opening, observed):
        state = tmp_path / "state.json"
        assert main([*getattr(self, opening), "--state", str(state)]) == 0
        before = state.read_bytes()
        assert main(["next-stage", "--state", str(state), *observed, *self.NEXT]) == 1
        assert state.read_bytes() == before

    def test_sums_for_an_empty_group_exit_one(self, tmp_path):
        state = tmp_path / "state.json"
        args = [*self.FRESH, "--state", str(state)]
        args[args.index("--delta-next") + 1] = "0"  # m = 0: no treated units
        assert main(args) == 0
        observed = ["--control-sum", "487.0", "--treated-sum"]
        assert main(["next-stage", "--state", str(state), *observed, "1.0", *self.NEXT]) == 1
        assert main(["next-stage", "--state", str(state), *observed, "0.0", *self.NEXT]) == 0

    def _two_stage_state(self, tmp_path, opening):
        """A state file after an opening call and one observed stage, and the pending ``m``."""
        state = tmp_path / "state.json"
        assert main([*getattr(self, opening), "--state", str(state)]) == 0
        observed = ["--treated-sum", "13.0", "--control-sum", "487.0",
                    "--treated-sumsq", "143.0", "--control-sumsq", "5357.0"]
        assert main(["next-stage", "--state", str(state), *observed, *self.NEXT]) == 0
        return state, json.loads(state.read_text())["stages"]["m"][-1]

    def _refused_after(self, tmp_path, capsys, opening, edit):
        """The stderr of a call on a two-stage state edited by ``edit``, which must exit 1
        and leave the file's bytes as they were."""
        state, m = self._two_stage_state(tmp_path, opening)
        saved = json.loads(state.read_text())
        edit(saved)
        saved["last_call"] = None
        state.write_text(json.dumps(saved))
        before = state.read_bytes()
        capsys.readouterr()
        observed = ["--treated-sum", "0.0", "--control-sum", "0.0",
                    "--treated-sumsq", f"{10.0 * m}", "--control-sumsq", f"{10.0 * (500 - m)}"]
        assert main(["next-stage", "--state", str(state), *observed, *self.NEXT]) == 1
        assert state.read_bytes() == before
        err = capsys.readouterr().err
        assert f"state file {state}: " in err
        return err

    @pytest.mark.parametrize(
        "opening, edit, message",
        [
            ("ESTIMATED", _put("stages", "treated_sumsq", 0, value=math.nan),
             "stage 1 treated sums must be finite, got [13.0, nan]"),
            ("FRESH", _put("stages", "control_sum", 0, value=math.inf),
             "stage 1 control sums must be finite, got [inf, 5357.0]"),
            ("FRESH", _put("stages", "control_sumsq", 0, value=-1.0),
             "stage 1 control sum of squares -1.0 is below its sum**2 / 487 = 487.0"),
            ("FRESH", _put("stages", "treated_sumsq", 0, value=12.9),
             "stage 1 treated sum of squares 12.9 is below its sum**2 / 13 = 13.0"),
            # An empty arm, as the stage's m of 0 makes the treated one.
            ("FRESH", _put("stages", "m", 0, value=0),
             "stage 1 treated group was empty, so its sums must be 0, got [13.0, 143.0]"),
            # Estimated mode would read a missing sum of squares as zero variance.
            ("ESTIMATED", _put("stages", "control_sumsq", 0, value=None),
             "stage 1: estimated variance mode needs both sums of squares"),
            # The cap holds at every stage, not only the pending one.
            ("FRESH", _put("stages", "m", 0, value=251),
             "stage 1 m must be <= n // 2, the cap of a stage, got 251 of 500"),
            *(("FRESH", _put(*path, value=10**400), f"{_dotted(path)} must be")
              for path in _OBSERVED_LEAVES),
        ],
        ids=["nan-sumsq", "infinite-sum", "negative-sumsq", "sumsq-below-cauchy-schwarz",
             "sums-of-an-empty-arm", "estimated-without-sumsq", "earlier-m-above-half",
             *(f"huge-{path[1]}" for path in _OBSERVED_LEAVES)],
    )
    def test_a_stored_stage_that_breaks_a_stage_rule_exits_one(
        self, tmp_path, capsys, opening, edit, message
    ):
        """A stored stage passes the rules of a stage given by the flags, and the refusal
        names the stage."""
        assert message in self._refused_after(tmp_path, capsys, opening, edit)

    def test_a_version_1_file_exits_one_as_it_was(self, tmp_path, capsys):
        # The layout the previous release wrote after one decided stage.
        state = tmp_path / "state.json"
        state.write_text(json.dumps({
            "version": 1, "budget": -500.0, "delta": 0.05, "stage": 2,
            "tolerance_product": 0.995, "pending": {"stage": 1, "m": 13, "n": 500},
            "consumed": {"stage_budgets": [-500.0], "stage_tolerances": [0.005]},
            "stats": {"treated_sums": [0.0, 0.0], "control_sums": [0.0, 0.0], "counts": [0, 0],
                      "treated_sumsq": 0.0, "control_sumsq": 0.0},
            "prior": {"mu0": [0.0, 0.0], "sigma0_sq": [100.0, 100.0]},
            "variance_mode": "known", "sigma_sq": [10.0, 10.0], "pretrial_sigma_sq": None,
            "last_call": None,
        }, indent=2))
        before = state.read_bytes()
        observed = ["--treated-sum", "13.0", "--control-sum", "487.0"]
        assert main(["next-stage", "--state", str(state), *observed, *self.NEXT]) == 1
        assert (f"state file {state} has version 1; this release reads version 2"
                in capsys.readouterr().err)
        assert state.read_bytes() == before

    def test_a_stored_sum_whose_posterior_overflows_exits_one(self, tmp_path, capsys):
        # A control sum of 1e300 over the control variance estimated from it, clamped to
        # 1e-12, makes the posterior mean inf; read as is, it would decide m_next = 0.
        # Its square passes the float range, so the stored sum of squares falls below it.
        err = self._refused_after(tmp_path, capsys, "ESTIMATED",
                                  _put("stages", "control_sum", 0, value=1e300))
        assert "stage 1 control sum of squares 5357.0 is below its sum**2 / 487 = inf" in err

    def test_a_stored_sum_past_its_sum_of_squares_exits_one(self, tmp_path, capsys):
        # At 1e160 the sum's square overflows but its posterior mean would not: read as is,
        # the variance estimate clamps to 1e-12 and the call decides m_next = 0.
        err = self._refused_after(tmp_path, capsys, "ESTIMATED",
                                  _put("stages", "control_sum", 0, value=1e160))
        assert "stage 1 control sum of squares 5357.0 is below its sum**2 / 487" in err

    def test_a_multi_stage_estimated_rollout_at_the_cauchy_schwarz_bound_is_accepted(self, tmp_path):
        # Every outcome is 1.0, so each stage's sum of squares equals sum**2 / count.
        state = tmp_path / "state.json"
        assert main([*self.ESTIMATED, "--state", str(state)]) == 0
        for _ in range(4):
            m = json.loads(state.read_text())["stages"]["m"][-1]
            observed = [f"{m}.0", f"{500 - m}.0"]
            argv = ["next-stage", "--state", str(state), "--treated-sum", observed[0],
                    "--control-sum", observed[1], "--treated-sumsq", observed[0],
                    "--control-sumsq", observed[1], *self.NEXT]
            assert main(argv) == 0
        stages = json.loads(state.read_text())["stages"]
        treated = [float(m) for m in stages["m"][:-1]]
        assert stages["treated_sum"] == stages["treated_sumsq"] == treated and sum(treated) > 0
        assert stages["control_sum"] == stages["control_sumsq"] == [500.0 - m for m in treated]

    def test_known_mode_stores_partial_sums_of_squares(self, tmp_path):
        # Known mode takes a stage without its sums of squares and stores them as null;
        # the calls that follow still decide.
        state, m = self._two_stage_state(tmp_path, "FRESH")
        observed = ["--treated-sum", f"{10.0 * m}", "--control-sum", "0.0"]
        assert main(["next-stage", "--state", str(state), *observed, *self.NEXT]) == 0
        stages = json.loads(state.read_text())["stages"]
        assert stages["treated_sumsq"] == [143.0, None]
        assert stages["control_sumsq"] == [5357.0, None]
        observed = ["--treated-sum", "0.0", "--control-sum", "0.0"]
        assert main(["next-stage", "--state", str(state), *observed, *self.NEXT]) == 0

    def test_observed_sums_whose_posterior_overflows_exit_one(self, tmp_path, capsys):
        # Sums of 1e30 over a known variance of 1e-280 pass the float maximum.
        state = tmp_path / "state.json"
        opening = ["next-stage", "--state", str(state), "--budget", "-500", "--delta", "0.05",
                   "--sigma-sq", "1e-280", "1e-280",
                   "--n-next", "100", "--delta-next", "0.005", "--b-next", "-500"]
        assert main(opening) == 0
        before = state.read_bytes()
        capsys.readouterr()
        observed = ["--treated-sum", "1e30", "--control-sum", "1e30"]
        assert main(["next-stage", "--state", str(state), *observed, *self.NEXT]) == 1
        assert "arm 0's posterior mean is not finite" in capsys.readouterr().err
        assert state.read_bytes() == before

    def test_sumsq_at_the_cauchy_schwarz_bound_is_accepted(self, tmp_path):
        state = tmp_path / "state.json"
        assert main([*self.ESTIMATED, "--state", str(state)]) == 0
        # m = 13 equal outcomes of 1.0 and 487 of 1.0: sumsq == sum**2 / count.
        observed = [
            "--treated-sum", "13.0", "--control-sum", "487.0",
            "--treated-sumsq", "13.0", "--control-sumsq", "487.0",
        ]
        assert main(["next-stage", "--state", str(state), *observed, *self.NEXT]) == 0

    # Stage 1 and stage 2 each admit a control sum of squares near the float maximum, and
    # the two add past it; the calls differ, so the last one is no re-run.
    OVERFLOW = [
        ["next-stage", "--budget", "-500", "--delta", "0.05",
         "--variance-mode", "estimated", "--pretrial-sigma-sq", "1", "1",
         "--n-next", "4", "--delta-next", "0.005", "--b-next", "-500"],
        *(["next-stage", "--treated-sum", "0", "--control-sum", "1e154", "--treated-sumsq", "0",
           "--control-sumsq", sumsq, "--n-next", "4", "--delta-next", "0.005", "--b-next", "-500"]
          for sumsq in ("1.7e308", "1.6e308")),
    ]

    def test_observed_sums_that_fold_past_the_float_maximum_exit_one(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        for argv in self.OVERFLOW[:2]:
            assert main([*argv, "--state", str(state)]) == 0
        before = state.read_bytes()
        capsys.readouterr()
        assert main([*self.OVERFLOW[2], "--state", str(state)]) == 1
        assert capsys.readouterr().err == (
            "rampguard: stage 2 control sums, added to the earlier stages', must stay finite, "
            "got [2e+154, inf]\n")
        assert state.read_bytes() == before

    def test_stored_sums_that_fold_past_the_float_maximum_exit_one(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        for argv in self.OVERFLOW[:2]:
            assert main([*argv, "--state", str(state)]) == 0
        # Stage 2 stored as observed, as the refused call above would have stored it.
        saved = json.loads(state.read_text())
        for key, value in zip(cli._OBSERVED, (0.0, 1e154, 0.0, 1.6e308)):
            saved["stages"][key].append(value)
        saved["last_call"] = None
        state.write_text(json.dumps(saved))
        before = state.read_bytes()
        capsys.readouterr()
        assert main(["next-stage", "--state", str(state), *self.OVERFLOW[2][-6:]]) == 1
        assert capsys.readouterr().err == (
            f"rampguard: state file {state}: stage 2 control sums, added to the earlier "
            "stages', must stay finite, got [2e+154, inf]\n")
        assert state.read_bytes() == before

    def test_known_mode_refuses_only_sums_that_fold_past_the_float_maximum(
        self, tmp_path, capsys
    ):
        # Known mode never reads the sums of squares, so two that add past the float
        # maximum still decide; two sums that do are refused.
        state = tmp_path / "state.json"
        known = ["next-stage", "--budget", "-500", "--delta", "0.05", "--sigma-sq", "1", "1",
                 *self.OVERFLOW[0][-6:]]
        for argv in (known, *self.OVERFLOW[1:]):
            assert main([*argv, "--state", str(state)]) == 0
        assert json.loads(state.read_text())["stages"]["control_sumsq"] == [1.7e308, 1.6e308]
        sums = ["next-stage", "--state", str(state), "--treated-sum", "0", *self.OVERFLOW[0][-6:]]
        assert main([*sums, "--control-sum", "1e308"]) == 0
        before = state.read_bytes()
        capsys.readouterr()
        assert main([*sums, "--control-sum", "1.5e308"]) == 1
        assert capsys.readouterr().err == (
            "rampguard: stage 4 control sums, added to the earlier stages', must stay finite, "
            "got [inf, inf]\n")
        assert state.read_bytes() == before

    @pytest.mark.parametrize("fails", ["write", "fsync"])
    def test_failed_state_write_keeps_the_old_file(self, tmp_path, monkeypatch, fails):
        state = tmp_path / "state.json"
        assert main([*self.FRESH, "--state", str(state)]) == 0
        before = state.read_bytes()

        def fail(*args):
            # Writing the new state's bytes to the temporary file, or making them
            # durable, fails.
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, fails, fail)
        code = main(
            [
                "next-stage", "--state", str(state),
                "--treated-sum", "13.0", "--control-sum", "487.0", *self.NEXT,
            ]
        )
        assert code == 3
        assert state.read_bytes() == before
        assert os.listdir(tmp_path) == ["state.json"]

    def test_short_writes_leave_the_same_state(self, tmp_path, monkeypatch):
        """A state written 64 bytes per ``os.write`` call equals one written whole."""
        observed = ["--treated-sum", "13.0", "--control-sum", "487.0",
                    "--treated-sumsq", "143.0", "--control-sumsq", "5357.0", *self.NEXT]
        whole, short = tmp_path / "whole.json", tmp_path / "short.json"
        for state in (whole, short):
            assert main([*self.ESTIMATED, "--state", str(state)]) == 0
            if state == short:
                write = os.write
                monkeypatch.setattr(cli.os, "write", lambda fd, data: write(fd, data[:64]))
            assert main(["next-stage", "--state", str(state), *observed]) == 0
        assert short.read_bytes() == whole.read_bytes() and len(whole.read_bytes()) > 64 * 4

    def test_a_path_that_is_not_a_file_opens_a_fresh_state(self, tmp_path, capsys):
        # As os.path.exists reads it: a path under a file is no state file, so a call
        # without the fresh-state flags asks for them.
        (tmp_path / "plain").write_text("x")
        argv = ["next-stage", "--state", str(tmp_path / "plain" / "state.json"), *self.NEXT]
        assert main(argv) == 1
        assert "a fresh state needs --budget and --delta" in capsys.readouterr().err

    @pytest.mark.parametrize("opening", ["FRESH", "ESTIMATED"])
    def test_single_leaf_state_mutations_never_fail_at_run_time(self, tmp_path, capsys, opening):
        """Every leaf of a two-stage state set to each odd value in turn.

        The call exits 0, 1, 2 or 4, never 3 and never with an exception,
        and a non-zero exit leaves the file's bytes as they were.
        """
        state = tmp_path / "state.json"
        assert main([*getattr(self, opening), "--state", str(state)]) == 0
        observed = ["--treated-sum", "13.0", "--control-sum", "487.0",
                    "--treated-sumsq", "143.0", "--control-sumsq", "5357.0"]
        assert main(["next-stage", "--state", str(state), *observed, *self.NEXT]) == 0
        original = state.read_bytes()
        m = json.loads(original)["stages"]["m"][-1]
        observed = ["--treated-sum", "0.0", "--control-sum", "0.0",
                    "--treated-sumsq", f"{10.0 * m}", "--control-sumsq", f"{10.0 * (500 - m)}"]
        argv = ["next-stage", "--state", str(state), *observed, *self.NEXT]
        leaves = list(_leaf_paths(json.loads(original)))
        codes = set()
        for path in leaves:
            for value in _ODD_VALUES:
                saved = json.loads(original)
                _put(*path, value=value)(saved)
                state.write_text(json.dumps(saved))
                before = state.read_bytes()
                code = main(argv)
                err = capsys.readouterr().err
                assert code in (0, 1, 2, 4), (path, value, err)
                if code != 0:
                    assert state.read_bytes() == before, (path, value, code)
                codes.add(code)
        assert len(leaves) > 30 and {0, 1, 2} <= codes


class RecordingFeed(ScenarioFeed):
    """A scenario feed that keeps every stage outcome it reports."""

    def __init__(self, scenario, rng):
        super().__init__(scenario, rng)
        self.outcomes = []

    def run_stage(self, t, m):
        outcome = super().run_stage(t, m)
        self.outcomes.append(outcome)
        return outcome


class TestNextStageMatchesTheLoop:
    """Replaying a run's observed sums through next-stage gives its decisions."""

    PRIOR = GaussianPrior((0.0, 0.0), (100.0, 100.0))
    SPENT_THEN_ZERO = RiskSchedule(
        -500.0,
        0.05,
        (-400.0, -450.0, -500.0, -500.0, -500.0, -500.0),
        (0.02, 0.02, 1.0 - 0.95 / (0.98 * 0.98), 0.0, 0.0, 0.0),
    )

    @pytest.mark.parametrize("mode", ["known", "estimated"])
    @pytest.mark.parametrize(
        "scenario, schedule, seed",
        [
            ("pte", RiskSchedule.uniform(-500.0, 0.05, 10), 11),
            ("nte", RiskSchedule.uniform(-500.0, 0.05, 10), 12),
            ("pte", SPENT_THEN_ZERO, 13),
            ("fat", SPENT_THEN_ZERO, 14),
        ],
    )
    def test_stage_decisions_agree(self, tmp_path, capsys, mode, scenario, schedule, seed):
        if mode == "known":
            variance = VariancePolicy(values=(10.0, 10.0))
            opening = ["--variance-mode", "known", "--sigma-sq", "10.0", "10.0"]
        else:
            variance = VariancePolicy(mode="estimated", pretrial=(10.0, 10.0))
            opening = ["--variance-mode", "estimated", "--pretrial-sigma-sq", "10.0", "10.0"]
        feed = RecordingFeed(builtin_scenarios()[scenario], np.random.default_rng(seed))
        trace = run_stages(schedule, feed, AnalyticPolicy(self.PRIOR, variance))
        assert schedule.exhausted()

        state = str(tmp_path / "state.json")
        head = ["--budget", repr(schedule.budget), "--delta", repr(schedule.delta), *opening]
        stages = trace.stages
        for t, (m, branch, outcome) in enumerate(zip(stages.m, stages.branch, feed.outcomes), 1):
            code = main(
                [
                    "next-stage", "--state", state, *head,
                    "--n-next", str(feed.population(t)),
                    "--delta-next", repr(schedule.stage_tolerances[t - 1]),
                    "--b-next", repr(schedule.stage_budgets[t - 1]),
                ]
            )
            assert code == 0, f"stage {t}"
            out = json.loads(capsys.readouterr().out)
            assert (out["m_next"], out["branch"]) == (m, stages.labels[branch]), f"stage {t}"
            head = [
                "--treated-sum", repr(outcome.treated_sum),
                "--control-sum", repr(outcome.control_sum),
                "--treated-sumsq", repr(outcome.treated_sumsq),
                "--control-sumsq", repr(outcome.control_sumsq),
            ]
        assert main(["next-stage", "--state", state, *head]) == cli.EXIT_EXHAUSTED


class TestParse:
    """``main`` hands a subcommand's argv straight to that subcommand's parser; what it
    gives, prints and exits with is what the full parser gives."""

    ARGVS = [
        ["run", "--scenario", "norm", "--budget", "-500", "--delta", "0.05", "--reps", "3",
         "--sigma-sq", "1", "2", "--T", "4", "--out", "o"],
        ["reproduce", "fig2a", "--reps", "9", "--seed", "1", "--workers", "2"],
        [*TestNextStage.FRESH, "--state", "s.json"],
        ["next-stage", "--state=s.json", "--treated-sum", "-13.0", "--control-sum", "487",
         "--treated-sumsq", "143", "--control-sumsq", "5357", *TestNextStage.NEXT],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=["run", "reproduce", "fresh", "observed"])
    def test_a_subcommand_parses_as_the_full_parser_parses_it(self, argv):
        assert vars(cli._parse(argv)) == vars(cli._build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["next-stage", "--state", "s.json", "--bogus", "1"],
            TestNextStage.FRESH,
            ["next-stage", "--state", "s.json", "--n-next", "many"],
            ["rollout", "--state", "s.json"],
            [],
        ],
        ids=["unknown-flag", "no-state", "bad-n-next", "unknown-command", "empty"],
    )
    def test_a_usage_error_prints_and_exits_as_the_full_parser(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(argv)
        expected = capsys.readouterr()
        assert exc.value.code == 2
        assert main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr() == expected
        assert not (tmp_path / "s.json").exists()


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        result = run_cli(
            [
                "run", "--scenario", "pte", "--budget", "-500", "--delta", "0.05",
                "--reps", "3", "--out", str(tmp_path),
            ]
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "summary.json").exists()

    def test_env_var_bounds_workers(self, tmp_path):
        result = run_cli(
            [
                "run", "--scenario", "pte", "--budget", "-500", "--delta", "0.05",
                "--reps", "4", "--out", str(tmp_path),
            ],
            env_extra={"RAMPGUARD_THREADS": "2"},
        )
        assert result.returncode == 0, result.stderr
