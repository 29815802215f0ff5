"""The four benchmark workloads.

Every workload is a single-client closed loop in this process: each call
into rampguard waits for the previous one. The only parallelism is the
2-worker ``reproduce fig2a`` process of analytic-norm.

A workload times a fixed list of inputs made from the seed (replication
study calls, or next-stage rollouts), repeated round after round for the
run's seconds, and keeps each input's best time: on a shared 2-core
machine a neighbour's load only ever adds time, and the best of several
repeats is what stays steady. Between rounds it runs the workload's
fresh-process command, reported as a median. Each workload offers
``setup`` (what ``setup_s`` times), ``measure`` (the untraced end-to-end
run) and ``traced`` (one round untraced, then the same round traced, so
counts repeat exactly for a seed).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import rampguard.cli as cli_mod
import rampguard.replication as replication
from rampguard import (
    AnalyticPolicy,
    CantelliPolicy,
    CappedEffectCost,
    GaussianPrior,
    OutcomeVariance,
    RiskSchedule,
    SufficientStats,
    ThompsonPolicy,
    VariancePolicy,
    builtin_scenarios,
    compute_posterior,
    init_posterior,
    solve_ramp_size,
    update_stats,
)

from . import gates
from .harness import OUT, Recorder, median, rampguard_cmd, tail_percentile, timed_process
from .tracing import Tracer

BUDGET = -500.0
STAGES = 10
SIGMA_SQ = (10.0, 10.0)
THOMPSON_C = (0.25, 1.0, 4.0)
WARM_UP = 10**6  # input index of the untimed warm-up call, outside every round


def noninformative_prior() -> GaussianPrior:
    return GaussianPrior(mu0=(0.0, 0.0), sigma0_sq=(100.0, 100.0))


def op_seed(seed: int, i: int) -> int:
    """Seed of the i-th in-process input; --seed itself is left to the
    fresh-process command so both sides of the fig2a gate share it."""
    return seed * 1_000_003 + 1 + i


@dataclass
class Measured:
    """End-to-end values of one run plus the workload's own named figures."""

    reps_per_s: float
    cli_s: float
    named: dict = field(default_factory=dict)  # name -> (value, unit)
    samples: dict = field(default_factory=dict)  # timing name -> sample count
    raw: dict = field(default_factory=dict)  # every timing behind the figures, in seconds


class Workload:
    name = ""
    why = ""
    load = "closed loop, 1 client, 1 worker"
    inputs = 1  # fixed inputs per round
    cli_calls = (9, 15)  # (min, max) fresh-process commands
    study_share = 0.8  # share of the run's seconds spent on in-process rounds

    def setup(self) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=f"{self.name}-", dir=OUT)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def interleave(self, seed: int, seconds: float, rec: Recorder, run_input):
        """Alternate rounds over inputs 0..inputs-1 with fresh-process
        commands for ``seconds``, keeping ``study_share`` of the time for
        the rounds, so both are sampled across the whole run.

        ``run_input(i)`` returns seconds or None. Returns (each input's
        seconds per round, fresh-process seconds).
        """
        self.cli_reference(seed)
        min_calls, max_calls = self.cli_calls
        per_input: list[list[float]] = [[] for _ in range(self.inputs)]
        cli_times: list[float] = []
        rounds = calls = 0
        t_rounds = t_cli = 0.0
        t_end = time.perf_counter() + seconds
        while True:
            past = time.perf_counter() >= t_end
            if past and rounds >= 2 and calls >= min_calls:
                break
            if past:
                cli_due = calls < min_calls
            else:
                cli_due = calls < max_calls and t_cli * self.study_share < t_rounds * (1.0 - self.study_share)
            t0 = time.perf_counter()
            if cli_due:
                dt = self.cli_call(seed, calls, rec)
                if dt is not None:
                    cli_times.append(dt)
                calls += 1
                t_cli += time.perf_counter() - t0
            else:
                for i in range(self.inputs):
                    dt = run_input(i)
                    if dt is not None:
                        per_input[i].append(dt)
                rounds += 1
                t_rounds += time.perf_counter() - t0
        return per_input, cli_times

    def cli_call(self, seed: int, n: int, rec: Recorder):
        """One fresh-process ``rampguard`` command; its seconds, or None."""
        out = os.path.join(self.tmp, f"cli{n}")
        rec.attempt()
        try:
            dt, proc = timed_process(self.cli_command(seed, out))
        except (OSError, subprocess.SubprocessError):
            rec.error(f"{self.name} fresh process")
            return None
        try:
            if proc.returncode != 0:
                rec.fail(f"{self.name} fresh process exited {proc.returncode}: {proc.stderr[-500:]}")
                return None
            return dt if self.check_cli(out, proc, rec) else None
        finally:
            shutil.rmtree(out, ignore_errors=True)


def best_rate(per_input: list[list[float]], work: float) -> float:
    """Work per second over the inputs that completed, at their best times."""
    best = [min(times) for times in per_input if times]
    return work * len(best) / sum(best) if best else math.nan


def median_rate(per_input: list[list[float]], work: float) -> float:
    times = [t for ts in per_input for t in ts]
    return work / median(times) if times else math.nan


# --------------------------------------------------------------- studies


class Study(Workload):
    """A replication study timed through in-process ``run_replications``."""

    scenario_name = ""
    reps_per_op = 1  # replications per timed run_replications call

    def setup(self) -> None:
        super().setup()
        self.scenario = builtin_scenarios()[self.scenario_name]
        self.schedule = self.make_schedule()
        self.policies = self.make_policies()  # [(label, policy)], cycled over inputs
        self.reps = 0
        self.ruined = 0
        self.stage1 = {label: [] for label, _ in self.policies}
        self.m_rows: list[tuple[int, ...]] = []
        self.final_costs: dict[int, np.ndarray] = {}  # op seed -> first result

    def observe(self, key, label, summary, rec: Recorder) -> None:
        """Keep the first result per input key; repeats must equal it."""
        if key in self.final_costs:
            rec.check(
                "repeat_identical",
                np.array_equal(summary.final_costs, self.final_costs[key]),
                f"input {key} gave different final costs on a repeat",
            )
            return
        if key is not None:
            self.final_costs[key] = summary.final_costs
        self.reps += summary.replications
        self.ruined += int((summary.final_costs <= self.schedule.budget).sum())
        for trace in summary.traces:
            self.stage1[label].append(trace.m[0])
            self.m_rows.append(trace.m)

    def study_call(self, seed, i, rec: Recorder, tracer=None):
        """One timed run_replications call on input i; seconds or None."""
        label, policy = self.policies[i % len(self.policies)]
        rec.attempt()
        try:
            if tracer is not None:
                tracer.on = True
            t0 = time.perf_counter()
            summary = replication.run_replications(
                policy,
                self.scenario,
                self.schedule,
                self.reps_per_op,
                op_seed(seed, i),
                workers=1,
                keep_traces=True,
            )
            dt = time.perf_counter() - t0
        except Exception:
            rec.error(f"{self.name} run_replications input {i}")
            return None
        finally:
            if tracer is not None:
                tracer.on = False
        if i != WARM_UP:
            self.observe(op_seed(seed, i), label, summary, rec)
        return dt

    def ruin_rate(self) -> float:
        return self.ruined / max(self.reps, 1)

    def check_ruin(self, rec: Recorder) -> None:
        rec.gate("ruin_bound", *gates.ruin_within_bound(self.ruined, self.reps, self.schedule.delta))

    def measure(self, seed: int, seconds: float, rec: Recorder) -> Measured:
        self.study_call(seed, WARM_UP, rec)
        per_input, cli_times = self.interleave(seed, seconds, rec, lambda i: self.study_call(seed, i, rec))
        self.check_study(rec)
        return Measured(
            reps_per_s=best_rate(per_input, self.reps_per_op),
            cli_s=median(cli_times) if cli_times else math.nan,
            named={"ruin_rate": (self.ruin_rate(), "share"),
                   "reps_per_s_median": (median_rate(per_input, self.reps_per_op), "reps/s"),
                   "cli_s_best": (min(cli_times) if cli_times else math.nan, "s")},
            raw={"per_input": per_input, "cli": cli_times},
            samples={
                "reps_per_s": f"best of {len(per_input[0])} rounds over {self.inputs} calls of "
                              f"{self.reps_per_op} reps ({self.reps} distinct reps)",
                "cli_s": f"median of {len(cli_times)} fresh processes",
            },
        )

    def traced(self, seed: int, rec: Recorder, tracer: Tracer):
        """One round untraced, then the same round traced; returns
        (untraced seconds, traced seconds, replications per round)."""
        self.study_call(seed, WARM_UP, rec)
        passes = [
            sum(dt for i in range(self.inputs) if (dt := self.study_call(seed, i, rec, t)) is not None)
            for t in (None, tracer)
        ]
        self.check_study(rec)
        return passes[0], passes[1], self.inputs * self.reps_per_op


class AnalyticNorm(Study):
    name = "analytic-norm"
    why = ("fig2a budget-spend study: per-replication work in scenarios, solver and posterior; "
           "the only workload with the process pool on its path")
    load = "closed loop, 1 client, 1 worker in process; reproduce fig2a at 2 workers"
    scenario_name = "norm"
    reps_per_op = 100
    inputs = 3
    fig2a_reps = 5000
    cli_calls = (5, 9)
    study_share = 0.4

    def make_schedule(self):
        return RiskSchedule.uniform(BUDGET, 0.05, STAGES)

    def make_policies(self):
        self.prior = noninformative_prior()
        self.stage1_expected = solve_ramp_size(
            init_posterior(self.prior),
            OutcomeVariance(SIGMA_SQ),
            0,
            0.0,
            self.schedule.stage_budgets[0],
            self.schedule.stage_tolerances[0],
            self.scenario.population[0],
        ).m
        return [("analytic", AnalyticPolicy(prior=self.prior, variance=VariancePolicy()))]

    def check_study(self, rec: Recorder) -> None:
        self.check_ruin(rec)
        rec.gate(
            "stage1_closed_form",
            *gates.all_equal_to(self.stage1["analytic"], self.stage1_expected, "stage-1 m"),
        )

    def cli_command(self, seed, out):
        return rampguard_cmd(
            "reproduce", "fig2a", "--seed", str(seed), "--workers", "2",
            "--reps", str(self.fig2a_reps), "--out", out,
        )

    def cli_reference(self, seed):
        ref = replication.run_replications(
            self.policies[0][1], self.scenario, self.schedule, self.fig2a_reps, seed,
            workers=1, keep_traces=True,
        )
        self.observe(None, "analytic", ref, None)  # its replications join the study gates
        self._cli_ref = (ref.ruin_rate, ref.final_costs)

    def check_cli(self, out, proc, rec) -> bool:
        with open(os.path.join(out, "fig2a", "ruin.csv"), encoding="utf-8") as fh:
            ruin_csv = fh.read()
        with open(os.path.join(out, "fig2a", "spend.csv"), encoding="utf-8") as fh:
            spend_csv = fh.read()
        return rec.check("fig2a_equals_in_process", *gates.fig2a_matches(ruin_csv, spend_csv, *self._cli_ref))

    def measure(self, seed, seconds, rec):
        result = super().measure(seed, seconds, rec)
        result.named["fig2a_s"] = (result.cli_s, "s")
        return result

    def pool_start_ms(self, seed: int, repeats: int = 3) -> float:
        """run_replications at K=2 with 2 workers minus the same at 1 worker."""
        policy = self.policies[0][1]
        diffs = []
        for i in range(repeats):
            times = {}
            for workers in (1, 2):
                t0 = time.perf_counter()
                replication.run_replications(policy, self.scenario, self.schedule, 2, op_seed(seed, i), workers=workers)
                times[workers] = time.perf_counter() - t0
            diffs.append(times[2] - times[1])
        return median(diffs) * 1e3


class CantelliCapped(Study):
    name = "cantelli-capped"
    why = "per-unit counterfactual imputation in mc_solver dominates; the ramp solver is off the path"
    scenario_name = "norm"
    reps_per_op = 1
    inputs = 8
    cli_reps = 20
    study_share = 0.7

    def make_schedule(self):
        return RiskSchedule.uniform(BUDGET, 0.05, STAGES)

    def make_policies(self):
        self.prior = noninformative_prior()
        return [
            (
                "capped",
                CantelliPolicy(
                    prior=self.prior,
                    variance=VariancePolicy(),
                    samples=10_000,
                    cost=CappedEffectCost(floor=-5.0),
                ),
            )
        ]

    def check_study(self, rec: Recorder) -> None:
        self.check_ruin(rec)
        rec.gate("m_within_half_cap", *gates.within_half_cap(self.m_rows, self.scenario.population))

    def cli_command(self, seed, out):
        # The CLI exposes only the linear-effect cost for the Cantelli solver.
        return rampguard_cmd(
            "run", "--scenario", "norm", "--algo", "rrc_cantelli", "--budget", str(BUDGET),
            "--delta", "0.05", "--T", str(STAGES), "--reps", str(self.cli_reps),
            "--seed", str(seed), "--workers", "1", "--out", out,
        )

    def cli_reference(self, seed):
        policy = CantelliPolicy(prior=self.prior, variance=VariancePolicy(), samples=10_000)
        self._cli_ref = replication.run_replications(
            policy, self.scenario, self.schedule, self.cli_reps, seed
        ).to_json_dict()

    def check_cli(self, out, proc, rec) -> bool:
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            got = json.load(fh)
        return rec.check(
            "cli_run_equals_in_process", got == self._cli_ref, f"summary.json {got!r} vs {self._cli_ref!r}"
        )


class ThompsonNpte(Study):
    name = "thompson-npte"
    why = "fig1e preset, the only caller of thompson.py; time-varying Gaussian outcomes, no ramp solver"
    scenario_name = "npte"
    reps_per_op = 100
    inputs = 3
    cli_reps = 500  # the fig1e preset default
    cli_calls = (5, 9)
    study_share = 0.6

    def make_schedule(self):
        return RiskSchedule.uniform(BUDGET, 0.01, STAGES)

    def make_policies(self):
        prior = GaussianPrior(mu0=(0.0, -2.0), sigma0_sq=(0.05, 0.05))
        return [(c, ThompsonPolicy(c=c, prior=prior)) for c in THOMPSON_C]

    def check_study(self, rec: Recorder) -> None:
        rec.gate("thompson_stage1_order", *gates.thompson_ordered(self.stage1))

    def cli_command(self, seed, out):
        return rampguard_cmd(
            "reproduce", "fig1e", "--seed", str(seed), "--workers", "1",
            "--reps", str(self.cli_reps), "--out", out,
        )

    def cli_reference(self, seed):
        self._cli_ref = [
            replication.run_replications(policy, self.scenario, self.schedule, self.cli_reps, seed).ruin_rate
            for _, policy in self.policies
        ]

    def check_cli(self, out, proc, rec) -> bool:
        with open(os.path.join(out, "fig1e", "provenance.json"), encoding="utf-8") as fh:
            got = [run["ruin_rate"] for run in json.load(fh)["runs"]]
        return rec.check("fig1e_equals_in_process", got == self._cli_ref, f"ruin rates {got} vs {self._cli_ref}")

    def measure(self, seed, seconds, rec):
        result = super().measure(seed, seconds, rec)
        for label, ms in self.stage1.items():
            result.named[f"stage1_m_median.c{label:g}"] = (float(np.median(ms)), "count")
        return result


# ------------------------------------------------------------ next-stage


class NextStage(Workload):
    """Seeded 10-stage rollouts through ``rampguard.cli.main(["next-stage", ...])``."""

    name = "next-stage"
    why = "the operator's latency-critical path; the only one with state-file writes beside reads"
    load = "closed loop, 1 client, in-process cli.main calls; fresh processes for cold calls"
    inputs = 10  # rollouts per round, alternating known and estimated variance
    study_share = 0.85

    def setup(self) -> None:
        super().setup()
        self.scenario = builtin_scenarios()["norm"]
        self.schedule = RiskSchedule.uniform(BUDGET, 0.05, STAGES)
        self.prior = noninformative_prior()
        self.state_bytes: list[int] = []
        self.call_times: list[float] = []

    @staticmethod
    def call(argv):
        """One in-process cli.main call: (exit code, stdout, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = cli_mod.main(argv)
            dt = time.perf_counter() - t0
        return rc, out.getvalue(), dt

    def opening_args(self, state: str, known: bool) -> list[str]:
        mode = ["--variance-mode", "known", "--sigma-sq"] if known else [
            "--variance-mode", "estimated", "--pretrial-sigma-sq"]
        return ["--state", state, "--budget", repr(BUDGET), "--delta", repr(self.schedule.delta),
                *mode, *(repr(v) for v in SIGMA_SQ)]

    def stage_args(self, t: int) -> list[str]:
        return ["--n-next", str(self.scenario.population[t - 1]),
                "--delta-next", repr(self.schedule.stage_tolerances[t - 1]),
                "--b-next", repr(self.schedule.stage_budgets[t - 1])]

    def expected_m(self, policy: VariancePolicy, stats: SufficientStats, t: int) -> int:
        variance = policy.resolve(stats, None)
        return solve_ramp_size(
            compute_posterior(self.prior, variance, stats),
            variance,
            M1_prev=stats.counts[1],
            S_T1_prev=stats.sum_treated,
            b_t=self.schedule.stage_budgets[t - 1],
            Delta_t=self.schedule.stage_tolerances[t - 1],
            N_t=self.scenario.population[t - 1],
        ).m

    def rollout(self, seed: int, r: int, rec: Recorder, tracer=None):
        """One rollout; returns its summed cli.main seconds, or None on failure."""
        rng = np.random.default_rng([seed, r])
        retry_stage = int(rng.integers(1, STAGES + 1))  # one retry in 12 calls
        known = r % 2 == 0
        policy = (VariancePolicy(mode="known", values=SIGMA_SQ) if known
                  else VariancePolicy(mode="estimated", pretrial=SIGMA_SQ))
        state = os.path.join(self.tmp, f"state{r}.json")
        stats = SufficientStats()
        observed: list[str] = []
        total = 0.0

        def timed(argv, expect_rc, what):
            nonlocal total
            rec.attempt()
            if tracer is not None:
                tracer.on, tracer.op_id = True, r
            try:
                rc, out, dt = self.call(["next-stage", *argv])
            except Exception:
                rec.error(f"next-stage rollout {r} {what}")
                return None
            finally:
                if tracer is not None:
                    tracer.on = False
            if not rec.check("exit_codes", *gates.exit_code(rc, expect_rc, f"rollout {r} {what}")):
                return None
            self.call_times.append(dt)
            total += dt
            return out

        try:
            for t in range(1, STAGES + 1):
                head = self.opening_args(state, known) if t == 1 else ["--state", state, *observed]
                argv = head + self.stage_args(t)
                m = self.expected_m(policy, stats, t)
                out = timed(argv, 0, f"stage {t}")
                if out is None or not rec.check("m_next_recomputed", *gates.decision_matches(out, t, m)):
                    return None
                if t == retry_stage:
                    again = timed(argv, 0, f"stage {t} retry")
                    if again is None or not rec.check("retry_byte_identical", *gates.same_bytes(out, again)):
                        return None
                n = self.scenario.population[t - 1]
                treated = rng.normal(self.scenario.true_mean(1, t), math.sqrt(self.scenario.true_var(1, t)), m)
                control = rng.normal(self.scenario.true_mean(0, t), math.sqrt(self.scenario.true_var(0, t)), n - m)
                sums = (float(treated.sum()), float(control.sum()),
                        float(treated @ treated), float(control @ control))
                stats = update_stats(stats, m, n, *sums)
                observed = ["--treated-sum", repr(sums[0]), "--control-sum", repr(sums[1]),
                            "--treated-sumsq", repr(sums[2]), "--control-sumsq", repr(sums[3])]
            if timed(["--state", state, *observed], cli_mod.EXIT_EXHAUSTED, "exhaustion") is None:
                return None
            self.state_bytes.append(os.path.getsize(state))
            return total
        finally:
            if os.path.exists(state):
                os.remove(state)

    def cli_command(self, seed, out):
        os.makedirs(out, exist_ok=True)
        return rampguard_cmd("next-stage", *self.opening_args(os.path.join(out, "state.json"), True),
                             *self.stage_args(1))

    def cli_reference(self, seed):
        state = os.path.join(self.tmp, "cold-ref.json")
        _, self._cli_ref, _ = self.call(["next-stage", *self.opening_args(state, True), *self.stage_args(1)])
        os.remove(state)

    def check_cli(self, out, proc, rec) -> bool:
        return rec.check("cold_call_equals_in_process", *gates.same_bytes(self._cli_ref, proc.stdout))

    def measure(self, seed, seconds, rec):
        self.rollout(seed, WARM_UP, rec)
        self.call_times = []
        per_input, cold = self.interleave(seed, seconds, rec, lambda r: self.rollout(seed, r, rec))
        calls = self.call_times
        level, tail = tail_percentile(calls) if calls else (99.0, math.nan)
        return Measured(
            reps_per_s=best_rate(per_input, 1.0),
            cli_s=median(cold) if cold else math.nan,
            named={
                "decision_ms_p50": (median(calls) * 1e3 if calls else math.nan, "ms"),
                f"decision_ms_p{level:g}": (tail * 1e3, "ms"),
                "cold_call_ms": (median(cold) * 1e3 if cold else math.nan, "ms"),
                "cold_call_ms_best": (min(cold) * 1e3 if cold else math.nan, "ms"),
                "state_bytes": (median(self.state_bytes) if self.state_bytes else math.nan, "B"),
                "reps_per_s_median": (median_rate(per_input, 1.0), "reps/s"),
            },
            raw={"per_input": per_input, "cli": cold},
            samples={
                "reps_per_s": f"best of {len(per_input[0])} rounds over {self.inputs} rollouts",
                "decision_ms": f"{len(calls)} cli.main calls",
                "cli_s": f"median of {len(cold)} fresh processes",
            },
        )

    def traced(self, seed: int, rec: Recorder, tracer: Tracer):
        """One round untraced, then the same round traced; returns
        (untraced p50 call seconds, traced p50 call seconds, rollouts per round)."""
        self.rollout(seed, WARM_UP, rec)
        p50 = []
        for t in (None, tracer):
            self.call_times, self.state_bytes = [], []
            for r in range(self.inputs):
                self.rollout(seed, r, rec, t)
            p50.append(median(self.call_times))
        return p50[0], p50[1], self.inputs


WORKLOADS = {w.name: w for w in (AnalyticNorm, CantelliCapped, ThompsonNpte, NextStage)}
