"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import rampguard.cli  # noqa: E402
import rampguard.replication  # noqa: E402
import rampguard.solver  # noqa: E402
from perfbench import gates, run, workloads  # noqa: E402
from perfbench.harness import Recorder, tail_percentile  # noqa: E402
from perfbench.tracing import Tracer, self_times, summarize  # noqa: E402

TINY = {
    workloads.AnalyticNorm: {"reps_per_op": 20, "inputs": 2, "fig2a_reps": 30, "cli_calls": (1, 1)},
    workloads.CantelliCapped: {"inputs": 1, "cli_reps": 1, "cli_calls": (1, 1)},
    workloads.ThompsonNpte: {"reps_per_op": 60, "inputs": 3, "cli_reps": 10, "cli_calls": (1, 1)},
    workloads.NextStage: {"inputs": 2, "cli_calls": (1, 1)},
}


@pytest.fixture
def tiny(monkeypatch):
    for cls, sizes in TINY.items():
        for attr, value in sizes.items():
            monkeypatch.setattr(cls, attr, value)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)


def run_benchmark(capsys, workload, trace, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


# ------------------------------------------------------------ contract


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


NAMED_FIGURES = {
    "analytic-norm": ["fig2a_s", "ruin_rate", "replication.pool_start_ms", "solver.solve_us",
                      "solver.solve_us_p99", "normal.quantile_us", "scenarios.run_stage_us",
                      "replication.self_us_per_rep", "schedules.validate_us", "posterior.resolve_us"],
    "cantelli-capped": ["ruin_rate", "mc_solver.estimate_ms", "mc_solver.solve_us"],
    "thompson-npte": ["ruin_rate", "thompson.assign_us"],
    "next-stage": ["decision_ms_p50", "cold_call_ms", "cli.self_us", "cli.state_bytes"],
}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(tiny, capsys, workload):
    human, result = run_benchmark(capsys, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())

    traced_human, traced = run_benchmark(capsys, workload, trace=1)
    assert traced["correct"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == run.PER_LAYER
    printed = {line.split()[0] for line in human + traced_human if line.startswith("  ")}
    assert "error_rate" in printed
    assert set(NAMED_FIGURES[workload]) <= printed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "next-stage", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --------------------------------------------------------------- gates


def test_gates_reject_planted_wrong_answers():
    assert gates.ruin_within_bound(50, 1000, 0.05)[0]
    assert not gates.ruin_within_bound(100, 1000, 0.05)[0]
    assert gates.all_equal_to([13, 13], 13, "m")[0]
    assert not gates.all_equal_to([13, 14], 13, "m")[0]
    assert gates.within_half_cap([(250, 0)], (500, 500))[0]
    assert not gates.within_half_cap([(0, 251)], (500, 500))[0]
    assert gates.thompson_ordered({0.25: [3, 2], 1.0: [0, 1], 4.0: [0, 0]})[0]
    assert not gates.thompson_ordered({0.25: [0, 0], 1.0: [0, 0], 4.0: [0, 0]})[0]
    assert not gates.thompson_ordered({0.25: [2, 2], 1.0: [3, 3], 4.0: [0, 0]})[0]
    assert gates.same_bytes("a\n", "a\n")[0] and not gates.same_bytes("a\n", "a \n")[0]
    assert not gates.exit_code(4, 0, "call")[0]


def test_fig2a_gate_rejects_a_mismatched_spend_csv(tmp_path):
    assert rampguard.cli.main(["reproduce", "fig2a", "--reps", "20", "--seed", "4",
                               "--workers", "1", "--out", str(tmp_path)]) == 0
    w = workloads.AnalyticNorm()
    w.setup()
    w.close()
    ref = rampguard.replication.run_replications(w.policies[0][1], w.scenario, w.schedule, 20, 4)
    ruin_csv = (tmp_path / "fig2a" / "ruin.csv").read_text()
    spend_csv = (tmp_path / "fig2a" / "spend.csv").read_text()
    assert gates.fig2a_matches(ruin_csv, spend_csv, ref.ruin_rate, ref.final_costs)[0]

    costs = list(ref.final_costs)
    costs[7] = float(costs[7]) + 1e-9
    assert not gates.fig2a_matches(ruin_csv, spend_csv, ref.ruin_rate, costs)[0]
    assert not gates.fig2a_matches(ruin_csv, spend_csv, ref.ruin_rate + 0.05, ref.final_costs)[0]
    assert not gates.fig2a_matches(ruin_csv, spend_csv, ref.ruin_rate, costs[:-1])[0]


def test_next_stage_gate_catches_a_perturbed_m_next(monkeypatch):
    w = workloads.NextStage()
    w.setup()
    try:
        rec = Recorder()
        assert w.rollout(5, 0, rec) is not None and rec.correct

        original = rampguard.cli.solve_ramp_size

        def off_by_one(*args, **kwargs):
            d = original(*args, **kwargs)
            return type(d)(m=d.m + 1, branch=d.branch, assignment_probability=d.assignment_probability)

        monkeypatch.setattr(rampguard.cli, "solve_ramp_size", off_by_one)
        rec = Recorder()
        assert w.rollout(5, 1, rec) is None
        assert rec.gates["m_next_recomputed"] is False and rec.failed == 1
    finally:
        w.close()


def test_stage1_gate_catches_a_wrong_analytic_decision(monkeypatch):
    original = rampguard.solver.solve_ramp_size

    def shrunk(*args, **kwargs):
        d = original(*args, **kwargs)
        return type(d)(m=max(d.m - 1, 0), branch=d.branch, assignment_probability=d.assignment_probability)

    monkeypatch.setattr(rampguard.solver, "solve_ramp_size", shrunk)
    w = workloads.AnalyticNorm()
    w.setup()
    try:
        monkeypatch.setattr(w, "reps_per_op", 5)
        rec = Recorder()
        assert w.study_call(2, 0, rec) is not None
        w.check_study(rec)
        assert rec.gates["stage1_closed_form"] is False
    finally:
        w.close()


# ------------------------------------------------------------- tracing


def test_self_time_on_a_synthetic_span_tree():
    #   0 root [0, 10]
    #   1   a  [1, 4]   child of root
    #   2     aa [2, 3] child of a
    #   3   b  [3, 6]   child of root, overlapping a
    #   4   c  [8, 12]  child of root, running past it
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    assert self_times(start, end, parent) == [3.0, 2.0, 1.0, 3.0, 4.0]

    s = summarize(["root", "a", "aa", "b", "c"], [0, 1, 2, 3, 4], start, end, parent)
    assert s.root_total == 10.0
    assert s.self_total == {"root": 3.0, "a": 2.0, "aa": 1.0, "b": 3.0, "c": 4.0}


def test_tracer_records_nesting_and_restores_functions():
    tracer = Tracer()
    inner = tracer.wrap("layer.inner", lambda x: x + 1)
    outer = tracer.wrap("top.outer", lambda x: inner(inner(x)))
    assert outer(1) == 3 and len(tracer.start) == 0  # off: nothing recorded
    tracer.on = True
    assert outer(1) == 3
    assert list(tracer.parent) == [-1, 0, 0]
    s = tracer.summary()
    assert s.calls == {"top.outer": 1, "layer.inner": 2}
    assert abs(sum(s.self_total.values()) - s.root_total) < 1e-12

    before = rampguard.solver.solve_ramp_size
    tracer.install()
    assert rampguard.solver.solve_ramp_size is not before
    tracer.uninstall()
    assert rampguard.solver.solve_ramp_size is before


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(1000)))[0] == 99.0
    assert tail_percentile(list(range(100)))[0] == 90.0
    assert tail_percentile(list(range(5)))[0] == 50.0
