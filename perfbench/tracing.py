"""Span tracing of rampguard's public functions, installed from outside.

The benchmark never edits the package. Instead it replaces a public
function in the namespace where its caller looks it up (for example
``rampguard.solver.solve_ramp_size``, which ``run_rrc_experiment`` resolves
through its module globals) with a wrapper that records a span. Spans are
(name, start, end, parent, op id) and stay in flat arrays in memory until
the run ends; self time is a span's duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

# (module, attribute path, span name). The span name's first component is
# the layer: the rampguard module that owns the function.
WRAP_POINTS = (
    ("rampguard.replication", "run_replications", "replication.run_replications"),
    ("rampguard.replication", "run_rrc_experiment", "solver.run_rrc_experiment"),
    ("rampguard.replication", "run_cantelli_experiment", "mc_solver.run_cantelli_experiment"),
    ("rampguard.replication", "run_thompson_experiment", "thompson.run_thompson_experiment"),
    ("rampguard.solver", "compute_posterior", "posterior.compute_posterior"),
    ("rampguard.solver", "update_stats", "posterior.update_stats"),
    ("rampguard.solver", "validate_schedule", "schedules.validate_schedule"),
    ("rampguard.solver", "solve_ramp_size", "solver.solve_ramp_size"),
    ("rampguard.solver", "normal_quantile", "normal.normal_quantile"),
    ("rampguard.mc_solver", "compute_posterior", "posterior.compute_posterior"),
    ("rampguard.mc_solver", "update_stats", "posterior.update_stats"),
    ("rampguard.mc_solver", "validate_schedule", "schedules.validate_schedule"),
    (
        "rampguard.mc_solver",
        "estimate_posterior_quantities",
        "mc_solver.estimate_posterior_quantities",
    ),
    ("rampguard.mc_solver", "solve_ramp_size_cantelli", "mc_solver.solve_ramp_size_cantelli"),
    ("rampguard.thompson", "compute_posterior", "posterior.compute_posterior"),
    ("rampguard.thompson", "update_stats", "posterior.update_stats"),
    (
        "rampguard.thompson",
        "thompson_assignment_probability",
        "thompson.thompson_assignment_probability",
    ),
    ("rampguard.cli", "main", "cli.main"),
    ("rampguard.cli", "compute_posterior", "posterior.compute_posterior"),
    ("rampguard.cli", "update_stats", "posterior.update_stats"),
    ("rampguard.cli", "solve_ramp_size", "solver.solve_ramp_size"),
    ("rampguard.posterior", "VariancePolicy.resolve", "posterior.VariancePolicy.resolve"),
    ("rampguard.posterior", "estimate_variance", "posterior.estimate_variance"),
    ("rampguard.scenarios", "ScenarioFeed.run_stage", "scenarios.ScenarioFeed.run_stage"),
)

# Spans that begin one replication: each gets a fresh op id.
REPLICATION_SPANS = frozenset(
    {
        "solver.run_rrc_experiment",
        "mc_solver.run_cantelli_experiment",
        "thompson.run_thompson_experiment",
    }
)


def self_times(start, end, parent) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to the span itself.

    ``parent[i]`` is the index of span i's parent, or -1 for a root.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_a = cur_b = None
        for k in sorted(kids, key=lambda i: start[i]):
            a, b = max(start[k], lo), min(end[k], hi)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[p] -= covered
    return out


class Tracer:
    """Collects spans and per-boundary counters while ``on`` is true."""

    def __init__(self) -> None:
        self.on = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] += value

    # -- installation ------------------------------------------------

    def wrap(self, name: str, fn: Callable, on_result: "Callable | None" = None) -> Callable:
        nid = self._intern(name)
        new_op = name in REPLICATION_SPANS

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if new_op:
                self.op_id += 1
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def install(self, hooks: "dict[str, Callable] | None" = None) -> list[str]:
        """Wrap every reachable point of WRAP_POINTS; return the missing ones."""
        hooks = hooks or {}
        missing = []
        for module_name, attr_path, name in WRAP_POINTS:
            *owners, attr = attr_path.split(".")
            try:
                owner: Any = importlib.import_module(module_name)
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{attr_path}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hooks.get(name)))
        return missing

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------

    def summary(self) -> "SpanSummary":
        return summarize(self.names, self.name_id, self.start, self.end, self.parent)


@dataclass
class SpanSummary:
    """Per-name call counts, inclusive durations and self-time totals (s)."""

    calls: dict[str, int]
    durations: dict[str, list[float]]
    self_total: dict[str, float]
    root_total: float

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, total in self.self_total.items():
            out[name.split(".", 1)[0]] += total
        return dict(out)


def summarize(names, name_id, start, end, parent) -> SpanSummary:
    selfs = self_times(start, end, parent)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    self_total: dict[str, float] = defaultdict(float)
    root_total = 0.0
    for i in range(len(start)):
        name = names[name_id[i]]
        calls[name] += 1
        durations[name].append(end[i] - start[i])
        self_total[name] += selfs[i]
        if parent[i] < 0:
            root_total += end[i] - start[i]
    return SpanSummary(dict(calls), dict(durations), dict(self_total), root_total)
