"""Shared pieces of the benchmark: outcome accounting, statistics, fresh
processes and provenance."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


@dataclass
class Recorder:
    """Counts attempted and failed operations and records gate results.

    An operation fails when it raises, exits with an unexpected code or
    fails a correctness gate; ``error_rate`` is failed over attempted.
    """

    attempted: int = 0
    failed: int = 0
    gates: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, what: str) -> None:
        self.failed += 1
        self.notes.append(what)
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    def error(self, what: str) -> None:
        """Count the exception being handled as a failed operation."""
        self.fail(f"{what}: {traceback.format_exc(limit=4).strip()}")

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record a gate on an operation already attempted; a failed gate
        fails that operation."""
        self.gates[name] = self.gates.get(name, True) and bool(ok)
        if not ok:
            self.fail(f"gate {name}: {detail}")
        return bool(ok)

    def gate(self, name: str, ok: bool, detail: str = "") -> bool:
        """A gate over a whole run, counted as an operation of its own."""
        self.attempt()
        return self.check(name, ok, detail)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def error_rate(self) -> float:
        return self.failed / max(self.attempted, 1)


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values) -> tuple[float, float]:
    """Highest whole percentile with at least ten samples beyond it.

    Returns (percentile level, value); the level is capped at 99 and is 50
    when there are too few samples for anything higher.
    """
    n = len(values)
    level = 50.0
    for p in range(99, 49, -1):
        if n * (100 - p) >= 1000:
            level = float(p)
            break
    return level, percentile(values, level)


def percentile(values, level: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * level / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def child_env() -> dict[str, str]:
    """Environment for fresh rampguard processes: the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("RAMPGUARD_THREADS", None)
    return env


def rampguard_cmd(*args: str) -> list[str]:
    """The ``rampguard`` console command, run from the checkout's sources."""
    return [sys.executable, "-m", "rampguard.cli", *args]


def timed_process(cmd: list[str], timeout: float = 120.0) -> tuple[float, subprocess.CompletedProcess]:
    """Run one fresh process to completion; return (wall seconds, result)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=timeout
    )
    return time.perf_counter() - t0, proc


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_revision() -> tuple[str, "bool | None"]:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)", None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)", None
    return sha or "unknown", bool(dirty)


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy

    sha, dirty = _git_revision()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
        "src_dirty": dirty,
    }
