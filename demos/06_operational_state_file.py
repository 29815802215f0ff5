"""Operate a live rollout one stage at a time through the CLI state file.

Between invocations, all posterior state lives in a JSON file; each call
feeds in the sums observed since the last decision and prints the next
treated-group size and assignment probability. Here the "production"
outcomes are simulated in-process, but the commands are exactly what a
deployment pipeline would run.
"""

import json
import os
import subprocess
import sys
import tempfile
from importlib.util import find_spec
from pathlib import Path

import numpy as np

rng = np.random.default_rng(11)
TRUE_MEANS = (0.0, 1.0)  # control, treatment: a genuinely good feature
SIGMA = 10.0**0.5
# The CLI runs in the state file's directory, so no command names a temp path,
# and imports the package from where this script found it.
ENV = {**os.environ, "PYTHONPATH": str(Path(find_spec("rampguard").origin).resolve().parents[1])}


def cli(*args):
    cmd = [sys.executable, "-m", "rampguard.cli", "next-stage", "--state", state.name, *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=state.parent, env=ENV)
    print("$", " ".join(cmd[3:]))
    print(" ", (proc.stdout or proc.stderr).strip())
    return json.loads(proc.stdout) if proc.returncode == 0 else None


with tempfile.TemporaryDirectory() as tmp:
    state = Path(tmp) / "rollout_state.json"
    # Stage 1: create the state file and get the first ramp size.
    out = cli(
        "--budget", "-500", "--delta", "0.05",
        "--variance-mode", "known", "--sigma-sq", "10", "10",
        "--n-next", "500", "--delta-next", "0.005", "--b-next", "-500",
    )

    for stage in range(2, 6):
        m, n = out["m_next"], 500
        treated = rng.normal(TRUE_MEANS[1], SIGMA, m)
        control = rng.normal(TRUE_MEANS[0], SIGMA, n - m)
        out = cli(
            "--treated-sum", str(treated.sum()), "--control-sum", str(control.sum()),
            "--treated-sumsq", str((treated**2).sum()),
            "--control-sumsq", str((control**2).sum()),
            "--n-next", "500", "--delta-next", "0.005", "--b-next", "-500",
        )

    print("\nstate file keys:", sorted(json.loads(state.read_text())))
