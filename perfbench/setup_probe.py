"""Set up one workload in a fresh interpreter and exit; ``setup_s`` times
this process from start to exit.

    python3 perfbench/setup_probe.py analytic-norm
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]]()
    workload.setup()
    workload.close()
