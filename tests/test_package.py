"""The package's lazy exports and the numpy-free operator path."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rampguard

SRC = str(Path(rampguard.__file__).resolve().parent.parent)


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, env=env
    )


def test_next_stage_imports_no_numpy(tmp_path):
    state = tmp_path / "state.json"
    result = run_fresh(
        f"""
        import sys
        import rampguard.cli
        assert "numpy" not in sys.modules, "import rampguard.cli loaded numpy"
        code = rampguard.cli.main([
            "next-stage", "--state", {str(state)!r}, "--budget", "-500", "--delta", "0.05",
            "--variance-mode", "known", "--sigma-sq", "10", "10",
            "--n-next", "500", "--delta-next", "0.005", "--b-next", "-500",
        ])
        assert code == 0, code
        assert "numpy" not in sys.modules, "next-stage loaded numpy"
        """
    )
    assert result.returncode == 0, result.stderr
    assert '"m_next": 13' in result.stdout
    assert state.exists()


def test_one_group_study_loads_no_process_pool(tmp_path):
    result = run_fresh(
        f"""
        import sys
        import rampguard.cli
        argv = ["reproduce", "fig2a", "--reps", "300", "--workers", "2", "--out", {str(tmp_path)!r}]
        assert rampguard.cli.main(argv) == 0
        assert "concurrent.futures.process" not in sys.modules, "the pool module was loaded"
        assert "rampguard.mc_solver" not in sys.modules, "the pool initializer was loaded"
        """
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "fig2a" / "spend.csv").exists()


def test_a_batch_study_loads_no_numpy_ma():
    result = run_fresh(
        """
        import sys
        from rampguard import AnalyticPolicy, GaussianPrior, RiskSchedule, VariancePolicy
        from rampguard import builtin_scenarios, run_replications
        policy = AnalyticPolicy(GaussianPrior((0.0, 0.0), (100.0, 100.0)), VariancePolicy())
        schedule = RiskSchedule.uniform(-500.0, 0.05, 10)
        summary = run_replications(policy, builtin_scenarios()["norm"], schedule, 600, 3)
        assert summary.to_json_dict()["m_quantiles"]["q50"][0] > 0
        assert "numpy.ma" not in sys.modules, "summarizing the study loaded numpy.ma"
        """
    )
    assert result.returncode == 0, result.stderr


def test_imputation_shares_only_the_usable_cpus():
    result = run_fresh(
        """
        import os
        os.cpu_count = lambda: 64
        os.sched_getaffinity = lambda pid: {2, 9, 11}
        from rampguard import mc_solver
        assert mc_solver._cpu_share == 3, mc_solver._cpu_share
        """
    )
    assert result.returncode == 0, result.stderr


def test_importing_the_cantelli_solver_loads_no_thread_pool():
    # concurrent.futures costs a few ms of start-up; only imputation with
    # helper threads needs it.
    result = run_fresh(
        """
        import sys
        from rampguard import mc_solver
        assert "concurrent.futures" not in sys.modules, "importing mc_solver loaded the pool"
        """
    )
    assert result.returncode == 0, result.stderr


def test_import_package_loads_no_submodule():
    result = run_fresh(
        """
        import sys
        import rampguard
        loaded = sorted(m for m in sys.modules if m.startswith("rampguard."))
        assert not loaded, loaded
        """
    )
    assert result.returncode == 0, result.stderr


def test_every_export_resolves():
    for name in rampguard.__all__:
        assert getattr(rampguard, name) is not None, name
    assert rampguard.solve_ramp_size is rampguard.solver.solve_ramp_size
    assert rampguard.run_replications is rampguard.replication.run_replications


def test_star_import():
    namespace: dict = {}
    exec("from rampguard import *", namespace)
    assert set(rampguard.__all__) <= set(namespace)
    assert namespace["RiskSchedule"] is rampguard.schedules.RiskSchedule


def test_dir_lists_the_exports():
    listed = dir(rampguard)
    assert set(rampguard.__all__) <= set(listed)
    assert "__version__" in listed


def test_unknown_attribute_raises():
    assert not hasattr(rampguard, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        rampguard.no_such_name
