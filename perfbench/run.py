"""rampguard benchmark: one workload, one run.

    python3 perfbench/run.py --workload analytic-norm --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; rampguard is imported from its ``src/``.
With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run. Lines before it give every figure by name and unit,
and the full result goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> unit; the keys of the result line, the same for every workload.
END_TO_END = {"reps_per_s": "reps/s", "cli_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "bench.trace_overhead": "ratio",
    "bench.traced_us_per_rep": "us",
    "cli.import_ms": "ms",
    "posterior.compute_us": "us",
    "posterior.update_us": "us",
    "posterior.compute_calls": "count",
    "scenarios.units_drawn": "count",
    "scenarios.bytes_computed": "B",
    "solver.calls": "count",
    "solver.branch.root_selected": "count",
    "solver.branch.empty_valid_set": "count",
    "solver.branch.cap_at_half": "count",
    "solver.branch.no_real_root": "count",
    "solver.branch.zero_tolerance": "count",
    "normal.calls": "count",
    "mc_solver.imputed_draws": "count",
    "mc_solver.survivor_ratio": "ratio",
    "thompson.calls": "count",
    "schedules.validate_calls": "count",
    "scenarios.share": "share",
    "solver.share": "share",
    "normal.share": "share",
    "posterior.share": "share",
    "mc_solver.share": "share",
    "thompson.share": "share",
    "replication.share": "share",
    "schedules.share": "share",
    "cli.share": "share",
}
SETUP_PROBES = 7
IMPORT_PROBES = 5


def fresh_seconds(cmd: list[str]) -> float:
    from perfbench.harness import timed_process

    dt, proc = timed_process(cmd)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-500:]}")
    return dt


def setup_seconds(workload: str, probes: int) -> list[float]:
    """Fresh interpreter to the point where the first timed call could start."""
    probe = str(ROOT / "perfbench" / "setup_probe.py")
    return [fresh_seconds([sys.executable, probe, workload]) for _ in range(probes)]


def import_ms(probes: int) -> float:
    """Fresh ``import rampguard.cli`` minus a bare interpreter start."""
    from perfbench.harness import median

    bare, full = [], []
    for _ in range(probes):
        bare.append(fresh_seconds([sys.executable, "-c", "pass"]))
        full.append(fresh_seconds([sys.executable, "-c", "import rampguard.cli"]))
    return (median(full) - median(bare)) * 1e3


def run_untraced(w, seed, seconds, rec, named, samples, raw) -> dict:
    from perfbench.harness import median, peak_rss_mb

    setup = setup_seconds(w.name, SETUP_PROBES)
    m = w.measure(seed, seconds, rec)
    named.update(m.named)
    raw.update(m.raw, setup=setup)
    samples.update(m.samples, setup_s=f"{len(setup)} fresh interpreters")
    return {
        "reps_per_s": m.reps_per_s,
        "cli_s": m.cli_s,
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }


def run_traced(w, seed, rec, named, samples, spans_path: Path) -> dict:
    import numpy as np

    from perfbench.harness import median
    from perfbench.layers import counting_hooks, layer_metrics
    from perfbench.tracing import Tracer

    tracer = Tracer()
    missing = tracer.install(counting_hooks())
    if missing:
        print(f"perfbench: not traced (absent): {', '.join(missing)}", file=sys.stderr)
    try:
        untraced, traced, reps = w.traced(seed, rec, tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    layers = layer_metrics(summary, tracer.counters, reps)
    values = {name: value for name, (value, _unit) in layers.items()}
    named.update(layers)
    values["bench.trace_overhead"] = traced / untraced
    values["cli.import_ms"] = import_ms(IMPORT_PROBES)
    if w.name == "analytic-norm":
        named["replication.pool_start_ms"] = (w.pool_start_ms(seed), "ms")
    if w.name == "next-stage":
        named["cli.state_bytes"] = (median(w.state_bytes), "B")
    samples.update(
        traced=f"{reps} {'rollouts' if w.name == 'next-stage' else 'replications'}, "
        f"{len(tracer.start)} spans",
        import_ms=f"{IMPORT_PROBES} fresh interpreters each way",
    )
    np.savez_compressed(
        spans_path,
        names=np.array(tracer.names),
        name_id=np.frombuffer(tracer.name_id, dtype=np.uint16),
        start=np.frombuffer(tracer.start),
        end=np.frombuffer(tracer.end),
        parent=np.frombuffer(tracer.parent, dtype=np.int64),
        op=np.frombuffer(tracer.op, dtype=np.int64),
    )
    return values


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rampguard" / "__init__.py").is_file():
        print(f"perfbench: no rampguard sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import rampguard

    if Path(rampguard.__file__).resolve().parent != ROOT / "src" / "rampguard":
        print(f"perfbench: imported rampguard from {rampguard.__file__}", file=sys.stderr)
        return 2

    from perfbench.harness import OUT, Recorder, provenance
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]()
    rec = Recorder()
    named: dict = {}
    samples: dict = {}
    raw: dict = {}
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    t_start = time.perf_counter()
    w.setup()
    try:
        if args.trace:
            metrics = run_traced(w, args.seed, rec, named, samples, OUT / f"spans-{tag}.npz")
            units = PER_LAYER
        else:
            metrics = run_untraced(w, args.seed, args.seconds, rec, named, samples, raw)
            units = END_TO_END
    except (Exception, subprocess.SubprocessError):
        traceback.print_exc()
        return 1
    finally:
        w.close()

    named["error_rate"] = (rec.error_rate, "share")
    print(f"perfbench {w.name} seed={args.seed} trace={args.trace} "
          f"({time.perf_counter() - t_start:.1f} s; {w.load})")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>14.6g} {unit}")
    for name, (value, unit) in sorted(named.items()):
        if name not in units:
            print(f"  {name:34s} {value:>14.6g} {unit}")
    print(f"  attempted {rec.attempted}, failed {rec.failed}; gates {rec.gates}")
    print(f"  samples {samples}")
    prov = provenance(w.name, args.seed, args.seconds, bool(args.trace))
    prov.update(load=w.load, samples=samples)
    print(f"  provenance {json.dumps(prov, sort_keys=True)}")

    OUT.mkdir(parents=True, exist_ok=True)
    full = {
        "provenance": prov,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
        "named": {n: {"value": v, "unit": u} for n, (v, u) in named.items()},
        "gates": rec.gates,
        "failures": rec.notes,
        "timings_s": raw,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(full, indent=2, sort_keys=True) + "\n")

    bad = [n for n in units if not math.isfinite(metrics[n])]
    if bad:
        print(f"perfbench: no measurement for {bad}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": rec.correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
