#!/usr/bin/env python3
"""hsc benchmark: one workload, one seed, a closed loop for a fixed time.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5_serial --seed 1 --seconds 15 --trace 0

One caller issues one pass after another until ``--seconds`` have gone by;
trials run serially except on ``grid_pool`` (two worker processes).  Pass
and call times are reported in units of a reference computation timed
around each pass (see ``reference_seconds``).  Every output is checked.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The line before
it is the run record.  See ``perfbench/PREDICTIONS.md`` for what each
metric means and should do.
"""
from __future__ import annotations

import os

# Pinned before numpy loads: BLAS threads would compete with pool workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
POOL_PROBES = 5
REF_BLOCKS = 48
SIZES = {
    "full": dict(fig5_trials=20, grid_trials=400, replay=8, walks=250,
                 max_steps=4096, lindley_steps=50_000),
    "tiny": dict(fig5_trials=4, grid_trials=8, replay=2, walks=60,
                 max_steps=1024, lindley_steps=20_000),
}
# Per-layer values that are counts: they must repeat exactly for one seed.
EXACT_SUFFIXES = (".calls", ".count", ".iterations", ".pairs", "checks.failed",
                  "simulate.trials", "cli.csv_bytes", "simulate.lindley_steps")
SPANS = {
    # span name: (module name, attribute) looked up by hsc callers at call time
    "simulate.trial_rng": ("simulate", "trial_rng"),
    "distributions.sample_block": ("simulate", "sample_block"),
    "simulate.estimate_eventual_outage": ("cli", "estimate_eventual_outage"),
    "analytic.solve_adjustment_coefficient": ("cli", "solve_adjustment_coefficient"),
    "analytic.step_cgf": ("analytic", "step_cgf"),
    "analytic.eventual_outage_poisson_exact": ("cli", "eventual_outage_poisson_exact"),
    "cli.run_analyze": ("cli", "run_analyze"),
    "cli.run_sweep": ("cli", "run_sweep"),
    "cli.run_reproduce": ("cli", "run_reproduce"),
    "cli.rows_to_csv": ("cli", "rows_to_csv"),
    "analytic.solve_renewal_equation": ("analytic", "solve_renewal_equation"),
    "simulate.collect_ladder_samples": ("simulate", "collect_ladder_samples"),
    "simulate.estimate_phi_from_max": ("simulate", "estimate_phi_from_max"),
    "simulate.simulate_lindley": ("simulate", "simulate_lindley"),
}
COUNTERS = ("simulate.trials", "analytic.solve_adjustment_coefficient.iterations",
            "distributions.poisson_events.pairs")
COUNT_HOOKS = {
    "simulate.estimate_eventual_outage":
        lambda args, kwargs, result: [("simulate.trials", result.trials)],
    "analytic.solve_adjustment_coefficient":
        lambda args, kwargs, result: [("analytic.solve_adjustment_coefficient.iterations",
                                       result.iterations)],
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["fig5_serial", "grid_pool", "analyze_mix", "walk_functionals"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="input size; 'tiny' is for perfbench/selftest.py")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_seconds() -> list[float]:
    """Time ``import hsc.cli`` in fresh interpreters, as a CLI user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import time; t = time.perf_counter(); import hsc.cli; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout))
    return out


def build(name: str, seed: int, size: dict):
    import workloads as w

    if name == "fig5_serial":
        return w.Fig5Serial(seed, OUT_DIR, size["fig5_trials"], size["replay"])
    if name == "grid_pool":
        return w.GridPool(seed, size["grid_trials"], size["replay"])
    if name == "analyze_mix":
        return w.AnalyzeMix(seed)
    return w.WalkFunctionals(seed, size["walks"], size["max_steps"], size["lindley_steps"])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest of p50/p90/p99/p99.9/p99.99 with at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    best = (50.0, xs[(n - 1) // 2])
    for q in (90.0, 99.0, 99.9, 99.99):
        k = int(n * q / 100.0)
        if n - k - 1 >= 10:
            best = (q, xs[k])
    return best[0], best[1], n


def pool_start_seconds(seed: int) -> float:
    """Median wall time of a two-trial ``workers=2`` outage estimate."""
    from hsc import analytic, distributions, simulate

    params = analytic.SystemParams(1.1, distributions.parse_distribution_spec("exp:mean=1.0"), 1.0, 0.0)
    times = []
    for _ in range(POOL_PROBES):
        t0 = perf_counter()
        simulate.estimate_eventual_outage(params, 1000.0, 2, seed, workers=2)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def reference_seconds() -> float:
    """Time a fixed mix of numpy draws and interpreter work that uses no hsc code.

    The host's speed swings by about 1.5x over spans of 0.1 s to minutes
    (other tenants share the cores), which moves raw medians by 20-30 %
    between runs.  Every pass is timed between two of these and reported
    as a multiple of them, which cancels most of the swing.
    """
    import numpy as np

    t0 = perf_counter()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(12345)))
    acc = 0.0
    for _ in range(REF_BLOCKS):
        x = rng.exponential(1.0, 1024)
        acc += float(np.cumsum(x)[-1])
        for v in x[:256].tolist():
            acc += v * 0.5
    return perf_counter() - t0


def timed_pass(workload, tracer=None):
    """Run one pass between two reference timings; return it and their mean."""
    before = reference_seconds()
    p = workload.run_pass(tracer)
    return p, 0.5 * (before + reference_seconds())


def layer_metrics(traced, untraced_ratio, replay_layer, seed, problems) -> dict[str, float]:
    from hsc import distributions

    first = traced[0][0].layer
    for p, _ in traced[1:]:
        for key, value in p.layer.items():
            if key.endswith(EXACT_SUFFIXES) and value != first.get(key):
                problems.append(f"count {key} changed between passes: {first.get(key)} -> {value}")
    keys = set().union(*(p.layer for p, _ in traced))
    out = {}
    for key in keys:
        values = [p.layer.get(key, 0.0) for p, _ in traced]
        out[key] = values[0] if key.endswith(EXACT_SUFFIXES) else statistics.median(values)
    out["simulate.kernel_self_s"] = out["simulate.estimate_eventual_outage.self_s"]
    out["simulate.pairs_drawn"] = out["distributions.sample_block.calls"] * distributions.EVENT_BLOCK
    out["simulate.pool_start_s"] = pool_start_seconds(seed)
    out["trace.overhead_ref"] = statistics.median(p.seconds / ref for p, ref in traced) - untraced_ratio
    out.update(replay_layer)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hsc" / "__init__.py").is_file():
        print(f"error: hsc sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import mpmath
    import numpy
    import scipy

    from hsc import analytic, cli, simulate

    import tracing

    setup = setup_seconds()
    OUT_DIR.mkdir(exist_ok=True)
    ratios, seconds, work = [], [], 0
    latency_ratios, latencies = array("d"), array("d")
    attempted = failed = 0
    fingerprints = set()
    traced = []  # (pass, reference seconds)
    try:
        workload = build(args.workload, args.seed, SIZES[args.size])
        warm = workload.run_pass()  # untimed; its outcome is what every pass must repeat
        modules = {"simulate": simulate, "cli": cli, "analytic": analytic}
        tracer = tracing.Tracer(SPANS, COUNTERS) if args.trace else None
        targets = [(modules[mod], attr, span, COUNT_HOOKS.get(span))
                   for span, (mod, attr) in SPANS.items()]
        deadline = perf_counter() + args.seconds
        while True:
            if tracer is not None and len(ratios) > len(traced):
                with tracer.installed(targets):
                    p, ref = timed_pass(workload, tracer)
                p.layer.update(tracer.take())
                p.layer.update(p.failures)
                traced.append((p, ref))
            else:
                p, ref = timed_pass(workload)
                ratios.append(p.seconds / ref)
                seconds.append(p.seconds)
                work += p.work
                latencies.extend(p.latencies)
                latency_ratios.extend(t / ref for t in p.latencies)
            attempted += p.attempted
            failed += p.failed
            fingerprints.add(p.fingerprint)
            if perf_counter() >= deadline and (tracer is None or traced):
                break
        problems, replay_layer = workload.exact_checks()
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)

    if fingerprints != {warm.fingerprint}:
        problems.append(f"output bytes differ between passes of one seed: {sorted(fingerprints)}")
    q, value, n = tail(latencies)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "work_unit": workload.unit,
        "passes": len(ratios), "traced_passes": len(traced),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__, "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "setup_probes_s": setup, "failures_per_pass": dict(warm.failures),
        "pass_s_quartiles": statistics.quantiles(seconds, n=4) if len(seconds) > 1 else seconds,
        "work_per_s": work / sum(seconds),
        "latency_tail": {"percentile": q, "ms": value * 1e3, "samples": n},
        "problems": problems,
    }
    if warm.fingerprint:
        record["csv_sha256"] = warm.fingerprint

    if args.trace:
        values = layer_metrics(traced, statistics.median(ratios), replay_layer, args.seed, problems)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_ref": statistics.median(ratios),
            "latency_p50_ref": statistics.median(latency_ratios),
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
