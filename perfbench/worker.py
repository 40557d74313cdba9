"""One workload in one process: set up, run the pipeline calls, check them.

Started by ``run.py`` with the thread settings already in the environment
and ``src`` on ``PYTHONPATH``.  Prints nothing of its own on stdout (the
package's ``mourre`` command prints its table there); the result goes to
the JSON file named by ``--result``.

    --mode setup   import the package, load the problem files, stop
    --mode run     also run the workload for ``--seconds`` (untraced), or
                   with ``--trace 1`` one traced and one untraced pass
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import numpy as np
import scipy

from tubespectra import cli, config

import checks
import workloads
from tracer import Tracer


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "run"), default="run")
    p.add_argument("--scale", choices=("full", "smoke"), default="full")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="parent's perf_counter() just before starting this process")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()

    # set-up runs from process start (interpreter, the imports above)
    # through writing and loading the problem files
    workload = workloads.build(args.workload, args.seed, args.scale)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    t_load = time.perf_counter()
    cfgs = []
    for i, call in enumerate(workload.calls):
        path = os.path.join(args.workdir, f"{i}-{call.label}.ini")
        with open(path, "w") as fh:
            fh.write(call.ini)
        cfgs.append(config.load_config(path))
    load_s = time.perf_counter() - t_load
    setup_s = time.perf_counter() - args.spawned_at
    if args.mode == "setup":
        _dump(args.result, {"setup_s": setup_s})
        return 0

    run = Runner(workload, cfgs, args.workdir, args.scale)
    result = {"setup_s": setup_s, "environment": environment()}
    for _ in range(workload.warmup):
        run.iteration(tracer, measured=False)
    if tracer is None:
        # passes run while the next one is expected to end within --seconds
        # (warm-up included); a pass that has started is always finished
        while True:
            run.iteration()
            spent = run.warmup_s + sum(run.iteration_s)
            mean = sum(run.iteration_s) / len(run.iteration_s)
            if len(run.iteration_s) >= workload.min_iterations and spent + mean > args.seconds:
                break
    else:
        tracer.reset()
        tracer.counts["config.load_s"] = load_s
        run.iteration(tracer)
        tracer.uninstall()
        run.iteration()
        result["trace"] = trace_summary(tracer, run)
        result["spans"] = tracer.spans
    result.update(run.summary())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _dump(args.result, result)
    return 0


class Runner:
    """Runs the workload's calls and keeps their timings and checks."""

    def __init__(self, workload, cfgs, workdir, scale):
        self.workload = workload
        self.cfgs = cfgs
        self.workdir = workdir
        self.scale = scale
        self.iteration_s = []        # measured untraced passes
        self.warmup_s = 0.0
        self.traced_s = None
        self.attempted = 0
        self.failures = []
        self.observed = {}           # per call label: values the checks derived
        self.first_reports = {}

    def iteration(self, tracer=None, measured=True):
        spent = 0.0
        for call, cfg in zip(self.workload.calls, self.cfgs):
            out_dir = os.path.join(self.workdir, "out", call.label)
            fn = getattr(cli, f"run_{call.kind}")
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    output = fn(cfg, out_dir)
                else:
                    output = tracer.call(f"cli.run_{call.kind}", fn, (cfg, out_dir), {})
            except Exception:  # a raising call is a failed call, not a crash
                spent += time.perf_counter() - t0
                self.failures.append(f"{call.label}: raised\n{traceback.format_exc()}")
                continue
            spent += time.perf_counter() - t0
            problems, values = checks.check(call, cfg, output, out_dir, self)
            self.observed[call.label] = values
            if problems:
                self.failures.append(f"{call.label}: " + "; ".join(problems))
        if not measured:
            self.warmup_s += spent
        elif tracer is not None:
            self.traced_s = spent
        else:
            self.iteration_s.append(spent)

    def summary(self):
        return {
            "iterations": len(self.iteration_s),
            "iteration_s": self.iteration_s,
            "warmup_s": self.warmup_s,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
            "observed": self.observed,
        }


def trace_summary(tracer, run):
    """Per-layer metrics from the traced pass."""
    c = tracer.counts
    incl = tracer.inclusive
    run_s = run.traced_s
    layer_self = {}
    for name, own in tracer.self_times().items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
    cli_other = run_s - sum(v for k, v in layer_self.items() if k != "cli")
    finest = max((n for _, n in tracer.eigsolve_sizes), default=0)
    keys = tracer.solve_keys
    metrics = {
        "trace.run_s": (run_s, "s"),
        "trace.untraced_run_s": (run.iteration_s[-1], "s"),
        "trace.overhead_s": (run_s - run.iteration_s[-1], "s"),
        "cli.other_s": (cli_other, "s"),
        "spectral.eigsolve_s": (incl("spectral.lowest_eigenvalues",
                                     "spectral.eigenpairs_near"), "s"),
        "spectral.eigsolve_finest_s": (sum(
            tracer.spans[i][2] - tracer.spans[i][1]
            for i, n in tracer.eigsolve_sizes if n == finest), "s"),
        "spectral.eigsolve_calls": (len(tracer.eigsolve_sizes), "count"),
        "spectral.lu_solves": (c["spectral.lu_solves"], "count"),
        "spectral.lu_solve_s": (c["spectral.lu_solve_s"], "s"),
        "spectral.factorizations": (c["spectral.factorizations"], "count"),
        "spectral.factorize_s": (incl("spectral.factorize"), "s"),
        "spectral.lu_fill_nnz": (c["spectral.lu_fill_nnz"], "count"),
        # distinct ladder operators over ladder eigensolves; 1 with none
        "spectral.unique_solve_ratio": (
            len(set(keys)) / len(keys) if keys else 1.0, "ratio"),
        "spectral.ladder_eigsolves": (len(keys), "count"),
        "spectral.bound_states_s": (incl("spectral.bound_states"), "s"),
        "spectral.mourre_s": (incl("spectral.mourre"), "s"),
        "spectral.mourre_eigpairs": (c["spectral.mourre_eigpairs"], "count"),
        "assumptions.gate_s": (incl("assumptions.gate"), "s"),
        "assumptions.basic_s": (incl("assumptions.basic"), "s"),
        "assumptions.decay_s": (incl("assumptions.decay"), "s"),
        "assumptions.coefficients_s": (incl("assumptions.coefficients"), "s"),
        "metric.build_s": (incl("metric.build"), "s"),
        "metric.eval_s": (sum(
            t1 - t0 for name, t0, t1, _ in tracer.spans
            if name.startswith("metric.") and name not in ("metric.build", "metric.bounds")
            ), "s"),
        "metric.eval_calls": (c["metric.eval_calls"], "count"),
        "metric.eval_points": (c["metric.eval_points"], "count"),
        "frames.rotation_s": (incl("frames.rotation"), "s"),
        "frames.overlap_s": (incl("frames.overlap"), "s"),
        "frames.overlap_samples": (c["frames.overlap_samples"], "count"),
        "operators.assemble_s": (incl("operators.assemble"), "s"),
        "operators.assemble_calls": (c["operators.assemble_calls"], "count"),
        "operators.unknowns_finest": (c["operators.unknowns_finest"], "count"),
        "operators.nnz_total": (c["operators.nnz_total"], "count"),
        "config.load_s": (c["config.load_s"], "s"),
        "cross_section.thresholds_s": (incl("cross_section.thresholds"), "s"),
        "reporting.render_s": (incl("reporting.render"), "s"),
        "reporting.write_s": (incl("reporting.write"), "s"),
        "reporting.bytes": (c["reporting.bytes"], "count"),
    }
    for layer, own in sorted(layer_self.items()):
        if layer != "cli":
            metrics[f"{layer}.self_s"] = (own, "s")
    return {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()}


def environment():
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        blas_info = cfg["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def _dump(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
