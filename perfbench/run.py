#!/usr/bin/env python3
"""tubespectra benchmark: one workload per process, checked and timed.

    python3 perfbench/run.py --workload bent-strip --seed 0 --seconds 30 --trace 0

Run from anywhere; the repository root is the parent of this directory.
The package is used from ``src`` (it need not be installed).  Each
workload runs in its own child process with BLAS and OpenMP pinned to one
thread.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer metrics from one traced pass (plus one
untraced pass for the tracing overhead) and writes the spans to
``.bench_out/traces/``.  ``--workload all`` runs every workload in turn.
Human-readable lines come first; the last line of stdout is the JSON
result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import NAMES as WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4              # set-up-only processes before, and again after, the run
RUN_LIMIT_S = 175.0           # the whole run must end within this
PROBE_RESERVE_S = 15.0        # kept free for the probes after the run


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, workdir, mode, result, timeout):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", mode, "--scale", args.scale,
        "--workdir", str(workdir), "--result", str(result),
    ]
    t0 = time.perf_counter()
    # perf_counter is CLOCK_MONOTONIC, shared with the child process
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(t0)], env=child_env(), cwd=str(ROOT),
        stdout=sys.stderr, timeout=timeout,
    )
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    data = json.loads(result.read_text())
    result.unlink()
    return data


def run_one(args, declared):
    """Run one workload; return (result line dict, human lines)."""
    start = time.perf_counter()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    try:
        # set-up probes bracket the run, so that their median samples the
        # machine's speed over the whole run rather than its first seconds
        setups = []
        probes = 0 if args.trace else SETUP_PROBES
        for _ in range(probes):
            setups.append(spawn(args, workdir, "setup", result_path, 60)["setup_s"])
        left = RUN_LIMIT_S - PROBE_RESERVE_S - (time.perf_counter() - start)
        data = spawn(args, workdir, "run", result_path, max(left, 1.0))
        setups.append(data["setup_s"])
        for _ in range(probes):
            left = RUN_LIMIT_S - (time.perf_counter() - start)
            if left < PROBE_RESERVE_S / SETUP_PROBES:
                break
            setups.append(spawn(args, workdir, "setup", result_path, left)["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    observed = data["observed"]
    lines = [f"environment: {json.dumps(data['environment'], sort_keys=True)}"]
    attempted, failed = data["attempted"], data["failed"]
    lines.append(f"attempted {attempted} pipeline calls, failed {failed}: "
                 f"fail_ratio = {failed / attempted:.6g} (of {attempted})")
    for msg in data["failures"]:
        lines.append(f"FAILED {msg}")
    lines.extend(_accuracy_lines(observed))

    if args.trace:
        trace = data["trace"]
        trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "scale": args.scale,
            "environment": data["environment"], "metrics": trace,
            "spans": data["spans"],
        }))
        lines.append(f"trace written to {trace_path.relative_to(ROOT)}")
        lines.append("no layer waits: one process, no queue, so no wait times are reported")
        for name, m in trace.items():
            lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
        metrics = {name: trace[name] for name in declared["per_layer"]}
    else:
        iters = data["iteration_s"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(iters), "unit": "s"},
            "peak_rss_mb": {"value": data["peak_rss_mb"], "unit": "MB"},
        }
        lines.append(f"setup_s over {len(setups)} processes: "
                     + ", ".join(f"{v:.4f}" for v in setups))
        lines.append(f"run_s over {len(iters)} passes: "
                     + ", ".join(f"{v:.4f}" for v in iters))
        for name in declared["end_to_end"]:
            m = metrics[name]
            lines.append(f"{name} = {m['value']:.6g} {m['unit']} (attempted {attempted})")
        metrics = {name: metrics[name] for name in declared["end_to_end"]}
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return line, lines


def _accuracy_lines(observed):
    out = []
    for label, values in observed.items():
        for key in ("lambda0", "lambda0_err", "lambda0_bar", "mourre_margin"):
            if key in values:
                out.append(f"{label}: {key} = {values[key]!r}")
        if "verdict" in values:
            out.append(f"{label}: verdict {json.dumps(values['verdict'], sort_keys=True)}")
    return out


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": [m["name"] for m in spec["end_to_end"]],
        "per_layer": [m["name"] for m in spec["per_layer"]],
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke: shrunken ladders, for the self-test only")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "tubespectra" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'tubespectra'}",
              file=sys.stderr)
        return 2
    declared = declared_metrics()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            results[name], lines = run_one(one, declared)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        for text in lines:
            print(f"[{name}] {text}")
    if len(names) == 1:
        line = results[names[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
