"""Self-test of the benchmark on shrunken ladders.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced at ``--scale smoke`` and checks
that each metric BENCHMARK.json declares is emitted with its unit, that
the traced run writes every per-layer metric of the README table, that
its pipeline-call spans cover the traced pass, and that the solver,
assembly and metric counters are non-zero.  Takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# every per-layer metric the README names, declared in BENCHMARK.json or not
TRACE_METRICS = {
    "trace.run_s", "trace.overhead_s", "cli.other_s",
    "spectral.eigsolve_s", "spectral.eigsolve_finest_s", "spectral.eigsolve_calls",
    "spectral.lu_solves", "spectral.lu_solve_s", "spectral.factorizations",
    "spectral.factorize_s", "spectral.lu_fill_nnz", "spectral.unique_solve_ratio",
    "spectral.bound_states_s", "spectral.mourre_s", "spectral.mourre_eigpairs",
    "assumptions.gate_s", "assumptions.basic_s", "assumptions.decay_s",
    "assumptions.coefficients_s", "metric.build_s", "metric.eval_s",
    "metric.eval_calls", "metric.eval_points", "frames.rotation_s",
    "frames.overlap_s", "frames.overlap_samples", "operators.assemble_s",
    "operators.assemble_calls", "operators.unknowns_finest", "operators.nnz_total",
    "config.load_s", "cross_section.thresholds_s", "reporting.render_s",
    "reporting.write_s", "reporting.bytes",
}


# counters every workload drives, so a wrapper that stops catching calls shows
COUNTED = (
    "spectral.lu_solves", "spectral.factorizations",
    "operators.assemble_calls", "metric.eval_points",
)


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return out.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    lines = run(workload, 0)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0
    assert len(result["metrics"]) == len(SPEC["end_to_end"])
    assert any("fail_ratio" in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    lines = run(workload, 1)
    result = json.loads(lines[-1])
    assert result["correct"]
    for spec in SPEC["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    assert len(result["metrics"]) == len(SPEC["per_layer"])

    trace = json.loads((ROOT / ".bench_out" / "traces" / f"{workload}-seed3.json").read_text())
    metrics = {k: v["value"] for k, v in trace["metrics"].items()}
    assert TRACE_METRICS <= set(metrics)
    spans = trace["spans"]
    assert spans and all(len(span) == 4 for span in spans)
    # the pipeline-call spans cover the separately timed traced pass
    top = [t1 - t0 for name, t0, t1, parent in spans if parent == -1]
    assert all(name.startswith("cli.run_") for name, *_, parent in spans if parent == -1)
    assert sum(top) == pytest.approx(metrics["trace.run_s"], rel=1e-3, abs=1e-3)
    # the wrappers caught calls on every workload
    for name in COUNTED:
        assert metrics[name] > 0, name
