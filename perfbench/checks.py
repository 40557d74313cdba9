"""Correctness checks for each pipeline call.

``check(call, cfg, output, out_dir, runner)`` returns ``(problems, values)``:
a list of failure messages (empty when the call is correct) and the
values the check derived, which the benchmark reports.

- bent-strip: at least one state; |lambda0 - dense reference| within
  1e-3 relative and within the reported error bar; every Mourre window
  passes.
- rect-tube: raw ladder and verdict equal the values the seed code
  produced, to 1e-10 relative.  Self-referenced: there is no
  independent d=3 oracle.
- screen: every ``check`` exits 0 or 2 and renders a byte-identical
  report on every repetition (``generated:`` line stripped).  The gate
  verdicts are recorded only, so fixing a gate defect is not a failure.
  The ``mourre`` table must pass every window.

In smoke scale the reference values do not apply (the ladders are too
coarse) and only exit codes and report determinism are checked.
"""

from __future__ import annotations

import os

from tubespectra.reporting import strip_generated_line
from workloads import DENSE_REFERENCE_LAMBDA0

# rect-tube as the seed code computes it: raw ladder (rows h = 1/8, 1/16
# at L = 16, four eigenvalues each) and verdict.  The extrapolated values
# sit above nu_1 = 2 pi^2, so the run reports no bound state.
RECT_TUBE_RAW_LADDER = (
    (19.491184488399647, 19.5253834529372, 19.56901145292545, 19.640995208323133),
    (19.68021942268209, 19.714418287929533, 19.758053550311786, 19.83005253620365),
)
RECT_TUBE_VERDICT = {
    "exit": 0,
    "states": 0,
    "gate": {"basic": "pass", "coefficients": "pass", "curvature-decay": "pass"},
}
RECT_TUBE_RTOL = 1e-10


def mourre_margin(windows):
    """min over windows of (measured - expected + tol) / expected."""
    return min(
        (w.measured_bound - w.expected_bound + w.tolerance) / w.expected_bound
        for w in windows
    )


def check(call, cfg, output, out_dir, runner):
    full = runner.scale == "full"
    if call.kind == "spectrum":
        report, code = output
        if call.label == "bent-strip":
            return _bent_strip(report, code, full)
        return _rect_tube(report, code, full)
    if call.kind == "check":
        return _screen_check(call, cfg, output, out_dir, runner)
    windows, code = output
    problems = [] if code == 0 else [f"exit code {code}"]
    problems += [f"window {w.center!r} failed" for w in windows if not w.passed]
    return problems, {"mourre_margin": mourre_margin(windows)}


def _bent_strip(report, code, full):
    problems = [] if code == 0 else [f"exit code {code}"]
    states = report.bound_states.states if report.bound_states else ()
    values = {}
    if states:
        lam0, bar = states[0].value, states[0].error
        err = abs(lam0 - DENSE_REFERENCE_LAMBDA0)
        values = {"lambda0": lam0, "lambda0_err": err, "lambda0_bar": bar}
    if full and not states:
        problems.append("no bound state")
    elif full:
        if err > 1e-3 * DENSE_REFERENCE_LAMBDA0:
            problems.append(f"lambda0 {lam0!r} off the dense reference by {err:.3e}")
        if err > bar:
            problems.append(f"lambda0 error {err:.3e} exceeds its bar {bar:.3e}")
    windows = report.mourre_windows
    problems += [f"mourre window {w.center!r} failed" for w in windows if not w.passed]
    if windows:
        values["mourre_margin"] = mourre_margin(windows)
    return problems, values


def _rect_tube(report, code, full):
    bs = report.bound_states
    ladder = bs.raw_ladder if bs else ()
    verdict = _verdict(report, code)
    values = {"raw_ladder": ladder, "verdict": verdict}
    if bs is not None and bs.states:
        values["lambda0"] = bs.states[0].value
        values["lambda0_bar"] = bs.states[0].error
    if not full:
        return ([] if code == 0 else [f"exit code {code}"]), values
    problems = []
    if verdict != RECT_TUBE_VERDICT:
        problems.append(f"verdict {verdict} != recorded {RECT_TUBE_VERDICT}")
    if len(ladder) != len(RECT_TUBE_RAW_LADDER) or any(
        len(row) != len(ref)
        or any(abs(v - r) > RECT_TUBE_RTOL * abs(r) for v, r in zip(row, ref))
        for row, ref in zip(ladder, RECT_TUBE_RAW_LADDER)
    ):
        problems.append(f"raw ladder {ladder} != recorded {RECT_TUBE_RAW_LADDER}")
    return problems, values


def _verdict(report, code):
    bs = report.bound_states
    return {
        "exit": code,
        "states": len(bs.states) if bs else None,
        "gate": {k: r.overall for k, r in sorted(report.assumption_reports.items())},
    }


def _screen_check(call, cfg, output, out_dir, runner):
    report, code = output
    # exit 2 (a gate verdict of fail) is accepted: the flat surface strip
    # fails two gates at the seed, defect (a) of README.md
    problems = [] if code in (0, 2) else [f"exit code {code}"]
    with open(os.path.join(out_dir, cfg.outputs["report"])) as fh:
        text = strip_generated_line(fh.read())
    first = runner.first_reports.setdefault(call.label, text)
    if text != first:
        problems.append("report differs from the first repetition")
    return problems, {"verdict": _verdict(report, code)}
