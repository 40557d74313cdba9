"""Structured-text report rendering and CSV exports.

Reports are key-value text with bracketed sections and repr-formatted
floats, error bars excepted: those are differences of nearby values and
carry 3 significant digits (``spectrum.csv`` keeps them in full).  Two
runs of the same configuration produce byte-identical output except for
the single ``generated:`` line, which carries every non-deterministic
field (wall-clock stamp and runtimes) and is easy to strip in
comparisons.  The resolved configuration is embedded verbatim
between marker lines so a report can be re-run from itself.
"""

from __future__ import annotations

import csv
import datetime

import numpy as np

CONFIG_BEGIN = "--- begin resolved config ---"
CONFIG_END = "--- end resolved config ---"


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    if isinstance(value, (tuple, list)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def render_report(report, resolved_config_text=None, title="tubespectra spectral report"):
    """Render a SpectralReport (or a bare assumption run) to text."""
    lines = [title]
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    runtime = ""
    if report.bound_states is not None:
        runtime = f" runtime_seconds={report.bound_states.runtime_seconds:.3f}"
    lines.append(f"generated: {stamp}{runtime}")

    if resolved_config_text is not None:
        lines.append(CONFIG_BEGIN)
        lines.extend(resolved_config_text.rstrip("\n").split("\n"))
        lines.append(CONFIG_END)

    th = report.thresholds
    lines.append("[thresholds]")
    lines.append(f"essential_spectrum_onset = {_fmt(th.nu1)}")
    for i, (nu, tag) in enumerate(zip(th.nu, th.exactness), start=1):
        lines.append(f"nu[{i}] = {_fmt(nu)} ({tag})")

    bs = report.bound_states
    if bs is not None:
        lines.append("[bound_states]")
        lines.append(f"domain_length = {_fmt(bs.domain_length)}")
        lines.append(f"spacings = {_fmt(bs.spacings)}")
        lines.append(f"count = {len(bs.states)}")
        lines.append(f"count_stable_last_two_levels = {bs.count_stable}")
        if bs.no_bound_state and bs.closure is not None:
            lines.append("verdict = not resolved: the closure at the coarsest spacing bounds a "
                         "discrete bound state below nu_1(h), but no extrapolated value lies "
                         "below nu_1 by more than its error")
        elif bs.no_bound_state:
            lines.append("verdict = no bound state detected")
        for j, st in enumerate(bs.states, start=1):
            lines.append(f"state[{j}].value = {_fmt(st.value)}")
            lines.append(f"state[{j}].error = {st.error:.2e}")
            lines.append(f"state[{j}].refinement_error = {st.refinement_error:.2e}")
            lines.append(f"state[{j}].truncation_error = {st.truncation_error:.2e}")
            lines.append(f"state[{j}].ladder = {_fmt(st.ladder_values)}")
            lines.append(f"state[{j}].fitted_order = {_fmt(st.fitted_order)}")
            lines.append(f"state[{j}].flagged = {st.flagged}")
        lines.append(f"truncation_ladder = {_fmt([v for pair in bs.truncation_ladder for v in pair])}")
        # the path, index 0's closure bracket at (L, h0) and why the probes ran
        fields = [bs.truncation]
        if bs.closure is not None:
            root, lower = bs.closure
            fields.append(f"root {_fmt(root)}")
            if lower is not None:
                fields.append(f"lower {_fmt(lower)}")
        if bs.probe_reason:
            fields.append(bs.probe_reason)
        lines.append(f"truncation = {', '.join(fields)}")
        for j, lv in enumerate(bs.levels, start=1):
            lines.append(
                f"level[{j}] = L {_fmt(lv.length)}, h {_fmt(lv.spacing)}, "
                f"n {lv.unknowns}, nnz {lv.nnz}, band {lv.band}, "
                f"core {lv.core}/{lv.slices}, shift {_fmt(lv.shift)}, solves {lv.solves}, "
                f"max_residual {lv.max_residual:.1e}"
            )
        lines.append(f"report_sound = {report.is_sound()}")

    if report.mourre_windows or report.mourre_error is not None:
        lines.append("[mourre]")
        if report.mourre_error is not None:
            lines.append(f"error = {report.mourre_error}")
        for j, w in enumerate(report.mourre_windows, start=1):
            lines.append(
                f"window[{j}] = center {_fmt(w.center)}, eps {_fmt(w.half_width)}, "
                f"measured {_fmt(w.measured_bound)}, expected {_fmt(w.expected_bound)}, "
                f"states {w.n_states}, {'PASS' if w.passed else 'FAIL'}"
            )

    for name, rep in report.assumption_reports.items():
        lines.append(f"[assumptions.{name}]")
        lines.extend(rep.render().rstrip("\n").split("\n"))

    if report.metadata:
        lines.append("[metadata]")
        for key in sorted(report.metadata):
            lines.append(f"{key} = {_fmt(report.metadata[key])}")
    return "\n".join(lines) + "\n"


def strip_generated_line(text):
    return "\n".join(l for l in text.split("\n") if not l.startswith("generated: "))


def extract_embedded_config(text):
    lines = text.split("\n")
    try:
        i = lines.index(CONFIG_BEGIN)
        j = lines.index(CONFIG_END)
    except ValueError:
        raise ValueError("report carries no embedded config") from None
    return "\n".join(lines[i + 1 : j]) + "\n"


def write_spectrum_csv(path, result):
    """Eigenvalue ladder: one row per (state, level)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["state", "spacing", "value", "extrapolated", "error"])
        for j, st in enumerate(result.states, start=1):
            for h, v in zip(result.spacings, st.ladder_values):
                w.writerow([j, repr(float(h)), repr(float(v)), "", ""])
            w.writerow([j, "", "", repr(st.value), repr(st.error)])


def write_mourre_csv(path, windows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["center", "half_width", "rho", "expected", "measured",
             "n_states", "passed"]
        )
        for win in windows:
            w.writerow(
                [repr(win.center), repr(win.half_width), repr(win.rho),
                 repr(win.expected_bound), repr(win.measured_bound),
                 win.n_states, win.passed]
            )
