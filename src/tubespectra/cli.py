"""Command-line front end.

Subcommands drive the pipeline geometry -> metric -> assumption gate ->
operator -> spectrum -> Mourre check from a single INI problem file:

    tubespectra spectrum --config problem.ini [--out DIR] [--force]
    tubespectra check    --config problem.ini [--out DIR]
    tubespectra export   --config problem.ini [--out DIR]
    tubespectra mourre   --config problem.ini [--out DIR]

Exit codes: 0 success, 2 assumption-gate failure (override with --force),
3 solver failure, a report that does not pass, or a Mourre window that
``spectrum`` refused after its ladder.  Runs are deterministic; reports
embed the resolved configuration so they can be reproduced from themselves.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .assumptions import (
    check_basic,
    check_coefficient_assumptions,
    check_curvature_decay,
    check_metric_hypotheses,
)
from .config import MOURRE_MIN_THRESHOLDS, WaveguideConfig, load_config
from .cross_section import cross_section_spectrum
from .errors import ConfigError, SolverError, TubeSpectraError, WindowError
from .frames import (
    build_frame_field,
    check_self_overlap,
    export_mesh,
    integrate_tang_rotation,
    overlap_clearance,
    tube_embedding,
)
from .metric import (
    SurfaceData,
    export_metric_csv,
    metric_from_frames,
    metric_from_jacobi,
    metric_from_profile,
)
from .operators import (
    TruncatedGrid,
    _require_resolution,
    assemble_commutator,  # noqa: F401  (perfbench/tracer.py wraps it here)
    assemble_free_hamiltonian,  # noqa: F401  (perfbench/tracer.py wraps it here)
    assemble_hamiltonian,
)
from .reporting import (
    render_report,
    write_mourre_csv,
    write_spectrum_csv,
)
from .spectral import (
    ConvergencePolicy,
    SpectralReport,
    bound_states,
    mourre_check_free,  # perfbench/tracer.py wraps it here
)

EXIT_OK = 0
EXIT_GATE = 2
EXIT_SOLVER = 3


def grid_for(omega, length, spacing):
    """Truncated grid matched to a cross-section."""
    if omega.kind == "interval":
        return TruncatedGrid.interval(length, spacing, omega.a)
    if omega.kind == "rectangle":
        lx, ly = omega.params
        return TruncatedGrid.box(length, spacing, (lx / 2.0, ly / 2.0))
    if omega.kind == "disc":
        return TruncatedGrid.disc(length, spacing, omega.params[0])
    raise ConfigError(f"no operator grid for cross-section kind {omega.kind!r}")


def s_window(profile, half_width):
    """[-half_width, half_width] clipped to both ends of the profile's s_range."""
    lo, hi = profile.s_range
    return max(lo, -half_width), min(hi, half_width)


def build_metric(cfg: WaveguideConfig, profile, omega):
    """The metric of either problem kind."""
    if cfg.kind == "euclidean-tube":
        if cfg.dimension == 2:
            return metric_from_profile(profile, omega.a)
        # the gate samples the whole s_range, so the rotation must cover it
        rot = integrate_tang_rotation(profile, np.linspace(*profile.s_range, 2049))
        return metric_from_frames(profile, rot, omega.a)
    K = cfg.surface_curvature  # a number gets the closed-form metric
    surface = SurfaceData(
        gauss_curvature=cfg.gauss_curvature_fn() if isinstance(K, tuple) else K,
        kappa=profile.kappas[0],
        a=omega.a,
        s_range=profile.s_range,
    )
    return metric_from_jacobi(surface)


def hamiltonian_recipe(metric, omega):
    """(L, spacing) -> assembled Hamiltonian, for the convergence ladder."""
    def assemble(length, spacing):
        return assemble_hamiltonian(metric, grid_for(omega, length, spacing))

    return assemble


def overlap_certificate(cfg, profile, omega):
    """Sampled self-overlap check on the physically relevant window."""
    if cfg.kind == "surface-strip":
        return None, True  # abstract manifold: only the base curve is embedded
    a = omega.a
    lo, hi = s_window(profile, (cfg.domain_length or 32.0) + 4.0 * a)
    # keep embedded sample spacing safely under clearance/2
    n_s = max(64, int(np.ceil((hi - lo) / (overlap_clearance(a) / 4.0))) + 1)
    frames = build_frame_field(profile, np.linspace(lo, hi, n_s))
    if cfg.dimension == 2:
        u_pts = np.array([[-a], [0.0], [a]])
    else:
        ang = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        u_pts = np.vstack([np.zeros((1, 2)), a * np.stack([np.cos(ang), np.sin(ang)], axis=1)])
    cloud = tube_embedding(frames, u_pts, radius=a)
    return check_self_overlap(cloud), False


def assumption_gate(cfg, profile, omega, metric):
    """The hypothesis reports that gate the spectral run."""
    reports = {}
    overlap, waived = overlap_certificate(cfg, profile, omega)
    reports["basic"] = check_basic(metric, overlap=overlap, waive_overlap=waived)
    if cfg.kind == "euclidean-tube":
        reports["curvature-decay"] = check_curvature_decay(profile)
    else:
        reports["metric-decay"] = check_metric_hypotheses(metric)
    reports["coefficients"] = check_coefficient_assumptions(metric)
    return reports


def default_mourre_windows(thresholds):
    """Windows between the first three distinct thresholds: a double one counts once."""
    distinct = np.unique(thresholds.nu)
    if distinct.size < 3:
        raise WindowError(f"default Mourre windows need 3 distinct thresholds, "
                          f"got {distinct.size}: set mourre_windows")
    nu1, nu2, nu3 = distinct[:3]
    d1, d2 = nu2 - nu1, nu3 - nu2
    return (nu1 + 0.3 * d1, nu1 + 0.7 * d1, nu2 + 0.4 * d2)


def mourre_grid(cfg, omega):
    """The Mourre check's grid: InputError if it does not tile, ResolutionError if too coarse."""
    grid = grid_for(omega, cfg.mourre_domain_length, cfg.mourre_spacing)
    _require_resolution(grid)
    return grid


def run_mourre_windows(cfg, grid, thresholds):
    return mourre_check_free(
        grid,
        thresholds,
        cfg.mourre_windows or default_mourre_windows(thresholds),
        epsilon_factor=cfg.mourre_epsilon_factor,
        tolerance_factor=cfg.mourre_tolerance_factor,
    )


def run_check(cfg: WaveguideConfig, out_dir="."):
    """Assumption reports only; exit 2 unless everything passes."""
    profile = cfg.profile()
    omega = cfg.cross_section()
    metric = build_metric(cfg, profile, omega)
    reports = assumption_gate(cfg, profile, omega, metric)
    report = SpectralReport(
        thresholds=cross_section_spectrum(omega, cfg.n_thresholds),
        bound_states=None,
        assumption_reports=reports,
        metadata={"command": "check", "version": __version__},
    )
    text = render_report(report, cfg.render(), title="tubespectra assumption report")
    _write(out_dir, cfg.outputs["report"], text)
    ok = all(r.overall == "pass" for r in reports.values())
    return report, EXIT_OK if ok else EXIT_GATE


def run_spectrum(cfg: WaveguideConfig, out_dir=".", force=False):
    """Full pipeline; returns (SpectralReport, exit code)."""
    profile = cfg.profile()
    omega = cfg.cross_section()
    thresholds = cross_section_spectrum(omega, cfg.n_thresholds)
    metric = build_metric(cfg, profile, omega)
    reports = assumption_gate(cfg, profile, omega, metric)
    gate_ok = all(r.overall == "pass" for r in reports.values())

    report = SpectralReport(
        thresholds=thresholds,
        bound_states=None,
        assumption_reports=reports,
        metadata={
            "command": "spectrum",
            "version": __version__,
            "kind": cfg.kind,
            "dimension": cfg.dimension,
            "forced": force and not gate_ok,
        },
    )
    if not gate_ok and not force:
        text = render_report(report, cfg.render())
        _write(out_dir, cfg.outputs["report"], text)
        return report, EXIT_GATE

    # a Mourre grid the check cannot use is refused before the ladder, not after
    grid = mourre_grid(cfg, omega) if cfg.include_mourre else None
    policy = ConvergencePolicy(
        spacings=cfg.spacings,
        domain_length=cfg.domain_length,
        truncation_tol=cfg.truncation_tol,
        n_eigs=cfg.n_eigs,
    )
    try:
        result = bound_states(hamiltonian_recipe(metric, omega), thresholds, policy)
    except SolverError:
        text = render_report(report, cfg.render())
        _write(out_dir, cfg.outputs["report"], text)
        return report, EXIT_SOLVER
    report.bound_states = result
    if cfg.include_mourre:
        # a refused window must not cost the finished ladder its report
        try:
            report.mourre_windows = tuple(run_mourre_windows(cfg, grid, thresholds))
        except WindowError as exc:
            report.mourre_error = str(exc)

    report.metadata.update(
        {
            "domain_length": result.domain_length,
            "spacings": result.spacings,
            "unknowns_finest": result.levels[-1].unknowns,
        }
    )
    text = render_report(report, cfg.render())
    _write(out_dir, cfg.outputs["report"], text)
    write_spectrum_csv(os.path.join(out_dir, cfg.outputs["spectrum"]), result)
    if report.mourre_windows:
        write_mourre_csv(os.path.join(out_dir, cfg.outputs["mourre"]), report.mourre_windows)

    ok = (report.is_sound() and report.mourre_error is None
          and all(w.passed for w in report.mourre_windows))
    return report, EXIT_OK if ok else EXIT_SOLVER


def run_export(cfg: WaveguideConfig, out_dir="."):
    """Tube mesh and metric grid exports."""
    os.makedirs(out_dir, exist_ok=True)
    profile = cfg.profile()
    omega = cfg.cross_section()
    metric = build_metric(cfg, profile, omega)
    a = omega.a
    s_grid = np.linspace(*s_window(profile, cfg.domain_length or 16.0), cfg.mesh_s_points)
    if cfg.dimension == 2:
        u_vals = np.linspace(-a, a, cfg.mesh_u_points)[:, None]
    else:
        ang = np.linspace(0.0, 2.0 * np.pi, cfg.mesh_u_points, endpoint=False)
        u_vals = a * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if cfg.kind == "euclidean-tube":
        frames = build_frame_field(profile, s_grid)
        cloud = tube_embedding(frames, u_vals, radius=a)
        export_mesh(os.path.join(out_dir, cfg.outputs["mesh"]), cloud)
    export_metric_csv(
        metric,
        os.path.join(out_dir, os.path.splitext(cfg.outputs["mesh"])[0] + "_metric.csv"),
        s_grid[:: max(1, s_grid.size // 64)],
        u_vals,
    )
    return EXIT_OK


def run_mourre(cfg: WaveguideConfig, out_dir="."):
    """Free-Hamiltonian Mourre table."""
    os.makedirs(out_dir, exist_ok=True)
    omega = cfg.cross_section()
    thresholds = cross_section_spectrum(omega, max(cfg.n_thresholds, MOURRE_MIN_THRESHOLDS))
    windows = run_mourre_windows(cfg, mourre_grid(cfg, omega), thresholds)
    write_mourre_csv(os.path.join(out_dir, cfg.outputs["mourre"]), windows)
    for w in windows:
        print(
            f"lambda={w.center:.6g} eps={w.half_width:.3g} rho={w.rho:.6g} "
            f"measured={w.measured_bound:.6g} expected={w.expected_bound:.6g} "
            f"{'PASS' if w.passed else 'FAIL'}"
        )
    return windows, EXIT_OK if all(w.passed for w in windows) else EXIT_SOLVER


def _write(out_dir, name, text):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def _parser():
    p = argparse.ArgumentParser(
        prog="tubespectra",
        description="Spectral toolkit for Dirichlet Laplacians in curved waveguides",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("spectrum", "full pipeline: thresholds, bound states, Mourre check"),
        ("check", "assumption reports only"),
        ("export", "tube mesh and metric grid files"),
        ("mourre", "free-Hamiltonian Mourre table"),
    ):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--config", required=True, help="problem definition (INI)")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--verbose", action="store_true")
        if name == "spectrum":
            sp.add_argument(
                "--force", action="store_true",
                help="run the solver even when the assumption gate fails",
            )
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "spectrum":
            report, code = run_spectrum(cfg, args.out, force=args.force)
            if args.verbose or code != EXIT_OK:
                states = report.bound_states.states if report.bound_states else ()
                print(f"bound states: {len(states)}; exit {code}")
            return code
        if args.command == "check":
            report, code = run_check(cfg, args.out)
            for name, rep in report.assumption_reports.items():
                print(f"{name}: {rep.overall}")
            return code
        if args.command == "export":
            return run_export(cfg, args.out)
        if args.command == "mourre":
            _, code = run_mourre(cfg, args.out)
            return code
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except TubeSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
