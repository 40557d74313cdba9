"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run pytest -s to see them inline).

The bent-strip reference value was produced by an independent dense
LAPACK solve before the sparse pipeline existed; tools/dense_reference.py
regenerates it.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from tubespectra import (
    CheckerConfig,
    CoefficientField,
    ConvergencePolicy,
    CrossSection,
    CurvatureProfile,
    EffectivePotential,
    SpectralReport,
    SurfaceData,
    TruncatedGrid,
    assemble_commutator,
    assemble_free_hamiltonian,
    assemble_hamiltonian,
    assemble_weighted_form_hamiltonian,
    bound_states,
    build_frame_field,
    check_curvature_decay,
    constant_function,
    cross_section_spectrum,
    gaussian_bump,
    integrate_tang_rotation,
    lowest_eigenvalues,
    metric_from_jacobi,
    metric_from_profile,
    mourre_check_free,
    power_tail,
    richardson_extrapolate,
    rho_of_lambda,
)
from tubespectra.cli import hamiltonian_recipe
from conftest import random_smooth_profile
from dilation import assemble_dilation, commutator_form_comparison

NU1 = np.pi**2 / 4.0
LADDER = (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0)

# Lowest eigenvalue of the bent-strip Hamiltonian on [-64, 64] x (-1, 1),
# from dense LAPACK eigh at spacings {1/6, 1/8}, Richardson-extrapolated
# at second order (ratio 4/3).  See tools/dense_reference.py.
DENSE_REFERENCE_BENT_STRIP = 2.46616275


@pytest.fixture(scope="module")
def bent_strip():
    """Shared context for criteria 2, 3, 5 and 9."""
    profile = CurvatureProfile([gaussian_bump(0.5, 1.0)], (-1e4, 1e4))
    metric = metric_from_profile(profile, 1.0)
    omega = CrossSection.interval(1.0)
    thresholds = cross_section_spectrum(omega, 30)
    policy = ConvergencePolicy(spacings=LADDER, domain_length=64.0, n_eigs=4)
    t0 = time.perf_counter()
    result = bound_states(hamiltonian_recipe(metric, omega), thresholds, policy)
    runtime = time.perf_counter() - t0
    return SimpleNamespace(
        profile=profile,
        metric=metric,
        omega=omega,
        thresholds=thresholds,
        policy=policy,
        result=result,
        runtime=runtime,
    )


def test_criterion_1_straight_tube_threshold():
    t0 = time.perf_counter()
    vals = []
    for spacing in LADDER:
        grid = TruncatedGrid.interval(24.0, spacing, 1.0)
        v, _ = lowest_eigenvalues(assemble_free_hamiltonian(grid), 1)
        vals.append(v[0])
    res = richardson_extrapolate(LADDER, vals)
    runtime = time.perf_counter() - t0
    rel = abs(res.extrapolated - NU1) / NU1
    assert rel < 0.002
    assert not res.flagged
    assert runtime < 60.0
    print(
        f"ACCEPTANCE 1 PASS: straight-tube threshold, extrapolated "
        f"{res.extrapolated:.7f} vs nu1 {NU1:.7f} (rel {rel:.2e}, "
        f"order {res.fitted_order:.3f}, {runtime:.1f}s)"
    )


def test_criterion_2_bent_strip_bound_state(bent_strip):
    result = bent_strip.result
    assert bent_strip.runtime < 300.0
    assert len(result.states) >= 1
    state = result.states[0]
    assert state.value < NU1 - state.error          # below nu1 beyond its bar
    assert result.count_stable                      # stable across last two levels
    rel = abs(state.value - DENSE_REFERENCE_BENT_STRIP) / DENSE_REFERENCE_BENT_STRIP
    assert rel <= 1e-3                              # matches the dense oracle
    print(
        f"ACCEPTANCE 2 PASS: bent-strip bound state {state.value:.8f} "
        f"+- {state.error:.1e}, dense reference {DENSE_REFERENCE_BENT_STRIP} "
        f"(rel {rel:.2e}), binding {NU1 - state.value:.3e}, "
        f"{bent_strip.runtime:.1f}s"
    )


def test_criterion_3_unitary_equivalence(bent_strip):
    vals = []
    for spacing in LADDER:
        grid = TruncatedGrid.interval(64.0, spacing, 1.0)
        op = assemble_weighted_form_hamiltonian(bent_strip.metric, grid)
        v, _ = lowest_eigenvalues(op, 1)
        vals.append(v[0])
    weighted = richardson_extrapolate(LADDER, vals)
    flat_state = bent_strip.result.states[0]
    flat = richardson_extrapolate(LADDER, flat_state.ladder_values)
    tol = 3.0 * max(weighted.error_estimate, flat.error_estimate)
    diff = abs(weighted.extrapolated - flat.extrapolated)
    assert diff <= tol
    print(
        f"ACCEPTANCE 3 PASS: weighted-form vs transformed operator, "
        f"diff {diff:.2e} <= {tol:.2e} (3x larger Richardson error)"
    )


def test_criterion_4_tang_frame_conservation():
    profile = CurvatureProfile(
        [constant_function(0.3), constant_function(0.2)], (-50.0, 50.0)
    )
    s = np.linspace(-40.0, 40.0, 5121)  # RK4 step 1/64
    rot = integrate_tang_rotation(profile, s)
    orth = rot.max_orthogonality_defect()
    det = rot.max_determinant_defect()
    assert orth < 1e-10
    assert det < 1e-10
    alpha = np.unwrap(np.arctan2(rot.matrices[:, 1, 0], rot.matrices[:, 0, 0]))
    alpha -= alpha[s.size // 2]
    angle_err = float(np.max(np.abs(alpha - 0.2 * s)))
    assert angle_err < 1e-8
    print(
        f"ACCEPTANCE 4 PASS: Tang-frame conservation, orth defect {orth:.1e}, "
        f"det defect {det:.1e}, angle error {angle_err:.1e}"
    )


def test_criterion_5_flat_strip_equivalence(bent_strip):
    kappa = bent_strip.profile.kappas[0]
    surface = SurfaceData(
        gauss_curvature=lambda s, u: np.zeros(
            np.broadcast_shapes(np.shape(s), np.shape(u))
        ),
        kappa=lambda s: kappa(s),
        a=1.0,
        s_range=(-1e4, 1e4),
    )
    strip_metric = metric_from_jacobi(surface)

    # metric agreement at the stated tolerance, including off-node points
    s = np.linspace(-5.0, 5.0, 41)
    u = np.linspace(-1.0, 1.0, 37)
    S, U = np.meshgrid(s, u, indexing="ij")
    h_err = float(np.max(np.abs(strip_metric.h(S, U) - (1.0 - kappa(S) * U))))
    assert h_err < 1e-10

    result = bound_states(
        hamiltonian_recipe(strip_metric, bent_strip.omega),
        bent_strip.thresholds,
        bent_strip.policy,
    )
    assert len(result.states) == len(bent_strip.result.states) >= 1
    diff = abs(result.states[0].value - bent_strip.result.states[0].value)
    assert diff < 1e-6
    print(
        f"ACCEPTANCE 5 PASS: flat-strip equivalence, max|h - (1-ku)| "
        f"{h_err:.1e}, bound-state difference {diff:.2e}"
    )


def test_criterion_6_mourre_estimate_for_the_free_hamiltonian(bent_strip):
    t0 = time.perf_counter()
    grid = TruncatedGrid.interval(32.0, 1.0 / 16.0, 1.0)
    th = bent_strip.thresholds
    d1 = th.nu[1] - th.nu[0]
    d2 = th.nu[2] - th.nu[1]
    windows = (th.nu[0] + 0.3 * d1, th.nu[0] + 0.7 * d1, th.nu[1] + 0.4 * d2)
    results = mourre_check_free(
        grid, th, windows,
        epsilon_factor=0.05, tolerance_factor=0.05,
    )
    runtime = time.perf_counter() - t0
    assert runtime < 300.0
    for win in results:
        assert win.passed
        assert win.measured_bound >= win.expected_bound - 0.05 * win.expected_bound
    summary = ", ".join(
        f"{w.measured_bound:.3f}/{w.expected_bound:.3f}" for w in results
    )
    print(
        f"ACCEPTANCE 6 PASS: free-Hamiltonian projected commutator bound "
        f"(measured/expected) {summary}, {runtime:.1f}s"
    )


def test_criterion_7_commutator_formula_vs_direct(bent_strip):
    rng = np.random.default_rng(2024)
    coeffs = CoefficientField(bent_strip.metric)
    potential = EffectivePotential(bent_strip.metric)
    mean_rel = []
    max_rel = []
    for spacing in LADDER:
        grid = TruncatedGrid.interval(8.0, spacing, 1.0)
        h_op = assemble_hamiltonian(coeffs, potential, grid)
        c_op = assemble_commutator(coeffs, potential, grid)
        a_op = assemble_dilation(grid)
        s_i, u_i = grid.interior_coordinates()
        # C-infinity bump supported on |s| <= 7: at least 8 nodes off every wall
        bump = np.where(
            np.abs(s_i) < 7.0,
            np.exp(-1.0 / np.maximum(1e-12, 1.0 - (s_i / 7.0) ** 2)),
            0.0,
        )
        rng = np.random.default_rng(2024)  # same vectors at every level
        vectors = []
        for _ in range(20):
            c = rng.normal(size=4)
            mode = rng.integers(1, 3)
            vectors.append(
                (
                    c[0] * np.sin(1.3 * s_i)
                    + c[1] * np.cos(0.7 * s_i)
                    + c[2] * np.sin(2.1 * s_i + 0.5)
                    + c[3] * np.cos(1.7 * s_i)
                )
                * bump
                * np.cos(mode * np.pi * u_i[..., 0] / 2.0 - (mode - 1) * np.pi / 2.0)
            )
        rel = commutator_form_comparison(c_op, h_op, a_op, vectors)
        mean_rel.append(float(np.mean(rel)))
        max_rel.append(float(np.max(rel)))
    orders = [
        float(np.log2(mean_rel[i] / mean_rel[i + 1])) for i in range(len(LADDER) - 1)
    ]
    for order in orders:
        assert 1.7 <= order <= 2.3
    c_fit = max(m / h**2 for m, h in zip(max_rel, LADDER))
    for m, h in zip(max_rel, LADDER):
        assert m <= c_fit * h**2 + 1e-15
    print(
        f"ACCEPTANCE 7 PASS: commutator formula vs direct, fitted orders "
        f"{[round(o, 3) for o in orders]}, C={c_fit:.3f}"
    )


def test_criterion_8_assumption_checker_calibration():
    profile = CurvatureProfile([power_tail(0.5, 1.0, 1.5)], (-1e4, 1e4))
    report_a = check_curvature_decay(profile)
    report_b = check_curvature_decay(profile)
    assert report_a.render() == report_b.render()      # deterministic
    entry = report_a.entry("curvature-decay-rate")
    assert entry.verdict == "pass"
    assert 0.35 <= entry.fitted_theta <= 0.65          # analytic theta = 0.5

    const_profile = CurvatureProfile([constant_function(0.4)], (-1e4, 1e4))
    report_c = check_curvature_decay(const_profile)
    report_d = check_curvature_decay(const_profile)
    assert report_c.render() == report_d.render()
    assert report_c.entry("curvature-vanishes[k1]").verdict == "fail"
    print(
        f"ACCEPTANCE 8 PASS: checker calibration, power-tail theta "
        f"{entry.fitted_theta:.3f} in [0.35, 0.65]; constant profile fails "
        f"the vanishing limit; reports byte-identical across runs"
    )


def test_criterion_9_property_suites(bent_strip):
    # frame orthonormality invariants over random bounded smooth profiles
    for seed in range(6):
        rng = np.random.default_rng(seed)
        prof = random_smooth_profile(rng, dimension=int(rng.integers(2, 5)))
        field = build_frame_field(prof, np.linspace(-6, 6, 193))
        field.validate()

    # monotone approach under grid refinement (by-branch, no oscillation),
    # and exact Dirichlet domain monotonicity under L-doubling
    raw = np.asarray(bent_strip.result.raw_ladder)
    for j in range(raw.shape[1]):
        diffs = np.diff(raw[:, j])
        assert np.all(diffs >= -1e-10) or np.all(diffs <= 1e-10)
    recipe = hamiltonian_recipe(bent_strip.metric, bent_strip.omega)
    spacing = LADDER[0]
    lengths = (16.0, 32.0, 64.0)
    lowest = [lowest_eigenvalues(recipe(L, spacing), 1)[0][0] for L in lengths]
    assert lowest[1] <= lowest[0] + 1e-12
    assert lowest[2] <= lowest[1] + 1e-12

    # report soundness is assertable from the report alone
    report = SpectralReport(
        thresholds=bent_strip.thresholds, bound_states=bent_strip.result
    )
    assert report.is_sound()
    for state in bent_strip.result.states:
        assert state.value < report.essential_spectrum_onset - state.error

    # rho(lambda) piecewise correctness against a brute-force sup scan
    th = bent_strip.thresholds
    rng = np.random.default_rng(99)
    for lam in rng.uniform(0.0, th.nu[-1] * 0.98, size=300):
        below = [z for z in th.nu if z <= lam]
        got = rho_of_lambda(th, lam)
        if below:
            assert got == pytest.approx(lam - max(below), abs=1e-12)
            assert got >= 0.0
        else:
            assert not isinstance(got, float)
    print(
        "ACCEPTANCE 9 PASS: property suites (frame invariants, refinement "
        "monotonicity, domain monotonicity, report soundness, rho piecewise)"
    )
