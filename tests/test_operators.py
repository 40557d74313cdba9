import numpy as np
import pytest

from tubespectra import (
    CoefficientField,
    CurvatureProfile,
    EffectivePotential,
    EllipticityError,
    InputError,
    ResolutionError,
    SurfaceData,
    TruncatedGrid,
    assemble_free_hamiltonian,
    assemble_hamiltonian,
    assemble_weighted_form_hamiltonian,
    check_coefficient_assumptions,
    constant_function,
    gaussian_bump,
    lowest_eigenvalues,
    metric_from_jacobi,
    metric_from_profile,
    power_tail,
    richardson_extrapolate,
    tabulated_function,
)

NU1 = np.pi**2 / 4.0


def curved_operator(metric, length, spacing):
    grid = TruncatedGrid.interval(length, spacing, metric.a)
    return assemble_hamiltonian(CoefficientField(metric), EffectivePotential(metric), grid)


# ---------------------------------------------------------------------------
# effective potential


def test_potential_vanishes_for_straight_tube(straight_profile):
    metric = metric_from_profile(straight_profile, 1.0)
    pot = EffectivePotential(metric)
    s = np.linspace(-5, 5, 11)
    u = np.linspace(-0.9, 0.9, 11)
    assert np.all(pot(s, u) == 0.0)
    assert np.all(pot.derivative_s(s, u) == 0.0)


def test_potential_on_axis_for_constant_curvature():
    prof = CurvatureProfile([constant_function(0.6)], (-10, 10))
    metric = metric_from_profile(prof, 1.0)
    pot = EffectivePotential(metric)
    s = np.linspace(-3, 3, 7)
    val = pot(s, np.zeros_like(s))
    assert np.allclose(val, -(0.6**2) / 4.0, rtol=1e-14)
    comps = pot.components(s, np.zeros_like(s))
    assert np.allclose(comps["transverse_gradient"], -(0.6**2) / 4.0)
    for name in ("longitudinal_gradient", "longitudinal_curvature", "transverse_laplacian"):
        assert np.allclose(comps[name], 0.0)


def curved_strip_metric():
    """Strip whose Gauss and geodesic curvatures both vary in s and u."""
    return metric_from_jacobi(SurfaceData(
        gauss_curvature=lambda s, u: 0.3 * np.exp(-np.asarray(s) ** 2) * (1.0 + 0.5 * u),
        kappa=lambda s: 0.5 * np.exp(-np.asarray(s) ** 2),
        a=1.0,
        s_range=(-10.0, 10.0),
    ))


def test_potential_derivative_matches_finite_differences(bump_metric):
    # the strip takes its cross term from hu_sq_s by finite differences
    for metric in (bump_metric, curved_strip_metric()):
        pot = EffectivePotential(metric)
        s = np.linspace(-2.5, 2.5, 11)
        u = np.full_like(s, 0.37)
        errs = []
        for delta in (4e-2, 2e-2):
            fd = (
                pot(s - 2 * delta, u)
                - 8 * pot(s - delta, u)
                + 8 * pot(s + delta, u)
                - pot(s + 2 * delta, u)
            ) / (12 * delta)
            errs.append(np.max(np.abs(fd - pot.derivative_s(s, u))))
        assert errs[1] < errs[0] / 8.0  # fourth-order oracle: expect ~16x


def _exact_gate_quantities(kappas, u):
    """|h - 1|, |G - 1|, V and V_,1 of a planar tube in exact rational arithmetic.

    ``kappas`` are the float kappa^(k)(s), k = 0..3, at one s; h = 1 - kappa u.
    """
    from fractions import Fraction

    k0, k1, k2, k3 = (Fraction(float(k)) for k in kappas)
    u = Fraction(float(u))
    h, h1, h11, h111 = 1 - k0 * u, -k1 * u, -k2 * u, -k3 * u
    hu_sq, hu_sq_s = k0 * k0, 2 * k0 * k1
    v = -Fraction(5, 4) * h1**2 / h**4 + h11 / (2 * h**3) - hu_sq / (4 * h**2)
    v_s = (5 * h1**3 / h**5 - 4 * h1 * h11 / h**4 + h111 / (2 * h**3)
           + (h1 * hu_sq / h**3 - hu_sq_s / (2 * h**2)) / 2)
    return abs(h - 1), abs(1 / h**2 - 1), v, v_s


@pytest.mark.parametrize(
    "kappa,s_values",
    [(power_tail(0.5, 1.0, 2.5), (1e2, 1e3, 1e4)), (gaussian_bump(0.5, 1.0), (15.5, 16.0))],
    ids=["power-tail", "gaussian-where-h_s-cubed-is-subnormal"],
)
def test_gate_tails_match_exact_rational_arithmetic(kappa, s_values):
    # h - 1 and G - 1 are taken without cancelling against 1, so they keep
    # their relative accuracy where h is within roundoff of 1; V and V_,1
    # stay accurate where h_s^3 falls below the normal range
    from fractions import Fraction

    metric = metric_from_profile(CurvatureProfile([kappa], (-1e4, 1e4)), 1.0)
    coeffs, pot = CoefficientField(metric), EffectivePotential(metric)
    u = np.linspace(-1.0, 1.0, 9)
    for s_value in s_values:
        s = np.full_like(u, s_value)
        kappas = [kappa(s_value, k) for k in range(4)]
        if kappa.label.startswith("gaussian"):
            h1 = np.abs(kappas[1] * u[u != 0])
            assert np.all(h1**3 < np.finfo(float).tiny)
        jet = metric.jet(s, u)
        computed = (
            np.abs(jet["dh"]),
            coeffs.deviation_on_jet(jet, 1.0 / jet["h"]),
            pot(s, u),
            pot.derivative_s(s, u),
        )
        for j, uj in enumerate(u):
            exact = _exact_gate_quantities(kappas, uj)
            for got, ref in zip((c[j] for c in computed), exact):
                assert abs(Fraction(float(got)) - ref) <= Fraction(1, 10**14) * abs(ref), (
                    s_value, uj, float(got), float(ref))


def test_g11_is_h_to_the_minus_two_rounded_where_h_is_within_roundoff_of_one():
    # the straight-end elimination compares entries with the free operator
    # bit for bit, so G^11 there must round exactly like h^-2
    class FixedH:
        def __init__(self, h):
            self.h = h

        def jet(self, s, u, fields):
            return {"h": self.h}

    eps = np.finfo(float).eps
    steps = np.arange(1, 4001)
    h = np.r_[1.0 - 0.5 * eps * steps, 1.0, 1.0 + eps * steps]
    g = CoefficientField(FixedH(h)).g_ss(np.zeros_like(h), np.zeros_like(h))
    assert np.array_equal(g, h**-2.0)


def test_potential_singularity_is_flagged():
    # h = 1 - kappa u falls to 1e-9 at u = a, under the 1e-8 floor
    prof = CurvatureProfile([constant_function(1.0 - 1e-9)], (-10, 10))
    metric = metric_from_profile(prof, 1.0)
    pot = EffectivePotential(metric)
    with pytest.raises(EllipticityError):
        pot(np.zeros(3), np.array([0.0, 0.5, 1.0]))


# ---------------------------------------------------------------------------
# assembly structure


def max_asymmetry(op):
    d = op.matrix - op.matrix.T
    return 0.0 if d.nnz == 0 else float(np.max(np.abs(d.data)))


def test_five_point_stencil_values():
    # 8 interior transverse nodes, the fewest the resolution check admits
    grid = TruncatedGrid.interval(1.0, 0.25, 1.125)
    op = assemble_free_hamiltonian(grid)
    assert op.shape == (7 * 8, 7 * 8)
    m = op.matrix.tocoo()
    assert set(m.data[m.row == m.col]) == {4.0 / 0.25**2}
    assert set(m.data[m.row != m.col]) == {-1.0 / 0.25**2}
    # an interior row couples to its four neighbours, a corner row to two
    nnz_per_row = np.diff(op.matrix.tocsr().indptr)
    assert nnz_per_row.max() == 5 and nnz_per_row.min() == 3


def test_five_point_bandwidth_d2(bump_metric):
    op = curved_operator(bump_metric, 4.0, 0.125)
    nnz_per_row = np.diff(op.matrix.tocsr().indptr)
    assert nnz_per_row.max() <= 5
    assert max_asymmetry(op) == 0.0


def test_seven_point_bandwidth_d3():
    grid = TruncatedGrid.box(2.0, 0.25, (1.0, 1.0))
    op = assemble_free_hamiltonian(grid)
    nnz_per_row = np.diff(op.matrix.tocsr().indptr)
    assert nnz_per_row.max() <= 7
    assert max_asymmetry(op) == 0.0


def test_disc_grid_assembles_and_is_symmetric():
    grid = TruncatedGrid.disc(2.0, 0.25, 1.0)
    op = assemble_free_hamiltonian(grid)
    assert max_asymmetry(op) == 0.0
    vals, _ = lowest_eigenvalues(op, 1)
    # transverse disc mode dominates: j_{0,1}^2 ~ 5.78 plus axial box part
    assert 4.0 < vals[0] < 8.0


def test_too_coarse_transverse_grid_is_refused():
    grid = TruncatedGrid.interval(4.0, 0.5, 1.0)  # 3 interior u nodes
    with pytest.raises(ResolutionError):
        assemble_free_hamiltonian(grid)


@pytest.mark.parametrize("spacing", [0.0, -0.125, 0.3])
def test_a_spacing_that_cannot_tile_is_refused(spacing):
    with pytest.raises(InputError, match=f"spacing {spacing!r} "):
        TruncatedGrid.interval(4.0, spacing, 1.0)


def test_free_box_spectrum_converges_to_analytic():
    length = 10.0
    analytic = NU1 + (np.pi / (2 * length)) ** 2
    vals = []
    for spacing in (0.2, 0.1, 0.05):
        grid = TruncatedGrid.interval(length, spacing, 1.0)
        v, _ = lowest_eigenvalues(assemble_free_hamiltonian(grid), 1)
        vals.append(v[0])
    res = richardson_extrapolate((0.2, 0.1, 0.05), vals)
    assert res.extrapolated == pytest.approx(analytic, rel=1e-6)
    assert res.fitted_order == pytest.approx(2.0, abs=0.1)


def test_gauge_shift_moves_eigenvalues_exactly(bump_metric):
    grid = TruncatedGrid.interval(6.0, 0.125, 1.0)
    coeffs = CoefficientField(bump_metric)
    pot = EffectivePotential(bump_metric)
    base = assemble_hamiltonian(coeffs, pot, grid)
    shifted = assemble_hamiltonian(
        coeffs, lambda s, u: pot(s, u) + 0.7, grid, tag="H+c"
    )
    v0, _ = lowest_eigenvalues(base, 3)
    v1, _ = lowest_eigenvalues(shifted, 3)
    assert np.allclose(v1 - v0, 0.7, atol=1e-10)


def test_domain_monotonicity_in_length(bump_metric):
    spacing = 0.125
    vals = []
    for length in (4.0, 8.0, 16.0):
        v, _ = lowest_eigenvalues(curved_operator(bump_metric, length, spacing), 1)
        vals.append(v[0])
    assert vals[1] <= vals[0] + 1e-12
    assert vals[2] <= vals[1] + 1e-12


def test_weighted_form_matches_flat_operator(bump_metric):
    spacings = (0.2, 0.1)
    length = 8.0
    ext = {}
    for name, build in (
        ("flat", lambda h: curved_operator(bump_metric, length, h)),
        (
            "weighted",
            lambda h: assemble_weighted_form_hamiltonian(
                bump_metric, TruncatedGrid.interval(length, h, 1.0)
            ),
        ),
    ):
        vals = [lowest_eigenvalues(build(h), 1)[0][0] for h in spacings]
        ext[name] = richardson_extrapolate(spacings, vals)
    tol = 3.0 * max(ext["flat"].error_estimate, ext["weighted"].error_estimate)
    assert abs(ext["flat"].extrapolated - ext["weighted"].extrapolated) <= tol


# ---------------------------------------------------------------------------
# coefficient-level hypothesis checks


def test_straight_tube_coefficients_pass_trivially(straight_profile):
    metric = metric_from_profile(straight_profile, 1.0)
    report = check_coefficient_assumptions(
        CoefficientField(metric), EffectivePotential(metric)
    )
    assert report.overall == "pass"
    assert "identically zero" in report.entry("G-approach-identity").notes
    assert "identically zero" in report.entry("V-s-derivative-decay[V]").notes


def test_inverse_square_curvature_passes_with_capped_theta():
    prof = CurvatureProfile([__import__("tubespectra").power_tail(0.4, 1.0, 2.0)], (-1e4, 1e4))
    metric = metric_from_profile(prof, 1.0)
    report = check_coefficient_assumptions(
        CoefficientField(metric), EffectivePotential(metric)
    )
    assert report.overall == "pass"
    v_entry = report.entry("V-s-derivative-decay")
    assert v_entry.verdict == "pass"
    assert v_entry.fitted_theta == 1.0  # capped
    # G-1 ~ |s|^-2 contributes theta ~ 1 as well
    assert report.entry("G-s-derivative-decay").fitted_theta == pytest.approx(1.0, abs=0.1)


def test_log_decay_curvature_fails_the_rate_fit():
    s = np.arange(-1500.0, 1500.0 + 0.05, 0.05)
    kappa = 0.5 / np.log(np.e + np.sqrt(1.0 + s**2))
    prof = CurvatureProfile([tabulated_function(s, kappa)], (s[0], s[-1]))
    metric = metric_from_profile(prof, 1.0)
    report = check_coefficient_assumptions(
        CoefficientField(metric), EffectivePotential(metric)
    )
    # V still tends to zero ...
    assert report.entry("V-approach-zero").verdict in ("pass", "inconclusive")
    # ... but no power rate fits the logarithmic tail
    rate = report.entry("V-s-derivative-decay")
    assert rate.verdict == "fail"
    v_part = report.entry("V-s-derivative-decay[V]")
    assert v_part.verdict == "fail"
    assert v_part.fitted_theta < 0.05 or v_part.residual >= 0.2
    assert report.overall == "fail"
