import numpy as np
import pytest
import scipy.sparse as sp

from tubespectra import (
    CoefficientField,
    ConvergencePolicy,
    CrossSection,
    CurvatureProfile,
    DiagnosticsError,
    EffectivePotential,
    InputError,
    SpectralReport,
    ThresholdSet,
    TruncatedGrid,
    WindowError,
    assemble_commutator,
    assemble_free_hamiltonian,
    assemble_hamiltonian,
    bound_states,
    cross_section_spectrum,
    gaussian_bump,
    lowest_eigenvalues,
    metric_from_profile,
    mourre_check_free,
    richardson_extrapolate,
    select_domain_length,
)
from tubespectra import spectral
from tubespectra.cli import hamiltonian_recipe
from dilation import assemble_dilation, commutator_form_comparison

NU1 = np.pi**2 / 4.0


@pytest.fixture(scope="module")
def strong_metric():
    prof = CurvatureProfile([gaussian_bump(0.9, 2.0)], (-1e4, 1e4))
    return metric_from_profile(prof, 1.0)


@pytest.fixture(scope="module")
def strong_recipe(strong_metric):
    return hamiltonian_recipe(strong_metric, CrossSection.interval(1.0))


# ---------------------------------------------------------------------------
# eigen solver


def test_lowest_eigenvalues_of_a_diagonal_matrix():
    m = sp.diags([1.0, 2.0, 3.0])
    vals, res = lowest_eigenvalues(m, 2)
    assert np.allclose(vals, [1.0, 2.0])
    assert np.all(res < 1e-12)


def test_dense_and_lanczos_paths_agree_on_a_random_matrix():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(500, 500))
    m = sp.csr_matrix(0.5 * (a + a.T))
    vals, _ = lowest_eigenvalues(m, 5)  # certified shift-invert Lanczos
    dense = np.linalg.eigvalsh(m.toarray())[:5]
    assert np.allclose(vals, dense, atol=1e-9)


def test_free_hamiltonian_lowest_eigenvalue_matches_box_formula():
    grid = TruncatedGrid.interval(16.0, 1.0 / 32.0, 1.0)
    op = assemble_free_hamiltonian(grid)
    vals, res = lowest_eigenvalues(op, 1)
    expected = NU1 + (np.pi / 32.0) ** 2
    assert vals[0] == pytest.approx(expected, rel=1e-3)
    assert res[0] < 1e-8


def test_eigenvalue_count_below_second_threshold_grows_linearly():
    counts = []
    for length in (4.0, 8.0):
        grid = TruncatedGrid.interval(length, 0.125, 1.0)
        vals, _ = lowest_eigenvalues(assemble_free_hamiltonian(grid), 40)
        counts.append(int(np.sum(vals < np.pi**2)))
    assert counts[1] == pytest.approx(2 * counts[0], abs=2)


def test_bad_k_is_rejected():
    with pytest.raises(InputError):
        lowest_eigenvalues(sp.eye(5).tocsr(), 5)


def test_inertia_guard_lowers_a_shift_above_the_lowest_eigenvalue():
    op = assemble_free_hamiltonian(TruncatedGrid.interval(9.0, 0.125, 1.0))
    assert op.shape[0] > 2000  # sparse shift-invert path
    k = 3
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    reference = dense[:k]
    unhinted = lowest_eigenvalues(op, k)
    assert unhinted.shift == -1.0
    # a hint at the fifth eigenvalue puts the first shift above four of them
    below = float(dense[4])
    first = below - spectral._SHIFT_OFFSET * max(1.0, abs(below))
    assert first > dense[3]
    hinted = lowest_eigenvalues(op, k, below=below)
    assert hinted.shift < reference[0] < first
    np.testing.assert_allclose(hinted[0], reference, rtol=1e-10)
    np.testing.assert_allclose(hinted[0], unhinted[0], rtol=1e-10)
    assert np.all(hinted[1] < 1e-10)


def test_exactly_singular_shift_is_lowered():
    below = 3.0
    first = below - spectral._SHIFT_OFFSET * max(1.0, abs(below))
    m = sp.diags(first + 0.5 * np.arange(2500)).tocsr()  # sigma == lambda_0
    assert spectral._factorize(spectral._lower_entries(m), first) is None
    vals, res = solved = lowest_eigenvalues(m, 3, below=below)
    assert solved.shift < first
    np.testing.assert_allclose(vals, first + 0.5 * np.arange(3), rtol=1e-12)
    assert np.all(res < 1e-12)


def test_a_shift_a_hair_above_the_lowest_eigenvalue_is_lowered():
    below = 3.0
    first = below - spectral._SHIFT_OFFSET * max(1.0, abs(below))
    lam0 = first - 1e-9 * max(1.0, abs(first))
    m = sp.diags(np.r_[lam0, first + 0.5 * np.arange(1, 2500)]).tocsr()
    assert spectral._factorize(spectral._lower_entries(m), first) is None
    vals, res = solved = lowest_eigenvalues(m, 2, below=below)
    assert solved.shift < lam0
    np.testing.assert_allclose(vals, [lam0, first + 0.5], rtol=1e-12)
    assert np.all(res < 1e-12)


def test_an_indefinite_block_is_solved_below_its_negative_eigenvalue():
    # the shift -1 zeroes the diagonal of an isolated 2x2 block with
    # eigenvalues -2 and 0; Cholesky fails there and below until the shift
    # passes -2, with no pivoting that could void the certificate
    m = sp.lil_matrix(sp.diags(2.0 + 0.5 * np.arange(2500)))
    m[0, 0] = m[1, 1] = -1.0
    m[0, 1] = m[1, 0] = 1.0
    m = m.tocsr()
    dense = np.linalg.eigvalsh(m.toarray())[:2]
    np.testing.assert_allclose(dense, [-2.0, 0.0], atol=1e-12)
    vals, res = solved = lowest_eigenvalues(m, 2)
    assert solved.shift < -2.0
    assert spectral._factorize(spectral._lower_entries(m), solved.shift) is not None
    np.testing.assert_allclose(vals, dense, rtol=1e-12, atol=1e-12)
    assert np.all(res < 1e-12)


def test_a_warm_start_cannot_hide_a_symmetry_sector():
    # the free interval H0 written in the basis of grid functions even and
    # odd in s is block diagonal, the two sectors uncoupled to the last bit:
    # a start vector even in s then stays even through every exact solve
    grid = TruncatedGrid.interval(4.0, 0.125, 1.0)
    h0 = assemble_free_hamiltonian(grid).matrix
    half = (grid.s_nodes.size - 2) // 2          # s-nodes on each side of 0
    m = int(grid.t_interior.sum())
    ds2 = grid.s_spacing**2
    h_perp = h0[:m, :m] - (2.0 / ds2) * sp.identity(m)
    even_s = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(half + 1, half + 1)).tolil()
    even_s[0, 1] = even_s[1, 0] = -np.sqrt(2.0)  # the node at s = 0 and the pairs s, -s
    odd_s = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(half, half))
    sectors = [sp.kron(t / ds2, sp.identity(m)) + sp.kron(sp.identity(t.shape[0]), h_perp)
               for t in (even_s, odd_s)]
    op = sp.block_diag(sectors, format="csr")
    n_even = sectors[0].shape[0]
    assert op.shape == h0.shape and not op[n_even:, :n_even].nnz
    k = 4
    dense = np.linalg.eigvalsh(h0.toarray())[:k]
    even = np.zeros(op.shape[0])
    even[:n_even] = 1.0
    vals, res = solved = lowest_eigenvalues(op, k, start=even)
    assert np.all(even[:n_even] == 1.0) and not np.any(even[n_even:])  # left as given
    owned = even.copy()  # the ladder hands its start over, to be normalised in place
    np.testing.assert_array_equal(
        lowest_eigenvalues(op, k, start=owned, overwrite_start=True)[0], vals)
    assert np.linalg.norm(owned) == pytest.approx(1.0, abs=1e-3)
    # the lowest modes alternate even and odd in s: both sectors are found
    np.testing.assert_allclose(vals, dense, rtol=1e-10)
    assert np.all(res < 1e-10)
    odd_mass = np.sum(solved.vectors[n_even:] ** 2, axis=0)
    np.testing.assert_allclose(odd_mass, [0.0, 1.0, 0.0, 1.0], atol=1e-10)
    with pytest.raises(InputError, match="start vector"):
        lowest_eigenvalues(op, k, start=even[:-1])


def test_prolongation_carries_a_level_onto_both_ladder_steps():
    coarse = TruncatedGrid.interval(2.0, 0.25, 1.0)
    s_i, u_i = coarse.interior_coordinates()
    values = (4.0 - s_i**2) * (1.0 - u_i[:, 0] ** 2)
    # h -> h/2 at the same L: old nodes keep their values, new ones between
    # them take the mean of their neighbours
    fine = TruncatedGrid.interval(2.0, 0.125, 1.0)
    carried = spectral._prolongate((coarse, values), fine)
    s_f, u_f = fine.interior_coordinates()
    on_old = np.isclose(np.mod(s_f, 0.25), 0.0) & np.isclose(np.mod(u_f[:, 0], 0.25), 0.0)
    np.testing.assert_allclose(carried[on_old], values, rtol=1e-14)
    exact = (4.0 - s_f**2) * (1.0 - u_f[:, 0] ** 2)
    # linear interpolation errs by at most h^2/8 (max|f_ss| + max|f_uu|)
    assert np.all(np.abs(carried - exact) <= 0.25**2 / 8.0 * (2.0 + 8.0))
    # L -> 2L at the same h: the old box is copied, zero outside it
    long = TruncatedGrid.interval(4.0, 0.25, 1.0)
    carried = spectral._prolongate((coarse, values), long)
    s_l, _ = long.interior_coordinates()
    inside = np.abs(s_l) < 2.0
    np.testing.assert_array_equal(carried[inside], values)
    assert not np.any(carried[~inside])


def test_a_matrix_that_is_not_exactly_symmetric_is_refused():
    m = sp.lil_matrix(sp.diags(1.0 + np.arange(50.0)))
    m[3, 2] = 1e-3
    m[2, 3] = 1e-3 * (1.0 + 2.0**-40)
    with pytest.raises(InputError, match="not exactly symmetric"):
        lowest_eigenvalues(m.tocsr(), 2)


def test_lower_band_holds_each_subdiagonal():
    rng = np.random.default_rng(3)
    a = np.triu(np.tril(rng.normal(size=(9, 9)), 0), -3)
    dense = a + a.T
    band = spectral.lower_band(sp.csr_matrix(dense))
    assert band.shape == (4, 9) and band.flags.f_contiguous
    for r in range(4):
        np.testing.assert_array_equal(band[r, : 9 - r], np.diagonal(dense, -r))
        assert not band[r, 9 - r:].any()
    # unsummed duplicate entries add up, as in the matrix they stand for
    half = sp.coo_matrix(dense / 2.0)
    twice = sp.coo_matrix((np.tile(half.data, 2), (np.tile(half.row, 2), np.tile(half.col, 2))),
                          shape=dense.shape)
    np.testing.assert_array_equal(spectral.lower_band(twice), band)


D3_TUBE = """
[problem]
kind = euclidean-tube
dimension = 3

[curvature]
family = gaussian-bump
kappa0 = 0.5
sigma = 1.0

[curvature2]
family = gaussian-bump
kappa0 = 0.3
sigma = 1.0

[cross_section]
{cross_section}

[numerics]
s_max = 100.0
"""


def _d3_recipe(cross_section):
    from tubespectra.cli import build_metric
    from tubespectra.config import load_config_text

    cfg = load_config_text(D3_TUBE.format(cross_section=cross_section))
    omega = cfg.cross_section()
    return hamiltonian_recipe(build_metric(cfg, cfg.profile(), omega), omega)


@pytest.mark.parametrize("cross_section, length, spacing", [
    (None, 4.0, 0.125),
    ("shape = rectangle\nside_x = 1.0\nside_y = 1.0", 2.0, 0.125),
    ("shape = disc\nradius = 1.0", 1.5, 1.0 / 6.0),
], ids=["interval", "rectangle", "disc"])
def test_assembled_operators_are_symmetric_with_one_slice_of_bandwidth(
        strong_recipe, cross_section, length, spacing):
    # s is the slowest index, so the banded factor sees a half-bandwidth of
    # one transverse slice
    recipe = strong_recipe if cross_section is None else _d3_recipe(cross_section)
    op = recipe(length, spacing)
    m = op.matrix.tocoo()
    assert (op.matrix != op.matrix.T).nnz == 0
    assert np.max(m.row - m.col) == op.grid.t_interior.sum()
    assert spectral.lower_band(op.matrix).shape[0] - 1 == op.grid.t_interior.sum()


# ---------------------------------------------------------------------------
# Richardson


def test_richardson_recovers_clean_second_order_limit():
    truth = 3.7
    spac = (0.2, 0.1, 0.05)
    vals = [truth - 0.9 * h**2 + 0.1 * h**4 for h in spac]
    res = richardson_extrapolate(spac, vals)
    assert res.extrapolated == pytest.approx(truth, abs=1e-5)
    assert res.fitted_order == pytest.approx(2.0, abs=0.05)
    assert not res.flagged
    assert res.error_estimate >= abs(res.extrapolated - truth)


def test_richardson_flags_wrong_order():
    spac = (0.2, 0.1, 0.05)
    vals = [1.0 + h**3 for h in spac]  # cubic, not quadratic
    res = richardson_extrapolate(spac, vals)
    assert res.flagged


def test_richardson_input_validation():
    with pytest.raises(InputError):
        richardson_extrapolate((0.1, 0.2), (1.0, 2.0))
    with pytest.raises(InputError):
        richardson_extrapolate((0.1,), (1.0,))


# ---------------------------------------------------------------------------
# bound states


def test_bound_state_for_strongly_bent_strip(strong_recipe, interval_thresholds):
    policy = ConvergencePolicy(
        spacings=(0.125, 0.0625), domain_length=16.0, n_eigs=4
    )
    res = bound_states(strong_recipe, interval_thresholds, policy)
    assert len(res.states) == 1
    st = res.states[0]
    assert st.value < NU1 - st.error
    assert res.is_sound()
    assert res.count_stable
    assert not res.no_bound_state
    report = SpectralReport(thresholds=interval_thresholds, bound_states=res)
    assert report.is_sound()
    assert report.essential_spectrum_onset == NU1


@pytest.mark.parametrize("domain_length", [4.0, None], ids=["given-length", "selected-length"])
def test_ladder_assembles_each_level_once(strong_recipe, interval_thresholds, domain_length):
    calls = []

    def counting_recipe(length, spacing):
        calls.append((length, spacing))
        return strong_recipe(length, spacing)

    policy = ConvergencePolicy(spacings=(0.2, 0.1), domain_length=domain_length, n_eigs=2)
    res = bound_states(counting_recipe, interval_thresholds, policy)
    if domain_length is not None:
        # L/4, L/2 and L at the coarsest spacing, then L at the finer one
        assert calls == [(1.0, 0.2), (2.0, 0.2), (4.0, 0.2), (4.0, 0.1)]
    else:
        # the doublings at the coarsest spacing, then L at the finer one
        assert calls == [(ell, 0.2) for ell, _ in res.truncation_ladder] + [
            (res.domain_length, 0.1)
        ]
    assert res.raw_ladder[0][0] == res.truncation_ladder[-1][1]


def test_straight_tube_reports_no_bound_state(interval_thresholds, straight_profile):
    metric = metric_from_profile(straight_profile, 1.0)
    recipe = hamiltonian_recipe(metric, CrossSection.interval(1.0))
    policy = ConvergencePolicy(spacings=(0.2, 0.1), domain_length=8.0, n_eigs=3)
    res = bound_states(recipe, interval_thresholds, policy)
    assert res.no_bound_state
    assert res.is_sound()  # vacuously


def test_reflected_curvature_gives_the_identical_matrix(bump_metric, bump_profile):
    from tubespectra.profiles import ScalarFunction

    neg = CurvatureProfile(
        [ScalarFunction([
            lambda s, f=bump_profile.kappas[0]: -f(s, 0),
            lambda s, f=bump_profile.kappas[0]: -f(s, 1),
            lambda s, f=bump_profile.kappas[0]: -f(s, 2),
            lambda s, f=bump_profile.kappas[0]: -f(s, 3),
        ])],
        bump_profile.s_range,
    )
    neg_metric = metric_from_profile(neg, 1.0)
    grid = TruncatedGrid.interval(6.0, 0.125, 1.0)
    h_pos = assemble_hamiltonian(
        CoefficientField(bump_metric), EffectivePotential(bump_metric), grid
    )
    h_neg = assemble_hamiltonian(
        CoefficientField(neg_metric), EffectivePotential(neg_metric), grid
    )
    # relabel u -> -u: reverse the transverse index within each s block
    ns = grid.s_nodes.size - 2
    nu = int(grid.t_interior.sum())
    perm = (np.arange(ns)[:, None] * nu + (nu - 1 - np.arange(nu))[None, :]).ravel()
    p = sp.csr_matrix((np.ones(ns * nu), (np.arange(ns * nu), perm)))
    diff = p @ h_pos.matrix @ p.T - h_neg.matrix
    assert abs(diff).max() < 1e-14


def test_non_monotone_ladder_raises_diagnostics_error():
    thresholds = ThresholdSet((100.0,), ("analytic",))

    def assemble(length, spacing):
        wobble = {0.2: 1.0, 0.1: 1.2, 0.05: 1.1}[spacing]
        return sp.diags([wobble] + [200.0] * 9).tocsr()

    with pytest.raises(DiagnosticsError) as err:
        bound_states(
            assemble,
            thresholds,
            ConvergencePolicy(spacings=(0.2, 0.1, 0.05), domain_length=4.0, n_eigs=1),
        )
    assert err.value.ladder is not None


def test_domain_doubling_rule_stops(strong_recipe):
    length, ladder, lowest, level = select_domain_length(
        strong_recipe, 0.125, truncation_tol=1e-4, nu1=NU1
    )
    assert ladder[0][0] == 8.0 and length >= 16.0
    # the last doubling's solve comes back for reuse as a ladder level
    assert (level.length, level.spacing, lowest[0]) == (length, 0.125, ladder[-1][1])
    vals = [v for _, v in ladder]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))  # monotone down
    assert abs(vals[-1] - vals[-2]) < 1e-4


# ---------------------------------------------------------------------------
# dilation generator


def test_dilation_generator_is_exactly_antisymmetric():
    grid = TruncatedGrid.interval(8.0, 0.125, 1.0)
    a_op = assemble_dilation(grid)
    assert abs((a_op.matrix + a_op.matrix.T)).max() == 0.0
    assert a_op.tag == "A"


def test_dilation_on_a_constant_vector_gives_half():
    grid = TruncatedGrid.interval(8.0, 0.125, 1.0)
    s_gen = assemble_dilation(grid).matrix
    v = np.ones(s_gen.shape[0])
    sv = (s_gen @ v).reshape(grid.s_nodes.size - 2, -1)
    # away from the s-walls: A v = i S v = -i(s d/ds + 1/2) v -> S v = -v/2
    assert np.allclose(sv[2:-2], -0.5, atol=1e-12)


def test_dilation_symbol_on_a_plane_wave_packet():
    grid = TruncatedGrid.interval(16.0, 1.0 / 32.0, 1.0)
    s_gen = assemble_dilation(grid).matrix
    s_i, u_i = grid.interior_coordinates()
    k = 2.0
    envelope = np.exp(-((s_i / 4.0) ** 2)) * np.cos(np.pi * u_i[..., 0] / 2.0)
    v = envelope * np.exp(1j * k * s_i)
    av = 1j * (s_gen @ v)
    num = np.vdot(v, av).real / np.vdot(v, v).real
    sym = k * (np.vdot(v, s_i * v).real / np.vdot(v, v).real)
    # <A> ~ k <q> for a slowly modulated wave packet
    assert num == pytest.approx(sym, abs=0.05 * max(1.0, abs(sym)) + 0.05)


# ---------------------------------------------------------------------------
# commutator


GRIDS = [
    TruncatedGrid.interval(8.0, 0.125, 1.0),
    TruncatedGrid.box(2.0, 0.125, (0.5, 0.5)),
    TruncatedGrid.disc(1.5, 1.0 / 6.0, 1.0),
]


@pytest.mark.parametrize("grid", GRIDS, ids=["interval", "box", "disc"])
def test_free_commutator_is_twice_the_axial_kinetic_part(grid):
    # the two identities the closed-form Mourre bound rests on:
    # i[H0, A] = 2 T_s x I and H0 = T_s x I + I x H_perp
    n_s = grid.s_nodes.size - 2
    m = int(grid.t_interior.sum())
    t_s = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n_s, n_s)) / grid.s_spacing**2
    axial = sp.kron(t_s, sp.identity(m))
    c_free = assemble_commutator(CoefficientField(None), None, grid)
    assert abs(c_free.matrix - 2.0 * axial).max() == 0.0

    h0 = assemble_free_hamiltonian(grid).matrix
    h_perp = h0[:m, :m].toarray() - (2.0 / grid.s_spacing**2) * np.eye(m)
    kron_sum = axial + sp.kron(sp.identity(n_s), sp.csr_matrix(h_perp))
    assert abs(h0 - kron_sum).max() <= 1e-12 * abs(h0).max()
    # every slice holds the same transverse block, so no slice is special
    assert abs(h0[-m:, -m:] - h0[:m, :m]).max() == 0.0
    mu, nu = spectral._separable_modes(grid)
    np.testing.assert_allclose(nu, np.linalg.eigvalsh(h_perp), rtol=0, atol=1e-12 * nu.max())
    np.testing.assert_allclose(mu, np.linalg.eigvalsh(t_s.toarray()), rtol=0, atol=1e-12 * mu.max())


def test_commutator_formula_against_direct_matrix_commutator(bump_metric):
    rng = np.random.default_rng(5)
    rel = {}
    for spacing in (0.125, 0.0625):
        grid = TruncatedGrid.interval(8.0, spacing, 1.0)
        coeffs = CoefficientField(bump_metric)
        pot = EffectivePotential(bump_metric)
        h_op = assemble_hamiltonian(coeffs, pot, grid)
        c_op = assemble_commutator(coeffs, pot, grid)
        a_op = assemble_dilation(grid)
        s_i, u_i = grid.interior_coordinates()
        bump = np.where(
            np.abs(s_i) < 7.0, np.exp(-1.0 / np.maximum(1e-12, 1 - (s_i / 7.0) ** 2)), 0.0
        )
        vecs = []
        for _ in range(6):
            c = rng.normal(size=3)
            vecs.append(
                (c[0] * np.sin(1.3 * s_i) + c[1] * np.cos(0.6 * s_i) + c[2] * np.sin(2.1 * s_i))
                * bump
                * np.cos(np.pi * u_i[..., 0] / 2.0)
            )
        rel[spacing] = np.mean(commutator_form_comparison(c_op, h_op, a_op, vecs))
    assert rel[0.0625] < rel[0.125] / 2.5  # second-order shrink


def test_curved_commutator_approaches_the_free_one_far_out(bump_metric):
    grid = TruncatedGrid.interval(24.0, 0.125, 1.0)
    coeffs = CoefficientField(bump_metric)
    pot = EffectivePotential(bump_metric)
    c_curved = assemble_commutator(coeffs, pot, grid)
    c_free = assemble_commutator(CoefficientField(None), None, grid)
    s_i, u_i = grid.interior_coordinates()
    mode = np.cos(np.pi * u_i[..., 0] / 2.0)
    for centre in (16.0, -16.0):  # far beyond the bump, coefficients ~ flat
        v = np.exp(-((s_i - centre) ** 2)) * np.cos(2.0 * s_i) * mode
        v /= np.linalg.norm(v)
        qc = v @ (c_curved.matrix @ v)
        qf = v @ (c_free.matrix @ v)
        assert qc == pytest.approx(qf, rel=1e-8)


def test_mourre_empty_window_suggests_larger_domain(mourre_setup):
    grid, th = mourre_setup
    lam = th.nu1 + 0.31 * (th.nu[1] - th.nu1)
    with pytest.raises(WindowError) as err:
        # far narrower than the level spacing at this L: no states inside
        mourre_check_free(grid, th, [(lam, 1e-4)])
    assert "domain length" in str(err.value)


def test_commutator_requires_third_derivatives():
    from tubespectra import tabulated_function

    s = np.linspace(-10, 10, 2001)
    fn = tabulated_function(s, 0.3 * np.exp(-(s**2)), max_order=2)
    prof = CurvatureProfile([fn], (-10, 10))
    metric = metric_from_profile(prof, 1.0)
    grid = TruncatedGrid.interval(4.0, 0.125, 1.0)
    with pytest.raises(InputError):
        assemble_commutator(CoefficientField(metric), EffectivePotential(metric), grid)


# ---------------------------------------------------------------------------
# Mourre windows


@pytest.fixture(scope="module")
def mourre_setup():
    grid = TruncatedGrid.interval(16.0, 0.125, 1.0)
    thresholds = cross_section_spectrum(CrossSection.interval(1.0), 20)
    return grid, thresholds


def test_mourre_never_factorizes(mourre_setup, monkeypatch):
    grid, th = mourre_setup
    import scipy.sparse.linalg as spla

    factorized, kept, assembled = [], [], []
    splu, factorize, near = spla.splu, spectral._factorize, spectral._eigenpairs_near
    free = spectral.assemble_free_hamiltonian
    monkeypatch.setattr(spla, "splu", lambda *a, **kw: factorized.append(1) or splu(*a, **kw))
    monkeypatch.setattr(spectral, "_factorize",
                        lambda *a: factorized.append(1) or factorize(*a))
    monkeypatch.setattr(spectral, "assemble_free_hamiltonian",
                        lambda g: assembled.append(g.n_unknowns) or free(g))

    def counting(*args):
        pairs = near(*args)
        kept.append(pairs[0].size)
        return pairs

    monkeypatch.setattr(spectral, "_eigenpairs_near", counting)
    lam = 0.5 * (th.nu[1] + th.nu[2])
    wide, narrow = mourre_check_free(grid, th, [(lam, 4.0), (lam, 1.0)])
    # one exact selection per window: the wide one holds 29 states
    assert kept == [wide.n_states, narrow.n_states] and wide.n_states == 29
    assert factorized == []
    # the only assembly is one s-slice: the transverse block
    assert assembled == [int(grid.t_interior.sum())]
    # the counter sees the factorization a ladder solve makes
    lowest_eigenvalues(free(grid), 1)
    assert factorized == [1]


def test_mourre_validates_every_window_before_any_mode(mourre_setup, monkeypatch):
    grid, th = mourre_setup

    def refuse(grid):
        raise AssertionError("modes computed before every window was validated")

    monkeypatch.setattr(spectral, "_separable_modes", refuse)
    ok = th.nu1 + 0.3 * (th.nu[1] - th.nu1)
    with pytest.raises(WindowError, match=r"sits within 0 of a threshold"):
        mourre_check_free(grid, th, [ok, ok, th.nu[1]])


def test_mourre_measures_a_window_of_69_states(mourre_setup):
    # no vector is built, so no window is too full to measure
    _, th = mourre_setup
    grid = TruncatedGrid.interval(32.0, 0.125, 1.0)
    lam = 0.5 * (th.nu[2] + th.nu[3])
    (win,) = mourre_check_free(grid, th, [(lam, 4.0)])
    assert win.n_states == 62
    (wide,) = mourre_check_free(grid, th, [(lam, 4.4)])
    assert wide.n_states == 69
    mu, nu = spectral._separable_modes(grid)
    sums = mu[:, None] + nu[None, :]
    inside = (sums > lam - 4.4) & (sums < lam + 4.4)
    assert wide.measured_bound == 2.0 * mu[np.nonzero(inside)[0]].min()
    assert wide.measured_bound <= win.measured_bound


@pytest.mark.parametrize("tol, kept", [(0.02, 3), (0.03, 9), (0.04, 19)])
def test_mourre_wall_filter_matches_the_full_vector_fractions(mourre_setup, tol, kept):
    # the check no longer filters: it once dropped a window state with more
    # than tol of its mass on the 4 node layers next to either s-wall, read
    # from phi_j alone.  The reference is each whole vector phi_j (x) psi_t;
    # on this coarse, short grid none of them is a truncation artifact, and
    # every one is kept
    grid, th = mourre_setup
    lam = 0.5 * (th.nu[1] + th.nu[2])
    mu, nu = spectral._separable_modes(grid)
    sums = mu[:, None] + nu[None, :]
    j, t = np.nonzero((sums > lam - 4.0) & (sums < lam + 4.0))
    n_s, ds = mu.size, grid.s_spacing
    phi = np.sqrt(2.0 / (n_s + 1)) * np.sin(
        np.outer(np.arange(1, n_s + 1), j + 1) * np.pi / (n_s + 1))
    one_slice = TruncatedGrid(np.array([-ds, 0.0, ds]), grid.t_axes, grid.t_interior)
    _, psi = np.linalg.eigh(assemble_free_hamiltonian(one_slice).matrix.toarray())
    vecs = phi[:, None, :] * psi[:, t][None, :, :]
    flat = vecs.reshape(-1, j.size)
    h0 = assemble_free_hamiltonian(grid)
    np.testing.assert_allclose(h0.matrix @ flat, flat * sums[j, t], rtol=0, atol=1e-9)
    x = vecs**2
    wall = (x[:4].sum(axis=(0, 1)) + x[-4:].sum(axis=(0, 1))) / x.sum(axis=(0, 1))
    np.testing.assert_allclose(np.sum(phi[np.r_[:4, -4:0]] ** 2, axis=0), wall, rtol=1e-12)
    assert j.size == 29 and np.count_nonzero(wall <= tol) == kept
    (win,) = mourre_check_free(grid, th, [(lam, 4.0)])
    assert win.n_states == 29 and win.measured_bound == 2.0 * mu[j].min()


def test_mourre_default_windows_hold_every_state():
    from tubespectra.cli import default_mourre_windows

    # on the unit interval at h = 1/8 every state of the second and third
    # default windows puts over 1% of its mass within 4 nodes of an s-wall
    th = cross_section_spectrum(CrossSection.interval(1.0), 30)
    wins = mourre_check_free(TruncatedGrid.interval(32.0, 0.125, 1.0), th,
                             default_mourre_windows(th))
    assert [w.n_states for w in wins] == [2, 2, 4] and all(w.passed for w in wins)
    # the unit square's third default window holds 8 states
    th = cross_section_spectrum(CrossSection.rectangle(1.0, 1.0), 30)
    (win,) = mourre_check_free(TruncatedGrid.box(32.0, 0.0625, (0.5, 0.5)), th,
                               default_mourre_windows(th)[2:])
    assert win.n_states == 8 and win.passed
    assert win.measured_bound == pytest.approx(24.197395118058353, rel=1e-13)


@pytest.mark.parametrize("grid, omega, lam, eps", [
    (TruncatedGrid.interval(4.0, 0.125, 1.0), CrossSection.interval(1.0), 15.0, 3.0),
    (TruncatedGrid.box(2.0, 0.125, (0.5, 0.5)), CrossSection.rectangle(1.0, 1.0), 35.0, 8.0),
    (TruncatedGrid.disc(1.5, 1.0 / 6.0, 1.0), CrossSection.disc(1.0), 20.0, 3.5),
], ids=["interval", "rectangle", "disc"])
def test_mourre_separable_pairs_match_the_dense_oracle(grid, omega, lam, eps):
    h0 = assemble_free_hamiltonian(grid)
    c0 = assemble_commutator(CoefficientField(None), None, grid)
    th = cross_section_spectrum(omega, 6)
    assert h0.shape[0] <= 2000
    (win,) = mourre_check_free(grid, th, [(lam, eps)])
    # the oracle: every eigenvector of the assembled operator inside the
    # window, and the assembled commutator compressed to them
    w, v = np.linalg.eigh(h0.matrix.toarray())
    inside = (w > lam - eps) & (w < lam + eps)
    basis, _ = np.linalg.qr(v[:, inside])
    comp = basis.T @ (c0.matrix @ basis)
    assert win.n_states == np.count_nonzero(inside)
    assert win.measured_bound == pytest.approx(
        np.linalg.eigvalsh(0.5 * (comp + comp.T))[0], rel=1e-10, abs=1e-10)

    mu, nu = spectral._separable_modes(grid)
    vals, _ = spectral._eigenpairs_near(mu, nu, lam, eps)
    np.testing.assert_allclose(np.sort(vals), w[inside], rtol=1e-10, atol=0)


def test_mourre_window_rejects_threshold_proximity(mourre_setup):
    grid, th = mourre_setup
    with pytest.raises(WindowError):
        mourre_check_free(grid, th, [(th.nu[1], 0.5)])


def test_mourre_window_below_first_threshold_is_vacuous(mourre_setup):
    grid, th = mourre_setup
    with pytest.raises(WindowError):
        mourre_check_free(grid, th, [(0.5 * th.nu1, 0.05)])


def test_mourre_measured_bound_tracks_two_rho(mourre_setup):
    grid, th = mourre_setup
    lam = th.nu1 + 0.3 * (th.nu[1] - th.nu1)
    eps = 0.3
    (win,) = mourre_check_free(grid, th, [(lam, eps)], tolerance_factor=0.05)
    rho = lam - th.nu1
    assert win.n_states >= 1
    assert win.measured_bound >= 2.0 * (rho - eps) - 0.1
    assert win.measured_bound <= 2.0 * rho + 0.1
    assert win.passed == (win.measured_bound >= win.expected_bound - win.tolerance)
