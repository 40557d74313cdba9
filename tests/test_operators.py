import numpy as np
import pytest
import scipy.sparse as sp

from tubespectra import (
    CurvatureProfile,
    DiscreteOperator,
    EllipticityError,
    InputError,
    ResolutionError,
    SurfaceData,
    TruncatedGrid,
    assemble_commutator,
    assemble_free_hamiltonian,
    assemble_hamiltonian,
    assemble_weighted_form_hamiltonian,
    check_coefficient_assumptions,
    constant_function,
    gaussian_bump,
    lowest_eigenvalues,
    integrate_tang_rotation,
    metric_from_frames,
    metric_from_jacobi,
    metric_from_profile,
    power_tail,
    richardson_extrapolate,
    tabulated_function,
)
from tubespectra import operators, spectral
from tubespectra.cli import grid_for
from tubespectra.profiles import ScalarFunction
from tubespectra.operators import (
    g11,
    g11_s,
    g_deviation,
    potential,
    potential_components,
    potential_s,
    reciprocal,
)
from conftest import node_coordinates, row_index

NU1 = np.pi**2 / 4.0


def curved_operator(metric, length, spacing):
    grid = TruncatedGrid.interval(length, spacing, metric.a)
    return assemble_hamiltonian(metric, grid)


def potential_at(metric, s, u, derivative=False):
    """V, or V_,1, at (s, u) from one jet."""
    jet = metric.jet(s, u)
    return (potential_s if derivative else potential)(jet, reciprocal(jet, s))


# ---------------------------------------------------------------------------
# effective potential


def test_potential_vanishes_for_straight_tube(straight_profile):
    metric = metric_from_profile(straight_profile, 1.0)
    s = np.linspace(-5, 5, 11)
    u = np.linspace(-0.9, 0.9, 11)
    assert np.all(potential_at(metric, s, u) == 0.0)
    assert np.all(potential_at(metric, s, u, derivative=True) == 0.0)


def test_potential_on_axis_for_constant_curvature():
    prof = CurvatureProfile([constant_function(0.6)], (-10, 10))
    metric = metric_from_profile(prof, 1.0)
    s = np.linspace(-3, 3, 7)
    val = potential_at(metric, s, np.zeros_like(s))
    assert np.allclose(val, -(0.6**2) / 4.0, rtol=1e-14)
    jet = metric.jet(s, np.zeros_like(s))
    comps = potential_components(jet, 1.0 / jet["h"])
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
        def pot(s, u):
            return potential_at(metric, s, u)

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
            errs.append(np.max(np.abs(fd - potential_at(metric, s, u, derivative=True))))
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
    u = np.linspace(-1.0, 1.0, 9)
    for s_value in s_values:
        s = np.full_like(u, s_value)
        kappas = [kappa(s_value, k) for k in range(4)]
        if kappa.label.startswith("gaussian"):
            h1 = np.abs(kappas[1] * u[u != 0])
            assert np.all(h1**3 < np.finfo(float).tiny)
        jet = metric.jet(s, u)
        r = reciprocal(jet, s)
        computed = (np.abs(jet["dh"]), g_deviation(jet, r), potential(jet, r),
                    potential_s(jet, r))
        for j, uj in enumerate(u):
            exact = _exact_gate_quantities(kappas, uj)
            for got, ref in zip((c[j] for c in computed), exact):
                assert abs(Fraction(float(got)) - ref) <= Fraction(1, 10**14) * abs(ref), (
                    s_value, uj, float(got), float(ref))


def test_g11_is_h_to_the_minus_two_rounded_where_h_is_within_roundoff_of_one():
    # the straight-end elimination compares entries with the free operator
    # bit for bit, so G^11 there must round exactly like h^-2
    eps = np.finfo(float).eps
    steps = np.arange(1, 4001)
    h = np.r_[1.0 - 0.5 * eps * steps, 1.0, 1.0 + eps * steps]
    assert np.array_equal(g11({"h": h}), h**-2.0)


def test_potential_singularity_is_flagged():
    # h = 1 - kappa u falls to 1e-9 at u = a, under the 1e-8 floor
    prof = CurvatureProfile([constant_function(1.0 - 1e-9)], (-10, 10))
    metric = metric_from_profile(prof, 1.0)
    s = np.zeros(3)
    with pytest.raises(EllipticityError):
        reciprocal(metric.jet(s, np.array([0.0, 0.5, 1.0]), ("h",)), s)


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


@pytest.mark.parametrize("grid", [
    TruncatedGrid.interval(64.0, 1.0 / 32.0, 1.0),
    TruncatedGrid.box(16.0, 1.0 / 16.0, (0.5, 0.5)),
    TruncatedGrid.disc(16.0, 1.0 / 8.0, 1.0),
], ids=["interval", "box", "disc"])
def test_the_active_transverse_nodes_are_each_slices_unknowns(grid):
    nodes = grid.transverse_nodes()
    assert nodes.shape == grid.t_interior.shape + (grid.transverse_dim,)
    for k, ax in enumerate(grid.t_axes):
        form = [1] * grid.transverse_dim
        form[k] = -1
        np.testing.assert_array_equal(nodes[..., k],
                                      np.broadcast_to(ax.reshape(form), grid.t_interior.shape))
    idx, _ = row_index(grid)
    width = int(grid.t_interior.sum())
    for j in (1, grid.s_nodes.size - 2):        # the first and the last interior slice
        np.testing.assert_array_equal(idx[j][grid.t_interior],
                                      (j - 1) * width + np.arange(width))


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
    base = assemble_hamiltonian(bump_metric, grid)
    # no free end: a shifted slice no longer has the free operator's rows
    shifted = DiscreteOperator(base.matrix + 0.7 * sp.identity(base.shape[0], format="csr"),
                               grid, "H+c")
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
# assembly against the coordinate-format reference


def reference_divergence_form(grid, coefficient_arrays):
    """The coordinate-format assembly: the upper faces, then m + m.T + diag."""
    idx, act = row_index(grid)
    n, shape, spac = int(act.sum()), grid.full_shape, grid.spacings
    diag_full = np.zeros(shape)
    rows, cols, vals = [], [], []
    for axis, c_nodes in enumerate(coefficient_arrays):
        lo, hi = operators._axis_pair_slices(shape, axis)
        cf = 0.5 * (c_nodes[lo] + c_nodes[hi]) / spac[axis] ** 2
        tmp = np.zeros(shape)
        tmp[lo] += cf
        tmp[hi] += cf
        diag_full += tmp
        both = act[lo] & act[hi]
        rows.append(idx[lo][both])
        cols.append(idx[hi][both])
        vals.append(-cf[both])
    m = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    return (m + m.T + sp.diags(diag_full[act])).tocsr()


def reference_hamiltonian(metric, grid):
    """The coordinate-format Hamiltonian: G^11 and V from one jet at every node."""
    arrays = [np.ones(grid.full_shape)] * (1 + grid.transverse_dim)
    if metric is None:
        return reference_divergence_form(grid, arrays)
    S, U = node_coordinates(grid)
    jet = metric.jet(S, U, operators._V_FIELDS)
    arrays[0] = g11(jet)
    v = potential(jet, reciprocal(jet, S))
    return (reference_divergence_form(grid, arrays) + sp.diags(v[grid.active()])).tocsr()


def reference_weighted_form_and_commutator(metric, grid):
    """The coordinate-format weighted form and commutator, from one jet at every node."""
    S, U = node_coordinates(grid)
    act = grid.active()
    jet = metric.jet(S, U, operators._V_S_FIELDS)
    h = jet["h"]
    k = reference_divergence_form(grid, [1.0 / h] + [h] * grid.transverse_dim)
    d_half = sp.diags(h[act] ** -0.5)
    m = (d_half @ k @ d_half).tocsr()
    r = reciprocal(jet, S)
    commutator = (2.0 * reference_divergence_form(grid, [g11(jet)])
                  - reference_divergence_form(grid, [S * g11_s(jet, r)])
                  - sp.diags(S[act] * potential_s(jet, r)[act]))
    return (0.5 * (m + m.T)).tocsr(), commutator.tocsr()


def assert_same_csr(m, reference):
    for name in ("indptr", "indices"):
        got, want = getattr(m, name), getattr(reference, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert m.data.tobytes() == reference.data.tobytes()
    assert m.has_canonical_format


D3_SHAPES = {"rectangle": "shape = rectangle\nside_x = 1.0\nside_y = 1.0",
             "disc": "shape = disc\nradius = 1.0"}


def _edge_bump(above):
    """A bump whose bound on |h - 1| at s = 6 on the L = 8 interval grid is 2^-55, or just above.

    kappa0 moves by single ulps from the estimate until the bound crosses 2^-55.
    """
    grid, flat = TruncatedGrid.interval(8.0, 0.125, 1.0), 2.0**-55
    u, at = grid.transverse_nodes()[grid.t_interior], np.array([6.0])

    def bump(kappa0):
        return metric_from_profile(CurvatureProfile([gaussian_bump(kappa0, 1.0)], (-1e4, 1e4)),
                                   1.0)

    def bound(kappa0):
        return bump(kappa0)._field_bounds(at, u)["dh"][0]

    kappa0 = flat / ((1.0 + 1e-12) * np.exp(-36.0) * 0.875)
    for _ in range(8):
        if bound(kappa0) > flat:
            kappa0 = np.nextafter(kappa0, 0.0)
        elif bound(np.nextafter(kappa0, 1.0)) <= flat:
            kappa0 = np.nextafter(kappa0, 1.0)
    if above:
        kappa0 = np.nextafter(kappa0, 1.0)
    assert abs(bound(kappa0) - flat) <= 4 * np.spacing(flat)
    assert (bound(kappa0) > flat) == above
    return bump(kappa0), grid


def _case(case, bump_metric, d3_tube):
    """(metric, grid) of a named case: a cross-section, or a strip on the interval.

    A ``-32`` suffix puts it on L = 32 instead of 8.
    """
    case, _, length = case.partition("-")
    length = float(length or 8.0)
    interval = TruncatedGrid.interval(length, 0.125, 1.0)
    if case == "power":
        return metric_from_profile(CurvatureProfile([power_tail(0.4, 1.0, 2.5)],
                                                    (-1e4, 1e4)), 1.0), interval
    if case == "strip":
        return metric_from_jacobi(SurfaceData(0.3, gaussian_bump(0.4, 1.0), 1.0,
                                              (-1e4, 1e4))), interval
    if case == "integrated":
        return curved_strip_metric(), interval
    if case == "interval":
        return bump_metric, interval
    if case in ("below", "above"):
        return _edge_bump(case == "above")
    if case == "sine":
        # kappa = 1e-4 sin(8 pi s) rounds to a few 1e-18 on every s-node, while h_s
        # does not: flat everywhere, and V alone keeps each slice uncertified
        w = 8.0 * np.pi
        kappa = ScalarFunction([lambda s, k=k: 1e-4 * w**k * np.sin(w * s + k * np.pi / 2)
                                for k in range(4)], sup_abs=1e-4)
        return metric_from_profile(CurvatureProfile([kappa], (-1e4, 1e4)), 1.0), interval
    if case == "wall":
        # a narrow bump next to both walls: the wall slices are certified, their
        # neighbours are not, and the span takes the walls in
        return (metric_from_profile(CurvatureProfile([gaussian_bump(0.5, 0.04)], (-1e4, 1e4)),
                                    1.0), TruncatedGrid.interval(0.5, 0.125, 1.0))
    metric, omega = d3_tube(D3_SHAPES[case])
    return metric, grid_for(omega, length, 0.25)


@pytest.mark.parametrize("case, bent, free, certified", [
    ("interval", False, True, True), ("interval", True, True, True),
    ("rectangle", False, True, True), ("rectangle", True, True, True),
    ("disc", False, True, True), ("disc", True, True, True),
    ("interval-32", True, True, True), ("rectangle-32", True, True, True),
    # the bound on |h - 1| at s = 6 is 2^-55, or the next double: certified or not
    ("below", True, True, True), ("above", True, True, True),
    ("sine", True, False, False), ("wall", True, True, False),
    # h - 1 decays as a power, tends to C_K - 1 != 0, or is swept: no free slice,
    # and nothing certified
    ("power", True, False, False), ("strip", True, False, False),
    ("integrated", True, False, False),
], ids=["interval-free", "interval-bent", "rectangle-free", "rectangle-bent", "disc-free",
        "disc-bent", "interval-L32", "rectangle-L32", "edge-bound-at-2^-55",
        "edge-bound-an-ulp-above", "flat-but-V", "walls-join-the-span", "power-tail", "strip-K",
        "integrated-strip"])
def test_the_assembly_is_the_coordinate_format_one_bit_for_bit(bump_metric, d3_tube,
                                                               case, bent, free, certified):
    metric, grid = _case(case, bump_metric, d3_tube)
    if not bent:
        metric = None
    op = assemble_hamiltonian(metric, grid)
    assert_same_csr(op.matrix, reference_hamiltonian(metric, grid))
    # free ends were tiled from the free slice
    assert (op.free_ends[0] > 0) == free
    # some slices were certified free, with no jet
    first, stop = operators._evaluated_span(metric, grid)
    assert (stop - first < grid.s_nodes.size - 2) == certified


def test_the_certificate_decides_one_slice_each_side_at_its_edge():
    # each side of s = 6 one slice needs the jet once the bound there passes 2^-55
    spans = [operators._evaluated_span(*_edge_bump(above)) for above in (False, True)]
    assert spans[1] == (spans[0][0] - 1, spans[0][1] + 1)


def test_a_rotation_evaluated_out_of_range_is_refused(d3_tube):
    # the bound takes the rotation on every s-node, those of certified slices too
    metric, omega = d3_tube(D3_SHAPES["rectangle"])
    short = metric_from_frames(metric.profile,
                               integrate_tang_rotation(metric.profile, np.linspace(-20, 20, 321)),
                               metric.a)
    grid = grid_for(omega, 32.0, 0.25)
    first, stop = operators._evaluated_span(metric, grid)
    assert abs(grid.s_nodes[[first, stop + 1]]).max() < 20.0
    with pytest.raises(InputError, match="rotation sample range"):
        assemble_hamiltonian(short, grid)


def test_the_weighted_form_and_the_commutator_are_the_reference_bit_for_bit(bump_metric, d3_tube):
    for case in ("interval", "rectangle", "disc"):
        # the weighted form's transverse coefficients are h, not 1
        metric, grid = _case(case, bump_metric, d3_tube)
        weighted, commutator = reference_weighted_form_and_commutator(metric, grid)
        m = assemble_weighted_form_hamiltonian(metric, grid).matrix
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(m, name), getattr(weighted, name))
        # the commutator's middle term is zero in the ends, and dropped there
        m = assemble_commutator(metric, grid).matrix
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(m, name), getattr(commutator, name))
        assert m.nnz < assemble_hamiltonian(metric, grid).matrix.nnz


def _counted_columns(monkeypatch):
    """The sizes of the s-arrays ``CurvatureProfile.first_column`` is called on, as they come."""
    points = []
    first_column = CurvatureProfile.first_column

    def counted(self, s, order=0):
        points.append(np.size(s))
        return first_column(self, s, order)

    monkeypatch.setattr(CurvatureProfile, "first_column", counted)
    return points


@pytest.mark.parametrize("case", ["interval", "rectangle"])
def test_a_field_of_s_alone_is_taken_once_per_s_node(bump_metric, d3_tube, monkeypatch, case):
    # the curvature column depends on s alone: the bound takes it on every
    # s-node, and the jet on the grid's axes on the s-nodes of the evaluated
    # span and the one past each end, not on every node
    metric, grid = _case(case, bump_metric, d3_tube)
    first, stop = operators._evaluated_span(metric, grid)
    assert 0 < first < stop < grid.s_nodes.size - 2
    points = _counted_columns(monkeypatch)
    assemble_hamiltonian(metric, grid)
    # h - 1, h_s and h_ss read one order each; hu_sq reuses the first
    assert points == [grid.s_nodes.size] * 3 + [stop - first + 2] * 3


def test_the_jet_runs_on_the_core_and_a_few_slices_more(bump_metric, monkeypatch):
    # the acceptance bent strip's finest level: 4,095 slices, a core of 387
    grid = TruncatedGrid.interval(64.0, 1.0 / 32.0, 1.0)
    points = _counted_columns(monkeypatch)
    op = assemble_hamiltonian(bump_metric, grid)
    assert grid.s_nodes.size - 2 - sum(op.free_ends) == 387
    assert points[:3] == [grid.s_nodes.size] * 3
    assert len(points) == 6 and max(points[3:]) <= 387 + 8


def test_a_diagonal_entry_the_potential_cancels_is_dropped():
    grid = TruncatedGrid.interval(4.0, 0.125, 1.0)
    arrays = [np.ones(grid.full_shape)] * 2
    free = reference_divergence_form(grid, arrays)
    j = 5 * int(grid.t_interior.sum()) + 3          # in slice 5, a free end
    diagonal = np.zeros(free.shape[0])
    diagonal[j] = -free[j, j]
    m = operators._assemble_divergence_form(grid, arrays, diagonal).matrix
    assert_same_csr(m, (free + sp.diags(diagonal)).tocsr())
    assert m.nnz == free.nnz - 1
    assert j not in m.indices[m.indptr[j]:m.indptr[j + 1]]


@pytest.mark.parametrize("ulps, stenciled", [(1, False), (2, True)])
def test_an_end_slice_is_tiled_only_where_its_values_are_free_bit_for_bit(monkeypatch, ulps,
                                                                          stenciled):
    # one ulp more of G^11 at one node rounds away in the face mean
    # (1 + 2^-52 + 1 rounds to 2), two ulps are one ulp of its faces
    grid = TruncatedGrid.interval(4.0, 0.125, 1.0)
    g = np.ones(grid.full_shape)
    j = 9                                           # an interior slice of the left end
    g[j + 1, 5] = 1.0 + ulps * np.finfo(float).eps
    arrays = [g, np.ones(grid.full_shape)]
    slices, runs = grid.s_nodes.size - 2, []
    stencil = operators._stencil_rows

    def recorded(t_interior, faces, diag, first, stop, neighbours):
        if diag.shape[0] == slices:             # not the free slice's own rows
            runs.append((first, stop))
        return stencil(t_interior, faces, diag, first, stop, neighbours)

    monkeypatch.setattr(operators, "_stencil_rows", recorded)
    op = operators._assemble_divergence_form(grid, arrays)
    assert_same_csr(op.matrix, reference_divergence_form(grid, arrays))
    through_stencil = {i for first, stop in runs for i in range(first, stop)}
    assert through_stencil == ({0, slices - 1} | ({j - 1, j, j + 1} if stenciled else set()))
    # the runs stop short of the stenciled slices; with none, the left run
    # is every slice but the last
    assert op.free_ends == ((j - 1, slices - j - 2) if stenciled else (slices - 1, 0))


GRIDS = {"interval": TruncatedGrid.interval(4.0, 0.125, 1.0),
         "rectangle": TruncatedGrid.box(2.0, 0.25, (1.0, 1.0)),
         "disc": TruncatedGrid.disc(2.0, 0.25, 1.0)}


def _free_run_in_the_core(grid):
    """The free operator's coefficients, G^11 changed at one node of two slices, and its operator.

    The slices between the two are free: a tiled run inside the core.
    """
    slices = grid.s_nodes.size - 2
    g = np.ones(grid.full_shape)
    node = tuple(np.argwhere(grid.t_interior)[0])
    for j in (3, slices - 4):
        g[(j + 1,) + node] = 1.001
    arrays = [g] + [np.ones(grid.full_shape)] * grid.transverse_dim
    return arrays, operators._assemble_divergence_form(grid, arrays)


def _cut_slices(op, most):
    """The s-slices ``op.rows(most=most)`` drops: each tiled run's past its first ``most``."""
    width, dropped, first = op.template[2].size, [], 0
    for part in op.parts:
        count = part if isinstance(part, int) else part.shape[0] // width
        if isinstance(part, int):
            dropped.extend(range(first + most, first + count))
        first += count
    return np.array(dropped, dtype=int)


def _assert_residuals_are_the_csrs(op, m, seed):
    """The solver's residuals ||m x - lambda x||, taken on its unknowns K, are the CSR m's.

    x = extend(y) for random columns y on K, zero beyond each cut.
    """
    ends = spectral._free_ends(op)
    rows = spectral._core_rows(op)
    factor = spectral._factorize(spectral._lower_entries(rows), -100.0, op.grid, ends)
    y = np.random.default_rng(seed).normal(size=(factor.size, 3))
    vals = np.array([0.0, 1.0, 2.5])
    x = factor.extend(y)
    np.testing.assert_allclose(factor.residuals(rows, y, vals),
                               np.linalg.norm(m @ x - x * vals, axis=0), rtol=1e-12)


@pytest.mark.parametrize("case", ["interval", "rectangle", "disc", "interval-bent", "disc-bent"])
def test_the_stored_runs_tile_the_stencils_csr_on_demand(bump_metric, d3_tube, case):
    if case.endswith("bent"):
        metric, grid = _case(case[:-5], bump_metric, d3_tube)
        op = assemble_hamiltonian(metric, grid)
        reference = reference_hamiltonian(metric, grid)
    else:
        arrays, op = _free_run_in_the_core(GRIDS[case])
        reference = reference_divergence_form(GRIDS[case], arrays)
        left, right = op.free_ends
        slices, width = op.grid.s_nodes.size - 2, op.template[2].size
        # wall, left end, stenciled, free inside the core, stenciled, right end, wall
        assert [isinstance(part, int) for part in op.parts] == [False, True] * 3 + [False]
        assert (left, right) == (2, 2) and op.parts[3] == slices - 10
    assert_same_csr(op.matrix, reference)
    m, n = op.matrix, op.shape[0]
    width = op.template[2].size
    for first, stop in ((0, n), (width, n - 2 * width), (3 * width, 4 * width)):
        expected = m[first:stop]
        expected.has_canonical_format = True
        assert_same_csr(op.rows(first, stop), expected)
    if not case.endswith("bent"):
        # a run cut to two slices: the operator of a grid without the slices cut
        dropped = _cut_slices(op, 2)
        assert dropped.size
        short = TruncatedGrid(op.grid.s_nodes[:-dropped.size], op.grid.t_axes,
                              op.grid.t_interior)
        cut = [np.delete(a, dropped + 1, axis=0) for a in arrays]
        assert_same_csr(op.rows(most=2), reference_divergence_form(short, cut))
    _assert_residuals_are_the_csrs(op, m, 5)


def test_shape_and_nnz_are_counted_without_tiling(bump_metric, monkeypatch):
    op = assemble_hamiltonian(bump_metric, TruncatedGrid.interval(16.0, 0.125, 1.0))
    assert any(isinstance(part, int) for part in op.parts)

    def refuse(*args, **kwargs):
        raise AssertionError("tiled")

    monkeypatch.setattr(DiscreteOperator, "rows", refuse)
    shape, nnz = op.shape, op.nnz
    monkeypatch.undo()
    assert shape == op.matrix.shape and nnz == op.matrix.nnz


def test_an_operator_built_from_a_matrix_stores_it_as_one_run():
    m = assemble_free_hamiltonian(GRIDS["interval"]).matrix.tolil()
    op = DiscreteOperator(m, GRIDS["interval"], "by hand")
    assert op.parts == (m,) and op.template is None and op.matrix is m
    assert op.shape == m.shape and op.nnz == m.nnz
    assert_same_csr(op.rows(), m.tocsr())
    _assert_residuals_are_the_csrs(op, m.tocsr(), 6)


# ---------------------------------------------------------------------------
# coefficient-level hypothesis checks


def test_straight_tube_coefficients_pass_trivially(straight_profile):
    metric = metric_from_profile(straight_profile, 1.0)
    report = check_coefficient_assumptions(metric)
    assert report.overall == "pass"
    assert "identically zero" in report.entry("G-approach-identity").notes
    assert "identically zero" in report.entry("V-s-derivative-decay[V]").notes


def test_inverse_square_curvature_passes_with_capped_theta():
    prof = CurvatureProfile([__import__("tubespectra").power_tail(0.4, 1.0, 2.0)], (-1e4, 1e4))
    metric = metric_from_profile(prof, 1.0)
    report = check_coefficient_assumptions(metric)
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
    report = check_coefficient_assumptions(metric)
    # V still tends to zero ...
    assert report.entry("V-approach-zero").verdict in ("pass", "inconclusive")
    # ... but no power rate fits the logarithmic tail
    rate = report.entry("V-s-derivative-decay")
    assert rate.verdict == "fail"
    v_part = report.entry("V-s-derivative-decay[V]")
    assert v_part.verdict == "fail"
    assert v_part.fitted_theta < 0.05 or v_part.residual >= 0.2
    assert report.overall == "fail"
