import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from tubespectra import (
    ConvergencePolicy,
    CrossSection,
    CurvatureProfile,
    DiagnosticsError,
    DiscreteOperator,
    InputError,
    SolverError,
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
)
from tubespectra import _lapack, operators, spectral
from tubespectra.cli import hamiltonian_recipe
from conftest import unknown_coordinates
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
    # it is normalised on K: its scale does not matter
    np.testing.assert_allclose(lowest_eigenvalues(op, k, start=3.0 * even)[0], vals,
                               rtol=1e-13)
    # the lowest modes alternate even and odd in s: both sectors are found
    np.testing.assert_allclose(vals, dense, rtol=1e-10)
    assert np.all(res < 1e-10)
    odd_mass = np.sum(solved.vectors[n_even:] ** 2, axis=0)
    np.testing.assert_allclose(odd_mass, [0.0, 1.0, 0.0, 1.0], atol=1e-10)
    with pytest.raises(InputError, match="start vector"):
        lowest_eigenvalues(op, k, start=even[:-1])


def test_prolongation_carries_a_level_onto_both_ladder_steps():
    coarse = TruncatedGrid.interval(2.0, 0.25, 1.0)
    s_i, u_i = unknown_coordinates(coarse)
    values = (4.0 - s_i**2) * (1.0 - u_i[:, 0] ** 2)
    # h -> h/2 at the same L: old nodes keep their values, new ones between
    # them take the mean of their neighbours
    fine = TruncatedGrid.interval(2.0, 0.125, 1.0)
    carried = spectral._prolongate((coarse, values), fine)
    s_f, u_f = unknown_coordinates(fine)
    on_old = np.isclose(np.mod(s_f, 0.25), 0.0) & np.isclose(np.mod(u_f[:, 0], 0.25), 0.0)
    np.testing.assert_allclose(carried[on_old], values, rtol=1e-14)
    exact = (4.0 - s_f**2) * (1.0 - u_f[:, 0] ** 2)
    # linear interpolation errs by at most h^2/8 (max|f_ss| + max|f_uu|)
    assert np.all(np.abs(carried - exact) <= 0.25**2 / 8.0 * (2.0 + 8.0))
    # L -> 2L at the same h: the old box is copied, zero outside it
    long = TruncatedGrid.interval(4.0, 0.25, 1.0)
    carried = spectral._prolongate((coarse, values), long)
    s_l, _ = unknown_coordinates(long)
    inside = np.abs(s_l) < 2.0
    np.testing.assert_array_equal(carried[inside], values)
    assert not np.any(carried[~inside])


def test_a_matrix_that_is_not_exactly_symmetric_is_refused():
    m = sp.lil_matrix(sp.diags(1.0 + np.arange(50.0)))
    m[3, 2] = 1e-3
    m[2, 3] = 1e-3 * (1.0 + 2.0**-40)
    with pytest.raises(InputError, match="not exactly symmetric"):
        lowest_eigenvalues(m.tocsr(), 2)


def _symmetry_cases():
    rng = np.random.default_rng(23)
    a = sp.random(40, 40, density=0.15, random_state=rng)
    a = (a + a.T + sp.identity(40)).tocsr()
    # each entry stored as two halves, the rows' columns in reverse order
    coo = a.tocoo()
    order = np.lexsort((-coo.col, coo.row))
    row, col, half = coo.row[order], coo.col[order], coo.data[order] / 2.0
    twice = sp.csr_matrix((np.repeat(half, 2), np.repeat(col, 2),
                           np.r_[0, np.cumsum(2 * np.bincount(row, minlength=40))]), shape=a.shape)
    nan = a.tolil()
    nan[3, 5] = nan[5, 3] = np.nan
    ulp = a.tolil()
    ulp[7, 2], ulp[2, 7] = 1.0, np.nextafter(1.0, 2.0)
    # a stored zero at (4, 9), its mirror (9, 4) not stored or stored nonzero
    base = a.tolil()
    base[4, 9] = base[9, 4] = 0.0
    base = base.tocoo()

    def stored(rows, cols, values):
        return sp.csr_matrix((np.r_[base.data, values], (np.r_[base.row, rows],
                                                          np.r_[base.col, cols])), shape=a.shape)

    zero, mirrored = stored([4], [9], [0.0]), stored([4, 9], [9, 4], [0.0, 1.0])
    return {"canonical": (a, True), "duplicates-unsorted": (twice, True),
            "nan": (nan.tocsr(), False), "one-ulp": (ulp.tocsr(), False),
            "stored-zero": (zero, True), "stored-zero-mirror-nonzero": (mirrored, False)}


@pytest.mark.parametrize("case", ["canonical", "duplicates-unsorted", "nan", "one-ulp",
                                  "stored-zero", "stored-zero-mirror-nonzero"])
def test_the_symmetry_check_gives_the_sparse_merge_verdict(case):
    m, symmetric = _symmetry_cases()[case]
    if case == "duplicates-unsorted":
        assert not m.has_canonical_format
    if case.startswith("stored-zero"):
        assert m[4, 9] == 0.0 and (m.data == 0.0).sum() == 1
    before = [m.data.copy(), m.indices.copy(), m.indptr.copy()]
    assert spectral._exactly_symmetric(m) is symmetric
    assert (not (m != m.T).nnz) is symmetric  # the merge this check replaces
    # an operator's verdict, read from its stored rows
    assert spectral._symmetric(DiscreteOperator(m, None, case)) is symmetric
    for array, old in zip((m.data, m.indices, m.indptr), before):
        np.testing.assert_array_equal(array, old)


def test_an_assembled_operator_stores_no_zero(bent_level):
    # a stored zero sends the symmetry check to a second pass without it
    assert bent_level.matrix.data.all() and bent_level.matrix.has_canonical_format


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


def test_a_non_canonical_csr_gives_its_canonical_band_and_is_left_as_it_was():
    # row 1 holds (1, 1) twice, and rows 0 and 2 list their columns out of order
    m = sp.csr_matrix((np.array([1.0, 4.0, 2.0, 1.0, 0.5, 1.0, 3.0, 1.0]),
                       np.array([1, 0, 1, 0, 1, 2, 2, 1]), np.array([0, 2, 6, 8])), shape=(3, 3))
    before = [m.data.copy(), m.indices.copy(), m.indptr.copy()]
    canonical = m.copy()
    canonical.sum_duplicates()
    assert not m.has_canonical_format and canonical.has_canonical_format
    band = spectral.lower_band(m)
    np.testing.assert_array_equal(band, spectral.lower_band(canonical))
    np.testing.assert_array_equal(band, [[4.0, 2.5, 3.0], [1.0, 1.0, 0.0]])
    for array, old in zip((m.data, m.indices, m.indptr), before):
        np.testing.assert_array_equal(array, old)


@pytest.fixture(scope="module")
def bent_level(bump_metric):
    """The reference bent strip at L = 16, h = 1/8."""
    return hamiltonian_recipe(bump_metric, CrossSection.interval(1.0))(16.0, 0.125)


def _factors(op, sigma, cut=True):
    """op - sigma I factored with its free ends eliminated, and factored all core."""
    ends = spectral._free_ends(op)
    factor = spectral._factorize(spectral._lower_entries(spectral._core_rows(op)), sigma,
                                 op.grid, ends, cut=cut)
    return factor, spectral._factorize(spectral._lower_entries(op.matrix), sigma)


def _assert_solves_on_k(factor, full, seed):
    # the cut factor applies [(m - sigma I)^-1]_KK: the whole band's solve of
    # y zero-extended, on K
    y = np.random.default_rng(seed).normal(size=factor.size)
    reference = factor.restrict(full.solve(factor.extend(y)))
    assert np.linalg.norm(factor.solve(y) - reference) < 1e-12 * np.linalg.norm(reference)


@pytest.mark.parametrize("cross_section, length, spacing, sigma", [
    (None, 16.0, 0.125, 2.45),
    ("shape = rectangle\nside_x = 1.0\nside_y = 1.0", 16.0, 0.125, 19.0),
    ("shape = disc\nradius = 1.0", 16.0, 1.0 / 6.0, 5.0),
], ids=["interval", "rectangle", "disc"])
def test_the_straight_ends_are_eliminated_exactly(bent_level, d3_recipe, cross_section, length,
                                                  spacing, sigma):
    op = bent_level if cross_section is None else d3_recipe(cross_section)(length, spacing)
    left, right = op.free_ends
    s = op.grid.s_nodes[1:-1]
    assert left > 0 and right > 0
    # the bumps are curved to roundoff out to |s| = 6: all of that is core
    core = np.abs(s) < 6.0
    assert not core[:left].any() and not core[s.size - right:].any()
    factor, full = _factors(op, sigma)
    whole, _ = _factors(op, sigma, cut=False)
    assert (factor.core, factor.slices) == (s.size - left - right, s.size)
    assert (full.core, full.slices) == (1, 1)  # no grid: one slice, all core
    assert whole.size == full.size == op.shape[0] > factor.size
    # with every chain whole, K is every unknown: the solve is (m - sigma I)^-1
    shifted = op.matrix - sigma * sp.identity(op.shape[0])
    rhs = np.random.default_rng(11).normal(size=op.shape[0])
    x, reference = whole.extend(whole.solve(whole.restrict(rhs))), full.solve(rhs)
    assert np.linalg.norm(shifted @ x - rhs) < 1e-9 * np.linalg.norm(rhs)
    assert np.linalg.norm(x - reference) < 1e-9 * np.linalg.norm(reference)
    _assert_solves_on_k(factor, full, 12)


def test_a_changed_coupling_or_a_missing_entry_ends_a_free_run():
    grid = TruncatedGrid.interval(4.0, 0.125, 1.0)
    m, n_s = int(grid.t_interior.sum()), grid.s_nodes.size - 2
    g, c = np.ones(grid.full_shape), np.ones(grid.full_shape)
    c[4, 1] = c[4, 2] = 0.0             # slice 3's transverse face between its unknowns 0 and 1
    f = n_s - 5                         # G^11 at slice f's unknown 2, changed: its two s-faces
    g[f + 1, 3] = 1.001
    assembled = operators._assemble_divergence_form(grid, [g, c])
    a, runs = assembled.matrix, assembled.free_ends
    assert 3 * m + 1 not in a[3 * m].indices       # the zero face's entry is missing
    # the runs stop short of slice 3 and of slice f + 1, coupled to slice f by a changed face
    assert runs == (3, n_s - f - 2)
    _assert_solves_on_k(*_factors(DiscreteOperator(a, grid, "H", runs), 1.0), 5)


def _one_node_operator(grid, at):
    """The free operator plus 1e-3 at the node ``at`` = (s, u...), with the runs assembly finds."""
    s, u = unknown_coordinates(grid)
    diagonal = np.where(np.all(np.column_stack([s, u]) == at, axis=1), 1e-3, 0.0)
    op = operators._assemble_divergence_form(
        grid, [np.ones(grid.full_shape)] * (1 + grid.transverse_dim), diagonal)
    return DiscreteOperator(op.matrix, grid, "H", op.free_ends)


@pytest.mark.parametrize("grid, node, runs", [
    # a disc node next to the rim, in slice 3: the left run stops short of it
    (TruncatedGrid.disc(2.0, 0.25, 1.0), (-1.0, -0.75, 0.25), (3, 11)),
    # a wall slice has one s-coupling: perturbed, it ends its run at once, and
    # every other slice is the other wall's run
    (TruncatedGrid.interval(4.0, 0.125, 1.0), (-3.875, 0.5), (0, 62)),
    (TruncatedGrid.interval(4.0, 0.125, 1.0), (3.875, -0.5), (62, 0)),
], ids=["disc-node", "left-wall", "right-wall"])
def test_one_perturbed_node_ends_a_free_run(grid, node, runs):
    op = _one_node_operator(grid, node)
    assert op.free_ends == runs
    _assert_solves_on_k(*_factors(op, 1.0), 6)


@pytest.mark.parametrize("case", ["interval", "rectangle", "disc", "disc-node"])
def test_the_free_ends_are_the_wall_runs_of_slices_with_the_free_rows(bent_level, d3_recipe,
                                                                       case):
    if case == "interval":
        op = bent_level
    elif case == "rectangle":
        op = d3_recipe("shape = rectangle\nside_x = 1.0\nside_y = 1.0")(16.0, 0.125)
    elif case == "disc":
        op = d3_recipe("shape = disc\nradius = 1.0")(16.0, 1.0 / 6.0)
    else:
        op = _one_node_operator(TruncatedGrid.disc(2.0, 0.25, 1.0), (-1.0, -0.75, 0.25))
    # a slice is free when its CSR rows are the free operator's on the same
    # grid, bit for bit: the free slice's rows shifted to it (a wall's at a wall)
    free = assemble_free_hamiltonian(op.grid).matrix
    width = int(op.grid.t_interior.sum())
    last = op.shape[0] // width - 1

    def is_free(j):
        rows = slice(j * width, (j + 1) * width)
        return not (op.matrix[rows] != free[rows]).nnz

    left, right = op.free_ends
    assert all(map(is_free, range(left))) and not is_free(left)
    assert all(is_free(last - j) for j in range(right)) and not is_free(last - right)


def test_an_operator_built_by_hand_and_a_raw_matrix_solve_all_core(bent_level):
    op = bent_level
    by_hand = DiscreteOperator(op.matrix, op.grid, "by hand")
    with pytest.raises(dataclasses.FrozenInstanceError):
        by_hand.free_ends = op.free_ends
    assembled, hand, raw = (lowest_eigenvalues(a, 3) for a in (op, by_hand, op.matrix))
    assert assembled.core < assembled.slices == hand.core == hand.slices
    assert (raw.core, raw.slices) == (1, 1)
    for solved in (hand, raw):
        np.testing.assert_allclose(solved[0], assembled[0], rtol=1e-12)


def test_a_retried_shift_diagonalizes_the_free_block_once(strong_recipe, monkeypatch):
    # the free block's modes do not depend on the shift; the hint lies
    # between the lowest eigenvalue and the grid's first threshold, which
    # would lower a hint above it
    op = strong_recipe(16.0, 0.125)
    lam0 = lowest_eigenvalues(op, 1)[0][0]
    assert op.free_ends != (0, 0) and lam0 + 0.05 < _first_threshold(op)
    blocks, shifts = [], []
    free_slices, factorize = spectral._free_slices, spectral._factorize

    def counted_block(grid):
        blocks.append(grid)
        return free_slices(grid)

    def counted_factorize(*args):
        shifts.append(args[1])
        return factorize(*args)

    monkeypatch.setattr(spectral, "_free_slices", counted_block)
    monkeypatch.setattr(spectral, "_factorize", counted_factorize)
    solved = lowest_eigenvalues(op, 1, below=lam0 + 0.05)
    assert shifts[0] > lam0 and len(shifts) > 2 and solved.shift == shifts[-1] < lam0
    assert blocks == [op.grid]


def _first_threshold(op):
    """nu_1(h) of op's grid: the free one-slice block's lowest eigenvalue less 2/ds^2."""
    return spectral._free_ends(op)[3][0] - 2.0 / op.grid.s_spacing**2


def test_a_hint_above_the_grids_first_threshold_is_lowered_to_it(bent_level, monkeypatch):
    # on the coarse bent strip the lowest eigenvalue lies above nu_1(h)
    op, factored = bent_level, []
    nu1_h = _first_threshold(op)
    factorize = spectral._factorize
    monkeypatch.setattr(spectral, "_factorize",
                        lambda *args, **kw: factored.append(factorize(*args, **kw))
                        or factored[-1])
    for hint in (nu1_h + 0.5, NU1):
        solved = lowest_eigenvalues(op, 2, below=hint)
        assert solved.shift == nu1_h - 1e-3 * nu1_h < solved[0][0]
    assert nu1_h < NU1 and None not in factored


def test_the_factor_certifies_exactly_the_shifts_the_full_band_does(bent_level):
    op = bent_level
    (lam0, lam1), residuals = lowest_eigenvalues(op, 2)
    assert np.all(residuals < 1e-11)
    near = [lam * (1.0 + t) for lam in (lam0, lam1) for t in (-1e-9, 1e-9)]
    sigmas = np.r_[np.linspace(lam0 - 0.05, lam1 + 0.05, 21), near]
    factors = [_factors(op, sigma) for sigma in sigmas]
    certified = [factor is not None for factor, _ in factors]
    assert certified == [full is not None for _, full in factors]
    assert certified == list(sigmas < lam0)


@pytest.mark.parametrize("case", ["bent", "straight"])
def test_the_factor_reads_only_the_core_rows(bent_level, monkeypatch, case):
    # the whole matrix is read for its symmetry; the factor gets the lower
    # entries of the core's rows and columns
    op = bent_level
    if case == "straight":  # its core is one slice
        op = assemble_free_hamiltonian(TruncatedGrid.interval(24.0, 0.125, 1.0))
    read, factored = [], []
    lower_entries, factorize = spectral._lower_entries, spectral._factorize
    monkeypatch.setattr(spectral, "_lower_entries",
                        lambda m: read.append(m.shape) or lower_entries(m))
    monkeypatch.setattr(spectral, "_factorize", lambda core, *args, **kw:
                        factored.append(core) or factorize(core, *args, **kw))
    solved = lowest_eigenvalues(op, 2)
    (left, right), width = op.free_ends, int(op.grid.t_interior.sum())
    assert left and right == (case == "bent") * left and solved.core < solved.slices
    lo, hi = left * width, op.shape[0] - right * width
    core = op.matrix[lo:hi, lo:hi]
    assert read == [core.shape] and factored
    for entries in factored:
        assert entries[3] == core.shape[0]
        for array, expected in zip(entries, spectral._lower_entries(core)):
            np.testing.assert_array_equal(array, expected)
    # the level's band is still the whole operator's
    assert solved.band == spectral.lower_band(op.matrix).shape[0] - 1 == width


def _whole_chains(monkeypatch):
    # the same solve with no mode chain cut: K is every unknown
    factorize = spectral._factorize

    def whole(core, sigma, grid=None, ends=None, cut=True):
        return factorize(core, sigma, grid, ends, cut=False)

    monkeypatch.setattr(spectral, "_factorize", whole)


@pytest.mark.parametrize("cross_section, length, spacing, k", [
    (None, 16.0, 1.0 / 16.0, 6),
    ("shape = rectangle\nside_x = 1.0\nside_y = 1.0", 16.0, 0.125, 4),
], ids=["interval", "rectangle"])
def test_lanczos_on_the_cut_ends_gives_the_whole_chain_values(bump_metric, d3_recipe, monkeypatch,
                                                             cross_section, length, spacing, k):
    if cross_section is None:
        op = hamiltonian_recipe(bump_metric, CrossSection.interval(1.0))(length, spacing)
    else:
        op = d3_recipe(cross_section)(length, spacing)
    cut = lowest_eigenvalues(op, k)
    assert cut.lanczos < op.shape[0]
    _whole_chains(monkeypatch)
    whole = lowest_eigenvalues(op, k)
    assert whole.lanczos == op.shape[0]
    np.testing.assert_allclose(cut[0], whole[0], rtol=1e-13)


def test_a_ritz_value_past_the_cut_limit_solves_again_with_whole_chains(bump_metric,
                                                                        monkeypatch):
    op = hamiltonian_recipe(bump_metric, CrossSection.interval(1.0))(8.0, 1.0 / 16.0)
    ends = spectral._free_ends(op)
    core = spectral._lower_entries(spectral._core_rows(op))
    sizes, factored = [], []
    shift_invert, factorize = spectral._shift_invert, spectral._factorize

    def counted(m, k, sigma, factor, v0):
        sizes.append(factor.size)
        return shift_invert(m, k, sigma, factor, v0)

    monkeypatch.setattr(spectral, "_shift_invert", counted)
    monkeypatch.setattr(spectral, "_factorize",
                        lambda entries, *args, **kw: factored.append(entries[3])
                        or factorize(entries, *args, **kw))
    solved = lowest_eigenvalues(op, 12)
    # the 12th eigenvalue lies above the limit, and the cut solve's Ritz value at or above it
    assert solved[0][-1] > ends[-1]
    assert sizes == [factorize(core, solved.shift, op.grid, ends).size, op.shape[0]]
    assert sizes[0] < solved.lanczos == op.shape[0]
    # the whole-chain retry, too, factors the core's entries only
    assert factored[-2:] == [core[3]] * 2 and core[3] < op.shape[0]
    monkeypatch.setattr(spectral, "_factorize", factorize)
    _whole_chains(monkeypatch)
    np.testing.assert_array_equal(solved[0], lowest_eigenvalues(op, 12)[0])


def _ritz_on_k(monkeypatch):
    """Record the factor and the eigenvectors on K of each ``_shift_invert``."""
    shift_invert, solved = spectral._shift_invert, []

    def recorded(op, k, sigma, factor, start):
        got = shift_invert(op, k, sigma, factor, start)
        solved.append((factor, got[1]))
        return got

    monkeypatch.setattr(spectral, "_shift_invert", recorded)
    return solved


def _assert_residuals_are_the_whole_operators(op, k, monkeypatch):
    """Solve op; its residuals, taken on K in the modes of the free ends, are the tiled CSR's.

    Returns the solve's result and the number of Lanczos runs it made.
    """
    ritz = _ritz_on_k(monkeypatch)
    solved = lowest_eigenvalues(op, k)
    vals, residuals = solved
    m = getattr(op, "matrix", op)
    factor, y = ritz[-1]
    assert factor.size == solved.lanczos and solved.vectors.shape == (m.shape[0], k)
    np.testing.assert_allclose(np.linalg.norm(solved.vectors, axis=0), 1.0, rtol=1e-14)
    recomputed = np.linalg.norm(m @ solved.vectors - solved.vectors * vals, axis=0)
    assert np.all(residuals < 1e-11) and np.all(recomputed < 1e-11)
    # Ritz vectors moved off the eigenvectors, on K: both residuals at least 1e-6
    wrapped = op if isinstance(op, DiscreteOperator) else DiscreteOperator(m, None, "matrix")
    rows = spectral._core_rows(wrapped)
    moved = y + 1e-6 * np.random.default_rng(8).normal(size=y.shape)
    x = factor.extend(moved)
    expected = np.linalg.norm(m @ x - x * vals, axis=0)
    assert np.all(expected >= 1e-6)
    np.testing.assert_allclose(factor.residuals(rows, moved, vals), expected, rtol=1e-10)
    return solved, len(ritz)


def test_the_residuals_are_those_of_the_whole_box_operator(bent_level, monkeypatch):
    # a level with two free ends, each cut for Lanczos
    solved, runs = _assert_residuals_are_the_whole_operators(bent_level, 4, monkeypatch)
    assert all(bent_level.free_ends) and solved.lanczos < bent_level.shape[0] and runs == 1


@pytest.mark.parametrize("case", ["all-core", "whole-chains", "matrix"])
def test_the_residuals_on_k_need_no_end_cut_or_grid(bent_level, bump_metric, monkeypatch, case):
    recipe = hamiltonian_recipe(bump_metric, CrossSection.interval(1.0))
    if case == "all-core":
        op, k = recipe(4.0, 0.125), 4
        assert op.free_ends == (0, 0)
    elif case == "whole-chains":  # the retry after a Ritz value past the cut limit
        op, k = recipe(8.0, 1.0 / 16.0), 12
        assert all(op.free_ends)
    else:
        op, k = bent_level.matrix, 4
    solved, runs = _assert_residuals_are_the_whole_operators(op, k, monkeypatch)
    assert solved.lanczos == op.shape[0] and runs == 1 + (case == "whole-chains")


SMOKE_BENT_STRIP = """
[problem]
kind = euclidean-tube
dimension = 2

[curvature]
family = gaussian-bump
kappa0 = 0.5
sigma = 1.0

[cross_section]
shape = interval
half_width = 1.0

[numerics]
domain_length = 16.0
spacings = 0.125, 0.0625
n_eigs = 4
include_mourre = false
"""

SMOKE_RECT_TUBE = """
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
shape = rectangle
side_x = 1.0
side_y = 1.0

[numerics]
domain_length = 8.0
spacings = 0.25, 0.125
n_eigs = 4
include_mourre = false
"""


def _spy_on_tiling(monkeypatch):
    """Record every operator whose ``matrix`` is read, and each ``rows`` call that tiles a copy.

    A call tiles a copy when it returns every row of an operator with a tiled run.
    """
    read, rows = [], []
    matrix, gather = DiscreteOperator.matrix, DiscreteOperator.rows
    monkeypatch.setattr(DiscreteOperator, "matrix",
                        property(lambda op: read.append(op) or matrix.fget(op)))

    def counted(op, *args, **kwargs):
        got = gather(op, *args, **kwargs)
        rows.append(got.shape[0] == op.shape[0] and any(isinstance(p, int) for p in op.parts))
        return got

    monkeypatch.setattr(DiscreteOperator, "rows", counted)
    return read, rows


def _extend_after_the_bands_are_dropped(monkeypatch):
    extend = spectral._Factor.extend

    def checked(factor, y):
        assert factor.halves is None and factor.s is None
        return extend(factor, y)

    monkeypatch.setattr(spectral._Factor, "extend", checked)


@pytest.mark.parametrize("text", [SMOKE_BENT_STRIP, SMOKE_RECT_TUBE],
                         ids=["bent-strip", "rect-tube"])
def test_a_ladder_never_tiles_an_assembled_operator(monkeypatch, text):
    from tubespectra.cli import build_metric
    from tubespectra.config import load_config_text

    cfg = load_config_text(text)
    omega = cfg.cross_section()
    recipe = hamiltonian_recipe(build_metric(cfg, cfg.profile(), omega), omega)
    assembled = []

    def recorded(length, spacing):
        assembled.append(recipe(length, spacing))
        return assembled[-1]

    read, rows = _spy_on_tiling(monkeypatch)
    _extend_after_the_bands_are_dropped(monkeypatch)
    policy = ConvergencePolicy(spacings=cfg.spacings, domain_length=cfg.domain_length, n_eigs=4)
    result = bound_states(recorded, cross_section_spectrum(omega, cfg.n_thresholds), policy)
    # the ladder's levels, then the probes at L/4 and L/2 when they run
    assert (result.truncation, len(assembled)) == (
        ("closure", 2) if text == SMOKE_BENT_STRIP else ("probe", 4))
    levels = assembled[:len(result.levels)]
    assert any(isinstance(part, int) for part in levels[-1].parts)
    assert not any(op in assembled for op in read)
    # the core's rows and the cut runs' only: never every row
    assert rows and not any(rows)
    assert [level.nnz for level in result.levels] == [op.matrix.nnz for op in levels]


@pytest.mark.parametrize("change, symmetric", [
    (None, True), ("template-diagonal", True), ("template-across", False),
    ("template-within", False), ("wall-across", False),
])
def test_a_tiled_operator_gets_its_tiled_matrix_symmetry_verdict(bent_level, change, symmetric):
    op = bent_level
    parts, (values, columns, counts) = list(op.parts), op.template
    assert isinstance(parts[1], int) and parts[1] > 2
    values = values.copy()
    starts = np.r_[0, np.cumsum(counts)[:-1]]
    width = counts.size
    up = np.nextafter(1.0, 2.0)
    if change == "template-diagonal":
        values[columns == np.arange(width).repeat(counts)] *= up
    elif change == "template-across":       # one row's coupling to the slice below
        values[starts[5]] *= up
    elif change == "template-within":       # one row's coupling to the unknown below it
        values[starts[5] + 1] *= up
    elif change == "wall-across":           # the left wall's coupling into the tiled run
        wall = parts[0].copy()
        wall.data[-1] *= up
        parts[0] = wall
    changed = DiscreteOperator._tiled(parts, (values, columns, counts), op.grid, op.tag,
                                      op.free_ends)
    assert spectral._symmetric(changed) is symmetric
    assert spectral._exactly_symmetric(changed.matrix) is symmetric


def test_no_convergence_reports_the_whole_operators_residual_untiled(bent_level, monkeypatch):
    from scipy.sparse import linalg as spla

    op, captured = bent_level, []
    pairs = np.random.default_rng(9).normal(size=(op.shape[0], 2))

    def fails(a, k, v0=None, **kwargs):
        raise spla.ArpackNoConvergence("no", np.array([2.4, 2.5]), pairs[:a.shape[0]])

    residuals = spectral._Factor.residuals

    def recorded(factor, rows, y, vals):
        assert factor.halves is None and factor.s is None  # the bands are dropped first
        captured.append(factor)
        return residuals(factor, rows, y, vals)

    def refused(factor, y):
        raise AssertionError("a vector on the grid")

    monkeypatch.setattr(spectral._Factor, "residuals", recorded)
    monkeypatch.setattr(spectral._Factor, "extend", refused)
    monkeypatch.setattr(spla, "eigsh", fails)
    read, rows = _spy_on_tiling(monkeypatch)
    with pytest.raises(SolverError) as err:
        lowest_eigenvalues(op, 2)
    assert op not in read and not any(rows)
    monkeypatch.undo()
    # the first Ritz pair's residual, taken on K, is the tiled CSR's of its vector on the grid
    (factor,) = captured
    assert factor.size < op.shape[0]
    v = factor.extend(pairs[:factor.size, 0])
    assert err.value.best_residual == pytest.approx(np.linalg.norm(op.matrix @ v - 2.4 * v),
                                                    rel=1e-10)


@pytest.mark.parametrize("text", [SMOKE_BENT_STRIP, SMOKE_RECT_TUBE],
                         ids=["bent-strip", "rect-tube"])
def test_a_ladder_certifies_each_first_shift_and_stays_on_k(monkeypatch, text):
    # each level's hint is capped at its grid's first threshold, so no
    # factorization fails; after ARPACK only the one vector the next level
    # prolongates goes onto the grid, and the fixed start vector is on K
    from tubespectra.cli import build_metric
    from tubespectra.config import load_config_text

    cfg = load_config_text(text)
    omega = cfg.cross_section()
    recipe = hamiltonian_recipe(build_metric(cfg, cfg.profile(), omega), omega)
    factored, extended, started, solved = [], [], [], []
    factorize, extend = spectral._factorize, spectral._Factor.extend
    start_vector, lowest = spectral._start_vector, spectral.lowest_eigenvalues
    monkeypatch.setattr(spectral, "_factorize", lambda *args, **kw:
                        factored.append(factorize(*args, **kw)) or factored[-1])
    monkeypatch.setattr(spectral._Factor, "extend",
                        lambda factor, y: extended.append(y.ndim) or extend(factor, y))
    monkeypatch.setattr(spectral, "_start_vector", lambda n: started.append(n) or start_vector(n))
    monkeypatch.setattr(spectral, "lowest_eigenvalues",
                        lambda op, k, **kw: solved.append((op.shape[0], lowest(op, k, **kw)))
                        or solved[-1][1])
    policy = ConvergencePolicy(spacings=cfg.spacings, domain_length=cfg.domain_length, n_eigs=4)
    result = bound_states(recipe, cross_section_spectrum(omega, cfg.n_thresholds), policy)
    probes = 2 * (result.truncation == "probe")
    assert len(solved) == len(result.levels) + probes and None not in factored
    # one start vector per level, on its K; one vector extended per level after
    # the first: the probes start from (L, h0)'s, extended once already
    assert started == [got.lanczos for _, got in solved]
    assert extended == [1] * (len(result.levels) - 1)
    if text == SMOKE_BENT_STRIP:  # the free ends of the two refined levels are cut
        assert all(got.lanczos < n for n, got in solved[:2])


LADDER = (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0)  # test_criterion_1's


def test_a_straight_tube_is_free_ends_around_one_core_slice():
    levels, full_band = [], []
    for spacing in LADDER:
        grid = TruncatedGrid.interval(24.0, spacing, 1.0)
        op = assemble_free_hamiltonian(grid)
        left, right = op.free_ends
        solved = lowest_eigenvalues(op, 1)
        width = int(grid.t_interior.sum())
        assert left + right + 1 == solved.slices == grid.s_nodes.size - 2
        assert solved.core == 1 and solved.band == width
        levels.append(solved[0][0])
        full_band.append(lowest_eigenvalues(op.matrix, 1)[0][0])
    # test_criterion_1's ladder and extrapolant, as the full band gives them
    np.testing.assert_allclose(levels, full_band, rtol=1e-12)
    assert richardson_extrapolate(LADDER, levels).extrapolated == pytest.approx(
        richardson_extrapolate(LADDER, full_band).extrapolated, rel=1e-12)


def test_a_power_tail_strip_has_no_free_slice_and_solves_all_core():
    from tubespectra import power_tail

    profile = CurvatureProfile([power_tail(0.5, 1.0, 2.5)], (-1e4, 1e4))
    recipe = hamiltonian_recipe(metric_from_profile(profile, 1.0), CrossSection.interval(1.0))
    op = recipe(8.0, 0.125)
    assert op.free_ends == (0, 0)
    solved = lowest_eigenvalues(op, 2)
    assert solved.core == solved.slices == op.grid.s_nodes.size - 2
    # all core is the full band: the same solve, bit for bit
    np.testing.assert_array_equal(solved[0], lowest_eigenvalues(op.matrix, 2)[0])


@pytest.mark.parametrize("cross_section, length, spacing", [
    (None, 4.0, 0.125),
    ("shape = rectangle\nside_x = 1.0\nside_y = 1.0", 2.0, 0.125),
    ("shape = disc\nradius = 1.0", 1.5, 1.0 / 6.0),
], ids=["interval", "rectangle", "disc"])
def test_assembled_operators_are_symmetric_with_one_slice_of_bandwidth(
        strong_recipe, d3_recipe, cross_section, length, spacing):
    # s is the slowest index, so the banded factor sees a half-bandwidth of
    # one transverse slice
    recipe = strong_recipe if cross_section is None else d3_recipe(cross_section)
    op = recipe(length, spacing)
    m = op.matrix.tocoo()
    assert (op.matrix != op.matrix.T).nnz == 0
    assert np.max(m.row - m.col) == op.grid.t_interior.sum()
    assert spectral.lower_band(op.matrix).shape[0] - 1 == op.grid.t_interior.sum()


# ---------------------------------------------------------------------------
# the split core factor


def _banded(n, kd, seed, diagonal=None):
    """A random symmetric band matrix of half-bandwidth kd, diagonally dominant unless given."""
    rng = np.random.default_rng(seed)
    offsets = [rng.normal(size=n - j) for j in range(1, kd + 1)]
    d = 2.0 * kd + 1.0 + rng.random(n) if diagonal is None else diagonal
    return sp.diags([d] + offsets + offsets, [0] + list(range(1, kd + 1))
                    + [-j for j in range(1, kd + 1)], format="csr")


def _core_sized(slices):
    """The straight interval tube, a node perturbed, runs claimed around ``slices`` core slices."""
    op = _one_node_operator(TruncatedGrid.interval(4.0, 0.125, 1.0), (0.0, 0.25))
    left, right = op.free_ends
    assert left + right + 1 == op.grid.s_nodes.size - 2  # the perturbed slice alone
    runs = left - (slices - 1) // 2, right - slices // 2
    return DiscreteOperator(op.matrix, op.grid, "H", runs)


@pytest.mark.parametrize("split", ["middle", "last"])
@pytest.mark.parametrize("case", ["bent", "rectangle", "bare-band", "core-1", "core-2", "core-3"])
def test_the_split_factor_solves_as_a_dense_solve(bent_level, d3_recipe, monkeypatch, case,
                                                  split):
    # a core band below _SPLIT_BAND is split at its last slice
    monkeypatch.setattr(spectral, "_SPLIT_BAND", 0 if split == "middle" else np.inf)
    if case == "bent":
        op = bent_level
        assert all(op.free_ends)
    elif case == "rectangle":
        op = d3_recipe("shape = rectangle\nside_x = 1.0\nside_y = 1.0")(2.0, 0.125)
    elif case == "bare-band":
        op = _banded(301, 7, 5)
    else:
        op = _core_sized(int(case[-1]))
    sigma = 1.0
    if isinstance(op, DiscreteOperator):
        ends = spectral._free_ends(op)
        factor = spectral._factorize(spectral._lower_entries(spectral._core_rows(op)), sigma,
                                     op.grid,
                                     ends, cut=False)
        m = op.matrix
    else:
        factor, m = spectral._factorize(spectral._lower_entries(op), sigma), op
    top, bottom = factor.halves
    rows = [h.rows.stop - h.rows.start for h in factor.halves]
    width = factor.width if isinstance(op, DiscreteOperator) else 7
    assert factor.middle.stop - factor.middle.start == width
    size = factor.span[1] - factor.span[0]
    a = width * (size // width // 2) if split == "middle" else size - width
    assert rows == [a, size - a - width]
    if case.startswith("core"):
        # a core too short to split has an empty half, the same code around it
        assert factor.core == int(case[-1]) and top.end is not None and bottom.end is not None
        if split == "middle":
            assert rows == {"core-1": [0, 0], "core-2": [width, 0],
                            "core-3": [width, width]}[case]
    assert not factor.threaded or split == "middle"
    dense = m.toarray() - sigma * np.eye(m.shape[0])
    rhs = np.random.default_rng(7).normal(size=m.shape[0])
    reference = np.linalg.solve(dense, rhs)
    x = factor.extend(factor.solve(factor.restrict(rhs)))
    assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)


@pytest.mark.parametrize("row, piece", [(10, "top"), (90, "bottom"), (51, "middle")])
def test_a_shift_that_fails_fails_in_the_piece_it_falls_in(monkeypatch, row, piece):
    # kd = 2 and 101 rows: the top half is rows 0-49, the middle 50-51 and
    # the bottom half, stored in reverse, rows 52-100
    d = np.full(101, 6.0)
    d[row] = -10.0
    m = _banded(101, 2, 3, diagonal=d)
    monkeypatch.setattr(spectral, "_SPLIT_BAND", 0)
    factored = []
    pbtrf = _lapack.pbtrf
    monkeypatch.setattr(_lapack, "pbtrf",
                        lambda band: factored.append((band.shape[1], info := pbtrf(band))) or info)
    assert spectral._factorize(spectral._lower_entries(m), 0.0) is None
    failed = {n: info for n, info in factored}
    assert failed == {"top": {50: 11, 49: 0}, "bottom": {50: 0, 49: 11},
                      "middle": {50: 0, 49: 0}}[piece]
    assert np.linalg.eigvalsh(m.toarray())[0] < 0.0 < np.linalg.eigvalsh(np.delete(
        np.delete(m.toarray(), row, 0), row, 1))[0]


def test_the_worker_thread_changes_no_bit(bent_level, monkeypatch):
    handed = []
    pair = _lapack.pair
    monkeypatch.setattr(_lapack, "pair", lambda here, there, threaded:
                        handed.append(threaded) or pair(here, there, threaded))
    monkeypatch.setattr(spectral, "_SPLIT_BAND", 0)
    solved = {}
    for threaded, cpus in ((True, 2), (False, 1)):
        monkeypatch.setattr(_lapack, "usable_cpus", lambda: cpus)
        handed.clear()
        solved[threaded] = lowest_eigenvalues(bent_level, 4)
        assert handed and set(handed) == {threaded}
    np.testing.assert_array_equal(solved[True][0], solved[False][0])
    np.testing.assert_array_equal(solved[True].vectors, solved[False].vectors)
    np.testing.assert_array_equal(solved[True][1], solved[False][1])


def test_the_worker_raises_in_the_caller_and_serves_on():
    with pytest.raises(ZeroDivisionError):
        _lapack.pair(lambda: 1, lambda: 1 / 0, True)
    assert _lapack.pair(lambda: 1, lambda: 2, True) == (1, 2)
    worker = _lapack._WORKER[0]
    # a second caller while the worker is busy runs both calls itself
    assert worker.busy.acquire()
    try:
        assert worker.both(lambda: 3, lambda: 4) == (3, 4)
    finally:
        worker.busy.release()


def test_callers_on_several_threads_share_the_worker_and_change_no_bit(bent_level,
                                                                       monkeypatch):
    import sys
    import threading

    monkeypatch.setattr(spectral, "_SPLIT_BAND", 0)
    monkeypatch.setattr(_lapack, "usable_cpus", lambda: 1)
    serial = lowest_eigenvalues(bent_level, 3)
    monkeypatch.setattr(_lapack, "usable_cpus", lambda: 2)
    results, errors = [], []

    def solve():
        try:
            results.append(lowest_eigenvalues(bent_level, 3))
        except Exception as exc:  # reported below, with the thread's other results
            errors.append(exc)

    threads = [threading.Thread(target=solve) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and len(results) == len(threads)
    for solved in results:
        np.testing.assert_array_equal(solved[0], serial[0])
        np.testing.assert_array_equal(solved.vectors, serial.vectors)


def test_the_gil_free_calls_are_scipy_lapack_bit_for_bit():
    from scipy.linalg.lapack import dpbtrf, dpbtrs, dpttrf, dpttrs

    m = _banded(400, 9, 13)
    band = spectral.lower_band(m)
    rhs = np.random.default_rng(2).normal(size=400)
    reference, info = dpbtrf(band, lower=1)
    ours = band.copy(order="F")
    assert info == 0 == _lapack.pbtrf(ours)
    np.testing.assert_array_equal(ours, reference)
    x = rhs.copy()
    sweep = _lapack.tbsv(ours)
    sweep(_lapack.address(x), b"N")
    sweep(_lapack.address(x), b"T")
    np.testing.assert_array_equal(x, dpbtrs(reference, rhs, lower=1)[0])
    # a reverse sweep reads and writes the same doubles last first
    y = rhs[::-1].copy()
    backwards = _lapack.tbsv(ours, reverse=True)
    backwards(_lapack.address(y), b"N")
    backwards(_lapack.address(y), b"T")
    np.testing.assert_array_equal(y[::-1], x)
    d, e = 4.0 + np.random.default_rng(4).random(400), -np.ones(399)
    rd, re, info = dpttrf(d, e)
    assert info == 0 == _lapack.pttrf(d, e)
    np.testing.assert_array_equal(d, rd)
    np.testing.assert_array_equal(e, re)
    x = rhs.copy()
    _lapack.pttrs(d, e)(_lapack.address(x))
    np.testing.assert_array_equal(x, dpttrs(rd, re, rhs)[0])


def test_a_capsule_whose_integers_are_not_lp64_is_refused():
    import ctypes

    from scipy.linalg import cython_blas, cython_lapack

    capsules = {**cython_lapack.__pyx_capi__, **cython_blas.__pyx_capi__}
    assert set(_lapack.bind(capsules)) == set(_lapack.ARGUMENTS)
    new = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p)(
        ("PyCapsule_New", ctypes.pythonapi))
    name = b"void (char *, int64_t *, int64_t *, double *, int64_t *, int64_t *)"
    capsules["dpbtrf"] = new(1, name, None)  # never called: refused from its name
    with pytest.raises(ImportError, match="dpbtrf.*LP64"):
        _lapack.bind(capsules)


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
    assert report.thresholds.nu1 == NU1


@pytest.mark.parametrize("domain_length", [4.0, 48.0, None],
                         ids=["given-length", "given-length-closed", "selected-length"])
def test_ladder_assembles_each_level_once(strong_recipe, interval_thresholds, domain_length):
    calls = []

    def counting_recipe(length, spacing):
        calls.append((length, spacing))
        return strong_recipe(length, spacing)

    policy = ConvergencePolicy(spacings=(0.2, 0.1), domain_length=domain_length, n_eigs=2)
    res = bound_states(counting_recipe, interval_thresholds, policy)
    if domain_length == 4.0:
        # L at each spacing, then the probes at L/4 and L/2: the curvature
        # reaches both walls, so no end is free to close
        assert (res.truncation, res.probe_reason) == ("probe", "no free end on a side")
        assert calls == [(4.0, 0.2), (4.0, 0.1), (1.0, 0.2), (2.0, 0.2)]
    elif domain_length is not None:
        # the closure of (L, h0)'s Ritz vectors bounds the truncation: no probe
        assert res.truncation == "closure"
        assert calls == [(48.0, 0.2), (48.0, 0.1)]
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
    h_pos = assemble_hamiltonian(bump_metric, grid)
    h_neg = assemble_hamiltonian(neg_metric, grid)
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


def test_domain_doubling_rule_stops(strong_recipe, interval_thresholds):
    policy = ConvergencePolicy(spacings=(0.125, 0.0625), truncation_tol=1e-4, n_eigs=1)
    res = bound_states(strong_recipe, interval_thresholds, policy)
    ladder, length, level = res.truncation_ladder, res.domain_length, res.levels[0]
    assert ladder[0][0] == 8.0 and length >= 16.0
    # the last doubling's solve comes back for reuse as a ladder level
    assert (level.length, level.spacing, res.raw_ladder[0][0]) == (length, 0.125, ladder[-1][1])
    vals = [v for _, v in ladder]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))  # monotone down
    moves = [a - b for a, b in zip(vals, vals[1:])]
    assert moves[-1] < 1e-4 and all(m >= 1e-4 for m in moves[:-1])


@pytest.mark.parametrize("domain_length", [48.0, 8.0, None],
                         ids=["given-length", "given-length-probe", "selected-length"])
def test_truncation_error_follows_its_rule(strong_recipe, interval_thresholds, domain_length,
                                           monkeypatch):
    solved, closed, close = [], [], spectral._closure

    def recording(*args, **kwargs):
        result = lowest_eigenvalues(*args, **kwargs)
        solved.append(result[0])
        return result

    def closing(op, result):
        closed.append(close(op, result))
        return closed[-1]

    monkeypatch.setattr(spectral, "lowest_eigenvalues", recording)
    monkeypatch.setattr(spectral, "_closure", closing)
    policy = ConvergencePolicy(spacings=(0.2, 0.1), domain_length=domain_length, n_eigs=2)
    res = bound_states(strong_recipe, interval_thresholds, policy)
    assert res.states
    # every probe and level is solved through the module's lowest_eigenvalues
    assert len(solved) == len(res.truncation_ladder) + 1
    if domain_length is None:
        probes = np.array(solved[:-1])
        # lambda_0's last move, for every index
        expected = np.full(2, abs(probes[-1, 0] - probes[-2, 0]))
    elif domain_length == 48.0:
        # (L, h0)'s closure certifies index 0 alone: its box value less the
        # certified lower bound, and index 1 is a box mode, not a state
        ((root, lower, more),) = closed
        assert res.truncation == "closure" and res.closure == (root, lower) and not more
        assert lower < root < _first_threshold(strong_recipe(48.0, 0.2)) < solved[0][1]
        assert len(res.states) == 1
        probes = np.array(solved[:1])
        expected = probes[0, :1] - lower
    else:
        # (L, h0) and the finer level first, then the probes at L/4 and L/2;
        # per index, the geometric tail of the L/4 -> L/2 -> L moves
        assert res.probe_reason == "no free end on a side" and closed == [None]
        probes = np.array([solved[2], solved[3], solved[0]])
        m1, m2 = probes[1] - probes[0], probes[2] - probes[1]
        q = np.abs(m2 / m1)
        shrinking = (m2 != 0.0) & (np.abs(m2) < np.abs(m1))
        expected = np.where(shrinking, np.abs(m2) * q / (1.0 - q), np.abs(m2))
    assert tuple(probes[:, 0]) == tuple(v for _, v in res.truncation_ladder)
    for st in res.states:
        j = list(probes[-1]).index(st.ladder_values[0])
        assert st.truncation_error == expected[j]


# ---------------------------------------------------------------------------
# the straight ends' closure


@pytest.fixture(scope="module")
def bump_recipe(bump_metric):
    return hamiltonian_recipe(bump_metric, CrossSection.interval(1.0))


@pytest.fixture(scope="module")
def long_box_value(bump_recipe):
    """The bent strip's lowest eigenvalue at h = 1/8 in the L = 512 box: the infinite tube's."""
    return float(lowest_eigenvalues(bump_recipe(512.0, 0.125), 1)[0][0])


def _closed(recipe, length, spacing=0.125, k=4):
    op = recipe(length, spacing)
    solved = lowest_eigenvalues(op, k)
    return op, solved, spectral._closure(op, solved)


def test_the_closed_root_at_64_is_the_long_boxs_value(bump_recipe, long_box_value):
    _, solved, (root, lower, more) = _closed(bump_recipe, 64.0)
    # the L = 64 box lies 5.7e-5 above; its Ritz vectors closed, 1.3e-12
    assert solved[0][0] - long_box_value > 5e-5
    assert long_box_value < root < long_box_value + 1e-7
    assert lower is not None and not more


@pytest.mark.parametrize("grid", [TruncatedGrid.interval(6.0, 0.125, 1.0),
                                  TruncatedGrid.box(2.0, 0.25, (0.5, 0.5))],
                         ids=["interval", "rectangle"])
def test_the_straight_boxs_modes_are_the_free_operators(grid):
    # the first start's terms are the free operator's eigenvectors
    free = assemble_free_hamiltonian(grid).matrix
    first = spectral._straight_start(grid, 1)
    for mode in (first, spectral._straight_start(grid, 2) - first):
        value = mode @ (free @ mode) / (mode @ mode)
        np.testing.assert_allclose(free @ mode, value * mode, atol=1e-10 * value)


def test_a_ladders_first_solve_starts_from_the_straight_boxs_modes(
        bump_recipe, interval_thresholds, monkeypatch):
    op = bump_recipe(64.0, 0.125)
    cold = lowest_eigenvalues(op, 4, below=NU1)
    warm = lowest_eigenvalues(op, 4, below=NU1, start=spectral._straight_start(op.grid, 4))
    np.testing.assert_allclose(warm[0], cold[0], rtol=1e-12)
    assert warm.solves < cold.solves
    straight, starts = spectral._straight_start, []
    monkeypatch.setattr(spectral, "_straight_start",
                        lambda grid, k: starts.append((grid.s_spacing, k)) or straight(grid, k))
    policy = ConvergencePolicy(spacings=(0.125, 0.0625), domain_length=64.0, n_eigs=4)
    res = bound_states(bump_recipe, interval_thresholds, policy)
    # the first solve alone; each later one starts from the one before
    assert starts == [(0.125, 4)] and res.levels[0].solves == warm.solves


@pytest.mark.parametrize("length", [32.0, 64.0])
def test_the_certified_bracket_holds_the_long_boxs_value(bump_recipe, long_box_value, length):
    op, _, (root, lower, more) = _closed(bump_recipe, length)
    assert lower < long_box_value <= root < _first_threshold(op)
    # the certificate: the core closed at the lower bound has a Cholesky factor
    ends = spectral._free_ends(op)
    core = spectral._lower_entries(spectral._core_rows(op))
    assert spectral._factorize(core, lower, op.grid, ends, closed=True) is not None
    assert spectral._factorize(core, long_box_value + 1e-9, op.grid, ends, closed=True) is None


def test_the_closed_factor_solves_with_the_closed_core(bump_recipe):
    # the core, closed by -c Psi diag(r_t(x)) Psi^T on each edge slice, solved densely
    op = bump_recipe(32.0, 0.125)
    ends = spectral._free_ends(op)
    width, lam, psi = ends[0], ends[3], ends[4]
    c = 1.0 / 0.125**2
    x = 2.3
    r = spectral._decay(lam - 2.0 * c, c, x)[0]
    # r_t is the decaying root of r + 1/r = (lam_t - x)/c
    np.testing.assert_allclose(r + 1.0 / r, (lam - x) / c, rtol=1e-14)
    assert np.all((0.0 < r) & (r < 1.0))
    rows = spectral._core_rows(op)
    dense = rows.toarray() - x * np.eye(rows.shape[0])
    for edge in (slice(0, width), slice(rows.shape[0] - width, rows.shape[0])):
        dense[edge, edge] -= c * (psi * r) @ psi.T
    factor = spectral._factorize(spectral._lower_entries(rows), x, op.grid, ends, closed=True)
    assert factor.size == rows.shape[0] and factor.ends == ()
    rhs = np.random.default_rng(5).normal(size=factor.size)
    np.testing.assert_allclose(factor.solve(rhs), np.linalg.solve(dense, rhs), rtol=1e-10)
    # at or above nu_1(h) the straight ends themselves are not positive definite
    nu1_h = _first_threshold(op)
    assert spectral._factorize(spectral._lower_entries(rows), nu1_h, op.grid, ends,
                               closed=True) is None


def test_a_power_tail_with_a_given_length_takes_the_probe_path(interval_thresholds):
    from tubespectra import power_tail

    profile = CurvatureProfile([power_tail(0.5, 1.0, 2.5)], (-1e4, 1e4))
    recipe = hamiltonian_recipe(metric_from_profile(profile, 1.0), CrossSection.interval(1.0))
    policy = ConvergencePolicy(spacings=(0.125, 0.0625), domain_length=16.0, n_eigs=4)
    res = bound_states(recipe, interval_thresholds, policy)
    assert (res.truncation, res.probe_reason, res.closure) == (
        "probe", "no free end on a side", None)
    assert [ell for ell, _ in res.truncation_ladder] == [4.0, 8.0, 16.0]


def test_a_strip_with_two_states_falls_back_to_the_probes(interval_thresholds):
    # a wide strong bend: two states, and the closure cannot certify the second's lower end
    profile = CurvatureProfile([gaussian_bump(0.9, 6.0)], (-1e4, 1e4))
    recipe = hamiltonian_recipe(metric_from_profile(profile, 1.0), CrossSection.interval(1.0))
    policy = ConvergencePolicy(spacings=(0.125, 0.0625), domain_length=112.0, n_eigs=4)
    res = bound_states(recipe, interval_thresholds, policy)
    assert res.truncation == "probe"
    assert res.probe_reason == "an index above 0 has a closure root below nu_1(h)"
    assert len(res.states) == 2 and res.is_sound()
    root, lower = res.closure
    # index 0 lies deep: its box value is the infinite tube's, to roundoff
    assert lower < root <= res.raw_ladder[0][0] + 1e-12
    assert [ell for ell, _ in res.truncation_ladder] == [28.0, 56.0, 112.0]


@pytest.mark.parametrize("fails", [2, spectral._CLOSURE_TRIES + 1])
def test_a_failed_certificate_doubles_its_gap_and_never_reports_a_bound(
        bump_recipe, interval_thresholds, monkeypatch, fails):
    factorize, closed = spectral._factorize, []

    def failing(core, sigma, grid=None, ends=None, cut=True, **kw):
        got = factorize(core, sigma, grid, ends, cut, **kw)
        if kw.get("closed"):
            got = None if len(closed) < fails else got
            closed.append((sigma, got is not None))
        return got

    monkeypatch.setattr(spectral, "_factorize", failing)
    policy = ConvergencePolicy(spacings=LADDER, domain_length=64.0, n_eigs=4)
    res = bound_states(bump_recipe, interval_thresholds, policy)
    root = res.closure[0]
    gaps = [root - sigma for sigma, _ in closed]
    np.testing.assert_allclose(np.array(gaps[1:]) / gaps[:-1], 2.0, rtol=1e-6)
    if fails <= spectral._CLOSURE_TRIES:
        # the first certified shift is the lower bound, and the real factor exists there
        assert [ok for _, ok in closed] == [False] * fails + [True]
        assert res.truncation == "closure" and res.closure[1] == closed[-1][0]
        (st,) = res.states
        assert st.truncation_error == st.ladder_values[0] - closed[-1][0]
    else:
        # no certified lower bound: the probes bound the truncation
        assert len(closed) == fails and not any(ok for _, ok in closed)
        assert res.closure == (root, None) and res.truncation == "probe"
        assert res.probe_reason == "the closure's lower bound failed its certificate"
        assert [ell for ell, _ in res.truncation_ladder] == [16.0, 32.0, 64.0]


@pytest.mark.parametrize("closure, extrapolated, reason", [
    (None, 3.0, "no free end on a side"),
    ((None, None, False), 3.0, "index 0 has no closure root below nu_1(h)"),
    ((2.0, None, False), 3.0, "the closure's lower bound failed its certificate"),
    ((2.0, 1.9, True), 3.0, "an index above 0 has a closure root below nu_1(h)"),
    ((2.0, 1.9, False), 2.45,
     "an index above 0 extrapolates below nu_1 by more than its refinement error"),
    ((2.0, 1.9, False), 2.47, None),
])
def test_the_probes_run_exactly_when_the_closure_cannot_bound(closure, extrapolated, reason):
    # nu_1 = 2.5; index 1's refinement error is 0.04
    fits = [richardson_extrapolate((0.2, 0.1), (2.1, 2.0)),
            richardson_extrapolate((0.2, 0.1), (extrapolated + 0.16, extrapolated + 0.04))]
    assert fits[1].error_estimate == pytest.approx(0.04)
    assert spectral._probe_reason(closure, fits, 2.5) == reason


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
    s_i, u_i = unknown_coordinates(grid)
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
    c_free = assemble_commutator(None, grid)
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
        h_op = assemble_hamiltonian(bump_metric, grid)
        c_op = assemble_commutator(bump_metric, grid)
        a_op = assemble_dilation(grid)
        s_i, u_i = unknown_coordinates(grid)
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
    c_curved = assemble_commutator(bump_metric, grid)
    c_free = assemble_commutator(None, grid)
    s_i, u_i = unknown_coordinates(grid)
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
        assemble_commutator(metric, grid)


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

    def counted_free(g):
        op = free(g)
        assembled.append(op.shape[0])
        return op

    monkeypatch.setattr(spectral, "assemble_free_hamiltonian", counted_free)

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
    c0 = assemble_commutator(None, grid)
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
