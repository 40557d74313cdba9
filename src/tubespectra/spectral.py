"""Eigenvalue computations, convergence ladders and the Mourre check.

Bound states live strictly below the first transverse threshold nu_1.
On a truncated grid they are found by shift-invert Lanczos, refined over
a spacing ladder, and Richardson extrapolated assuming the clean
second-order convergence of the stencil; the fitted order is reported
and the result flagged when it strays from 2.

Every grid stores s as the slowest index, so A - sigma I is banded, its
half-bandwidth the number of transverse nodes per slice.  Every ladder
solve factorizes it once by banded Cholesky (LAPACK dpbtrf) and ARPACK
solves through that factor.  Ladder solves shift 1e-3 * max(1, |hint|)
below a hint: nu_1 for the ladder's first solve, the previous level's
lowest eigenvalue after it.  The factorization is the certificate:
Cholesky exists only for a positive definite matrix, so when it succeeds
no eigenvalue lies at or below sigma and the solve cannot miss one.  A
shift where it fails is lowered before any solve is made.  Each level
after the first starts Lanczos from the previous level's eigenvectors:
their sum, prolongated onto the new grid by linear interpolation along
each tensor axis and taken as zero outside the old box, plus 1e-4 of a
fixed vector so that no symmetry sector is left without a component.
Lanczos then converges on its first pass.

The Mourre check factorizes nothing.  The free Hamiltonian of a straight
tube separates exactly, H0 = T_s x I + I x H_perp, so its eigenpairs are
the sums mu_j + nu_t with vectors phi_j x psi_t: closed-form sine modes
along s and a dense solve of the small transverse block.  The operator is
certified equal to that Kronecker sum after every window is checked
against the thresholds; a window's projector is then exactly the sums
inside it, less wall-localised modes, and only those vectors are built.

The commutator with the axial dilation generator A = (q p + p q)/2 is
assembled from its closed form

    i[H, A] = -d_j G^1j d_1 - d_1 G^1j d_j + d_i q G^ij_,1 d_j - q V_,1,

which for the diagonal fields produced by tubes collapses to three axial
terms.  A itself is kept as the real antisymmetric generator S with
A = iS, so every assembled object stays real and the quadratic forms
<v, i[H,A] v> are evaluated through S.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .cross_section import BELOW_LOWEST_THRESHOLD, rho_of_lambda
from .errors import (
    DiagnosticsError,
    InputError,
    SolverError,
    WindowError,
)
from .operators import (
    DiscreteOperator,
    _assemble_divergence_form,
    _axis_pair_slices,
)

__all__ = [
    "lower_band",
    "lowest_eigenvalues",
    "RichardsonResult",
    "richardson_extrapolate",
    "ConvergencePolicy",
    "BoundState",
    "LadderLevel",
    "BoundStatesResult",
    "bound_states",
    "select_domain_length",
    "assemble_dilation",
    "assemble_commutator",
    "MourreWindow",
    "mourre_check_free",
    "commutator_form_comparison",
    "SpectralReport",
]

# roundoff slack, relative to max(1, |nu_1|), of the ladder monotonicity test
_MONOTONICITY_SLACK = 1e-10
# first distance of the shift below a hint, relative to max(1, |hint|); it
# doubles until the Cholesky factorization certifies the shift
_SHIFT_OFFSET = 1e-3
# weight of the fixed start vector added to a warm start, so that every
# symmetry sector has a component to grow from
_SYMMETRY_BREAKER = 1e-4
# most states one Mourre window may hold: 64 vectors of the 811,239-unknown
# unit-disc grid (L = 32, h = 1/16) already take 415 MB
_MAX_WINDOW_STATES = 64


def _start_vector(n):
    # deterministic, symmetry-breaking start vector for reproducible runs
    v = 1.0 + 1e-3 * np.sin(3.7 * np.arange(n))
    return v / np.linalg.norm(v)


def _lower_entries(matrix):
    """Band rows, columns and values of a sparse matrix's lower triangle, and its order."""
    low = sp.tril(matrix, format="coo")
    low.sum_duplicates()
    return low.row - low.col, low.col, low.data, matrix.shape[0]


def _scatter_band(entries, sigma=0.0):
    """Fortran-ordered LAPACK lower band of m - sigma I from m's ``_lower_entries``."""
    offset, col, data, n = entries
    band = np.zeros((int(offset.max(initial=0)) + 1, n), order="F")
    band[offset, col] = data
    band[0] -= sigma
    return band


def lower_band(matrix):
    """Fortran-ordered LAPACK lower band of a symmetric sparse matrix's lower triangle."""
    return _scatter_band(_lower_entries(matrix))


def _factorize(entries, sigma):
    """Banded Cholesky factor of m - sigma I, or None when there is none.

    ``entries`` are m's ``_lower_entries``.  dpbtrf fails when m - sigma I
    is not positive definite, that is when some eigenvalue of m lies at or
    below sigma, so its success certifies sigma.  Cholesky needs no
    pivoting and is backward stable: the factor is exact for a matrix
    within roundoff of m - sigma I.
    """
    # imported on first use, like eigsh below: scipy.linalg would add
    # about 0.1 s to every import of the package
    from scipy.linalg.lapack import dpbtrf

    band = _scatter_band(entries, sigma)
    factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
    return factor if info == 0 else None


def _shift_invert(m, k, sigma, factor, v0):
    """The k eigenpairs of m nearest sigma, and the solves ARPACK made.

    ARPACK starts from ``v0`` and applies (m - sigma I)^-1 through the
    banded Cholesky ``factor``.
    """
    from scipy.linalg.lapack import dpbtrs
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    solves = 0

    def solve(rhs):
        nonlocal solves
        solves += 1
        return dpbtrs(factor, rhs, lower=1)[0]

    opinv = LinearOperator(m.shape, matvec=solve, dtype=float)
    try:
        vals, vecs = eigsh(m, k=k, sigma=sigma, which="LM", OPinv=opinv, tol=0.0, v0=v0)
    except ArpackNoConvergence as exc:
        got = np.asarray(exc.eigenvalues)
        best = None
        if got.size and exc.eigenvectors is not None and exc.eigenvectors.size:
            v = exc.eigenvectors[:, 0]
            best = float(np.linalg.norm(m @ v - got[0] * v))
        raise SolverError(
            f"eigensolver did not converge for k={k} (got {got.size})",
            best_residual=best,
        ) from exc
    return vals, vecs, solves


class _Result(tuple):
    """A result tuple that carries named extras, such as a solve's shift."""

    def __new__(cls, items, **extras):
        self = super().__new__(cls, items)
        self.__dict__.update(extras)
        return self


def lowest_eigenvalues(op, k, below=None, start=None, overwrite_start=False):
    """k smallest eigenvalues of a symmetric operator, with residuals.

    Shift-invert Lanczos (ARPACK, converged to machine precision: tol=0)
    at a shift sigma just under ``below`` -- a hint such as the lowest
    eigenvalue of the previous ladder level -- placed at
    ``below - 1e-3 * max(1, |below|)``, or at -1 without a hint.
    M - sigma I is factorized once by banded Cholesky and ARPACK solves
    with that factor.  The factorization certifies the shift before any
    solve: it exists only when no eigenvalue lies at or below sigma, and
    then the k eigenvalues nearest sigma are the k lowest.  When it does
    not exist, the distance of sigma below the hint is doubled and M
    factorized again.  Only the lower triangle of M is read, so a matrix
    that is not exactly symmetric raises InputError; SolverError when
    ARPACK did not converge.

    Lanczos starts from a fixed vector, or from ``start`` -- a guess at
    the wanted eigenvectors, such as the previous ladder level's carried
    onto this grid -- normalised and with 1e-4 of the fixed vector added,
    so that a guess with no component in some symmetry sector cannot hide
    that sector's eigenvalues.  That is done on a copy, or in ``start``
    itself with ``overwrite_start``, which spares a vector of the size of M.

    Returns ``(values, residuals)``, residuals ||M v - lambda v|| of the
    unit eigenvectors, as a tuple whose ``shift`` is the certified sigma,
    ``band`` the half-bandwidth of M, ``solves`` the number of solves
    ARPACK made with the factor and ``vectors`` the unit eigenvectors,
    one column per value.
    """
    m = op.matrix if isinstance(op, DiscreteOperator) else op
    n = m.shape[0]
    if k < 1 or k >= n:
        raise InputError(f"need 1 <= k < matrix dimension (k={k}, n={n})")
    if (m != m.T).nnz:
        raise InputError("matrix is not exactly symmetric")
    v0 = _start_vector(n)
    if start is not None:
        start = np.asarray(start, float) if overwrite_start else np.array(start, float)
        if start.shape != (n,):
            raise InputError(f"start vector of shape {start.shape} for dimension {n}")
        start /= np.linalg.norm(start) or 1.0
        start += _SYMMETRY_BREAKER * v0
        v0 = start

    anchor = -1.0 if below is None else float(below)
    step = _SHIFT_OFFSET * max(1.0, abs(anchor))
    sigma = anchor if below is None else anchor - step
    entries = _lower_entries(m)
    while (factor := _factorize(entries, sigma)) is None:
        sigma -= step
        step *= 2.0
    del entries
    vals, vecs, solves = _shift_invert(m, k, sigma, factor, v0)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    residuals = np.linalg.norm(m @ vecs - vecs * vals[None, :], axis=0)
    return _Result((vals, residuals), shift=sigma, band=factor.shape[0] - 1,
                   solves=solves, vectors=vecs)


def _separable_modes(op):
    """Exact eigen-factors of a free Hamiltonian H0 = T_s x I + I x H_perp.

    T_s is the Dirichlet second difference along s, whose eigenvalues
    mu_j = (4/ds^2) sin^2(j pi / (2(N+1))) and sine modes are known in
    closed form; H_perp, the leading block of H0 less 2/ds^2, is solved
    densely.  ``op.matrix`` is certified equal to that Kronecker sum to
    roundoff first, so a curved or potential-bearing operator raises
    InputError instead of being mis-solved.  Returns ``(mu, nu, psi)``
    with H_perp psi = psi diag(nu).
    """
    grid = op.grid
    n_s = grid.s_nodes.size - 2
    m = int(grid.t_interior.sum())
    h0 = op.matrix.tocsr()
    ds2 = grid.s_spacing**2
    if h0.shape != (n_s * m, n_s * m):
        raise InputError(f"operator of shape {h0.shape} does not live on its grid")
    h_perp = h0[:m, :m].toarray() - (2.0 / ds2) * np.eye(m)
    t_s = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n_s, n_s)) / ds2
    kron_sum = sp.kron(t_s, sp.identity(m)) + sp.kron(sp.identity(n_s), sp.csr_matrix(h_perp))
    misfit = abs(h0 - kron_sum).max()
    if misfit > 1e-12 * abs(h0).max():
        raise InputError(
            f"operator is not a straight-tube Kronecker sum (misfit {misfit:g}): "
            "only the free Hamiltonian has separable eigenpairs"
        )
    j = np.arange(1, n_s + 1)
    mu = (4.0 / ds2) * np.sin(j * np.pi / (2.0 * (n_s + 1))) ** 2
    nu, psi = np.linalg.eigh(h_perp)
    return mu, nu, psi


def _sine_modes(rows, j, n_s):
    """phi_j(i) = sqrt(2/(N+1)) sin(i j pi/(N+1)) at 1-based ``rows`` i.

    The unit Dirichlet modes of T_s for 0-based mode indices ``j``; i j is
    reduced mod 2(N+1) before the sine.
    """
    phase = np.outer(rows, j + 1) % (2 * (n_s + 1))
    return np.sqrt(2.0 / (n_s + 1)) * np.sin(phase * (np.pi / (n_s + 1)))


def _eigenpairs_near(op, center, half_width, modes, wall_mass_tol):
    """Every eigenpair of a separable free Hamiltonian inside one window.

    ``modes`` is the ``(mu, nu, psi)`` of :func:`_separable_modes` for
    ``op``.  The sums mu_j + nu_t strictly inside center -+ half_width are
    kept unless phi_j puts more than ``wall_mass_tol`` of its unit mass
    within 4 nodes of an s-wall (the wall fraction of phi_j x psi_t is that
    of phi_j), and counted before any vector is built: WindowError for none
    or more than ``_MAX_WINDOW_STATES``.  Returns ``(values, vectors)``,
    nearest ``center`` first (ties: nearest ``center + 1e-9``, then lowest
    index), as a tuple whose ``n_filtered`` counts the dropped modes.
    """
    mu, nu, psi = modes
    n_s = op.grid.s_nodes.size - 2
    lo, hi = center - half_width, center + half_width
    values = (mu[:, None] + nu[None, :]).ravel()
    inside = np.flatnonzero((values > lo) & (values < hi))
    walls = np.r_[1:5, n_s - 3:n_s + 1]
    wall_mass = np.sum(_sine_modes(walls, inside // nu.size, n_s) ** 2, axis=0)
    keep = inside[wall_mass <= wall_mass_tol]
    if not keep.size:
        raise WindowError(
            f"no interior spectral content in ({lo:g}, {hi:g}); "
            "enlarge the domain length L"
        )
    if keep.size > _MAX_WINDOW_STATES:
        raise WindowError(
            f"({lo:g}, {hi:g}) holds {keep.size} interior states, more than "
            f"the {_MAX_WINDOW_STATES} one projector may hold: shrink the window"
        )
    off = values[keep]
    keep = keep[np.lexsort((keep, np.abs(off - (center + 1e-9)), np.abs(off - center)))]
    j, t = np.divmod(keep, nu.size)
    phi = _sine_modes(np.arange(1, n_s + 1), j, n_s)
    vectors = (phi[:, None, :] * psi[None, :, t]).reshape(-1, keep.size)
    return _Result((values[keep], vectors), n_filtered=int(inside.size - keep.size))


# ---------------------------------------------------------------------------
# Richardson machinery

@dataclass(frozen=True)
class RichardsonResult:
    spacings: tuple
    values: tuple
    extrapolated: float
    fitted_order: float       # None with fewer than 3 levels
    error_estimate: float
    flagged: bool
    expected_order: float = 2.0

    def __repr__(self):
        return (
            f"RichardsonResult(ext={self.extrapolated!r}, "
            f"order={self.fitted_order!r}, err={self.error_estimate!r}, "
            f"flagged={self.flagged})"
        )


def richardson_extrapolate(spacings, values, expected_order=2.0, order_window=0.3):
    """Extrapolate a spacing ladder assuming clean h^p convergence.

    The last two levels produce the extrapolant; with three or more levels
    the observed order is fitted from successive differences and the
    result flagged when it deviates from ``expected_order`` by more than
    ``order_window``.  The error estimate is the difference of the last
    two extrapolants (a deliberately conservative bound: the analysis
    gives ~|ext error| * 15/4 for clean second-order data).
    """
    spacings = tuple(float(h) for h in spacings)
    values = tuple(float(v) for v in values)
    if len(spacings) != len(values) or len(values) < 2:
        raise InputError("need matching ladders with at least two levels")
    if any(h2 >= h1 for h1, h2 in zip(spacings, spacings[1:])):
        raise InputError("spacings must strictly decrease")

    def ext(i, j):
        r = spacings[i] / spacings[j]
        return values[j] + (values[j] - values[i]) / (r**expected_order - 1.0)

    extrapolated = ext(-2, -1)
    fitted_order = None
    flagged = False
    if len(values) >= 3:
        d1 = values[-2] - values[-3]
        d2 = values[-1] - values[-2]
        r1 = spacings[-3] / spacings[-2]
        r2 = spacings[-2] / spacings[-1]
        if abs(r1 - r2) > 1e-9 * r1:
            fitted_order = None  # order fit needs a geometric ladder
        elif d1 == 0.0 or d2 == 0.0 or d1 * d2 <= 0.0:
            fitted_order = None
            flagged = d1 != 0.0 or d2 != 0.0
        else:
            fitted_order = float(np.log(abs(d1) / abs(d2)) / np.log(r2))
            flagged = abs(fitted_order - expected_order) > order_window
        error_estimate = abs(extrapolated - ext(-3, -2))
    else:
        error_estimate = abs(extrapolated - values[-1])
    return RichardsonResult(
        spacings=spacings,
        values=values,
        extrapolated=float(extrapolated),
        fitted_order=fitted_order,
        error_estimate=float(error_estimate),
        flagged=bool(flagged),
        expected_order=expected_order,
    )


# ---------------------------------------------------------------------------
# bound states

@dataclass(frozen=True)
class ConvergencePolicy:
    """(L, spacing) ladder controls for the bound-state search."""

    spacings: tuple = (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0)
    domain_length: float = None      # None: choose by the doubling rule
    truncation_tol: float = None     # None: 1e-6 * nu_1
    n_eigs: int = 6


@dataclass(frozen=True)
class BoundState:
    value: float
    error: float                 # refinement + truncation
    refinement_error: float
    truncation_error: float
    ladder_values: tuple
    fitted_order: float
    flagged: bool


@dataclass(frozen=True)
class LadderLevel:
    """One refinement-ladder eigensolve: size, band, shift, solves, residual."""

    length: float
    spacing: float
    unknowns: int
    nnz: int
    band: int                    # half-bandwidth of the operator
    shift: float                 # certified shift-invert sigma
    solves: int                  # ARPACK solves with the shift's factor
    max_residual: float


@dataclass(frozen=True)
class BoundStatesResult:
    states: tuple
    thresholds: object
    domain_length: float
    spacings: tuple
    raw_ladder: tuple            # tuple per level of eigenvalue tuples
    levels: tuple                # LadderLevel per row of raw_ladder
    truncation_ladder: tuple     # ((L, lowest eigenvalue), ...) at coarse spacing
    count_stable: bool
    runtime_seconds: float

    @property
    def no_bound_state(self):
        return not self.states

    def is_sound(self):
        """Every reported state sits below nu_1 by more than its error."""
        nu1 = self.thresholds.nu1
        return all(st.value < nu1 - st.error for st in self.states)


def select_domain_length(assemble, spacing, truncation_tol=None, nu1=None, n_eigs=1):
    """Double L from 8 until the lowest eigenvalue moves less than the tolerance.

    At most 6 times, to L = 512.  Returns (L, truncation_ladder,
    eigenvalues at L, LadderLevel at L), where the ladder holds (L, lambda_min) pairs at the probing spacing;
    the last two are the refinement ladder's coarsest level, so it is
    never solved twice.  Dirichlet truncation approaches the
    infinite-tube value monotonically from above, so the moves shrink
    geometrically once L passes the decay length of the state.  The first
    probe is hinted at ``nu1``, each doubling at the probe before it and
    started from that probe's eigenvectors; the tuple's ``carried`` holds
    those of the last probe, for the refinement ladder.
    """
    if truncation_tol is None:
        if nu1 is None:
            raise InputError("need truncation_tol or nu1 for its default")
        truncation_tol = 1e-6 * nu1
    length = 8.0
    vals, level, carried = _solve_level(assemble, length, spacing, n_eigs, nu1)
    ladder = [(length, float(vals[0]))]
    for _ in range(6):
        length *= 2.0
        vals, level, carried = _solve_level(assemble, length, spacing, n_eigs,
                                            ladder[-1][1], carried)
        ladder.append((length, float(vals[0])))
        if abs(ladder[-1][1] - ladder[-2][1]) < truncation_tol:
            break
    return _Result((length, tuple(ladder), vals, level), carried=carried)


def _interpolation(old, new):
    """Sparse linear interpolation from uniform nodes ``old`` to ``new``, zero off old's span."""
    pos = (new - old[0]) / (old[1] - old[0])
    rows = np.flatnonzero((pos > -1e-9) & (pos < old.size - 1 + 1e-9))
    left = np.clip(np.floor(pos[rows]), 0, old.size - 2).astype(np.int64)
    right = np.clip(pos[rows] - left, 0.0, 1.0)
    return sp.csr_matrix(
        (np.r_[1.0 - right, right], (np.r_[rows, rows], np.r_[left, left + 1])),
        shape=(new.size, old.size),
    )


def _prolongate(carried, grid):
    """A grid function ``carried = (old grid, values)`` on ``grid``'s unknowns.

    Separable linear interpolation along each tensor axis, zero outside
    the old box: it carries a ladder level onto both of the ladder's
    steps, h -> h/2 at the same L and L -> 2L at the same h.
    """
    old_grid, values = carried
    full = np.zeros(old_grid.full_shape)
    full[old_grid.active()] = values
    old_axes = (old_grid.s_nodes,) + tuple(old_grid.t_axes)
    new_axes = (grid.s_nodes,) + tuple(grid.t_axes)
    for axis, (old, new) in enumerate(zip(old_axes, new_axes)):
        front = np.moveaxis(full, axis, 0)
        moved = _interpolation(old, new) @ front.reshape(old.size, -1)
        full = np.moveaxis(moved.reshape((new.size,) + front.shape[1:]), 0, axis)
    return full[grid.active()]


def _solve_level(assemble, length, spacing, k, below, carried=None):
    """Eigenvalues of one (L, spacing) operator, its LadderLevel and its carry.

    ``carried``, a list holding the previous level's ``(grid, sum of unit
    eigenvectors)``, is emptied and prolongated onto this level's grid as
    the Lanczos start; the level returns its own for the next.  An
    operator without a grid is solved cold and carries nothing.
    """
    op = assemble(length, spacing)
    grid = getattr(op, "grid", None)
    start = _prolongate(carried.pop(), grid) if carried and grid is not None else None
    vals, residuals = solved = lowest_eigenvalues(op, k, below=below, start=start,
                                                  overwrite_start=True)
    level = LadderLevel(
        length=float(length),
        spacing=float(spacing),
        unknowns=int(op.shape[0]),
        nnz=int(getattr(op, "matrix", op).nnz),
        band=solved.band,
        shift=solved.shift,
        solves=solved.solves,
        max_residual=float(np.max(residuals)),
    )
    carry = [] if grid is None else [(grid, solved.vectors.sum(axis=1))]
    return np.asarray(vals), level, carry


def _truncation_estimates(assemble, length, spacing, k, nu1=None):
    """Per-index truncation error from an L/4, L/2, L geometric probe.

    Returns (estimates, ladder, eigenvalues at L, LadderLevel at L, carry
    at L): the last three are the refinement ladder's coarsest level, so
    it is never solved twice.  The first probe is hinted at ``nu1``, each
    later one at the probe before it and started from its eigenvectors.
    """
    lengths = [length / 4.0, length / 2.0, length]
    probes = []
    below, carried = nu1, None
    for ell in lengths:
        vals, level, carried = _solve_level(assemble, ell, spacing, k, below, carried)
        probes.append(vals)
        below = float(vals[0])
    v0, v1, v2 = probes
    est = np.empty(k)
    for j in range(k):
        m1 = v1[j] - v0[j]
        m2 = v2[j] - v1[j]
        if m1 != 0.0 and 0.0 < abs(m2) < abs(m1):
            q = abs(m2 / m1)
            est[j] = abs(m2) * q / (1.0 - q)  # geometric tail of the moves
        else:
            est[j] = abs(m2)
    ladder = tuple((float(ell), float(v[0])) for ell, v in zip(lengths, probes))
    return est, ladder, v2, level, carried


def bound_states(assemble, thresholds, policy=None):
    """Discrete spectrum below nu_1 with extrapolation and error bars.

    ``assemble(L, spacing)`` must return the Hamiltonian as a
    DiscreteOperator.  Eigenvalue branches are tracked by index across the
    ladder; non-monotone branches (beyond roundoff slack) abort with the
    raw ladder attached, since extrapolation would then be meaningless.
    """
    t0 = time.perf_counter()
    policy = policy or ConvergencePolicy()
    nu1 = thresholds.nu1
    spacings = tuple(policy.spacings)
    if any(h2 >= h1 for h1, h2 in zip(spacings, spacings[1:])):
        raise InputError("policy spacings must strictly decrease")

    if policy.domain_length is None:
        selected = select_domain_length(
            assemble, spacings[0], truncation_tol=policy.truncation_tol, nu1=nu1,
            n_eigs=policy.n_eigs,
        )
        length, trunc_ladder, coarsest, level = selected
        carried = selected.carried
        trunc_est = np.full(policy.n_eigs, abs(trunc_ladder[-1][1] - trunc_ladder[-2][1]))
    else:
        length = float(policy.domain_length)
        trunc_est, trunc_ladder, coarsest, level, carried = _truncation_estimates(
            assemble, length, spacings[0], policy.n_eigs, nu1
        )
    raw, levels = [coarsest], [level]

    below = trunc_ladder[-1][1]          # lambda_0 at (L, spacings[0])
    for h in spacings[1:]:
        vals, level, carried = _solve_level(assemble, length, h, policy.n_eigs, below, carried)
        raw.append(vals)
        levels.append(level)
        below = float(vals[0])
    raw_arr = np.stack(raw)

    slack = _MONOTONICITY_SLACK * max(1.0, abs(nu1))
    for j in range(policy.n_eigs):
        diffs = np.diff(raw_arr[:, j])
        if not (np.all(diffs >= -slack) or np.all(diffs <= slack)):
            raise DiagnosticsError(
                f"non-monotone refinement ladder for eigenvalue index {j}",
                ladder=tuple(map(tuple, raw_arr.T)),
            )

    fits = [richardson_extrapolate(spacings, raw_arr[:, j]) for j in range(policy.n_eigs)]
    bars = [res.error_estimate + float(trunc_est[j]) for j, res in enumerate(fits)]
    states = [
        BoundState(
            value=res.extrapolated,
            error=bar,
            refinement_error=res.error_estimate,
            truncation_error=float(trunc_est[j]),
            ladder_values=tuple(float(v) for v in raw_arr[:, j]),
            fitted_order=res.fitted_order,
            flagged=res.flagged,
        )
        for j, (res, bar) in enumerate(zip(fits, bars))
        if res.extrapolated < nu1 - bar
    ]
    # count stability over the final two levels, using each level's raw values
    counts = [sum(bool(raw_arr[lvl, j] < nu1 - bar) for j, bar in enumerate(bars))
              for lvl in (-2, -1)]

    return BoundStatesResult(
        states=tuple(states),
        thresholds=thresholds,
        domain_length=length,
        spacings=spacings,
        raw_ladder=tuple(tuple(float(v) for v in row) for row in raw_arr),
        levels=tuple(levels),
        truncation_ladder=trunc_ladder,
        count_stable=counts[0] == counts[1],
        runtime_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# dilation generator and commutator

def assemble_dilation(grid):
    """Real antisymmetric generator S with A = iS, A = (q p + p q)/2.

    p is the centered antisymmetric difference along the axis, q the
    diagonal of s-coordinates; S = -(Q D + D Q)/2 so that quadratic forms
    of i[H, A] can be taken through S on real grid functions.
    """
    idx, act = grid.row_index()
    shape = grid.full_shape
    ds = grid.s_spacing
    lo, hi = _axis_pair_slices(shape, 0)
    both = act[lo] & act[hi]
    rows = idx[lo][both]
    cols = idx[hi][both]
    S_nodes, _ = grid.node_coordinates()
    s_sum = (S_nodes[lo] + S_nodes[hi])[both]
    vals = -s_sum / (4.0 * ds)
    n = grid.n_unknowns
    m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    m = (m - m.T).tocsr()
    return DiscreteOperator(matrix=m, grid=grid, tag="A")


def assemble_commutator(coeffs, potential, grid):
    """Closed-form i[H, A] for diagonal coefficient fields.

    Three surviving terms: twice the axial kinetic part, the axial part
    weighted by q G^11_,1, and the multiplication by -q V_,1.  Assembled
    with the same face-averaged stencil as the Hamiltonian, hence exactly
    symmetric.
    """
    S, U = grid.node_coordinates()
    g_nodes = np.ascontiguousarray(coeffs.axis_coefficient(0, S, U))
    kinetic = _assemble_divergence_form(grid, [g_nodes])

    q_g1 = np.ascontiguousarray(S * coeffs.g_ss_s(S, U))
    middle = _assemble_divergence_form(grid, [q_g1])

    m = 2.0 * kinetic - middle
    if potential is not None:
        s_i, u_i = grid.interior_coordinates()
        m = m - sp.diags(s_i * np.asarray(potential.derivative_s(s_i, u_i), dtype=float))
    return DiscreteOperator(matrix=m.tocsr(), grid=grid, tag="commutator")


def direct_commutator(h_op, dilation_op):
    """Matrix commutator i[H, A] = S H - H S through the real generator."""
    s_m = dilation_op.matrix
    h_m = h_op.matrix
    m = (s_m @ h_m - h_m @ s_m).tocsr()
    return DiscreteOperator(matrix=m, grid=h_op.grid, tag="commutator-direct")


def commutator_form_comparison(formula_op, h_op, dilation_op, vectors):
    """Relative quadratic-form differences formula vs direct on test vectors."""
    direct = direct_commutator(h_op, dilation_op)
    out = []
    for v in vectors:
        v = np.asarray(v, dtype=float).ravel()
        qf = float(v @ (formula_op.matrix @ v))
        qd = float(v @ (direct.matrix @ v))
        scale = max(abs(qd), 1e-300)
        out.append(abs(qf - qd) / scale)
    return np.asarray(out)


# ---------------------------------------------------------------------------
# Mourre estimate for the free Hamiltonian

@dataclass(frozen=True)
class MourreWindow:
    center: float
    half_width: float
    rho: float
    expected_bound: float        # 2 rho(lambda)
    measured_bound: float
    n_states: int
    n_filtered: int
    tolerance: float
    passed: bool


def validate_mourre_windows(thresholds, lambda_windows, epsilon_factor=0.05):
    """Each window as ``(centre, half width, rho)``, or WindowError.

    A window is a centre, whose half width is ``epsilon_factor`` times
    rho(centre), or a ``(centre, half width)`` pair.  A centre below nu_1
    (the Mourre bound is vacuous there) or within 1.5 half widths of a
    threshold (rho jumps there) raises WindowError; a centre at or above
    the last threshold raises CoverageError.
    """
    nu = np.asarray(thresholds.nu)
    windows = []
    for item in lambda_windows:
        if isinstance(item, (tuple, list)):
            lam, eps = float(item[0]), float(item[1])
        else:
            lam, eps = float(item), None
        rho = rho_of_lambda(thresholds, lam)
        if rho is BELOW_LOWEST_THRESHOLD:
            raise WindowError(
                f"window centre {lam:g} below the first threshold: the bound "
                "is vacuous there"
            )
        if eps is None:
            eps = epsilon_factor * rho
        margin = 1.5 * eps
        dist = float(np.min(np.abs(nu - lam)))
        if dist <= margin:
            raise WindowError(
                f"window at {lam:g} sits within {dist:g} of a threshold "
                f"(margin {margin:g}): rho jumps there, refuse"
            )
        windows.append((lam, eps, rho))
    return windows


def mourre_check_free(h0_op, commutator_op, thresholds, lambda_windows,
                      epsilon_factor=0.05, tolerance_factor=0.05, wall_mass_tol=0.01):
    """Projected commutator lower bound against 2 rho(lambda).

    Every window is validated by :func:`validate_mourre_windows` before
    any mode is computed.  The spectral projector of the discrete
    free Hamiltonian onto each (lambda - eps, lambda + eps) is then exact:
    every separable eigenpair inside it (``h0_op`` must be the Kronecker
    sum T_s x I + I x H_perp of a straight tube, else InputError) less
    wall-localised truncation artifacts, see :func:`_eigenpairs_near`.
    The smallest eigenvalue of the assembled commutator compressed to
    those modes is compared to 2 rho(lambda) minus the stated tolerance.
    """
    if h0_op.grid is not commutator_op.grid:
        raise InputError("free Hamiltonian and commutator must share a grid")
    windows = validate_mourre_windows(thresholds, lambda_windows, epsilon_factor)

    modes = _separable_modes(h0_op)
    results = []
    for lam, eps, rho in windows:
        values, vectors = pairs = _eigenpairs_near(h0_op, lam, eps, modes, wall_mass_tol)
        basis, _ = np.linalg.qr(vectors)
        w = basis.T @ (commutator_op.matrix @ basis)
        w = 0.5 * (w + w.T)
        measured = float(np.linalg.eigvalsh(w)[0])
        expected = 2.0 * rho
        tol = tolerance_factor * expected
        results.append(
            MourreWindow(
                center=lam,
                half_width=float(eps),
                rho=float(rho),
                expected_bound=expected,
                measured_bound=measured,
                n_states=values.size,
                n_filtered=pairs.n_filtered,
                tolerance=tol,
                passed=measured >= expected - tol,
            )
        )
    return results


# ---------------------------------------------------------------------------
# report container

@dataclass
class SpectralReport:
    """Everything one run of the spectral pipeline produces."""

    thresholds: object
    bound_states: BoundStatesResult
    mourre_windows: tuple = ()
    mourre_error: str = None     # why the Mourre check refused, after the ladder
    assumption_reports: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    @property
    def essential_spectrum_onset(self):
        return self.thresholds.nu1

    def is_sound(self):
        """Assertable from the report alone: states below nu_1 minus bars."""
        return self.bound_states.is_sound()
