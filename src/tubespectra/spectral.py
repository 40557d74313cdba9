"""Eigenvalue computations, convergence ladders and the Mourre check.

Bound states live strictly below the first transverse threshold nu_1.
On a truncated grid they are found by shift-invert Lanczos, refined over
a spacing ladder, and Richardson extrapolated assuming the clean
second-order convergence of the stencil; the fitted order is reported
and the result flagged when it strays from 2.

One driver makes every (L, spacing) solve of a search, in order.  With
the domain length L given it solves (L, h0), h0 the coarsest spacing,
first and cold, and bounds the truncation from that level's own Ritz
vectors.  Beyond the bend the tube is exactly straight, so in the
infinitely long tube each free end of the box goes on as a semi-infinite
straight chain, whose exact Schur term onto the core's edge slice at x <
nu_1(h) is -c Psi diag(r_t(x)) Psi^T, c = 1/ds^2, r_t + 1/r_t = 2 +
(nu_t(h) - x)/c, 0 < r_t < 1: a discrete transparent boundary (Keller &
Givoli, J. Comput. Phys. 82 (1989) 172).  The Ritz vectors' core parts
project the core so closed, and by min-max each root of theta_i(x) = x,
theta_i(x) the projection's eigenvalues, bounds the i-th eigenvalue of
the infinitely long tube at h0 from above (the Rayleigh functional of
Voss & Werner, Math. Methods Appl. Sci. 4 (1982) 415).  Index 0's root
is found by bracketed Newton.  The core closed at x_0, below the root by
the Kato-Temple term of its residual there (at least 1e-10 max(1,
|root|), doubled at most 4 times while it fails), then has a Cholesky
factor, which certifies that the infinite tube has no eigenvalue at or
below x_0.  Index 0's truncation error is its box value less x_0, and
the other indices are box modes, not states.  The probes at L/4 and L/2
run instead, after the ladder, each started from (L, h0)'s eigenvectors,
when a side has no free end (a power tail), index 0 has no root more
than 1e-10 max(1, |nu_1(h)|) below nu_1(h), its certificate fails,
another index has a root (a second state, whose lower end one factor
cannot certify), or another index extrapolates below nu_1 by more than
its refinement error; a state's truncation error is then the geometric
tail of its own moves over L/4, L/2 and L.  Without a domain length a
probe at the coarsest spacing solves at L = 8, 16, ..., doubling at most
6 times, until the lowest eigenvalue moves less than the truncation
tolerance (default 1e-6 nu_1), and that last move is every state's
truncation error; the probe's last solve is the coarsest refinement
level.  The ladder goes on at L over the finer spacings.

Every grid stores s as the slowest index, so A - sigma I is banded, its
half-bandwidth the number of transverse nodes per slice.  Far from the
bend A is bitwise the free Kronecker sum T_s x I + I x H_perp: the runs
of s-slices at each wall whose rows are the free operator's, its
one-slice block D and the coupling -1/ds^2.  The assembly decides which
slices those are, and the operator carries the two runs as its
``free_ends``.  Every ladder solve factorizes A - sigma I once and
ARPACK solves through that factor.  The factor eliminates those straight
ends exactly, a discrete transparent boundary on the same truncated
problem: in the modes of D - sigma I each end is a set of uncoupled
tridiagonals (LAPACK dpttrf), whose Schur term goes onto the
neighbouring slice of the curved core, and only the core is factored by
banded Cholesky, from the lower triangle of the core's own rows and
columns.  A matrix with no grid, or an operator with no free end, is all
core.  The core, of half-bandwidth kd, is split at a middle block of kd
rows, one s-slice: a top half with the left end, and a bottom half with
the right end, stored in reverse so that both eliminate toward the
middle.  Each half is scattered from the core's entries into its own
band and factored by dpbtrf; the middle block then takes its Schur
complement S = C - F_T^T F_T - F_U^T F_U, F = L_last^-1 G from each
half's trailing factor block and its coupling G, and dpotrf factors S.
A solve sweeps each half forward (dtbsv, after its end's dpttrs), solves
with S, and sweeps each half back.  The two halves run at the same time,
one on a worker thread, through LAPACK and BLAS called by ctypes, which
releases the GIL, or in turn when one CPU is usable: the arithmetic is
the same either way, bit for bit.  A core band of fewer than 500,000
entries, where the hand-offs would cost more than they save, is split at
its last slice instead, so that its bottom half is empty.

Lanczos runs only on the unknowns that carry the eigenvectors: the
core's, and in each end each transverse mode's slices next to the core.
Let Lambda be the midpoint of nu_1(h) and the next distinct transverse
threshold of the grid.  Below Lambda a mode t with nu_t(h) > Lambda is
evanescent in a free end: an eigenvector's mode-t part shrinks away from
the core by at least r_t per slice, r_t + 1/r_t = 2 + ds^2 (nu_t(h) -
Lambda), so its chain is cut after the J_t slices next to the core that
bring r_t^J_t below 1e-18; every other mode's chain is kept whole.  Each
chain is ordered from the wall to the core, so its trailing J_t pivots
are exactly the factor of its Schur complement onto the slices kept, and
Lanczos applies exactly the compression of (A - sigma I)^-1 onto them.
Its Ritz values then lie at or above the eigenvalues (Cauchy
interlacing), so when the k-th lies below Lambda every wanted
eigenvector's cut part is below 1e-18 of its size at the core, and the
values are exact to roundoff; otherwise, or when no more than k unknowns
are kept, the solve is made again with every chain whole.  The Ritz
vectors stay on K.  Extended onto the grid, zero beyond the cuts, they
are vectors of the whole operator, and its residual is taken on K: in
the ends' modes A - lambda I is, per mode, the chain rows (lam_t -
lambda) a_j - (a_{j-1} + a_{j+1})/ds^2, nonzero only on the kept slices
and on one slice past each cut.

No level tiles its operator's straight ends into a matrix, nor makes an
n x k array of eigenvectors: the symmetry check reads the operator's
stored rows with each tiled run cut to two slices, and the factor and
the residuals each read the core's rows, so that no core CSR is held
with the factor's bands.  A level then holds, besides the stored rows,
the bands while ARPACK runs, dropped when it returns, and the Ritz
vectors on K; a ladder extends only their sum onto the grid, for its
next level.  On the acceptance bent strip at h = 1/32 that is a 1.6 MB
operator, 12.5 MB of bands and 1.1 MB of Ritz vectors (k = 4, on 35,811
of 257,985 unknowns), then a 1.5 MB core for the residuals.

Ladder solves shift 1e-3 * max(1, |hint|) below a hint: nu_1 for the
ladder's first solve, the previous solve's lowest eigenvalue after it,
or the grid's first discrete threshold nu_1(h) when that is lower: on a
coarse grid an eigenvalue above nu_1(h) is a box mode, which the next,
longer box moves down.  The factorization is the certificate: Cholesky
exists only for a positive definite matrix, and A - sigma I is positive
definite exactly when its free ends and their Schur complement onto the
core are, and that complement exactly when its two halves and the middle
block's Schur complement S are (Haynsworth inertia additivity, Linear
Algebra Appl. 1 (1968) 73).  So when every factor exists (the ends' and
the core's three Cholesky pieces) no eigenvalue lies at or below sigma
and the solve cannot miss one.  A shift where it fails is lowered before
any solve is made.  A ladder's first solve starts Lanczos from the
straight box's k lowest modes, summed: the Dirichlet sines of the k
lowest wavenumbers along s times the lowest sine across each axis of the
cross-section's bounding box.  Each later solve starts from the previous
solve's eigenvectors (a probe at L/4 or L/2 from (L, h0)'s): their sum,
prolongated onto the new grid
by linear interpolation along each tensor axis and taken as zero outside
the old box, normalised and restricted to K, plus 1e-4 of a fixed vector
on K so that no symmetry sector is left without a component.  Lanczos
then converges on its first pass.

The Mourre check is exact and closed form.  The free Hamiltonian of a
straight tube separates, H0 = T_s x I + I x H_perp, so its eigenvalues
are the sums mu_j + nu_t: mu_j of the Dirichlet second difference along
s in closed form, nu_t from one dense solve of the small transverse
block.  The free commutator with the axial dilation A = (q p + p q)/2 is
i[H0, A] = 2 T_s x I, diagonal on the modes phi_j x psi_t, so compressed
to a window's spectral projector it is diag(2 mu_j) and the projected
lower bound is 2 min mu_j over the sums inside the window.  No vector is
built.
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
    TruncatedGrid,
    _canonical,
    assemble_free_hamiltonian,
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
    "MourreWindow",
    "mourre_check_free",
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
# an evanescent mode's chain in a free end is cut for Lanczos where its decay
# since the core falls below this, far below roundoff
_CUT = 1e-18
# least distance of a closure's certified lower bound below its root,
# relative to max(1, |root|): above the closed factor's backward error.  The
# distance doubles at most _CLOSURE_TRIES times while that factor fails
_CLOSURE_GAP = 1e-10
_CLOSURE_TRIES = 4


def _start_vector(n):
    # deterministic, symmetry-breaking start vector for reproducible runs
    v = 1.0 + 1e-3 * np.sin(3.7 * np.arange(n))
    return v / np.linalg.norm(v)


def _lower_entries(matrix):
    """Band rows, columns and values of a sparse matrix's lower triangle, and its order.

    The entries are read row by row from the :func:`_canonical` form.
    """
    m = _canonical(matrix)
    offset = np.repeat(np.arange(m.shape[0], dtype=m.indices.dtype), np.diff(m.indptr)) - m.indices
    low = np.flatnonzero(offset >= 0)
    # intp index arrays, which numpy indexes with as they are, with no
    # converted copy (in the worker thread, it would stay in its arena)
    return (offset[low].astype(np.intp), m.indices[low].astype(np.intp), m.data[low],
            m.shape[0])


def _exactly_symmetric(matrix):
    """Whether a sparse matrix equals its transpose, entry for entry.

    The arrays of its :func:`_canonical` form and of its transpose's are
    compared, with no sparse merge.  A stored zero counts as absent and a
    NaN equals nothing, as in ``(m != m.T).nnz == 0``.
    """
    m = _canonical(matrix)
    t = m.T.tocsr()
    if all(map(np.array_equal, (m.indptr, m.indices, m.data), (t.indptr, t.indices, t.data))):
        return True
    if m.data.all():
        return False
    m = m.copy()  # stored zeros: compare again without them
    m.eliminate_zeros()
    return _exactly_symmetric(m)


def _symmetric(op):
    """:func:`_exactly_symmetric` for an operator, read from its stored rows.

    Its rows are read with every tiled run cut to two slices, which no
    tiled copy needs.  An assembled operator couples each slice to the
    next alone, so a cut run keeps every condition that its dropped
    slices repeat: that the template's in-slice block is symmetric, and
    its coupling below the transpose of its coupling above, the latter
    tested between the two slices kept, each against its other
    neighbour's coupling.
    """
    return _exactly_symmetric(op.rows(most=2))


def _scatter_band(band, entries, sigma=0.0, reverse=False):
    """``band``, a zero LAPACK lower band, made that of m - sigma I from m's ``_lower_entries``.

    With ``reverse`` it is the band of m with its rows and columns in reverse.
    """
    offset, col, data, n = entries
    band[offset, n - 1 - col - offset if reverse else col] = data
    band[0] -= sigma
    return band


def lower_band(matrix):
    """Fortran-ordered LAPACK lower band of a symmetric sparse matrix's lower triangle."""
    entries = _lower_entries(matrix)
    return _scatter_band(np.zeros((int(entries[0].max(initial=0)) + 1, entries[3]), order="F"),
                         entries)


def _free_slices(grid):
    """The free Hamiltonian on one s-slice of ``grid``'s cross-section and s-spacing."""
    s_nodes = grid.s_spacing * (np.arange(3) - 1.0)
    return assemble_free_hamiltonian(TruncatedGrid(s_nodes, grid.t_axes, grid.t_interior)).matrix


# a core band of at least this many entries, (kd + 1) times its order, is
# split at its middle slice, and its halves run on two threads when two CPUs
# are usable; a smaller one is split at its last slice, its bottom half
# empty: the two hand-offs a solve makes would cost more than the second
# thread saves, and a shift that fails is found as early as without a split
_SPLIT_BAND = 500_000


# ---------------------------------------------------------------------------
# the factor


@dataclass(frozen=True)
class _End:
    """One free end of a :class:`_Factor`, its mode chains cut for Lanczos."""

    unknowns: slice              # the end's unknowns on the grid
    part: slice                  # and on K
    reverse: bool                # its chains run from the wall against the grid's s order
    index: np.ndarray            # K's slices among the slices of the mode-major chains
    kept: np.ndarray             # slices kept per mode, the last one next to the core
    last: np.ndarray             # that last one's index among the kept slices
    d: np.ndarray                # trailing dpttrf pivots of each chain, and
    e: np.ndarray                # their off-diagonal, 0 between modes
    column: np.ndarray           # that factor's inverse's columns at the core


class _Half:
    """One half of a split core factor, its rows ordered toward the middle slice.

    ``rows`` are the half's core rows, in reverse for the bottom half.
    ``band`` holds the banded Cholesky factor L of their block, ``f`` =
    L_last^-1 G, L_last the trailing block of L and G the coupling of its
    rows to the middle slice.  ``end`` is the free end beyond the half, or
    None: in its modes it is eliminated onto the half's first slice, or onto
    the middle slice when the half has no row.  A solve works in place on
    a vector x on K, the half's rows and its end's part of it.
    """

    def __init__(self, rows, reverse, band, f, end, psi, coupling):
        from . import _lapack as lapack

        self.rows, self.reverse, self.band, self.f = rows, reverse, band, f
        self.end, self.psi, self.coupling = end, psi, coupling
        self.sweep, self.rowless = lapack.tbsv(band, reverse), rows.stop == rows.start
        k = f.shape[0]
        # the rows coupled to the middle slice, in the half's order
        self.linked = (slice(rows.start + k - 1, rows.start - 1, -1) if reverse
                       else slice(rows.stop - k, rows.stop))
        if end is not None:
            width = psi.shape[0]
            self.chains, self.scaled = lapack.pttrs(end.d, end.e), coupling * end.column
            # the core slice next to the end, in the core's order
            self.next = (slice(rows.stop - width, rows.stop) if reverse
                         else slice(rows.start, rows.start + width))

    def at(self, kd):
        """The slice of the kd-row middle block next to the end of a half with no row."""
        width = self.psi.shape[0]
        return slice(kd - width, kd) if self.reverse else slice(0, width)

    def forward(self, x, address):
        """The forward sweep of the half's rows and end of x, whose data is at ``address``.

        Returns the end's term for the middle slice when the half has no
        row, else None.
        """
        term = None
        if self.end is not None:
            self.chains(address + 8 * self.end.part.start)
            term = self.coupling * (self.psi @ x[self.end.part][self.end.last])
            if not self.rowless:
                x[self.next] += term
                term = None
        self.sweep(address + 8 * self.rows.start, b"N")
        return term

    def backward(self, x, address, middle):
        """The backward sweep of the half's rows and end of x, given the middle slice's."""
        x[self.linked] -= self.f @ middle
        self.sweep(address + 8 * self.rows.start, b"T")
        if self.end is not None:
            at = middle[self.at(middle.size)] if self.rowless else x[self.next]
            x[self.end.part] += self.scaled * np.repeat(self.psi.T @ at, self.end.kept)


class _Factor:
    """m - sigma I factored, its exactly straight ends eliminated in modes.

    Made by :func:`_factorize`.  The ``core`` slices between the free end
    runs of :func:`_free_ends` (``slices`` in all) are split at a middle
    block of kd rows, one s-slice, into two :class:`_Half`: the top half
    with the left free end, the bottom half with the right one (empty when
    the core is split at its last slice).  ``s`` is
    the dense Cholesky factor of the middle block's Schur complement S = C
    - F_T^T F_T - F_U^T F_U.  The factor acts on K, its ``size`` unknowns:
    the core's nodes, then for each :class:`_End` each transverse mode's
    ``kept`` slices next to the core, mode by mode.  A mode's chain runs
    from the wall to the core, so dpttrf eliminates its far slices first,
    and the trailing pivots ``d, e`` are exactly the factor of the chain's
    Schur complement onto the slices kept: ``solve`` applies
    [(m - sigma I)^-1]_KK, the compression of the inverse onto K.  With
    every chain whole, K is all of m's unknowns, the ends' in modes.
    ``lam``, ``psi`` are :func:`_free_ends`', ``c`` = 1/ds^2 the ends'
    coupling, and ``threaded`` runs the two halves at once.
    """

    def __init__(self, halves, middle, s, span, slices, width, lam=None, psi=None, c=0.0,
                 ends=(), threaded=False):
        from scipy.linalg.lapack import dpotrs

        self.halves, self.middle, self.s, self.threaded = halves, middle, s, threaded
        self.potrs = dpotrs
        self.span, self.slices, self.width, self.ends = span, slices, width, ends
        self.lam, self.psi, self.c = lam, psi, c
        self.core = (span[1] - span[0]) // width
        self.size = span[1] - span[0] + sum(end.index.size for end in ends)

    def solve(self, rhs):
        """[(m - sigma I)^-1]_KK rhs: each half forward, the middle slice, each half back."""
        from . import _lapack as lapack

        if rhs.shape != (self.size,):
            raise ValueError(f"right-hand side of shape {rhs.shape} for {self.size} unknowns")
        # each piece works in place on its part of one copy
        x = np.array(rhs, dtype=float)
        address = lapack.address(x)
        top, bottom = self.halves
        terms = lapack.pair(lambda: top.forward(x, address), lambda: bottom.forward(x, address),
                            self.threaded)
        middle = x[self.middle]
        for half, term in zip(self.halves, terms):
            middle -= half.f.T @ x[half.linked]
            if term is not None:  # the end of a half with no row
                middle[half.at(middle.size)] += term
        x[self.middle] = middle = self.potrs(self.s, middle, lower=1)[0]
        lapack.pair(lambda: top.backward(x, address, middle),
                    lambda: bottom.backward(x, address, middle), self.threaded)
        return x

    def drop_bands(self):
        """Free the factored pieces; ``restrict`` and ``extend`` still work, ``solve`` no more."""
        self.halves = self.s = None

    def restrict(self, v):
        """A vector on m's unknowns as one on K: its core, and each end in modes, cut."""
        parts = [v[slice(*self.span)]]
        for end in self.ends:
            nodal = v[end.unknowns].reshape(-1, self.width)
            nodal = nodal[::-1] if end.reverse else nodal
            parts.append((self.psi.T @ nodal.T).ravel()[end.index])
        return np.concatenate(parts)

    def extend(self, y):
        """Vectors on K, one per column, on m's unknowns, zero beyond each cut."""
        lo, hi = self.span
        x = np.empty((self.slices * self.width,) + y.shape[1:])
        x[lo:hi] = y[:hi - lo]
        for end in self.ends:
            count = (end.unknowns.stop - end.unknowns.start) // self.width
            modes = np.zeros((self.width * count,) + y.shape[1:])
            modes[end.index] = y[end.part]
            nodal = (self.psi @ modes.reshape(self.width, -1)).reshape(self.width, count, -1)
            nodal = nodal[:, ::-1] if end.reverse else nodal
            x[end.unknowns] = nodal.transpose(1, 0, 2).reshape(x[end.unknowns].shape)
        return x

    def residuals(self, rows, y, vals):
        """||m x - lambda x|| of each column x = ``extend(y)``, lambda its entry of ``vals``.

        ``rows`` are m's :func:`_core_rows`, y a column on K per value.  The
        norm is taken in the ends' modes (module docstring), whose chains
        reach the core's slice next to them by -c, on the kept slices and
        one slice past each cut alone.
        """
        n, width, c = self.span[1] - self.span[0], self.width, self.c
        r = rows @ y[:n] - y[:n] * vals
        squares = 0.0
        for end in self.ends:
            a = y[end.part]
            next_to = slice(n - width, n) if end.reverse else slice(0, width)
            q = (np.repeat(self.lam, end.kept)[:, None] - vals) * a
            e = np.full(a.shape[0] - 1, c)
            e[end.last[:-1]] = 0.0           # one mode's chain ends where the next begins
            q[1:] -= e[:, None] * a[:-1]
            q[:-1] -= e[:, None] * a[1:]
            q[end.last] -= c * (self.psi.T @ y[next_to])
            r[next_to] -= c * (self.psi @ a[end.last])
            count = (end.unknowns.stop - end.unknowns.start) // width
            cut = a[(end.last - end.kept + 1)[end.kept < count]]
            squares = squares + (q * q).sum(axis=0) + c * c * (cut * cut).sum(axis=0)
        return np.sqrt(squares + (r * r).sum(axis=0))


def _free_ends(op):
    """The free ends of op, their block diagonalized, and where its modes may be cut.

    Returns ``(width, left, right, lam, psi, reach, limit)``: ``width``
    unknowns per s-slice, and ``left`` and ``right`` the operator's
    ``free_ends``, the runs of slices at each wall whose rows are exactly
    the free operator's.  A matrix with no grid is one slice of all its
    unknowns, with no free end.  On a grid D = Psi diag(lam) Psi^T for the
    free one-slice block D (:func:`_free_slices`), whose modes have the
    transverse thresholds nu_t(h) = lam_t - 2/ds^2, and ``limit`` the
    midpoint Lambda of nu_1(h) and the next distinct threshold (inf when
    there is none).  Below Lambda a mode t with nu_t(h) > Lambda is
    evanescent in a free run: an eigenvector's mode-t content shrinks away
    from the core by at least r_t per slice, r_t + 1/r_t = 2 + ds^2
    (nu_t(h) - Lambda), and ``reach[t]`` is the least J with r_t^J <=
    _CUT; for every other mode it is inf.  None of this depends on the
    shift, so one call serves every shift tried.
    """
    if op.grid is None:
        return op.shape[0], 0, 0, None, None, None, np.inf
    grid, (left, right) = op.grid, op.free_ends
    width = int(grid.t_interior.sum())
    lam, psi = np.linalg.eigh(_free_slices(grid).toarray())
    c = 1.0 / grid.s_spacing**2
    nu = lam - 2.0 * c
    # a threshold within roundoff of nu_1 is nu_1 again, not the next one
    above = nu[nu - nu[0] > 1e-9 * max(1.0, abs(nu[0]))]
    limit = 0.5 * (nu[0] + above[0]) if above.size else np.inf
    reach = np.full(width, np.inf)
    cut = nu > limit
    reach[cut] = np.ceil(np.log(_CUT) / np.log(_decay(nu[cut], c, limit)[0]))
    return width, left, right, lam, psi, reach, limit


def _decay(nu, c, x):
    """``(r, s)``: r_t + 1/r_t = 2 + (nu_t - x)/c, 0 < r_t < 1, and s_t = 1/r_t - r_t.

    r_t is how fast mode t of threshold nu_t > x decays per slice at x in an
    infinitely long free run whose slices couple by -c; -c r_t is that run's
    Schur term onto the slice next to it.
    """
    d = (nu - x) / c
    s = np.sqrt(d * (d + 4.0))
    return 2.0 / (2.0 + d + s), s


def _core_rows(op):
    """op's core, the CSR rows and columns between its ``free_ends``.

    Only the core's rows are read, and only its tiled slices, if any, tiled.
    """
    left, right = op.free_ends
    width = int(op.grid.t_interior.sum()) if left or right else 0
    lo, hi = left * width, op.shape[0] - right * width
    return op.rows(lo, hi)[:, lo:hi] if left or right else op.rows()


def _factorize(core, sigma, grid=None, ends=None, cut=True, closed=False):
    """m - sigma I factored as a :class:`_Factor`, or None when there is none.

    ``core`` is ``_lower_entries`` of m's :func:`_core_rows`, ``grid``
    m's grid, ``ends`` its :func:`_free_ends`; without them m is all core.  The
    free one-slice block is diagonalized, D - sigma I = Psi diag(delta_t)
    Psi^T.  A free run of p slices at a wall is then, in modes, m
    uncoupled tridiagonals T_t = tridiag(-c, delta_t, -c) of order p,
    c = 1/ds^2, each ordered from the wall to the core and all factored
    by one dpttrf call; the exact Schur term -c^2 Psi diag((T_t^-1)_pp)
    Psi^T, p the slice next to the core, goes onto the core slice next to
    it.  The core's band, of half-bandwidth kd, is split at a middle block
    of kd rows (one s-slice) into a top half, with the left end, and a
    bottom half, with the right end, stored in reverse so that both
    eliminate toward the middle.  Each is scattered from ``core`` into its
    own band and factored by dpbtrf, at the same time on two threads when
    two CPUs are usable, and dpotrf factors the middle block's Schur
    complement.  A band smaller than ``_SPLIT_BAND`` is split at its last
    slice instead, its bottom half empty, and runs on one thread.  Each
    Cholesky fails exactly when its matrix is not positive definite, and
    m - sigma I is positive definite exactly when the ends, both halves
    and the middle block's Schur complement are (Haynsworth inertia
    additivity, twice).  So a factor exists only when no eigenvalue of m
    lies at or below sigma: its success certifies sigma.  Cholesky needs
    no pivoting and is backward stable: the factor is exact for a matrix
    within roundoff of m - sigma I.  The factor keeps min(p, reach_t)
    slices of mode t's chain, or with ``cut`` false the whole chain.

    With ``closed`` each free run is taken infinitely long: its Schur term
    is -c Psi diag(r_t(sigma)) Psi^T (:func:`_decay`), and it exists only
    below nu_1(h).  The factor is then that of the core closed by exact
    straight ends, with no unknown of the ends on K, and its success
    certifies that the infinitely long tube on this grid has no eigenvalue
    at or below sigma.
    """
    # imported on first use, like eigsh below: scipy.linalg would add
    # about 0.1 s to every import of the package
    from scipy.linalg.lapack import dpotrf

    from . import _lapack as lapack

    width, left, right, lam, psi, reach, _ = ends or (core[3], 0, 0, None, None, None, None)
    offset, col, data, n = core
    # a free end's Schur term fills the core slice next to it
    kd = max(int(offset.max(initial=0)), width if left or right else 0, 1)
    split = (kd + 1) * n >= _SPLIT_BAND
    a = kd * (n // kd // 2) if split else n - kd   # the middle block's rows are a ... b - 1
    b = a + kd
    threaded = split and lapack.usable_cpus() > 1
    rows = col + offset
    p, q = np.searchsorted(rows, [a, b])
    c = 1.0 / grid.s_spacing**2 if left or right else 0.0
    i, j = np.tril_indices(width) if left or right else (None, None)

    def end_of(count, first, part, reverse):
        """A free end eliminated in modes, and its Schur term's lower triangle, or None."""
        if closed:  # the infinitely long run: nothing of it stays on K
            nu = lam - 2.0 * c
            if sigma >= nu[0]:
                return None
            return None, ((c * psi * _decay(nu, c, sigma)[0]) @ psi.T)[i, j]
        kept = np.minimum(reach, count).astype(int) if cut else np.full(width, count)
        # mode-major: mode t's slices are contiguous and uncoupled from mode t + 1's
        d = np.repeat(lam - sigma, count)
        e = np.full(d.size - 1, -c)
        e[count - 1::count] = 0.0
        if lapack.pttrf(d, e):
            return None
        ends_at = np.cumsum(kept)
        index = np.arange(ends_at[-1]) + np.repeat(np.arange(width) * count + count - ends_at,
                                                   kept)
        d, e = d[index], e[index[:-1]]
        column = np.zeros(d.size)
        column[ends_at - 1] = 1.0
        lapack.pttrs(d, e)(lapack.address(column))
        schur = (c * c) * (psi * column[ends_at - 1]) @ psi.T
        return (_End(slice(first, first + count * width), slice(part, part + index.size),
                     reverse, index, kept, ends_at - 1, d, e, column), schur[i, j])

    # the ends first, on this thread: their chains are the largest arrays a
    # half would allocate, and a worker thread's allocations stay in its own
    # malloc arena, which raised the peak RSS
    eliminated, part = [], n
    for count, first, reverse in ((left, 0, False), (right, left * width + n, True)):
        if not count:
            eliminated.append((None, None))
            continue
        done = end_of(count, first, part, reverse)
        if done is None:
            return None
        eliminated.append(done)
        part += 0 if closed else done[0].index.size

    def scatter(band, f, entries, links, schur, reverse):
        """One half's band, its end's Schur term on its first slice, and its coupling G in f."""
        _scatter_band(band, entries, sigma, reverse)
        if schur is not None:
            band[i - j, width - 1 - i if reverse else j] -= schur
        f[links[0], links[1]] = links[2]

    def factor(band, f):
        """The half's band factored and f made L_last^-1 G, in place; False when it fails."""
        if lapack.pbtrf(band):
            return False
        lapack.tbtrs(band[:, band.shape[1] - f.shape[0]:], f)
        return True

    # both halves' bands in one allocation, and every array the worker
    # thread writes, made on this thread for the same reason
    bands = np.zeros((kd + 1, n - kd), order="F")
    f_t, f_u = (np.zeros((min(kd, size), kd), order="F") for size in (a, n - b))
    (end_t, schur_t), (end_u, schur_u) = eliminated
    # the middle rows' entries in the top half's columns are its coupling G,
    # on the top half's last min(kd, a) rows
    middle = slice(p, q)
    linked = col[middle] < a
    scatter(bands[:, :a], f_t, (offset[:p], col[:p], data[:p], a),
            (col[middle][linked] - a + min(kd, a), rows[middle][linked] - a, data[middle][linked]),
            schur_t if a else None, False)

    def bottom():
        # its entries, and its coupling G on its first min(kd, n - b) rows, in reverse
        inside = col[q:] >= b
        scatter(bands[:, a:], f_u,
                (offset[q:][inside], col[q:][inside] - b, data[q:][inside], n - b),
                (min(kd, n - b) - 1 - rows[q:][~inside] + b, col[q:][~inside] - a,
                 data[q:][~inside]), schur_u if n > b else None, True)
        return factor(bands[:, a:], f_u)

    # the worker only factors the top half, in place
    if not all(lapack.pair(bottom, lambda: factor(bands[:, :a], f_t), threaded)):
        return None
    top = _Half(slice(0, a), False, bands[:, :a], f_t, end_t, psi, c)
    bottom = _Half(slice(b, n), True, bands[:, a:], f_u, end_u, psi, c)
    s = np.zeros((kd, kd), order="F")
    s[rows[middle][~linked] - a, col[middle][~linked] - a] = data[middle][~linked]
    s[np.diag_indices(kd)] -= sigma
    for h, schur in ((top, schur_t), (bottom, schur_u)):
        s -= h.f.T @ h.f
        if schur is not None and h.rowless:
            at = h.at(kd)
            s[at, at][i, j] -= schur
    s, info = dpotrf(s, lower=1, overwrite_a=1)
    if info:
        return None
    lo = left * width
    return _Factor((top, bottom), slice(a, b), s, (lo, lo + n),
                   (lo + n + right * width) // width, width, lam, psi, c,
                   tuple(end for end in (end_t, end_u) if end is not None), threaded)


def _closure(op, solved):
    """A level's Ritz vectors closed by infinitely long straight ends (module docstring).

    ``solved`` is :func:`lowest_eigenvalues`' result on op: its ``ritz``
    vectors on K, the core's unknowns first, and its ``ends``.  Their core
    parts, orthonormalized to Q, project the core closed by the exact
    straight ends: P(x) = Q^T A_cc Q - c sum_ends B^T diag(r_t(x)) B, B =
    Psi^T Q on the core slice next to the end.  By min-max a root of
    theta_i(x) = x, theta_i the i-th eigenvalue of P(x), bounds the i-th
    eigenvalue of the infinitely long tube on this grid from above.  Each
    theta_i(x) - x falls as x rises; index 0's root is found by Newton's
    method, bracketed, in u = sqrt(nu_1(h) - x), in which it is smooth up
    to nu_1(h).  Its lower bound x_0 = root - gap is certified when the
    core closed at x_0 has a Cholesky factor (:func:`_factorize`).  The
    gap is the larger of _CLOSURE_GAP max(1, |root|) and the Kato-Temple
    term |res|^2 / (theta_1 - root) of the closed core's residual at the
    root (|res| when theta_1 is nearer), and doubles while the factor fails.

    Returns None when op lacks a free end on a side, else ``(root, lower,
    more)``: index 0's root, None unless it lies more than eps =
    _CLOSURE_GAP max(1, |nu_1(h)|) below nu_1(h); x_0, None when the factor
    fails _CLOSURE_TRIES + 1 times; and whether an index above 0 has a root
    below nu_1(h) - eps.
    """
    ends = solved.ends
    width, left, right, lam, psi = ends[:5]
    if not (left and right):
        return None
    c = 1.0 / op.grid.s_spacing**2
    nu = lam - 2.0 * c
    rows = _core_rows(op)
    n = rows.shape[0]
    q = np.linalg.qr(solved.ritz[:n])[0]
    p = q.T @ (rows @ q)
    b = np.vstack((psi.T @ q[:width], psi.T @ q[n - width:]))

    def projected(u):
        """x = nu_1(h) - u^2, r_t(x), the eigenpairs of P(x), and d/du (theta_0(x) - x)."""
        x = nu[0] - u * u
        r, s = _decay(nu, c, x)
        theta, z = np.linalg.eigh(p - c * (b.T * np.tile(r, 2)) @ b)
        # r_t' = r_t / (c s_t), and 2u / s_1 stays finite as u -> 0
        slope = 2.0 * u * (1.0 + np.tile(r / s, 2) @ (b @ z[:, 0]) ** 2)
        return x, r, theta, z, slope

    lo = np.sqrt(_CLOSURE_GAP * max(1.0, abs(nu[0])))
    x, r, theta, z, slope = projected(lo)
    if theta[0] >= x:
        return None, None, False
    more = bool(np.any(theta[1:] < x))
    # theta_0 falls as x rises, so theta_0(x) at this x is at or below the root
    u, hi = lo, np.sqrt(nu[0] - theta[0])
    for _ in range(60):
        x_was = x
        u = u - (theta[0] - x) / slope
        u = u if lo < u < hi else 0.5 * (lo + hi)
        x, r, theta, z, slope = projected(u)
        lo, hi = (u, hi) if theta[0] < x else (lo, u)
        if abs(x - x_was) <= 4e-16 * max(1.0, abs(x)):
            break
    root = float(x)
    w = q @ z[:, 0]
    res = rows @ w - root * w
    edges = c * psi @ (r[:, None] * (b @ z[:, 0]).reshape(2, width).T)
    res[:width] -= edges[:, 0]
    res[n - width:] -= edges[:, 1]
    size = np.linalg.norm(res)
    spread = theta[1] - root if theta.size > 1 else 0.0
    gap = max(_CLOSURE_GAP * max(1.0, abs(root)),
              float(size if spread <= size else size * size / spread))
    core = _lower_entries(rows)
    for _ in range(_CLOSURE_TRIES + 1):
        if _factorize(core, root - gap, op.grid, ends, closed=True) is not None:
            return root, root - gap, more
        gap *= 2.0
    return root, None, more


def _shift_invert(op, k, sigma, factor, start):
    """The k eigenpairs of op nearest sigma, the eigenvectors on K, and the solves ARPACK made.

    ARPACK applies [(op - sigma I)^-1]_KK through ``factor``, a
    :class:`_Factor`, from the fixed vector on K plus ``start``, if any,
    restricted to K.  The factor's bands are dropped once it returns.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    solves = 0

    def solve(rhs):
        nonlocal solves
        solves += 1
        return factor.solve(rhs)

    v0 = _start_vector(factor.size)
    if start is not None:  # normalised, plus a little of the fixed vector
        v0 = factor.restrict(start) / (np.linalg.norm(start) or 1.0) + _SYMMETRY_BREAKER * v0
    opinv = LinearOperator((factor.size, factor.size), matvec=solve, dtype=float)
    try:
        vals, vecs = eigsh(opinv, k=k, sigma=sigma, which="LM", OPinv=opinv, tol=0.0, v0=v0)
    except ArpackNoConvergence as exc:
        factor.drop_bands()
        got = np.asarray(exc.eigenvalues)
        best = None
        if got.size and exc.eigenvectors is not None and exc.eigenvectors.size:
            best = float(factor.residuals(_core_rows(op), exc.eigenvectors[:, :1], got[:1])[0])
        raise SolverError(
            f"eigensolver did not converge for k={k} (got {got.size})",
            best_residual=best,
        ) from exc
    factor.drop_bands()
    return vals, vecs, solves


class _Result(tuple):
    """A result tuple that carries named extras, such as a solve's shift.

    An extra in ``on_k``, vectors on a factor's K, is ``extend``-ed when first read.
    """

    def __new__(cls, items, extend=None, on_k=None, **extras):
        self = super().__new__(cls, items)
        self.__dict__.update(extras, _extend=extend, _on_k=dict(on_k or {}))
        return self

    def __getattr__(self, name):  # only for a name not set, such as an extra not read yet
        if name not in self.__dict__.get("_on_k", ()):
            raise AttributeError(name)
        value = self.__dict__[name] = self._extend(self._on_k.pop(name))
        return value


def lowest_eigenvalues(op, k, below=None, start=None):
    """k smallest eigenvalues of a symmetric operator, with residuals.

    Shift-invert Lanczos (ARPACK, converged to machine precision: tol=0)
    at a shift sigma just under ``below`` -- a hint such as the lowest
    eigenvalue of the previous ladder level -- placed at
    ``below - 1e-3 * max(1, |below|)``, or at -1 without a hint; on a
    grid, a hint above its first threshold nu_1(h) is lowered to it.
    M - sigma I is factorized once by :func:`_factorize` and ARPACK
    solves with that factor: the ``free_ends`` of a DiscreteOperator,
    its exactly free s-slices at each wall, are eliminated in transverse
    modes and the curved core between them is factored by banded
    Cholesky, from the core's rows alone.  An operator whose
    ``free_ends`` are (0, 0), and a matrix with no grid, are all core.
    The factorization certifies the shift before any solve: it exists
    only when no eigenvalue lies at or below sigma, and then the k
    eigenvalues nearest sigma are the k lowest.  When it does not exist,
    the distance of sigma below the hint is doubled and M factorized
    again.  ARPACK runs on the factor's K, the core and each
    end's modes cut where they have decayed below roundoff (module
    docstring); when the k-th Ritz value reaches the cut limit, or K
    holds no more than k unknowns, it runs again with every chain whole.
    Only the lower triangle of M is read, so a matrix that is not exactly
    symmetric raises InputError; SolverError when ARPACK did not converge.

    Lanczos starts from a fixed vector on K, or from ``start`` -- a guess
    at the wanted eigenvectors, such as the previous ladder level's
    carried onto this grid -- normalised, restricted to K and with 1e-4
    of the fixed vector added, so that a guess with no component in some
    symmetry sector cannot hide that sector's eigenvalues.

    Returns ``(values, residuals)``, residuals ||M v - lambda v|| of the
    unit eigenvectors, taken on K, as a tuple whose ``shift`` is the
    certified sigma, ``band`` the half-bandwidth of M, ``core`` and
    ``slices`` the number of s-slices factored by banded Cholesky and of
    all s-slices (1 and 1 without a grid), ``solves`` the number of solves
    ARPACK made with the factor, ``lanczos`` the number of unknowns it ran
    on, ``ends`` M's :func:`_free_ends`, ``ritz`` the unit eigenvectors
    on K, the core's unknowns first, and ``vectors`` the unit eigenvectors
    on M's unknowns, one column per value, and ``summed`` their sum, each
    made when first read.
    """
    if not isinstance(op, DiscreteOperator):
        op = DiscreteOperator(op, None, "matrix")
    n = op.shape[0]
    if k < 1 or k >= n:
        raise InputError(f"need 1 <= k < matrix dimension (k={k}, n={n})")
    if not _symmetric(op):
        raise InputError("matrix is not exactly symmetric")
    if start is not None:
        start = np.asarray(start, float)
        if start.shape != (n,):
            raise InputError(f"start vector of shape {start.shape} for dimension {n}")

    ends = _free_ends(op)
    width, left, right, lam = ends[:4]
    anchor = -1.0 if below is None else float(below)
    if below is not None and lam is not None:  # nu_1(h)
        anchor = min(anchor, lam[0] - 2.0 / op.grid.s_spacing**2)
    step = _SHIFT_OFFSET * max(1.0, abs(anchor))
    sigma = anchor if below is None else anchor - step
    core = _lower_entries(_core_rows(op))
    # a free end's rows are the free operator's: they reach one slice away, no further
    band = max(int(core[0].max(initial=0)), width if left or right else 0)
    while (factor := _factorize(core, sigma, op.grid, ends)) is None:
        sigma -= step
        step *= 2.0
    del core
    solves = 0
    if factor.size > k:
        vals, vecs, solves = _shift_invert(op, k, sigma, factor, start)
    if factor.size < n and (factor.size <= k or vals.max() >= ends[-1]):
        # a Ritz value at or above the cut limit Lambda: an eigenvector may
        # reach past a cut, so solve again with every chain whole
        factor = _factorize(_lower_entries(_core_rows(op)), sigma, op.grid, ends, cut=False)
        vals, vecs, more = _shift_invert(op, k, sigma, factor, start)
        solves += more
    sizes = dict(core=factor.core, slices=factor.slices, lanczos=factor.size)
    if np.any(vals[1:] < vals[:-1]):  # ARPACK's are ascending as a rule: no reordered copy
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    return _Result((vals, factor.residuals(_core_rows(op), vecs, vals)), shift=sigma, band=band,
                   solves=solves, ritz=vecs, ends=ends, extend=factor.extend,
                   on_k=dict(vectors=vecs, summed=vecs.sum(axis=1)), **sizes)


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
    # the closure's certified bracket below the box value at (L, h0), or the
    # probes' tail of the box values over L (module docstring)
    truncation_error: float
    ladder_values: tuple
    fitted_order: float
    flagged: bool


@dataclass(frozen=True)
class LadderLevel:
    """One refinement-ladder eigensolve: size, band, core, shift, solves, residual."""

    length: float
    spacing: float
    unknowns: int
    nnz: int
    band: int                    # half-bandwidth of the operator
    core: int                    # s-slices factored by banded Cholesky
    slices: int                  # s-slices of the grid
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
    # ((L, lowest eigenvalue), ...) at coarse spacing: the probes' and L's,
    # or L's alone when the closure bounds the truncation
    truncation_ladder: tuple
    count_stable: bool
    runtime_seconds: float
    truncation: str = "probe"    # how truncation_error is bounded: "closure" or "probe"
    probe_reason: str = None     # why the probes ran, when they did
    closure: tuple = None        # index 0's (root, certified lower bound or None) at (L, h0)

    @property
    def no_bound_state(self):
        return not self.states

    def is_sound(self):
        """Every reported state sits below nu_1 by more than its error."""
        nu1 = self.thresholds.nu1
        return all(st.value < nu1 - st.error for st in self.states)


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
    the old box: it carries a ladder level onto each of the ladder's
    steps, h -> h/2 at the same L, and L -> 2L, L/4 or L/2 at the same h.
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


def _straight_start(grid, k):
    """The sum of a straight box's k lowest modes on ``grid``'s unknowns: a ladder's first start.

    Along s the Dirichlet sines of the k lowest wavenumbers between the
    walls; across, the lowest sine of each axis of the cross-section's
    bounding box, its first mode on an interval or a rectangle.
    """
    def sines(nodes, count):
        x = (nodes - nodes[0]) * (np.pi / (nodes[-1] - nodes[0]))
        return sum(np.sin(j * x) for j in range(1, count + 1))

    full = sines(grid.s_nodes, k)
    for axis in grid.t_axes:
        full = np.multiply.outer(full, sines(axis, 1))
    return full[grid.active()]


class _Ladder:
    """The (L, spacing) solves of one bound-state search, in order.

    ``solve(L, spacing)`` returns the k lowest eigenvalues and LadderLevel
    of ``assemble(L, spacing)``, the operator and :func:`lowest_eigenvalues`'
    result, hinted at ``below`` (nu_1, then the previous solve's lowest
    eigenvalue) and started from ``carried``, the previous solve's sum of
    unit eigenvectors, which it carries on K, extends when the next solve
    uses it, and frees before that solve; the first solve on a grid starts
    from :func:`_straight_start`.  An operator without a grid is solved
    cold.
    """

    def __init__(self, assemble, k, below):
        self.assemble, self.k, self.below = assemble, k, below
        self.carried = None

    def solve(self, length, spacing):
        op = self.assemble(length, spacing)
        grid = getattr(op, "grid", None)
        start = None
        if self.carried is not None and grid is not None:
            # the previous solve's sum of eigenvectors, extended onto its grid only now
            start = _prolongate((self.carried[0], self.carried[1].summed), grid)
        elif grid is not None:
            start = _straight_start(grid, self.k)
        self.carried = None
        # through the module global, so that a wrapper of it sees every solve
        vals, residuals = solved = lowest_eigenvalues(op, self.k, below=self.below, start=start)
        level = LadderLevel(
            length=float(length),
            spacing=float(spacing),
            unknowns=int(op.shape[0]),
            nnz=int(op.nnz),
            band=solved.band,
            core=solved.core,
            slices=solved.slices,
            shift=solved.shift,
            solves=solved.solves,
            max_residual=float(np.max(residuals)),
        )
        self.below = float(vals[0])
        if grid is not None:
            self.carried = (grid, solved)
        return vals, level, op, solved


def _doubling_probe(ladder, spacing, tol):
    """The doubling rule's probe over L of the module docstring.

    Returns (L, ((L, lambda_0), ...), truncation errors, eigenvalues at L,
    LadderLevel at L): the last two are the coarsest refinement level.
    """
    length = 8.0
    vals, level = ladder.solve(length, spacing)[:2]
    trunc = [(length, ladder.below)]
    for _ in range(6):
        length *= 2.0
        vals, level = ladder.solve(length, spacing)[:2]
        trunc.append((length, ladder.below))
        if abs(trunc[-1][1] - trunc[-2][1]) < tol:
            break
    est = np.full(ladder.k, abs(trunc[-1][1] - trunc[-2][1]))
    return length, tuple(trunc), est, vals, level


def _truncation_probe(ladder, spacing, length, values, anchor):
    """The probes at L/4 and L/2 of a given domain length L, at the coarsest spacing.

    ``values`` are the eigenvalues at (L, spacing), and ``anchor`` the
    ladder's ``(carried, below)`` after that solve, from which each probe
    starts.  Returns (((L/4, lambda_0), (L/2, lambda_0), (L, lambda_0)),
    truncation errors): per index, the geometric tail of its own last two
    moves, or its last move when they do not shrink.
    """
    probes = []
    for fraction in (0.25, 0.5):
        ladder.carried, ladder.below = anchor
        probes.append(ladder.solve(length * fraction, spacing)[0])
    ladder.carried = None
    v0, v1, v2 = probes + [values]
    est = np.empty(ladder.k)
    for j in range(ladder.k):
        m1 = v1[j] - v0[j]
        m2 = v2[j] - v1[j]
        if m1 != 0.0 and 0.0 < abs(m2) < abs(m1):
            q = abs(m2 / m1)
            est[j] = abs(m2) * q / (1.0 - q)  # geometric tail of the moves
        else:
            est[j] = abs(m2)
    trunc = tuple((length * f, float(v[0])) for f, v in zip((0.25, 0.5, 1.0), (v0, v1, v2)))
    return trunc, est


def _probe_reason(closure, fits, nu1):
    """Why a given length's closure cannot bound the truncation, or None when it can."""
    if closure is None:
        return "no free end on a side"
    root, lower, more = closure
    if root is None:
        return "index 0 has no closure root below nu_1(h)"
    if lower is None:
        return "the closure's lower bound failed its certificate"
    if more:
        return "an index above 0 has a closure root below nu_1(h)"
    if any(res.extrapolated < nu1 - res.error_estimate for res in fits[1:]):
        return "an index above 0 extrapolates below nu_1 by more than its refinement error"
    return None


def bound_states(assemble, thresholds, policy=None):
    """Discrete spectrum below nu_1 with extrapolation and error bars.

    ``assemble(L, spacing)`` must return the Hamiltonian as a
    DiscreteOperator.  Eigenvalue branches are tracked by index across the
    ladder; non-monotone branches (beyond roundoff slack) abort with the
    raw ladder attached, since extrapolation would then be meaningless.
    With the domain length L given, (L, h0) is solved first, cold, and
    when its closure (:func:`_closure`) certifies index 0 and no other
    index, index 0 alone is a candidate state and its truncation error is
    the box value less the certified lower bound; otherwise the probes at
    L/4 and L/2 run after the ladder (module docstring).
    """
    t0 = time.perf_counter()
    policy = policy or ConvergencePolicy()
    nu1 = thresholds.nu1
    spacings = tuple(policy.spacings)
    if any(h2 >= h1 for h1, h2 in zip(spacings, spacings[1:])):
        raise InputError("policy spacings must strictly decrease")

    tol = 1e-6 * nu1 if policy.truncation_tol is None else policy.truncation_tol
    ladder = _Ladder(assemble, policy.n_eigs, below=nu1)
    given = policy.domain_length is not None
    if given:
        length = float(policy.domain_length)
        vals, level, op, solved = ladder.solve(length, spacings[0])
        closure = _closure(op, solved)
        # the probes' start, if they run: its eigenvectors' sum alone, on its grid
        kept = ladder.carried and (ladder.carried[0], _Result((), summed=solved.summed))
        anchor = kept, ladder.below
        del op, solved
    else:
        length, trunc_ladder, trunc_est, vals, level = _doubling_probe(ladder, spacings[0], tol)
    raw, levels = [vals], [level]
    for h in spacings[1:]:
        vals, level = ladder.solve(length, h)[:2]
        raw.append(vals)
        levels.append(level)
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
    reason, bracket = "domain length chosen by the doubling rule", None
    if given:
        reason = _probe_reason(closure, fits, nu1)
        bracket = closure[:2] if closure and closure[0] is not None else None
        if reason is None:  # index 0's alone: the indices above it are box modes, not states
            trunc_ladder = ((length, float(raw_arr[0, 0])),)
            trunc_est = np.array([raw_arr[0, 0] - closure[1]])
        else:
            trunc_ladder, trunc_est = _truncation_probe(ladder, spacings[0], length, raw_arr[0],
                                                        anchor)
    indices = range(trunc_est.size)  # the indices that may be states
    bars = [fits[j].error_estimate + float(trunc_est[j]) for j in indices]
    states = [
        BoundState(
            value=fits[j].extrapolated,
            error=bars[j],
            refinement_error=fits[j].error_estimate,
            truncation_error=float(trunc_est[j]),
            ladder_values=tuple(float(v) for v in raw_arr[:, j]),
            fitted_order=fits[j].fitted_order,
            flagged=fits[j].flagged,
        )
        for j in indices
        if fits[j].extrapolated < nu1 - bars[j]
    ]
    # count stability over the final two levels, using each level's raw values
    counts = [sum(bool(raw_arr[lvl, j] < nu1 - bars[j]) for j in indices) for lvl in (-2, -1)]

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
        truncation="probe" if reason else "closure",
        probe_reason=reason,
        closure=bracket,
    )


# ---------------------------------------------------------------------------
# Mourre estimate

@dataclass(frozen=True)
class MourreWindow:
    center: float
    half_width: float
    rho: float
    expected_bound: float        # 2 rho(lambda)
    measured_bound: float
    n_states: int
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


def _separable_modes(grid):
    """Axial and transverse eigenvalues ``(mu, nu)`` of the free Hamiltonian on ``grid``.

    mu_j = (4/ds^2) sin^2(j pi / (2(N+1))) are those of the Dirichlet
    second difference T_s on the N interior s-nodes.  nu_t are those of
    H_perp, solved densely: the free Hamiltonian of one s-slice of the
    same cross-section is H_perp + 2/ds^2.
    """
    ds = grid.s_spacing
    n_s = grid.s_nodes.size - 2
    block = _free_slices(grid).toarray()
    nu = np.linalg.eigvalsh(block - (2.0 / ds**2) * np.eye(block.shape[0]))
    j = np.arange(1, n_s + 1)
    mu = (4.0 / ds**2) * np.sin(j * np.pi / (2.0 * (n_s + 1))) ** 2
    return mu, nu


# its own function because perfbench/tracer.py wraps it by name
def _eigenpairs_near(mu, nu, center, half_width):
    """Every eigenvalue mu_j + nu_t strictly inside center -+ half_width, and its mu_j.

    WindowError when there is none.
    """
    lo, hi = center - half_width, center + half_width
    sums = mu[:, None] + nu[None, :]
    j, t = np.nonzero((sums > lo) & (sums < hi))
    if not j.size:
        raise WindowError(
            f"no interior spectral content in ({lo:g}, {hi:g}); "
            "enlarge the domain length L"
        )
    return sums[j, t], mu[j]


def mourre_check_free(grid, thresholds, lambda_windows, epsilon_factor=0.05,
                      tolerance_factor=0.05):
    """Projected commutator lower bound of the free Hamiltonian against 2 rho(lambda).

    Every window is validated by :func:`validate_mourre_windows` before
    any mode is computed.  The free Hamiltonian on ``grid`` is the
    Kronecker sum T_s x I + I x H_perp, and its commutator with the axial
    dilation is 2 T_s x I, so compressed to the eigenvalues
    mu_j + nu_t inside a window it is diag(2 mu_j): the measured bound is
    2 min mu_j over them, compared to 2 rho(lambda) minus the stated
    tolerance.  A window that holds no eigenvalue raises WindowError.
    """
    windows = validate_mourre_windows(thresholds, lambda_windows, epsilon_factor)
    mu, nu = _separable_modes(grid)
    results = []
    for lam, eps, rho in windows:
        values, axial = _eigenpairs_near(mu, nu, lam, eps)
        measured = 2.0 * float(axial.min())
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

    def is_sound(self):
        """Assertable from the report alone: states below nu_1 minus bars."""
        return self.bound_states.is_sound()
