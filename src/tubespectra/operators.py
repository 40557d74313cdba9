"""Coefficients, effective potential and operator assembly on truncated grids.

The transformed Hamiltonian on the straight reference tube is

    H = -d_i G^ij d_j + V,   G = diag(h^-2, 1, ..., 1),

    V = -(5/4) h_,1^2/h^4 + (1/2) h_,11/h^3
        - (1/4) d^{mu nu} h_,mu h_,nu / h^2 + (1/2) d^{mu nu} h_,mu nu / h,

with artificial Dirichlet walls at s = +-L closing the truncated domain.
The discretization is the second-order conservative finite-volume stencil:
every face gets the arithmetic mean of the two nodal coefficient values,
so the assembled matrix is exactly symmetric and equals the discrete
quadratic form  sum_faces c_f (v_i - v_j)^2 / dx^2 + sum_nodes V v^2, which
makes Dirichlet domain monotonicity in L exact at fixed spacing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import EllipticityError, InputError, ResolutionError

__all__ = [
    "TruncatedGrid",
    "DiscreteOperator",
    "EffectivePotential",
    "CoefficientField",
    "assemble_hamiltonian",
    "assemble_free_hamiltonian",
    "assemble_weighted_form_hamiltonian",
]


@dataclass(frozen=True)
class TruncatedGrid:
    """Tensor grid on [-L, L] x bounding-box(omega) with Dirichlet walls.

    ``t_axes`` hold the transverse node coordinates including the boundary
    ring; ``t_interior`` flags nodes strictly inside omega.  The outermost
    layer of every axis must be inactive so each active node has a face in
    every direction.
    """

    s_nodes: np.ndarray
    t_axes: tuple
    t_interior: np.ndarray

    def __post_init__(self):
        s = self.s_nodes
        if s.ndim != 1 or s.size < 3:
            raise InputError("need at least 3 longitudinal nodes")
        if self.t_interior.shape != tuple(ax.size for ax in self.t_axes):
            raise InputError("t_interior shape must match transverse axes")
        for k in range(self.t_interior.ndim):
            edge = [slice(None)] * self.t_interior.ndim
            for j in (0, -1):
                edge[k] = j
                if np.any(self.t_interior[tuple(edge)]):
                    raise InputError("transverse interior mask touches the array edge")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def interval(length, spacing, half_width):
        """d=2 grid on [-L, L] x [-a, a]."""
        s_nodes = _axis_nodes(length, spacing)
        u_nodes = _axis_nodes(half_width, spacing)
        interior = np.zeros(u_nodes.size, dtype=bool)
        interior[1:-1] = True
        return TruncatedGrid(s_nodes, (u_nodes,), interior)

    @staticmethod
    def box(length, spacing, half_widths):
        """d>=3 grid with a rectangular cross-section."""
        s_nodes = _axis_nodes(length, spacing)
        axes = tuple(_axis_nodes(a, spacing) for a in half_widths)
        interior = np.ones(tuple(ax.size for ax in axes), dtype=bool)
        for k in range(len(axes)):
            sl = [slice(None)] * len(axes)
            for j in (0, -1):
                sl[k] = j
                interior[tuple(sl)] = False
        return TruncatedGrid(s_nodes, axes, interior)

    @staticmethod
    def disc(length, spacing, radius):
        """d=3 grid with a disc cross-section masked on its bounding box."""
        s_nodes = _axis_nodes(length, spacing)
        ax = _axis_nodes(radius, spacing)
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        interior = np.hypot(X, Y) < radius - 1e-12
        interior[0, :] = interior[-1, :] = False
        interior[:, 0] = interior[:, -1] = False
        return TruncatedGrid(s_nodes, (ax, ax), interior)

    # -- geometry -----------------------------------------------------------
    @property
    def s_spacing(self):
        return float(self.s_nodes[1] - self.s_nodes[0])

    @property
    def t_spacings(self):
        return tuple(float(ax[1] - ax[0]) for ax in self.t_axes)

    @property
    def spacings(self):
        return (self.s_spacing,) + self.t_spacings

    @property
    def length(self):
        return float(self.s_nodes[-1])

    @property
    def full_shape(self):
        return (self.s_nodes.size,) + self.t_interior.shape

    @property
    def transverse_dim(self):
        return len(self.t_axes)

    def active(self):
        """Boolean array over the full tensor marking unknowns."""
        act = np.zeros(self.full_shape, dtype=bool)
        act[1:-1] = self.t_interior
        return act

    @property
    def n_unknowns(self):
        return int((self.s_nodes.size - 2) * self.t_interior.sum())

    def row_index(self):
        act = self.active()
        idx = -np.ones(self.full_shape, dtype=np.int64)
        idx[act] = np.arange(act.sum())
        return idx, act

    def node_coordinates(self):
        """(S, U) arrays over the full tensor; U has a trailing axis of
        length d-1."""
        shape = self.full_shape
        S = self.s_nodes.reshape((-1,) + (1,) * self.transverse_dim)
        S = np.broadcast_to(S, shape)
        comps = []
        for k, ax in enumerate(self.t_axes):
            form = [1] * self.transverse_dim
            form[k] = -1
            comps.append(np.broadcast_to(ax.reshape(form), self.t_interior.shape))
        U = np.stack(np.broadcast_arrays(*comps), axis=-1) if comps else None
        U = np.broadcast_to(U, shape + (self.transverse_dim,))
        return S, U

    def interior_coordinates(self):
        S, U = self.node_coordinates()
        act = self.active()
        return S[act], U[act]


def _axis_nodes(half_length, spacing):
    if not spacing > 0:
        raise InputError(f"spacing {spacing!r} must be positive")
    n = int(round(2.0 * half_length / spacing))
    if abs(n * spacing - 2.0 * half_length) > 1e-9 * max(1.0, half_length):
        raise InputError(
            f"spacing {spacing!r} does not tile the interval of half-length {half_length!r}"
        )
    return -half_length + spacing * np.arange(n + 1)


@dataclass
class DiscreteOperator:
    """Sparse real matrix on the interior nodes of a truncated grid."""

    matrix: sp.spmatrix
    grid: TruncatedGrid
    tag: str

    @property
    def shape(self):
        return self.matrix.shape


class CoefficientField:
    """The matrix G = diag(h^-2, 1, ..., 1) and its s-derivative.

    ``metric=None`` yields the identity field of the free Hamiltonian.
    The ``*_on_jet`` forms take a metric jet and r = 1/h, so that one jet
    serves every quantity the assumption gate reads.
    """

    def __init__(self, metric=None):
        self.metric = metric

    def g_ss(self, s, u):
        if self.metric is None:
            return np.ones(_points_shape(s, u))
        # not (1/h)^2: near h = 1 this is h^-2 correctly rounded, so a slice
        # whose h rounds to 1 assembles exactly the free operator's entries
        h = self.metric.jet(s, u, ("h",))["h"]
        return 1.0 / (h * h)

    def g_ss_s(self, s, u):
        """d/ds of G^11 = -2 h_,1 / h^3."""
        if self.metric is None:
            return np.zeros(_points_shape(s, u))
        jet = self.metric.jet(s, u, ("h", "h_s"))
        return self.g_ss_s_on_jet(jet, 1.0 / jet["h"])

    @staticmethod
    def g_ss_s_on_jet(jet, r):
        """G^11_,1 = -2 h_,1 r^3."""
        return -2.0 * jet["h_s"] * (r * r * r)

    @staticmethod
    def deviation_on_jet(jet, r):
        """Entrywise max |G - 1| = |h^-2 - 1| = |dh (2 + dh)| r^2, dh = h - 1.

        Through dh it does not cancel as h -> 1.
        """
        dh = jet["dh"]
        return np.abs(dh * (2.0 + dh)) * (r * r)

    def axis_coefficient(self, axis, s, u):
        """Nodal coefficient of -d_axis c d_axis in the Hamiltonian."""
        if axis == 0:
            return self.g_ss(s, u)
        return np.ones(_points_shape(s, u))

    def matrix_bounds(self):
        """(C-, C+) with C- 1 <= G <= C+ 1."""
        if self.metric is None:
            return 1.0, 1.0
        c_minus, c_plus = self.metric.bounds
        return min(c_plus**-2.0, 1.0), max(c_minus**-2.0, 1.0)


def _points_shape(s, u):
    return np.broadcast_shapes(np.shape(s), np.shape(np.asarray(u)[..., 0]))


# the potential is refused where h falls to this floor: it is singular at 0
_H_FLOOR = 1e-8
# the jet fields V and V_,1 read
_V_FIELDS = ("h", "h_s", "h_ss", "hu_sq", "lap_u")
_V_S_FIELDS = _V_FIELDS + ("h_sss", "hu_sq_s", "lap_u_s")


class EffectivePotential:
    """The scalar potential of the unitarily transformed Laplacian.

    The four contributions are retained separately for diagnostics; for a
    straight tube every one of them vanishes identically.  Like
    :class:`CoefficientField`, the ``*_on_jet`` forms take a metric jet
    and r = 1/h from :meth:`reciprocal`; they use products of r, no
    general powers.
    """

    def __init__(self, metric):
        self.metric = metric

    @staticmethod
    def reciprocal(jet, s):
        """r = 1/h from a jet taken at s, refusing h at or below the floor."""
        h = jet["h"]
        if np.any(h <= _H_FLOOR):
            flat = np.argmin(h)
            s_b = np.broadcast_to(np.asarray(s, dtype=float), h.shape)
            raise EllipticityError(
                f"h <= {_H_FLOOR:g} at s={s_b.ravel()[flat]:g}: potential singular",
                where=float(s_b.ravel()[flat]),
            )
        return 1.0 / h

    def _jet(self, s, u, fields):
        jet = self.metric.jet(s, u, fields)
        return jet, self.reciprocal(jet, s)

    def components(self, s, u):
        return self.components_on_jet(*self._jet(s, u, _V_FIELDS))

    @staticmethod
    def components_on_jet(jet, r):
        r2 = r * r
        h1 = jet["h_s"]
        return {
            "longitudinal_gradient": -1.25 * h1 * h1 * (r2 * r2),
            "longitudinal_curvature": 0.5 * jet["h_ss"] * (r2 * r),
            "transverse_gradient": -0.25 * jet["hu_sq"] * r2,
            "transverse_laplacian": 0.5 * jet["lap_u"] * r,
        }

    def __call__(self, s, u):
        return self.on_jet(*self._jet(s, u, _V_FIELDS))

    @classmethod
    def on_jet(cls, jet, r):
        return sum(cls.components_on_jet(jet, r).values())

    def derivative_s(self, s, u):
        """Closed-form d V / ds."""
        return self.derivative_s_on_jet(*self._jet(s, u, _V_S_FIELDS))

    @staticmethod
    def derivative_s_on_jet(jet, r):
        h1, h11, hu_sq, lap = jet["h_s"], jet["h_ss"], jet["hu_sq"], jet["lap_u"]
        r2 = r * r
        r3 = r2 * r
        return (
            5.0 * h1 * h1 * h1 * (r3 * r2)
            - 4.0 * h1 * h11 * (r2 * r2)
            + 0.5 * jet["h_sss"] * r3
            + 0.5
            * (
                h1 * hu_sq * r3
                - (h1 * lap + 0.5 * jet["hu_sq_s"]) * r2
                + jet["lap_u_s"] * r
            )
        )


# ---------------------------------------------------------------------------
# assembly

def _axis_pair_slices(shape, axis):
    lo = [slice(None)] * len(shape)
    hi = [slice(None)] * len(shape)
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    return tuple(lo), tuple(hi)


def _assemble_divergence_form(grid, coefficient_arrays):
    """Matrix of sum_k (-d_k c_k d_k) with face-averaged coefficients.

    ``coefficient_arrays[k]`` holds the nodal values of c_k on the full
    tensor grid.  Returns the CSR matrix, exactly symmetric by
    construction.
    """
    idx, act = grid.row_index()
    n = grid.n_unknowns
    shape = grid.full_shape
    spac = grid.spacings
    diag_full = np.zeros(shape)
    rows, cols, vals = [], [], []
    for axis, c_nodes in enumerate(coefficient_arrays):
        lo, hi = _axis_pair_slices(shape, axis)
        cf = 0.5 * (c_nodes[lo] + c_nodes[hi]) / spac[axis] ** 2
        # diagonal picks up every face adjacent to an active node
        tmp = np.zeros(shape)
        tmp[lo] += cf
        tmp[hi] += cf
        diag_full += tmp
        both = act[lo] & act[hi]
        rows.append(idx[lo][both])
        cols.append(idx[hi][both])
        vals.append(-cf[both])
    m = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    m = m + m.T + sp.diags(diag_full[act])
    return m.tocsr()


def _require_resolution(grid):
    if int(grid.t_interior.sum()) < 8:
        raise ResolutionError(
            f"grid too coarse: {int(grid.t_interior.sum())} interior transverse "
            "nodes (need at least 8)"
        )


def assemble_hamiltonian(coeffs, potential, grid, tag="H"):
    """Assemble -d_i G^ij d_j + V on the truncated grid."""
    _require_resolution(grid)
    S, U = grid.node_coordinates()
    arrays = [np.ascontiguousarray(coeffs.axis_coefficient(k, S, U))
              for k in range(1 + grid.transverse_dim)]
    m = _assemble_divergence_form(grid, arrays)
    if potential is not None:
        s_i, u_i = grid.interior_coordinates()
        m = m + sp.diags(np.asarray(potential(s_i, u_i), dtype=float))
    return DiscreteOperator(matrix=m.tocsr(), grid=grid, tag=tag)


def assemble_free_hamiltonian(grid):
    """The Dirichlet Laplacian on the straight tube: G = 1, V = 0."""
    return assemble_hamiltonian(CoefficientField(None), None, grid, tag="H0")


def assemble_weighted_form_hamiltonian(metric, grid):
    """Discretize the weighted Dirichlet form with lumped mass diag(h).

    Stiffness carries h g^ij at the faces (1/h along s, h transversely)
    and the diagonal mass h is folded in symmetrically, which realises the
    rescaling psi -> h^(1/2) psi at the discrete level.  Its eigenvalues
    must agree with the flat-measure operator's up to discretization
    error.
    """
    _require_resolution(grid)
    S, U = grid.node_coordinates()
    h_nodes = np.ascontiguousarray(metric.h(S, U))
    arrays = [1.0 / h_nodes] + [h_nodes] * grid.transverse_dim
    k = _assemble_divergence_form(grid, arrays)
    act = grid.active()
    d_half = sp.diags(h_nodes[act] ** -0.5)
    m = (d_half @ k @ d_half).tocsr()
    # symmetrize away the last-bit roundoff of the triple product
    m = 0.5 * (m + m.T)
    return DiscreteOperator(matrix=m.tocsr(), grid=grid, tag="weighted-form")
