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

The commutator with the axial dilation A = (q p + p q)/2 is assembled
from its closed form

    i[H, A] = -d_j G^1j d_1 - d_1 G^1j d_j + d_i q G^ij_,1 d_j - q V_,1,

which for the diagonal fields produced by tubes collapses to three axial
terms.

G^11, V and the commutator's G^11_,1 and V_,1 are functions of a metric
jet and r = 1/h (``reciprocal``, which refuses h at the floor where V is
singular).  Every assembly takes one jet, on the grid's axes: the s-nodes
as a column and the transverse nodes as a row, so that a field that
depends on s alone (a curvature column, the sub-block, the rotation) is
evaluated once per s-node, not once per node.

Far from the bend every coefficient is 1 and V is 0 to the last bit, and
the s-slices there have exactly the free operator's rows.  Assembly is
the one place that decides which slices those are, in two steps.  A
tube's metric first bounds |h - 1|, |h_s|, |h_ss| and the transverse
terms of V per s-node, from the curvature columns alone, and a slice
whose bounds round h to 1 and V away against the free diagonal is
certified free with no jet at all.  The jet, G^11, V, the faces and the
diagonal are then computed, with the stencil's own arithmetic, only on
the span of s-nodes around the uncertified slices, and a slice there is
free when every value its rows read equals the free operator's: its
diagonal, and each face that touches one of its unknowns.  The work
thus scales with the curved core, not with the box.  A free slice
between two others is tiled: the operator holds
the free slice's CSR rows once, as its template, and a count of tiled
slices per run.  Only the other slices go through the stencil, and their
rows are what the operator stores, run by run.  ``matrix`` tiles the
whole CSR when something reads it (the template's values repeated, its
columns shifted by the slice width), the one the stencil alone would
give, bit for bit; the solver reads the stored rows instead.  On the
acceptance bent strip at h = 1/32 the operator stores 24,507 of its
257,985 rows, 1.6 of the tiled CSR's 16.4 MB.  The Hamiltonian's
operator carries the runs of free slices at its walls, which the solver
eliminates exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import EllipticityError, InputError, ResolutionError

__all__ = [
    "TruncatedGrid",
    "DiscreteOperator",
    "reciprocal",
    "g11",
    "g11_s",
    "g_deviation",
    "potential_components",
    "potential",
    "potential_s",
    "assemble_hamiltonian",
    "assemble_free_hamiltonian",
    "assemble_weighted_form_hamiltonian",
    "assemble_commutator",
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

    def transverse_nodes(self):
        """Every transverse node, shape ``t_interior.shape + (d-1,)``.

        Indexed by ``t_interior`` it gives the active nodes in row order.
        """
        return np.stack(np.meshgrid(*self.t_axes, indexing="ij"), axis=-1)


def _axis_nodes(half_length, spacing):
    if not spacing > 0:
        raise InputError(f"spacing {spacing!r} must be positive")
    n = int(round(2.0 * half_length / spacing))
    if abs(n * spacing - 2.0 * half_length) > 1e-9 * max(1.0, half_length):
        raise InputError(
            f"spacing {spacing!r} does not tile the interval of half-length {half_length!r}"
        )
    return -half_length + spacing * np.arange(n + 1)


def _canonical(matrix):
    """A sparse matrix in canonical CSR form, which an assembled operator's rows already have.

    Any other input is converted, or copied and summed, so the caller's
    matrix is never modified.
    """
    m = sp.csr_matrix(matrix)
    if not m.has_canonical_format:
        m = m.copy()
        m.sum_duplicates()
    return m


@dataclass(frozen=True, init=False, eq=False)
class DiscreteOperator:
    """Sparse real matrix on the interior nodes of a truncated grid, stored run by run.

    ``parts`` hold its rows in order: a sparse matrix holds its run's rows
    over every column, and an int p stands for p s-slices whose rows are
    each the ``template``'s, the rows of one free slice as (values,
    columns from the slice's first unknown, entries per row).  Assembly
    stores every slice it does not tile; ``DiscreteOperator(matrix, grid,
    tag)`` stores all of ``matrix`` as one run and tiles nothing.
    ``matrix`` tiles the whole CSR when it is read, and ``rows`` any run
    of rows.

    ``free_ends`` are the numbers of s-slices at the left and at the right
    wall whose rows are exactly the free operator's, with at least one
    slice between the two runs; the solver eliminates them exactly.  Only
    :func:`assemble_hamiltonian` sets them.  The default (0, 0) claims no
    free slice, and is always safe: the whole matrix is then the core.
    """

    grid: TruncatedGrid
    tag: str
    free_ends: tuple
    shape: tuple
    parts: tuple
    template: tuple

    def __init__(self, matrix, grid, tag, free_ends=(0, 0)):
        self._store(grid, tag, free_ends, (matrix,), None)

    @classmethod
    def _tiled(cls, parts, template, grid, tag, free_ends):
        op = cls.__new__(cls)
        op._store(grid, tag, free_ends, parts, template)
        return op

    def _store(self, grid, tag, free_ends, parts, template):
        width = _width(template)
        n = sum(part * width if isinstance(part, int) else part.shape[0] for part in parts)
        for name, value in (("grid", grid), ("tag", tag), ("free_ends", tuple(free_ends)),
                            ("shape", (n, n)), ("parts", tuple(parts)), ("template", template)):
            object.__setattr__(self, name, value)

    @property
    def nnz(self):
        """Stored entries, counted without tiling."""
        return sum(part * self.template[0].size if isinstance(part, int) else part.nnz
                   for part in self.parts)

    @property
    def matrix(self):
        """The whole sparse matrix: a one-run operator's as stored, else tiled in canonical CSR."""
        return self.parts[0] if len(self.parts) == 1 else self.rows()

    def rows(self, first=0, stop=None, most=None):
        """Rows ``first`` .. ``stop`` - 1 in canonical CSR form, over every column.

        With ``most``, each tiled run among them is cut to at most ``most``
        slices first, and the rows and columns past a cut move up by the
        rows it drops: these are then the rows of the same operator on a
        grid with shorter free runs.  Inside a tiled run, ``first`` and
        ``stop`` fall on slice bounds.  A stored run read whole, with
        nothing cut before it, is returned as stored, canonical.
        """
        n, width = self.shape[0], _width(self.template)
        stop = n if stop is None else stop
        # per run read: its canonical rows and their bounds, or None and the slices kept,
        # and where its rows start in the result, and how many rows were cut before it
        runs, start, dropped = [], 0, 0
        for part in self.parts:
            tiled = isinstance(part, int)
            end = start + (part * width if tiled else part.shape[0])
            a, b = max(first, start), min(stop, end)
            if a < b and tiled:
                count = (b - a) // width
                kept = count if most is None else min(count, most)
                runs.append((None, (0, kept * width), a - dropped, dropped))
                dropped += (count - kept) * width
            elif a < b:
                runs.append((_canonical(part), (a - start, b - start), a - dropped, dropped))
            start = end
        if len(runs) == 1 and runs[0][0] is not None and runs[0][1] == (0, runs[0][0].shape[0]):
            return runs[0][0]
        sizes = [(b - a) // width * self.template[0].size if m is None
                 else int(m.indptr[b] - m.indptr[a]) for m, (a, b), _, _ in runs]
        ends = np.cumsum([0] + sizes)
        index = np.int32 if max(n, ends[-1]) <= np.iinfo(np.int32).max else np.int64
        data, indices = np.empty(ends[-1]), np.empty(ends[-1], dtype=index)
        indptr = np.zeros(stop - first - dropped + 1, dtype=index)
        for (m, (a, b), at, cut), p, q in zip(runs, ends[:-1], ends[1:]):
            row = at - first
            if m is None:
                values, columns, counts = self.template
                shape = ((b - a) // width, -1)
                data[p:q].reshape(shape)[...] = values
                starts = at + width * np.arange(shape[0], dtype=index)[:, None]
                np.add(columns.astype(index), starts, out=indices[p:q].reshape(shape))
                indptr[1 + row:1 + row + b - a].reshape(shape)[...] = counts
            else:
                lo, hi = m.indptr[a], m.indptr[b]
                data[p:q] = m.data[lo:hi]
                np.subtract(m.indices[lo:hi], cut, out=indices[p:q])
                indptr[1 + row:1 + row + b - a] = np.diff(m.indptr[a:b + 1])
        np.cumsum(indptr, out=indptr)
        m = sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, n - dropped))
        m.has_canonical_format = True
        return m


def _width(template):
    """Unknowns per s-slice of a template's rows, 0 without one."""
    return 0 if template is None else template[2].size


# the potential is refused where h falls to this floor: it is singular at 0
_H_FLOOR = 1e-8
# the jet fields V and V_,1 read
_V_FIELDS = ("h", "h_s", "h_ss", "hu_sq", "lap_u")
_V_S_FIELDS = _V_FIELDS + ("h_sss", "hu_sq_s", "lap_u_s")


# G = diag(h^-2, 1, ..., 1) and the potential V, from a metric jet and
# r = 1/h from reciprocal: products of r, no general powers

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


def g11(jet):
    """G^11 = h^-2."""
    # not (1/h)^2: near h = 1 this is h^-2 correctly rounded, so a slice
    # whose h rounds to 1 assembles exactly the free operator's entries
    h = jet["h"]
    return 1.0 / (h * h)


def g11_s(jet, r):
    """G^11_,1 = -2 h_,1 r^3."""
    return -2.0 * jet["h_s"] * (r * r * r)


def g_deviation(jet, r):
    """Entrywise max |G - 1| = |h^-2 - 1| = |dh (2 + dh)| r^2, dh = h - 1.

    Through dh it does not cancel as h -> 1.
    """
    dh = jet["dh"]
    return np.abs(dh * (2.0 + dh)) * (r * r)


def potential_components(jet, r):
    """The four terms of V, kept apart for diagnostics; each vanishes on a straight tube."""
    r2 = r * r
    h1 = jet["h_s"]
    return {
        "longitudinal_gradient": -1.25 * h1 * h1 * (r2 * r2),
        "longitudinal_curvature": 0.5 * jet["h_ss"] * (r2 * r),
        "transverse_gradient": -0.25 * jet["hu_sq"] * r2,
        "transverse_laplacian": 0.5 * jet["lap_u"] * r,
    }


def potential(jet, r):
    """The effective potential V of the module docstring."""
    return sum(potential_components(jet, r).values())


def potential_s(jet, r):
    """Closed-form d V / ds."""
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


def _around_inner(ndim, axis, faces):
    """Index of the ``faces`` along ``axis`` of a face array, on the inner nodes across it."""
    index = [slice(1, -1)] * ndim
    index[axis] = faces
    return tuple(index)


def _faces(spacings, coefficient_arrays, t_interior):
    """Face values c_f / dx^2 along each axis of a tensor of s-nodes, and the diagonal on its unknowns.

    A face gets the mean of its two nodal coefficients; a node's diagonal
    is (up + down) per axis, the axes summed in order.  The diagonal has
    one row per s-node but the first and the last.
    """
    faces, diag = [], 0.0
    for axis, c_nodes in enumerate(coefficient_arrays):
        lo, hi = _axis_pair_slices(c_nodes.shape, axis)
        cf = c_nodes[lo] + c_nodes[hi]
        cf *= 0.5
        cf /= spacings[axis] ** 2
        faces.append(cf)
        diag = diag + (cf[_around_inner(cf.ndim, axis, slice(1, None))]
                       + cf[_around_inner(cf.ndim, axis, slice(None, -1))])
    return faces, diag[:, t_interior[(slice(1, -1),) * t_interior.ndim]]


def _free_faces(grid, axes, count):
    """:func:`_faces` of the free operator (every c_k = 1 on ``axes`` axes) on ``count`` slices."""
    ones = np.broadcast_to(1.0, (count + 2,) + grid.t_interior.shape)
    return _faces(grid.spacings, [ones] * axes, grid.t_interior)


def _stencil_rows(t_interior, faces, diag, first, stop, neighbours):
    """CSR rows of the slices first .. stop - 1 of :func:`_faces`'s diagonal.

    A row lists its neighbours below, itself and its neighbours above, in
    column order; a neighbour that is no unknown, or a value that is zero,
    gives no entry.  ``neighbours`` tells whether the slices first - 1
    and stop hold unknowns.  Returns the data, the column indices,
    counted from the first unknown of slice ``first``, and the entries
    per row.
    """
    width, count = diag.shape[1], stop - first
    at = np.nonzero(t_interior)              # each unknown's transverse node, in order
    order = np.full(t_interior.shape, -1)
    order[at] = np.arange(width)
    across = -faces[0][first:stop + 1][:, t_interior]
    everywhere = np.ones(width, dtype=bool)
    # per neighbour: its values on the slices' unknowns, column offset and presence
    below = [(across[:-1], np.full(width, -width), everywhere)]
    above = [(across[1:], np.full(width, width), everywhere)]
    for axis in range(1, len(faces)):
        f = -faces[axis][first + 1:stop + 1].reshape(count, -1)
        for nodes, face, side in ((-1, -1, below), (1, 0, above)):
            near = order[at[:axis - 1] + (at[axis - 1] + nodes,) + at[axis:]]
            on = at[:axis - 1] + (at[axis - 1] + face,) + at[axis:]
            side.append((f[:, np.ravel_multi_index(on, faces[axis].shape[1:])],
                         near - np.arange(width), near >= 0))
    entries = below + [(diag[first:stop], np.zeros(width, dtype=int), everywhere)] + above[::-1]
    values = np.stack([v for v, _, _ in entries], axis=2)
    keep = np.stack([k for _, _, k in entries], axis=1) & (values != 0)
    keep[0, :, 0] &= neighbours[0]
    keep[-1, :, -1] &= neighbours[1]
    columns = (np.arange(count * width).reshape(count, width, 1)
               + np.stack([o for _, o, _ in entries], axis=1))
    return values[keep], columns[keep], keep.sum(axis=2).ravel()


def _assemble_divergence_form(grid, coefficient_arrays, diagonal=None, tag="divergence form",
                              first=0):
    """Operator of sum_k (-d_k c_k d_k), plus ``diagonal`` on the unknowns, with its free ends.

    ``coefficient_arrays[k]`` holds the nodal values of c_k on the
    s-nodes from ``first`` on (all of them by default) and every
    transverse node; their interior s-slices, from slice ``first`` on,
    are the evaluated span, and ``diagonal`` is given on its unknowns.
    Every other interior s-slice is free: its caller has proved that the
    values its rows read are the free operator's (every c_k = 1, no
    diagonal).  Every face gets the mean of its two nodal values, so the
    matrix is exactly symmetric.  Its rows are in canonical CSR form with
    no zero entry.  A slice of the span is free when the values its rows
    read, its diagonal and every face that touches one of its unknowns,
    equal the free operator's bit for bit.  A free slice between two
    others is tiled: the operator stores the free slice's rows once, as
    its template, and only the other slices go through the stencil, one
    stored run of rows per run of them.  A run lies in the span, or is a
    wall slice outside it, whose rows are the free operator's.  The free
    ends are the numbers of free slices from the left and from the right
    wall, leaving at least one slice between them.
    """
    t_interior, axes = grid.t_interior, len(coefficient_arrays)
    faces, diag = _faces(grid.spacings, coefficient_arrays, t_interior)
    (count, width), slices = diag.shape, grid.s_nodes.size - 2
    if diagonal is not None:
        diag = diag + diagonal.reshape(count, width)
    # the free operator on three interior s-slices: its middle one's rows are tiled
    free_faces, free_diag = _free_faces(grid, axes, 3)
    template = _stencil_rows(t_interior, free_faces, free_diag, 1, 2, (True, True))
    evaluated = np.all(diag == free_diag[1], axis=1)
    across = np.all(faces[0][:, t_interior] == free_faces[0].flat[0], axis=1)
    evaluated &= across[:-1] & across[1:]
    for axis in range(1, axes):
        lo, hi = _axis_pair_slices(t_interior.shape, axis - 1)
        touching = t_interior[lo] | t_interior[hi]
        evaluated &= np.all(faces[axis][1:-1, touching] == free_faces[axis].flat[0], axis=1)
    free = np.ones(slices, dtype=bool)
    free[first:first + count] = evaluated
    left = min(int(np.cumprod(free).sum()), slices - 1)
    right = min(int(np.cumprod(free[::-1]).sum()), slices - 1 - left)
    tiled = free.copy()
    tiled[[0, -1]] = False                   # a wall slice has one s-coupling
    bounds = np.r_[0, np.flatnonzero(np.diff(tiled)) + 1, slices]

    def stored(a, b):
        walls = (a > 0, b < slices)
        if first <= a and b <= first + count:
            run = _stencil_rows(t_interior, faces, diag, a - first, b - first, walls)
        else:
            run = _stencil_rows(t_interior, *_free_faces(grid, axes, b - a), 0, b - a, walls)
        data, indices, entries = run
        part = sp.csr_matrix((data, indices + a * width, np.r_[0, np.cumsum(entries)]),
                             shape=(entries.size, slices * width))
        part.has_canonical_format = True
        return part

    parts = [int(b - a) if tiled[a] else stored(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    return DiscreteOperator._tiled(parts, template, grid, tag, (left, right))


def _require_resolution(grid):
    if int(grid.t_interior.sum()) < 8:
        raise ResolutionError(
            f"grid too coarse: {int(grid.t_interior.sum())} interior transverse "
            "nodes (need at least 8)"
        )


def _axis_jet(metric, grid, fields, nodes=slice(None)):
    """The s-nodes ``nodes`` as a column, and ``metric``'s jet on them x the active transverse nodes.

    A field is an array over (s-node, active transverse node), or over
    the s-nodes alone, as a column, if it depends on s alone.
    """
    s = grid.s_nodes[nodes, None]
    return s, metric.jet(s, grid.transverse_nodes()[grid.t_interior][None], fields)


def _on_nodes(grid, values, fill):
    """``values`` over (s-node, active transverse node) on the tensor of their s-nodes, ``fill`` elsewhere."""
    out = np.full(np.shape(values)[:1] + grid.t_interior.shape, fill)
    out[:, grid.t_interior] = values
    return out


def _interior(jet):
    """A jet's fields on the interior s-slices, where the unknowns are."""
    return {name: values[1:-1] for name, values in jet.items()}


# |h - 1| at most this: h rounds to 1, and G^11 = r = 1
_FLAT = 2.0**-55


def _evaluated_span(metric, grid):
    """The interior s-slices first .. stop - 1 whose rows need the metric's jet.

    A slice outside them is certified free from ``metric._field_bounds``
    on the s-nodes, with no jet: where |h - 1| <= 2^-55 at its s-node and
    at both neighbours, h rounds to 1 and every face it touches is free;
    where then the bound on |V| (r = 1) is at most a quarter of the
    spacing of doubles below the smallest free diagonal value, adding V
    rounds back to that value.  The span runs from the first uncertified
    slice to the last, and takes in a wall slice next to it, so that a
    stored run is in it or a wall slice outside it.  Without a bound it
    is every slice; for the free operator, none.
    """
    slices = grid.s_nodes.size - 2
    if metric is None:
        return 0, 0
    bound = metric._field_bounds(grid.s_nodes, grid.transverse_nodes()[grid.t_interior])
    if bound is None:
        return 0, slices
    flat = bound["dh"] <= _FLAT
    v = (1.25 * bound["h_s"] ** 2 + 0.5 * bound["h_ss"]
         + 0.25 * bound["hu_sq"] + 0.5 * bound["lap_u"])[1:-1]
    low = _free_faces(grid, 1 + grid.transverse_dim, 1)[1].min()
    certified = flat[:-2] & flat[1:-1] & flat[2:] & (v <= 0.25 * (low - np.nextafter(low, 0.0)))
    if certified.all():
        return 0, 0
    left, right = np.flatnonzero(~certified)[[0, -1]]
    # a wall slice next to the span joins it
    return (0 if left <= 1 else int(left)), (slices if right >= slices - 2 else int(right) + 1)


def assemble_hamiltonian(metric, grid, tag="H"):
    """Assemble -d_i G^ij d_j + V on the truncated grid; ``metric=None`` is the free operator.

    G^11 and V come from one jet of ``metric`` on the grid's axes, taken
    on the evaluated span's s-nodes and the one past each end
    (:func:`_evaluated_span`); the slices outside it are free, and no
    array the size of the whole grid is built.  Only G^11 at the active
    transverse nodes is read, so it is taken there; the transverse
    coefficients are 1.
    """
    _require_resolution(grid)
    first, stop = _evaluated_span(metric, grid)
    shape = (stop - first + 2,) + grid.t_interior.shape
    arrays = [np.broadcast_to(1.0, shape)] * (1 + grid.transverse_dim)
    diagonal = None
    if stop > first:
        s, jet = _axis_jet(metric, grid, _V_FIELDS, slice(first, stop + 2))
        arrays[0] = _on_nodes(grid, g11(jet), 1.0)
        inner = _interior(jet)
        diagonal = potential(inner, reciprocal(inner, s[1:-1]))
    return _assemble_divergence_form(grid, arrays, diagonal, tag, first)


def assemble_free_hamiltonian(grid):
    """The Dirichlet Laplacian on the straight tube: G = 1, V = 0."""
    return assemble_hamiltonian(None, grid, tag="H0")


def assemble_weighted_form_hamiltonian(metric, grid):
    """Discretize the weighted Dirichlet form with lumped mass diag(h).

    Stiffness carries h g^ij at the faces (1/h along s, h transversely)
    and the diagonal mass h is folded in symmetrically, which realises the
    rescaling psi -> h^(1/2) psi at the discrete level.  Its eigenvalues
    must agree with the flat-measure operator's up to discretization
    error.  The transverse faces read h on the boundary ring too, so its
    one jet is taken at every transverse node.
    """
    _require_resolution(grid)
    s = grid.s_nodes.reshape((-1,) + (1,) * grid.transverse_dim)
    h_nodes = metric.jet(s, grid.transverse_nodes()[None], ("h",))["h"]
    arrays = [1.0 / h_nodes] + [h_nodes] * grid.transverse_dim
    k = _assemble_divergence_form(grid, arrays).matrix
    act = grid.active()
    d_half = sp.diags(h_nodes[act] ** -0.5)
    m = (d_half @ k @ d_half).tocsr()
    # symmetrize away the last-bit roundoff of the triple product
    m = 0.5 * (m + m.T)
    return DiscreteOperator(matrix=m.tocsr(), grid=grid, tag="weighted-form")


def assemble_commutator(metric, grid):
    """Closed-form i[H, A] for diagonal coefficient fields; ``metric=None`` is the free one.

    Three surviving terms: twice the axial kinetic part, the axial part
    weighted by q G^11_,1, and the multiplication by -q V_,1, all from
    one jet of ``metric`` on the grid's axes.  Assembled with the same
    face-averaged stencil as the Hamiltonian, hence exactly symmetric.
    """
    g_nodes, q_g1, q_v_s = np.ones(grid.full_shape), np.zeros(grid.full_shape), None
    if metric is not None:
        s, jet = _axis_jet(metric, grid, _V_S_FIELDS)
        inner = _interior(jet)
        q_v_s = s[1:-1] * potential_s(inner, reciprocal(inner, s[1:-1]))
        g_nodes = _on_nodes(grid, g11(jet), 1.0)
        q_g1 = _on_nodes(grid, s * g11_s(jet, 1.0 / jet["h"]), 0.0)
    kinetic = _assemble_divergence_form(grid, [g_nodes]).matrix
    middle = _assemble_divergence_form(grid, [q_g1]).matrix

    m = 2.0 * kinetic - middle
    if q_v_s is not None:
        m = m - sp.diags(q_v_s.ravel())
    return DiscreteOperator(matrix=m.tocsr(), grid=grid, tag="commutator")
