"""Moving frames, tube embedding and the self-overlap certificate.

The Serret-Frenet system ``de_i/ds = K_i^j e_j`` with ``dp/ds = e_1`` and
the rotation system ``dR/ds = -R K_sub``, marched as Z = R^T with
``dZ/ds = K_sub Z``, are linear ODEs y' = G(s) y whose exact flows stay on
the orthogonal group.  Fixed-step RK4 on the output grid makes each step a
matrix, y_{n+1} = P_n y_n, fixed by G at its stage points, so every P_n is
built at once.  Each frame block is replaced by its nearest rotation (SVD
polar factor, determinant +1) and the states are running products of the
P_n: the same as projecting the state after every step, since
polar(P F) = polar(P) F for orthogonal F.  An interval whose frame block
has max|P P^T - I| > 1e-3 (a gross-stiffness guard, not an accuracy
control) is redone with doubled substeps up to three times; then
IntegrationError names the first such s marching out from 0, the forward
side first.  Initial data are pinned at arclength 0: standard basis
frame, identity rotation, curve through the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, IntegrationError, ResolutionError

__all__ = [
    "FrameField",
    "RotationField",
    "TubeCloud",
    "OverlapResult",
    "integrate_frenet",
    "integrate_tang_rotation",
    "build_frame_field",
    "tube_embedding",
    "check_self_overlap",
    "overlap_clearance",
    "export_mesh",
]

_DRIFT_TOL = 1e-3          # max|P P^T - I| allowed per interval before projection
_MAX_RETRIES = 3           # substep doublings before giving up on an interval


def _rk4_propagators(generator, s0, s1, substeps):
    """RK4 propagators P, y(s1) ~ P y(s0), of y' = G(s) y, one per interval.

    Each interval [s0, s1] takes ``substeps`` RK4 steps, whose one-step
    propagators are multiplied in order.  G is evaluated in one call, on
    every stage abscissa of every step.
    """
    h = (s1 - s0) / substeps
    starts = s0 + np.arange(substeps)[:, None] * h
    g = generator(np.stack([starts, starts + 0.5 * h, starts + h]))
    eye = np.eye(g.shape[-1])
    h = h[:, None, None]
    prop = eye
    for g1, g2, g4 in zip(*g):
        k2 = g2 @ (eye + 0.5 * h * g1)
        k3 = g2 @ (eye + 0.5 * h * k2)
        k4 = g4 @ (eye + h * k3)
        prop = (eye + (h / 6.0) * (g1 + 2.0 * k2 + 2.0 * k3 + k4)) @ prop
    return prop


def _orthogonality_defects(m):
    """max|M M^T - I| of each matrix M in a stack."""
    eye = np.eye(m.shape[-1])
    return np.max(np.abs(m @ np.swapaxes(m, -1, -2) - eye), axis=(-2, -1))


def _cumulative_product(p):
    """out[n] = p[n] @ ... @ p[0], by log2(n) stacked products."""
    out = p.copy()
    k = 1
    while k < len(out):
        out[k:] = out[k:] @ out[:-k]
        k *= 2
    return out


def _integrate_bidirectional(profile, generator, s_grid, block):
    """Propagators Y(s) of y' = G(s) y from arclength 0 onto s_grid.

    The leading ``block`` x ``block`` of each interval's propagator is the
    frame block that the drift guard reads and the polar factor replaces.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    lo, hi = profile.s_range
    if s_grid.size and (s_grid.min() < lo - 1e-12 or s_grid.max() > hi + 1e-12):
        raise InputError("s_grid leaves the profile's s_range")
    if s_grid.ndim != 1 or s_grid.size < 1:
        raise InputError("s_grid must be a non-empty 1-d array")
    if np.any(np.diff(s_grid) <= 0):
        raise InputError("s_grid must be strictly increasing")
    if s_grid[0] > 1e-12 or s_grid[-1] < -1e-12:
        raise InputError("s_grid must span arclength 0, where the initial data are pinned")

    fwd = np.flatnonzero(s_grid > 1e-14)
    bwd = np.flatnonzero(s_grid < -1e-14)[::-1]
    sides = (s_grid[fwd], s_grid[bwd])
    s0 = np.concatenate([np.r_[0.0, side][:-1] for side in sides])
    s1 = np.concatenate(sides)
    prop = _rk4_propagators(generator, s0, s1, 1)
    bad = np.flatnonzero(_orthogonality_defects(prop[:, :block, :block]) > _DRIFT_TOL)
    for attempt in range(1, _MAX_RETRIES + 1):
        if not bad.size:
            break
        prop[bad] = _rk4_propagators(generator, s0[bad], s1[bad], 2**attempt)
        bad = bad[_orthogonality_defects(prop[bad, :block, :block]) > _DRIFT_TOL]
    if bad.size:
        s = float(s1[bad[0]])
        raise IntegrationError(f"orthogonality drift above {_DRIFT_TOL:g} near s={s:g} "
                               f"after {_MAX_RETRIES} substep doublings", s=s)

    u, _, vt = np.linalg.svd(prop[:, :block, :block])
    u[np.linalg.det(u @ vt) < 0, :, -1] *= -1.0
    prop[:, :block, :block] = u @ vt

    result = np.empty((s_grid.size,) + prop.shape[1:])
    result[np.abs(s_grid) <= 1e-14] = np.eye(prop.shape[-1])
    result[fwd] = _cumulative_product(prop[:fwd.size])
    result[bwd] = _cumulative_product(prop[fwd.size:])
    return result


@dataclass(frozen=True)
class RotationField:
    """Sampled solution R(s) of the transverse rotation system."""

    s_grid: np.ndarray
    matrices: np.ndarray  # (n, d-1, d-1)


@dataclass(frozen=True)
class FrameField:
    """Sampled Frenet frame, curve points and transverse rotations.

    ``frames[k, i]`` is the vector e_{i+1}(s_k); the Tang frame is the
    derived property ``tang_frames`` with rows (e_1, R_mu^nu e_nu).
    """

    s_grid: np.ndarray
    frames: np.ndarray      # (n, d, d), rows are e_i
    points: np.ndarray      # (n, d)
    rotations: np.ndarray   # (n, d-1, d-1)

    @property
    def dimension(self):
        return self.frames.shape[-1]

    @property
    def tang_frames(self):
        """Rotated frame e~_i = R_i^j e_j (R acting on rows 2..d)."""
        out = self.frames.copy()
        out[:, 1:, :] = np.einsum("kmn,knj->kmj", self.rotations, self.frames[:, 1:, :])
        return out


def integrate_frenet(profile, s_grid):
    """Integrate the Serret-Frenet system and the curve itself.

    Returns a :class:`FrameField` whose rotation block is the identity at
    every sample; compose with :func:`integrate_tang_rotation` (or call
    :func:`build_frame_field`) to attach the transverse rotations.
    """
    d, s_grid = profile.dimension, np.asarray(s_grid, dtype=float)

    def generator(s):
        # joint state: rows 0..d-1 hold the frame, row d the curve point
        g = np.zeros(s.shape + (d + 1, d + 1))
        g[..., :d, :d] = profile.frenet_matrix(s)
        g[..., d, 0] = 1.0
        return g

    states = _integrate_bidirectional(profile, generator, s_grid, d)[:, :, :d]
    rot = np.broadcast_to(np.eye(d - 1), (s_grid.size, d - 1, d - 1)).copy()
    return FrameField(s_grid=s_grid, frames=states[:, :d, :],
                      points=states[:, d, :], rotations=rot)


def integrate_tang_rotation(profile, s_grid):
    """Solve dR/ds + R K_sub = 0 with R(0) the identity.

    The exact flow conserves orthogonality and det R = 1; the integrator
    preserves both numerically via per-step re-projection.
    """
    z = _integrate_bidirectional(profile, profile.sub_block, s_grid, profile.dimension - 1)
    return RotationField(s_grid=np.asarray(s_grid, dtype=float),
                         matrices=np.swapaxes(z, 1, 2).copy())


def build_frame_field(profile, s_grid):
    """Frenet frame plus transverse rotations on a common grid."""
    base = integrate_frenet(profile, s_grid)
    rot = integrate_tang_rotation(profile, s_grid)
    return FrameField(s_grid=base.s_grid, frames=base.frames,
                      points=base.points, rotations=rot.matrices)


@dataclass(frozen=True)
class TubeCloud:
    """Sampled tube surface/skeleton, s-major then u ordering."""

    s: np.ndarray        # (n_s * n_u,)
    u: np.ndarray        # (n_s * n_u, d-1)
    points: np.ndarray   # (n_s * n_u, d)
    n_s: int
    n_u: int
    radius: float

    def reshaped_points(self):
        return self.points.reshape(self.n_s, self.n_u, -1)


def tube_embedding(frame_field, cross_section_points, radius):
    """Map cross-section points along the curve: x = p(s) + u^mu e~_mu(s).

    ``cross_section_points`` is an (m, d-1) array (a plain 1-d array is
    accepted for d=2).  Points with |u| > radius are rejected.
    """
    u = np.asarray(cross_section_points, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    d = frame_field.dimension
    if u.shape[1] != d - 1:
        raise InputError(f"cross-section points must have {d - 1} components")
    norms = np.linalg.norm(u, axis=1)
    if np.any(norms > radius + 1e-12):
        raise InputError("cross-section point outside radius")

    tang = frame_field.tang_frames[:, 1:, :]           # (n, d-1, d)
    pts = frame_field.points[:, None, :] + np.einsum("um,kmd->kud", u, tang)
    n_s, n_u = frame_field.s_grid.size, u.shape[0]
    return TubeCloud(
        s=np.repeat(frame_field.s_grid, n_u),
        u=np.tile(u, (n_s, 1)),
        points=pts.reshape(n_s * n_u, d),
        n_s=n_s,
        n_u=n_u,
        radius=float(radius),
    )


@dataclass(frozen=True)
class OverlapResult:
    """Outcome of the self-overlap heuristic.

    ``overlap_free=True`` is evidence only (sampling certificate);
    ``False`` is a proof of overlap at the returned pairs.
    """

    overlap_free: bool
    pairs: np.ndarray            # (k, 2) indices into the cloud
    arc_separations: np.ndarray  # (k,)
    min_arc_separation: float
    clearance: float


def overlap_clearance(a):
    """Distance two far-apart samples of a radius-a tube must keep: just
    under the tube diameter."""
    return 2.0 * a * 0.99


def check_self_overlap(cloud):
    """Detect tube self-overlap on a sampled point cloud.

    Two samples are offending when their arclength parameters differ by
    more than 4a while their images lie within ``overlap_clearance(a)`` of
    each other, a being the tube radius: within arc distance 4a the tube
    is locally embedded whenever the basic curvature bound holds.
    """
    from scipy.spatial import cKDTree

    a = cloud.radius
    if a <= 0:
        raise InputError("tube radius must be positive")
    min_arc_separation = 4.0 * a
    clearance = overlap_clearance(a)

    pts = cloud.reshaped_points()
    if cloud.n_s < 2:
        raise ResolutionError("need at least two s samples to certify")
    step = np.linalg.norm(np.diff(pts, axis=0), axis=-1)
    if float(step.max()) >= clearance / 2.0:
        raise ResolutionError(
            f"cloud under-resolved: adjacent s-sample spacing {step.max():g} "
            f"not below clearance/2 = {clearance / 2.0:g}; refuse to certify"
        )

    tree = cKDTree(cloud.points)
    pairs = tree.query_pairs(r=clearance, output_type="ndarray")
    if pairs.size:
        sep = np.abs(cloud.s[pairs[:, 0]] - cloud.s[pairs[:, 1]])
        offending = sep > min_arc_separation
        pairs, sep = pairs[offending], sep[offending]
    else:
        pairs = pairs.reshape(0, 2)
        sep = np.empty(0)
    return OverlapResult(
        overlap_free=pairs.shape[0] == 0,
        pairs=pairs,
        arc_separations=sep,
        min_arc_separation=float(min_arc_separation),
        clearance=float(clearance),
    )


def export_mesh(path, cloud):
    """Write the cloud as plain text, one vertex per line.

    Header names the columns; payload is ``s u... x...`` space-separated.
    """
    d = cloud.points.shape[1]
    ucols = " ".join(f"u{mu}" for mu in range(2, d + 1))
    xcols = " ".join(f"x{i}" for i in range(1, d + 1))
    with open(path, "w") as fh:
        fh.write(f"# s {ucols} {xcols}\n")
        for s, u, x in zip(cloud.s, cloud.u, cloud.points):
            row = [repr(float(s))] + [repr(float(v)) for v in u] + [repr(float(v)) for v in x]
            fh.write(" ".join(row) + "\n")
