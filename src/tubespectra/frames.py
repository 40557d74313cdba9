"""Moving frames, tube embedding and the self-overlap certificate.

The Serret-Frenet system ``de_i/ds = K_i^j e_j`` and the transverse
rotation system ``dR/ds = -R K_sub`` are both linear, non-stiff ODEs whose
exact solutions stay on the orthogonal group.  They are integrated here
with classical fixed-step RK4 tied to the requested output grid, and after
every grid step the state is projected back onto the nearest rotation
(SVD polar factor with determinant correction), which removes the O(h^5)
per-step drift the exact flow does not have.

Initial data are pinned at arclength 0: standard basis frame, identity
rotation, curve through the origin.
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

FRAME_TOL = 1e-10          # orthonormality / determinant tolerance on outputs
# Pre-projection drift allowed per grid interval.  Projection restores
# orthogonality exactly, so this is a gross-stiffness guard (steps with
# |kappa| h approaching 1), not an accuracy control: accuracy follows the
# grid resolution, preserving the clean RK4 order.
_DRIFT_TOL = 1e-3
_MAX_RETRIES = 3           # substep doublings before giving up on an interval


def nearest_rotation(m):
    """Project a square matrix onto the nearest special-orthogonal matrix."""
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0:
        u = u.copy()
        u[:, -1] *= -1.0
        r = u @ vt
    return r


def _orthogonality_drift(m):
    return float(np.max(np.abs(m @ m.T - np.eye(m.shape[0]))))


def _rk4_interval(rhs, s0, y0, s1, substeps):
    h = (s1 - s0) / substeps
    y = y0
    for m in range(substeps):
        s = s0 + m * h
        k1 = rhs(s, y)
        k2 = rhs(s + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(s + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _march(rhs, y0, targets, drift_slice):
    """March from arclength 0 through the sorted ``targets``.

    ``drift_slice`` selects the rotation block of the state for the drift
    check and re-projection.  Each interval takes one RK4 step; on
    excessive drift it is retried with doubled substeps a few times before
    raising.
    """
    out = []
    s_prev, y = 0.0, y0
    for s_next in targets:
        sub = 1
        for attempt in range(_MAX_RETRIES + 1):
            y_try = _rk4_interval(rhs, s_prev, y, s_next, sub)
            if _orthogonality_drift(y_try[drift_slice]) <= _DRIFT_TOL:
                break
            sub *= 2
        else:
            raise IntegrationError(
                f"orthogonality drift above {_DRIFT_TOL:g} near s={s_next:g} "
                f"after {_MAX_RETRIES} substep doublings",
                s=s_next,
            )
        y_try[drift_slice] = nearest_rotation(y_try[drift_slice])
        out.append(y_try)
        s_prev, y = s_next, y_try
    return out


def _integrate_bidirectional(rhs, s_grid, y0, drift_slice):
    """Integrate a matrix ODE both ways from arclength 0 onto s_grid."""
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.ndim != 1 or s_grid.size < 1:
        raise InputError("s_grid must be a non-empty 1-d array")
    if np.any(np.diff(s_grid) <= 0):
        raise InputError("s_grid must be strictly increasing")
    if s_grid[0] > 1e-12 or s_grid[-1] < -1e-12:
        raise InputError("s_grid must span arclength 0, where the initial data are pinned")

    result = np.empty((s_grid.size,) + y0.shape)
    fwd = np.nonzero(s_grid > 1e-14)[0]
    bwd = np.nonzero(s_grid < -1e-14)[0][::-1]
    result[np.abs(s_grid) <= 1e-14] = y0
    for idx, y in zip(fwd, _march(rhs, y0, s_grid[fwd], drift_slice)):
        result[idx] = y
    for idx, y in zip(bwd, _march(rhs, y0, s_grid[bwd], drift_slice)):
        result[idx] = y
    return result


@dataclass(frozen=True)
class RotationField:
    """Sampled solution R(s) of the transverse rotation system."""

    s_grid: np.ndarray
    matrices: np.ndarray  # (n, d-1, d-1)

    @property
    def block_size(self):
        return self.matrices.shape[-1]

    def max_orthogonality_defect(self):
        eye = np.eye(self.block_size)
        return float(max(np.max(np.abs(m @ m.T - eye)) for m in self.matrices))

    def max_determinant_defect(self):
        return float(np.max(np.abs(np.linalg.det(self.matrices) - 1.0)))


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

    def validate(self):
        """Check the frame-field invariants; raises on violation."""
        d = self.dimension
        eye = np.eye(d)
        orth = np.max(np.abs(np.einsum("kij,klj->kil", self.frames, self.frames) - eye))
        if orth > FRAME_TOL:
            raise InputError(f"frame orthonormality defect {orth:g} above {FRAME_TOL:g}")
        det_r = np.max(np.abs(np.linalg.det(self.rotations) - 1.0))
        eye_r = np.eye(d - 1)
        orth_r = np.max(
            np.abs(np.einsum("kij,klj->kil", self.rotations, self.rotations) - eye_r)
        )
        if max(det_r, orth_r) > FRAME_TOL:
            raise InputError(
                f"rotation defect (det {det_r:g}, orth {orth_r:g}) above {FRAME_TOL:g}"
            )
        return self


def integrate_frenet(profile, s_grid):
    """Integrate the Serret-Frenet system and the curve itself.

    Returns a :class:`FrameField` whose rotation block is the identity at
    every sample; compose with :func:`integrate_tang_rotation` (or call
    :func:`build_frame_field`) to attach the transverse rotations.
    """
    d = profile.dimension
    s_grid = np.asarray(s_grid, dtype=float)
    lo, hi = profile.s_range
    if s_grid.size and (s_grid.min() < lo - 1e-12 or s_grid.max() > hi + 1e-12):
        raise InputError("s_grid leaves the profile's s_range")

    # Joint state: rows 0..d-1 hold the frame, row d the curve point.
    y0 = np.vstack([np.eye(d), np.zeros((1, d))])

    def rhs(s, y):
        k = profile.frenet_matrix(s)
        dy = np.empty_like(y)
        dy[:d] = k @ y[:d]
        dy[d] = y[0]
        return dy

    states = _integrate_bidirectional(rhs, s_grid, y0, np.s_[:d])
    rot = np.broadcast_to(np.eye(d - 1), (s_grid.size, d - 1, d - 1)).copy()
    return FrameField(s_grid=s_grid, frames=states[:, :d, :],
                      points=states[:, d, :], rotations=rot)


def integrate_tang_rotation(profile, s_grid):
    """Solve dR/ds + R K_sub = 0 with R(0) the identity.

    The exact flow conserves orthogonality and det R = 1; the integrator
    preserves both numerically via per-step re-projection.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    lo, hi = profile.s_range
    if s_grid.size and (s_grid.min() < lo - 1e-12 or s_grid.max() > hi + 1e-12):
        raise InputError("s_grid leaves the profile's s_range")

    def rhs(s, y):
        return -(y @ profile.sub_block(s))

    states = _integrate_bidirectional(
        rhs, s_grid, np.eye(profile.dimension - 1), np.s_[:]
    )
    return RotationField(s_grid=s_grid, matrices=states)


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
