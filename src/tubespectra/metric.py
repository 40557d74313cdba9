"""Reference-tube metric h(s, u) and every derivative the pipeline needs.

For a tube about a curve in R^d the longitudinal metric coefficient is

    h(s, u) = 1 + u^mu R_mu^alpha(s) K_alpha^1(s),

affine in the transverse coordinates, and all of its s-derivatives follow
in closed form from the rotation system dR/ds = -R K_sub:

    h_,1   = u . R (k' - K k)
    h_,11  = u . R (k'' - K' k - 2 K k' + K K k)
    h_,111 = u . R (k''' - K'' k - 3 K k'' - 3 K' k' + K' K k
                     + 2 K K' k + 3 K K k' - K K K k)

with k = (K_alpha^1) and K the transverse sub-block of the generator.
For strips on an abstract surface of Gauss curvature K_g the coefficient
instead solves the transverse Jacobi equation h_,22 + K_g h = 0 with
h(.,0) = 1, h_,2(.,0) = -kappa.  For a constant K_g it has the closed
form h = C_K(u) - kappa(s) S_K(u), and every s-derivative follows from
kappa's; a K_g that varies (a table or a callable) is integrated by RK4
in u, with s-derivatives from order-4 finite differences.

Every metric implements one method, ``jet(s, u, fields)``, which returns
the requested fields at once -- h, its s-derivatives, the transverse
combinations and ``dh`` = h - 1, taken before the 1 is added so that it
keeps its relative accuracy where h is within roundoff of 1.  It is the
only evaluator, vectorized over numpy arrays, so each formula has a
single implementation and no consumer branches on the source.  Every
consumer takes one jet over the axes of its points: an assembly and
``export_metric_csv`` on the s-values as a column and the transverse
nodes as a row, the assumption gate and ``ellipticity_bounds`` on a
block of abscissae as a row and the transverse probe down the columns.
The closed-form metrics compute each intermediate (curvature column,
sub-block, rotation, Jacobi basis) once per jet and keep fields that
depend on s alone in the shape of s, so they are evaluated once per
s-value.  A tube's metric and a strip of constant K also flag, from
those intermediates, the abscissae where every curvature input of the
jet is exactly 0.0 (``_straight``), so that the gate takes the jet on
the curved abscissae and one straight representative only.  A tube's
metric also bounds, from those intermediates alone, the per-node fields
the Hamiltonian reads (``_field_bounds``), so that assembly certifies
the straight slices without a jet.  The integrated
strip keeps no sweep: a jet sweeps once per finite-difference offset its
fields reach, row-major in (u-node, s), and reads h and h_u off it in
one Hermite pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .assumptions import _probe_blocks, _u_probe, sample_abscissae
from .errors import EllipticityError, InputError
from .frames import RotationField
from .profiles import CurvatureProfile, NotAKnotSpline, ScalarFunction

__all__ = [
    "TubeMetric",
    "EuclideanTubeMetric",
    "SurfaceStripMetric",
    "ConstantCurvatureStripMetric",
    "SurfaceData",
    "EllipticityBounds",
    "metric_from_frames",
    "metric_from_profile",
    "metric_from_jacobi",
    "ellipticity_bounds",
    "export_metric_csv",
]


# what a jet can hold: h, h - 1 (before the 1 is added), the s-derivatives
# of h and the transverse combinations of TubeMetric
JET_FIELDS = ("h", "dh", "h_s", "h_ss", "h_sss", "hu_sq", "hu_sq_s", "lap_u", "lap_u_s")


class TubeMetric:
    """The jet interface of g = diag(h^2, 1, ..., 1).

    Scalar combinations rather than raw partials are jet fields because
    they are what the effective potential consumes:

    ``hu_sq``    = delta^{mu nu} h_,mu h_,nu
    ``lap_u``    = delta^{mu nu} h_,mu nu
    ``hu_sq_s``  = d/ds of ``hu_sq`` (twice delta^{mu nu} h_,1mu h_,nu)
    ``lap_u_s``  = delta^{mu nu} h_,1 mu nu

    together with h and its s-derivatives ``h_s``, ``h_ss``, ``h_sss``.
    ``jet`` evaluates any of these at once, and ``dh`` = h - 1; a field
    that depends on s alone may keep the shape of s.

    Metrics are immutable after construction; concurrent evaluation is
    safe.
    """

    source = "abstract"

    def __init__(self, a, dimension, s_range):
        if a <= 0:
            raise InputError("tube radius a must be positive")
        self.a = float(a)
        self.dimension = int(dimension)
        self.s_range = (float(s_range[0]), float(s_range[1]))
        self._bounds = None

    # -- transverse argument normalisation ---------------------------------
    def _split_u(self, u):
        u = np.asarray(u, dtype=float)
        m = self.dimension - 1
        if m == 1:
            if u.ndim and u.shape[-1] == 1:
                return u[..., 0][..., None]
            return u[..., None]
        if u.ndim == 0 or u.shape[-1] != m:
            raise InputError(f"transverse point needs {m} components")
        return u

    def jet(self, s, u, fields=JET_FIELDS):
        """``{field: array}`` at (s, u) for each of ``fields`` (see ``JET_FIELDS``)."""
        raise NotImplementedError

    def _field_bounds(self, s, u):
        """Per s, upper bounds on |dh|, |h_s|, |h_ss|, |hu_sq| and |lap_u| over the points u.

        None: a metric without a bound of s alone is evaluated at every point.
        """
        return None

    def _straight(self, s):
        """``(straight, jet)`` at the abscissae s, or None.

        ``straight`` flags each s where every curvature input the jet
        reads is exactly 0.0, so that the jet there is one function of u,
        the same at each of them.  ``jet(keep, u, fields)`` is
        ``self.jet(s[..., keep], u, fields)`` bit for bit, ``keep``
        indexing s's last axis (flags or a slice), from the inputs the
        flags were formed from.  Forming the flags raises what a jet at s
        raises before its first field.  None: a metric with no such test
        is evaluated at every abscissa.
        """
        return None

    @property
    def bounds(self):
        """Cached ellipticity bounds (c-, c+)."""
        if self._bounds is None:
            self._bounds = ellipticity_bounds(self)
        return self._bounds


class EuclideanTubeMetric(TubeMetric):
    """Metric of a tube about a curve in R^d, from curvature data.

    The rotation samples are interpolated entrywise by one not-a-knot
    cubic spline in s (:class:`~tubespectra.profiles.NotAKnotSpline`;
    none in d=2, where the rotation is the scalar 1), while the curvature
    vectors are evaluated analytically, so the closed-form derivative
    identities hold to spline accuracy.
    """

    source = "euclidean-tube"

    def __init__(self, profile: CurvatureProfile, rotations, a):
        super().__init__(a, profile.dimension, profile.s_range)
        self.profile = profile
        self.kappa1_sup = profile.kappa1_sup()
        product = self.a * self.kappa1_sup
        if product >= 1.0:
            raise EllipticityError(
                f"a * sup|kappa_1| = {product:g} >= 1: tube map not a local "
                "diffeomorphism",
                where=product,
            )

        m = profile.dimension - 1
        if m == 1:
            self._rot = None  # rotation is identically the scalar 1
        else:
            if not isinstance(rotations, RotationField):
                raise InputError("d >= 3 requires a RotationField of transverse rotations")
            s_grid, mats = rotations.s_grid, rotations.matrices
            if mats.shape[-1] != m:
                raise InputError("rotation block size does not match the profile")
            self._rot = NotAKnotSpline(s_grid, mats)
            self._rot_range = (float(s_grid[0]), float(s_grid[-1]))

    def _in_rotation_range(self, s):
        """s, refused when it leaves the rotation samples."""
        s = np.asarray(s, dtype=float)
        lo, hi = self._rot_range
        if s.size and (s.min() < lo - 1e-12 or s.max() > hi + 1e-12):
            raise InputError("evaluation outside the rotation sample range")
        return s

    def _rotation(self, s):
        return self._rot(np.clip(self._in_rotation_range(s), *self._rot_range))

    def _columns(self, s):
        """(k, K) at s: the first column's and the sub-block's s-derivatives, each taken when read.

        K is None in d = 2, where the sub-block vanishes.
        """
        p = self.profile
        k = cache(lambda order: p.first_column(s, order))
        return k, None if self._rot is None else cache(lambda order: p.sub_block(s, order))

    def _coefficient_columns(self, s, columns=None):
        """(k, c, R) at s: the first column's and each h-coefficient vector's s-derivatives, cached, and the rotation.

        ``c(order)`` is the coefficient vector of u in d^order h/ds^order
        before the rotation; in d = 2, where the sub-block vanishes and
        the rotation is 1, it is ``k(order)`` and R is None.  ``columns``
        are :meth:`_columns` at s, if they are already formed.
        """
        k, K = columns or self._columns(s)
        if K is None:
            return k, k, None
        return k, (lambda order: _h_coefficients(order, k, K)), self._rotation(s)

    def jet(self, s, u, fields=JET_FIELDS):
        """The requested fields; the h-derivatives from the closed forms of the module.

        Each derivative of the first column and of the sub-block, and the
        rotation, is evaluated once.  The u-contraction of an
        h-derivative is a plain product in d = 2, where the sub-block
        vanishes and the rotation is 1.  Rotation orthogonality collapses
        the transverse combinations to curvature scalars, exactly: they
        keep the shape of s.
        """
        return self._jet(s, u, fields)

    def _straight(self, s):
        """Straight where k^(0..3) and, in d >= 3, K^(0..2) are exactly 0: R c = 0 for any R.

        They are read in the jet's order, after the rotation range, so
        that the first error is the jet's; the rotation itself is taken
        only where the jet is.
        """
        s = np.asarray(s, dtype=float)
        k, K = self._columns(s)
        if K is not None:
            self._in_rotation_range(s)
        straight = np.ones(s.shape, dtype=bool)
        for f, order in ((k, 0), (k, 1), (K, 0), (k, 2), (K, 1), (k, 3), (K, 2)):
            if f is not None:
                v = f(order)
                straight &= np.all(v == 0.0, axis=tuple(range(s.ndim, v.ndim)))

        def jet(keep, u, fields=JET_FIELDS):
            return self._jet(s[..., keep], u, fields, (
                cache(lambda order: k(order)[..., keep, :]),
                None if K is None else cache(lambda order: K(order)[..., keep, :, :])))

        return straight, jet

    def _jet(self, s, u, fields, columns=None):
        s = np.asarray(s, dtype=float)
        u = self._split_u(u)
        k, c, rotation = self._coefficient_columns(s, columns)

        def along(order):
            return _contract(c(order) if rotation is None else _mv(rotation, c(order)), u)

        out = {}
        if "h" in fields or "dh" in fields:
            dh = along(0)
            if "dh" in fields:
                out["dh"] = dh
            if "h" in fields:
                out["h"] = 1.0 + dh
        for order, name in ((1, "h_s"), (2, "h_ss"), (3, "h_sss")):
            if name in fields:
                out[name] = along(order)
        return out | _of_s_alone(k, s.shape, fields)

    def _field_bounds(self, s, u):
        """Per s, upper bounds on |dh|, |h_s|, |h_ss| over the points u, and |hu_sq|, |lap_u|.

        Each of dh, h_s and h_ss is u contracted with the column R c of
        s alone that ``jet`` forms, so sum_mu max|u_mu| sum_nu |R_mu nu|
        |c_nu| bounds it; the factor 1 + 1e-12 covers the rounding of
        the jet and of the bound.  hu_sq and lap_u are of s alone.
        """
        s = np.asarray(s, dtype=float)
        u_max = np.abs(self._split_u(u)).reshape(-1, self.dimension - 1).max(axis=0)
        k, c, rotation = self._coefficient_columns(s)

        def bound(order):
            w = np.abs(c(order))
            return (1.0 + 1e-12) * ((w if rotation is None else _mv(np.abs(rotation), w)) @ u_max)

        out = {name: bound(order) for order, name in enumerate(("dh", "h_s", "h_ss"))}
        return out | {name: np.abs(v) for name, v in
                      _of_s_alone(k, s.shape, ("hu_sq", "lap_u")).items()}


def _of_s_alone(k, shape, fields):
    """The requested transverse combinations: curvature scalars of s alone, by rotation orthogonality."""
    out = {}
    if "hu_sq" in fields:
        out["hu_sq"] = k(0)[..., 0] ** 2
    if "hu_sq_s" in fields:
        out["hu_sq_s"] = 2.0 * k(0)[..., 0] * k(1)[..., 0]
    for name in ("lap_u", "lap_u_s"):
        if name in fields:
            out[name] = np.zeros(shape)
    return out


def _h_coefficients(order, k, K):
    """Coefficient vector of u in d^order h/ds^order before the rotation, shape (..., d-1).

    ``k(j)`` and ``K(j)`` are the j-th s-derivatives of the first column
    and of the sub-block.
    """
    if order == 0:
        return k(0)
    if order == 1:
        return k(1) - _mv(K(0), k(0))
    if order == 2:
        return k(2) - _mv(K(1), k(0)) - 2.0 * _mv(K(0), k(1)) + _mv(K(0), _mv(K(0), k(0)))
    if order == 3:
        return (
            k(3)
            - _mv(K(2), k(0))
            - 3.0 * _mv(K(0), k(2))
            - 3.0 * _mv(K(1), k(1))
            + _mv(K(1), _mv(K(0), k(0)))
            + 2.0 * _mv(K(0), _mv(K(1), k(0)))
            + 3.0 * _mv(K(0), _mv(K(0), k(1)))
            - _mv(K(0), _mv(K(0), _mv(K(0), k(0))))
        )
    raise InputError(f"no closed form beyond third s-derivative (got {order})")


def _contract(w, u):
    """sum_mu u^mu w_mu, term by term: a plain product in d = 2."""
    out = u[..., 0] * w[..., 0]
    for mu in range(1, u.shape[-1]):
        out += u[..., mu] * w[..., mu]
    return out


def _mv(mat, vec):
    return np.einsum("...ij,...j->...i", mat, vec)


@dataclass(frozen=True)
class SurfaceData:
    """Geometry of a strip's ambient surface in Fermi coordinates.

    ``gauss_curvature`` is a number, for a surface of constant curvature,
    or a callable K(s, u) that broadcasts over arrays and stays bounded
    on the strip; ``kappa(s)`` is the geodesic curvature of the base
    curve, a ``ScalarFunction`` with derivatives to third order when the
    Gauss curvature is a number.
    """

    gauss_curvature: object
    kappa: Callable
    a: float
    s_range: tuple

    def __post_init__(self):
        if callable(self.gauss_curvature):
            probe_s = np.linspace(self.s_range[0], self.s_range[1], 64)
            probe = self.gauss_curvature(probe_s, np.zeros_like(probe_s))
        else:
            probe = float(self.gauss_curvature)
        if not np.all(np.isfinite(probe)):
            raise InputError("Gauss curvature is not finite on the strip centreline")


class SurfaceStripMetric(TubeMetric):
    """Strip metric obtained by integrating the Jacobi equation.

    h is computed on demand by a vectorized RK4 sweep in u (from the
    centreline outward, both directions, all requested s at once) over an
    internal u grid of ``_HALF_NODES`` steps per side, stored one row per
    u-node, and evaluated in between by one cubic Hermite pass: h with the
    swept h_u as its slope, h_u with h_uu = -K h.  Evaluating at the exact
    requested s (instead of interpolating stored columns) keeps the
    s-interpolation error out of the finite-difference s-derivatives,
    taken with step ``_FD_STEP``: a jet sweeps once per stencil offset its
    fields reach, at most 7 times, and keeps no sweep.  ``s_range`` is the
    surface's, inset by the 3 steps they reach.
    """

    source = "surface-strip"
    _HALF_NODES = 256
    _FD_STEP = 1e-2
    # order-4 finite differences in s: (offset, weight) per stencil
    _D1 = ((-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0))
    _D2 = ((-2, -1.0 / 12.0), (-1, 16.0 / 12.0), (0, -30.0 / 12.0),
           (1, 16.0 / 12.0), (2, -1.0 / 12.0))
    _D3 = ((-3, 1.0 / 8.0), (-2, -1.0), (-1, 13.0 / 8.0),
           (1, -13.0 / 8.0), (2, 1.0), (3, -1.0 / 8.0))

    def __init__(self, surface: SurfaceData):
        lo, hi = surface.s_range
        reach = 3 * self._FD_STEP
        super().__init__(surface.a, 2, (lo + reach, hi - reach))
        self.surface = surface
        self.u_nodes = np.linspace(-self.a, self.a, 2 * self._HALF_NODES + 1)
        self._i0 = self._HALF_NODES

    def _sweep(self, s_values):
        """Integrate h'' = -K h in u for every s at once.

        Returns (h, h_u) arrays of shape (len(u_nodes), len(s_values)), one
        row per u-node, so that each RK4 step writes contiguous rows.  K is
        taken in one call, on every distinct stage abscissa (the u-nodes
        and the steps' midpoints, each as its step computes it) against
        every s, in the order the steps first reach them.
        Raises EllipticityError at the first focal point (h <= 0).
        """
        s = np.asarray(s_values, dtype=float)
        nu = self.u_nodes.size
        h = np.empty((nu, s.size))
        hu = np.empty((nu, s.size))
        h[self._i0] = 1.0
        hu[self._i0] = -np.asarray(self.surface.kappa(s), dtype=float)
        steps = [(j, j + 1) for j in range(self._i0, nu - 1)]
        steps += [(j, j - 1) for j in range(self._i0, 0, -1)]
        u0 = self.u_nodes[[j for j, _ in steps]]
        du = self.u_nodes[[j for _, j in steps]] - u0
        stages = np.stack([u0, u0 + du / 2, u0 + du], axis=1)
        distinct, first, at = np.unique(stages, return_index=True, return_inverse=True)
        order = np.argsort(first)  # the distinct abscissae as the steps reach them
        minus_k = -self.surface.gauss_curvature(*np.broadcast_arrays(s, distinct[order][:, None]))
        rows = np.argsort(order)[at.reshape(stages.shape)]

        for (j_from, j_to), d, (k0, k_half, k1) in zip(steps, du, rows):
            y1, y2 = h[j_from], hu[j_from]
            k1a, k1b = y2, minus_k[k0] * y1
            k2a, k2b = y2 + d / 2 * k1b, minus_k[k_half] * (y1 + d / 2 * k1a)
            k3a, k3b = y2 + d / 2 * k2b, minus_k[k_half] * (y1 + d / 2 * k2a)
            k4a, k4b = y2 + d * k3b, minus_k[k1] * (y1 + d * k3a)
            h[j_to] = y1 + d / 6 * (k1a + 2 * k2a + 2 * k3a + k4a)
            hu[j_to] = y2 + d / 6 * (k1b + 2 * k2b + 2 * k3b + k4b)
            bad = h[j_to] <= 0.0
            if bad.any():
                i = int(np.argmax(bad))
                raise EllipticityError(
                    f"focal point inside the strip: h <= 0 at "
                    f"(s={s[i]:g}, u={self.u_nodes[j_to]:g})",
                    where=(float(s[i]), float(self.u_nodes[j_to])),
                )
        return h, hu

    def _columns(self, s, u):
        """(h, h_u) at broadcast (s, u) points from one sweep and one Hermite pass."""
        u = self._split_u(u)[..., 0]
        s_b, u_b = np.broadcast_arrays(np.asarray(s, dtype=float), u)
        flat_s, flat_u = s_b.ravel(), u_b.ravel()
        if flat_u.size and (flat_u.min() < self.u_nodes[0] - 1e-12
                            or flat_u.max() > self.u_nodes[-1] + 1e-12):
            raise InputError("transverse coordinate outside the strip")

        uniq, rows = np.unique(flat_s, return_inverse=True)
        h_nodes, hu_nodes = self._sweep(uniq)

        j = np.clip(np.searchsorted(self.u_nodes, flat_u) - 1, 0, self.u_nodes.size - 2)
        du = self.u_nodes[j + 1] - self.u_nodes[j]
        t = (flat_u - self.u_nodes[j]) / du
        t2, t3 = t * t, t * t * t
        w0, w1 = 2 * t3 - 3 * t2 + 1, (t3 - 2 * t2 + t) * du
        w2, w3 = -2 * t3 + 3 * t2, (t3 - t2) * du
        h0, h1 = h_nodes[j, rows], h_nodes[j + 1, rows]
        hu0, hu1 = hu_nodes[j, rows], hu_nodes[j + 1, rows]
        K = self.surface.gauss_curvature
        h = w0 * h0 + w1 * hu0 + w2 * h1 + w3 * hu1
        h_u = (w0 * hu0 + w1 * (-K(flat_s, self.u_nodes[j]) * h0)
               + w2 * hu1 + w3 * (-K(flat_s, self.u_nodes[j + 1]) * h1))
        return h.reshape(s_b.shape), h_u.reshape(s_b.shape)

    def jet(self, s, u, fields=JET_FIELDS):
        """The requested fields from (h, h_u) at each stencil offset they reach.

        ``_columns`` runs once per offset k, at s + k ``_FD_STEP``: only
        k = 0 for h, ``dh``, ``hu_sq`` and ``lap_u`` = -K h, all 7 for
        ``h_sss``.  The s-derivatives are the stencils' sums over those
        columns; ``hu_sq_s`` differentiates h_u and ``lap_u_s`` -K h.
        """
        s = np.asarray(s, dtype=float)
        uu = self._split_u(u)[..., 0]
        K = self.surface.gauss_curvature
        step = self._FD_STEP
        at = cache(lambda k: s + k * step if k else s)
        columns = cache(lambda k: self._columns(at(k), u))

        def h(k):
            return columns(k)[0]

        def h_u(k):
            return columns(k)[1]

        def lap_u(k):
            return -K(at(k), uu) * h(k)

        def fd(stencil, power, fn):
            acc = 0.0
            for k, c in stencil:
                acc = acc + c * fn(k)
            return acc / step**power

        evaluate = {
            "h": lambda: h(0),
            "dh": lambda: h(0) - 1.0,
            "h_s": lambda: fd(self._D1, 1, h),
            "h_ss": lambda: fd(self._D2, 2, h),
            "h_sss": lambda: fd(self._D3, 3, h),
            "hu_sq": lambda: h_u(0) ** 2,
            "hu_sq_s": lambda: 2.0 * h_u(0) * fd(self._D1, 1, h_u),
            "lap_u": lambda: lap_u(0),
            "lap_u_s": lambda: fd(self._D1, 1, lap_u),
        }
        return {name: evaluate[name]() for name in fields}


def _jacobi_basis(K, u):
    """(C_K(u), S_K(u)): the Jacobi solutions with C = S' = 1, C' = S = 0 at u = 0.

    C_K' = -K S_K and S_K' = C_K for every K.
    """
    if K > 0.0:
        w = np.sqrt(K)
        return np.cos(w * u), np.sin(w * u) / w
    if K < 0.0:
        w = np.sqrt(-K)
        return np.cosh(w * u), np.sinh(w * u) / w
    return np.ones_like(u), u


class ConstantCurvatureStripMetric(TubeMetric):
    """Strip metric on a surface of constant Gauss curvature K, in closed form.

    h = C_K(u) - kappa(s) S_K(u) with C_K, S_K = cos, sin(sqrt(K) u)/sqrt(K)
    for K > 0, cosh, sinh(sqrt(-K) u)/sqrt(-K) for K < 0 and 1, u for
    K = 0.  The s-derivatives are -kappa^(n) S_K, h_u = C_K' - kappa S_K'
    and h_uu = -K h, all exact.  Every evaluation first checks the
    requested s for a focal point (h = 0) inside the strip.
    """

    source = "surface-strip"

    def __init__(self, surface: SurfaceData):
        super().__init__(surface.a, 2, surface.s_range)
        if not isinstance(surface.kappa, ScalarFunction):
            raise InputError("a constant Gauss curvature needs kappa as a ScalarFunction")
        self.K = float(surface.gauss_curvature)
        self.kappa = surface.kappa
        self.kappa1_sup = CurvatureProfile([surface.kappa], surface.s_range).kappa1_sup()

    def _focal_distance(self, k):
        """First zero of C_K - k S_K in u > 0 (inf if none), for k = |kappa|."""
        K = self.K
        with np.errstate(divide="ignore", over="ignore"):
            if K > 0.0:
                w = np.sqrt(K)
                return np.arctan2(w, k) / w
            if K < 0.0:
                w = np.sqrt(-K)
                return np.arctanh(np.minimum(w / k, 1.0)) / w
            return 1.0 / k

    def _curvatures(self, s):
        """(kappa(s), kappa^(n) at s, cached); raises at a focal point inside the strip."""
        s = np.asarray(s, dtype=float)
        k = self.kappa(s)
        d = self._focal_distance(np.abs(k))
        if np.any(d <= self.a):
            i = int(np.argmin(d))
            s_f, k_f, d_f = float(s.flat[i]), float(k.flat[i]), float(d.flat[i])
            u_f = d_f if k_f >= 0.0 else -d_f  # on the side where kappa u > 0
            raise EllipticityError(
                f"focal point inside the strip: h = 0 at (s={s_f:g}, u={u_f:g})",
                where=(s_f, u_f),
            )
        return k, cache(lambda order: self.kappa(s, order))

    def jet(self, s, u, fields=JET_FIELDS):
        """The requested fields from one focal check and one kappa^(n) per order n.

        ``dh`` = (C_K - 1) - kappa S_K is exact before rounding for K = 0,
        where C_K = 1; for K != 0, h - 1 tends to C_K - 1, not to 0.
        """
        return self._jet(*self._curvatures(s), u, fields)

    def _straight(self, s):
        """Straight where kappa^(0..3) are exactly 0: there h = C_K(u), whatever the s.

        The focal check and the kappa^(n) come in the jet's order, so
        that the first error is the jet's.
        """
        k, kappa = self._curvatures(s)
        straight = k == 0.0
        for order in (1, 2, 3):
            straight &= kappa(order) == 0.0

        def jet(keep, u, fields=JET_FIELDS):
            return self._jet(k[..., keep], cache(lambda order: kappa(order)[..., keep]), u, fields)

        return straight, jet

    def _jet(self, k, kappa, u, fields):
        C, S = _jacobi_basis(self.K, self._split_u(u)[..., 0])
        out = {}
        if "h" in fields or "lap_u" in fields:
            h = C - k * S
            if "h" in fields:
                out["h"] = h
            if "lap_u" in fields:
                out["lap_u"] = -self.K * h
        if "dh" in fields:
            out["dh"] = (C - 1.0) - k * S
        for order, name in ((1, "h_s"), (2, "h_ss"), (3, "h_sss")):
            if name in fields:
                out[name] = -kappa(order) * S
        if "hu_sq" in fields or "hu_sq_s" in fields:
            h_u = -self.K * S - k * C
            if "hu_sq" in fields:
                out["hu_sq"] = h_u**2
            if "hu_sq_s" in fields:
                out["hu_sq_s"] = -2.0 * h_u * kappa(1) * C
        if "lap_u_s" in fields:
            out["lap_u_s"] = -self.K * (out["h_s"] if "h_s" in out else -kappa(1) * S)
        return out


def metric_from_frames(profile, rotations, a):
    """Euclidean tube metric from curvature data and rotation samples."""
    return EuclideanTubeMetric(profile, rotations, a)


def metric_from_profile(profile, a):
    """Planar (d=2) shortcut: the rotation block is identically 1."""
    if profile.dimension != 2:
        raise InputError("metric_from_profile is the d=2 shortcut; pass rotations")
    return EuclideanTubeMetric(profile, None, a)


def metric_from_jacobi(surface):
    """Strip metric on a surface of Gauss curvature K.

    A number K gets the closed form (:class:`ConstantCurvatureStripMetric`).
    A callable K(s, u) is integrated (:class:`SurfaceStripMetric`) on 513
    evenly spaced u-nodes across the strip, at the exact requested s
    values within the surface's own ``s_range``.
    """
    if callable(surface.gauss_curvature):
        return SurfaceStripMetric(surface)
    return ConstantCurvatureStripMetric(surface)


@dataclass(frozen=True)
class EllipticityBounds:
    c_minus: float
    c_plus: float

    def __iter__(self):
        return iter((self.c_minus, self.c_plus))


def ellipticity_bounds(metric):
    """(inf h, sup h) over the tube.

    Euclidean tubes: 1 -+ a sup|kappa_1|, since h is affine in u and the
    rotation keeps the curvature vector's length.  Exact for intervals
    and discs, conservative for rectangles (a is the half-diagonal), and
    as good as ``kappa1_sup`` for curvatures without a declared sup.
    Strips of constant K: min and max over |u| <= a of
    C_K -+ sup|kappa| |S_K|, from the ends u = 0, a and the interior
    extrema in closed form; exact when kappa attains its sup, else
    conservative, like the tubes.  Other strips: min and max of h over
    the assumption gate's abscissae times its transverse probe, where
    the Jacobi sweep raises at any focal node.
    """
    if isinstance(metric, EuclideanTubeMetric):
        prod = metric.a * metric.kappa1_sup
        return EllipticityBounds(1.0 - prod, 1.0 + prod)
    if isinstance(metric, ConstantCurvatureStripMetric):
        return _constant_curvature_bounds(metric.K, metric.a, metric.kappa1_sup)
    s, probe = sample_abscissae(metric.s_range), _u_probe(metric.a, metric.dimension - 1)
    lows, highs = zip(*((v.min(), v.max()) for v in
                        (metric.jet(t, u, ("h",))["h"] for t, u in _probe_blocks(s, probe))))
    return EllipticityBounds(float(np.min(lows)), float(np.max(highs)))


def _constant_curvature_bounds(K, a, k):
    """min and max over |u| <= a of C_K -+ k |S_K|, for k >= 0."""
    C, S = (float(v) for v in _jacobi_basis(K, np.asarray(a, dtype=float)))
    low, high = [1.0, C - k * abs(S)], [1.0, C + k * abs(S)]
    w = np.sqrt(abs(K))
    if K > 0.0:
        # C_K -+ k S_K = r cos(w u +- phi) until S_K changes sign at u = pi/w
        r, phi = np.hypot(1.0, k / w), np.arctan(k / w)
        if w * a + phi >= np.pi:
            low.append(-r)
        if phi <= w * a:
            high.append(r)
    elif K < 0.0 and k < w and np.arctanh(k / w) < w * a:
        # C_K - k S_K has its minimum sqrt(1 - (k/w)^2) inside the strip
        low.append(np.sqrt(1.0 - (k / w) ** 2))
    return EllipticityBounds(float(min(low)), float(max(high)))


def export_metric_csv(metric, path, s_values, u_values):
    """Debug snapshot of (s, u, h, h_s, h_ss) on a tensor grid, from one jet over it."""
    import csv

    s_values = np.asarray(s_values, dtype=float)
    u_values = np.asarray(u_values, dtype=float)
    if u_values.ndim == 1:
        u_values = u_values[:, None]
    m = u_values.shape[1]
    fields = ("h", "h_s", "h_ss")
    jet = metric.jet(s_values[:, None], u_values[None], fields)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s"] + [f"u{mu}" for mu in range(2, m + 2)] + ["h", "h_1", "h_11"])
        for i, s in enumerate(s_values):
            for k, u in enumerate(u_values):
                writer.writerow(
                    [repr(float(s))]
                    + [repr(float(x)) for x in u]
                    + [repr(float(jet[name][i, k])) for name in fields]
                )
