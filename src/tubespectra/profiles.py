"""Curvature data for infinite curves.

A curve in R^d is described here purely by its d-1 curvature functions
kappa_i(s) of the arclength parameter; no parametric curve data is ever
differentiated.  A :class:`CurvatureProfile` bundles those functions with
derivative access (analytic for the built-in families, finite-difference
for tabulated data) and provides the skew generator matrices that drive
the moving-frame ODEs:

* ``frenet_matrix`` -- the full d x d bidiagonal skew matrix,
* ``sub_block``     -- its lower-right (d-1) x (d-1) block (rows/columns
  2..d), which generates the transverse rotation,
* ``first_column``  -- the first-column entries (rows 2..d), the only part
  of the generator that feeds the tube metric.

All evaluators accept scalars or numpy arrays of arclength values.
"""

from __future__ import annotations

import numpy as np

from .assumptions import sample_abscissae
from .errors import InputError

__all__ = [
    "ScalarFunction",
    "CurvatureProfile",
    "constant_function",
    "gaussian_bump",
    "power_tail",
    "tabulated_function",
]


class ScalarFunction:
    """A scalar function of arclength with derivatives up to ``max_order``.

    ``derivatives[n]`` is a vectorized callable returning the n-th
    derivative.  Requesting a higher order than declared is an error, per
    the availability contract of the profile.  ``sup_abs``, when known,
    is sup|f| over the whole line (an upper bound on any sub-range).
    """

    def __init__(self, derivatives, label="kappa", sup_abs=None):
        self._derivatives = tuple(derivatives)
        self.label = label
        self.sup_abs = None if sup_abs is None else float(sup_abs)

    @property
    def max_order(self):
        return len(self._derivatives) - 1

    def __call__(self, s, order=0):
        if order < 0 or order > self.max_order:
            raise InputError(
                f"{self.label}: derivative order {order} exceeds declared "
                f"availability {self.max_order}"
            )
        return np.asarray(self._derivatives[order](np.asarray(s, dtype=float)))


def constant_function(value, max_order=3):
    """kappa(s) = value, all derivatives zero."""
    value = float(value)

    def _const(s):
        return np.full_like(np.asarray(s, dtype=float), value)

    def _zero(s):
        return np.zeros_like(np.asarray(s, dtype=float))

    return ScalarFunction([_const] + [_zero] * max_order, label=f"const({value})",
                          sup_abs=abs(value))


def gaussian_bump(kappa0, sigma=1.0):
    """kappa(s) = kappa0 * exp(-(s/sigma)^2), derivatives to third order."""
    kappa0 = float(kappa0)
    sigma = float(sigma)
    if sigma <= 0:
        raise InputError("gaussian bump needs sigma > 0")

    def d0(s):
        return kappa0 * np.exp(-((s / sigma) ** 2))

    def d1(s):
        t = s / sigma
        return kappa0 * np.exp(-t * t) * (-2.0 * t) / sigma

    def d2(s):
        t = s / sigma
        return kappa0 * np.exp(-t * t) * (4.0 * t * t - 2.0) / sigma**2

    def d3(s):
        t = s / sigma
        return kappa0 * np.exp(-t * t) * (-8.0 * t**3 + 12.0 * t) / sigma**3

    return ScalarFunction([d0, d1, d2, d3], label=f"gaussian({kappa0},{sigma})",
                          sup_abs=abs(kappa0))


def power_tail(kappa0, sigma=1.0, p=2.0):
    """kappa(s) = kappa0 * (1 + (s/sigma)^2)^(-p/2), tail ~ |s|^-p."""
    kappa0 = float(kappa0)
    sigma = float(sigma)
    p = float(p)
    if sigma <= 0 or p <= 0:
        raise InputError("power tail needs sigma > 0 and p > 0")

    def d0(s):
        t = s / sigma
        return kappa0 * (1.0 + t * t) ** (-p / 2.0)

    def d1(s):
        t = s / sigma
        return -kappa0 * p * t * (1.0 + t * t) ** (-p / 2.0 - 1.0) / sigma

    def d2(s):
        t = s / sigma
        w = 1.0 + t * t
        return -kappa0 * p * w ** (-p / 2.0 - 2.0) * (1.0 - (p + 1.0) * t * t) / sigma**2

    def d3(s):
        t = s / sigma
        w = 1.0 + t * t
        return (
            kappa0
            * p
            * (p + 2.0)
            * t
            * w ** (-p / 2.0 - 3.0)
            * (3.0 - (p + 1.0) * t * t)
            / sigma**3
        )

    return ScalarFunction([d0, d1, d2, d3], label=f"powertail({kappa0},{sigma},{p})",
                          sup_abs=abs(kappa0))


# Fourth-order centered / second-order one-sided first-derivative stencils.
_FD4_CENTER = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_FD2_LEFT = np.array([-3.0, 4.0, -1.0]) / 2.0


def _differentiate_samples(values, step):
    """First derivative of equally spaced samples.

    Order-4 centered differences on the interior, order-2 one-sided at the
    two ends (the second/penultimate points fall back to order-2 centered).
    """
    n = values.shape[0]
    if n < 5:
        raise InputError("need at least 5 samples to differentiate")
    out = np.empty_like(values)
    out[2:-2] = (
        _FD4_CENTER[0] * values[:-4]
        + _FD4_CENTER[1] * values[1:-3]
        + _FD4_CENTER[3] * values[3:-1]
        + _FD4_CENTER[4] * values[4:]
    ) / step
    out[0] = np.dot(_FD2_LEFT, values[:3]) / step
    out[-1] = -np.dot(_FD2_LEFT, values[-1:-4:-1]) / step
    out[1] = (values[2] - values[0]) / (2.0 * step)
    out[-2] = (values[-1] - values[-3]) / (2.0 * step)
    return out


class NotAKnotSpline:
    """The not-a-knot cubic spline through (x, y), along y's first axis.

    Coefficient for coefficient scipy's ``CubicSpline(x, y, axis=0)``:
    the slopes solve its banded system by ``scipy.linalg.solve_banded``,
    the pieces are its Hermite cubics, and a piece is evaluated in
    ``PPoly``'s order, c3 + c2 z + c1 z^2 + c0 z^3 summed left to right,
    on its half-open interval (the last one closed), and beyond the knots
    by the end pieces.  Needs at least 4 strictly increasing knots.
    """

    def __init__(self, x, y):
        from scipy.linalg import solve_banded

        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = x.size
        if x.ndim != 1 or n < 4 or y.shape[0] != n:
            raise InputError("a cubic spline needs at least 4 knots, one per sample")
        dx = np.diff(x)
        if not np.all(dx > 0):
            raise InputError("spline knots must be strictly increasing")
        dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dxr
        band = np.zeros((3, n))
        rhs = np.empty(y.shape)
        band[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        band[0, 2:] = dx[:-1]
        band[-1, :-2] = dx[1:]
        rhs[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        # not-a-knot: the third derivative is continuous at x[1] and x[-2]
        band[1, 0] = dx[1]
        band[0, 1] = d = x[2] - x[0]
        rhs[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
        band[1, -1] = dx[-2]
        band[-1, -2] = d = x[-1] - x[-3]
        rhs[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
        m = solve_banded((1, 1), band, rhs.reshape(n, -1), overwrite_ab=True,
                         overwrite_b=True, check_finite=False).reshape(y.shape)
        t = (m[:-1] + m[1:] - 2 * slope) / dxr
        self.x = x
        self.c = (t / dxr, (slope - m[:-1]) / dxr - t, m[:-1], y[:-1])

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        i = np.clip(np.searchsorted(self.x, s, side="right") - 1, 0, self.x.size - 2)
        z = (s - self.x[i]).reshape(s.shape + (1,) * (self.c[0].ndim - 1))
        c0, c1, c2, c3 = (c[i] for c in self.c)
        zz = z * z
        return 0.0 + c3 + c2 * z + c1 * zz + c0 * (zz * z)

    def critical_points(self):
        """The zeros of each piece's derivative on its interval, as ``PPoly.derivative().roots()`` finds them.

        Each derivative quadratic 3 c0 z^2 + 2 c1 z + c2 (a line if c0 is 0)
        takes the cancellation-free root formula, a pair of complex roots
        with imaginary part within 1e-10 counts as a double real root, and
        each root takes one Newton step.  A piece whose derivative is
        identically 0 has no isolated zero, and contributes none.
        """
        c0, c1, c2, _ = self.c
        lead, mid, const = 3.0 * c0, 2.0 * c1, c2
        with np.errstate(all="ignore"):
            disc = mid * mid - 4 * lead * const
            root = np.sqrt(np.abs(disc))
            vertex = -mid / (2 * lead)
            near = np.where(disc == 0, vertex, np.where(
                mid < 0, (2 * const) / (-mid + root), (-mid - root) / (2 * lead)))
            far = np.where(disc == 0, vertex, np.where(
                mid < 0, (-mid + root) / (2 * lead), (2 * const) / (-mid - root)))
            complex_pair = np.where(np.abs(root / (2 * lead)) <= 1e-10, vertex, np.nan)
            near = np.where(disc < 0, complex_pair, near)
            far = np.where(disc < 0, complex_pair, far)
            line = np.where(mid != 0, -const / mid, np.nan)
            out = []
            for z in (np.where(lead != 0, near, line), np.where(lead != 0, far, np.nan)):
                f = 0.0 + const + mid * z + lead * (z * z)
                df = 0.0 + mid + lead * z * 2.0
                step = f / df
                z = np.where((df != 0) & (np.abs(step) < np.abs(z)), z - step, z) + self.x[:-1]
                out.append(z[(z >= self.x[:-1]) & (z <= self.x[1:])])
        return np.concatenate(out)


def tabulated_function(s_samples, values, max_order=3, label="table"):
    """Build a ScalarFunction from equally spaced samples.

    Derivatives are obtained by repeated finite differencing of the sample
    arrays and each derivative is interpolated with a not-a-knot cubic
    spline (:class:`NotAKnotSpline`), so the accuracy drops with the
    order; ``max_order`` caps what callers may ask for.  The declared
    sup is the largest |value| over the samples and over the spline's
    critical points between them, where it may overshoot them.
    """
    s_samples = np.asarray(s_samples, dtype=float)
    values = np.asarray(values, dtype=float)
    if s_samples.ndim != 1 or s_samples.shape != values.shape:
        raise InputError("tabulated samples must be two matching 1-d arrays")
    steps = np.diff(s_samples)
    if not np.all(steps > 0):
        raise InputError("tabulated s samples must be strictly increasing")
    if not np.allclose(steps, steps[0], rtol=1e-8):
        raise InputError("tabulated samples must be equally spaced")
    step = float(steps[0])

    arrays = [values]
    for _ in range(max_order):
        arrays.append(_differentiate_samples(arrays[-1], step))

    splines = [NotAKnotSpline(s_samples, a) for a in arrays]
    lo, hi = s_samples[0], s_samples[-1]

    def make_eval(spline):
        def _eval(s):
            s = np.asarray(s, dtype=float)
            if np.any(s < lo) or np.any(s > hi):
                raise InputError("evaluation outside tabulated range")
            return spline(s)

        return _eval

    critical = splines[0](splines[0].critical_points())
    sup = max(np.max(np.abs(values)), np.max(np.abs(critical), initial=0.0))
    fn = ScalarFunction([make_eval(sp) for sp in splines], label=label, sup_abs=sup)
    fn.sample_grid = s_samples
    return fn


class CurvatureProfile:
    """The d-1 curvatures of an infinite curve, with derivative access.

    Parameters
    ----------
    kappas : sequence of ScalarFunction
        kappa_1 .. kappa_{d-1}.  kappa_1 must supply derivatives to third
        order and the higher curvatures to second order; violations are
        reported lazily when the missing order is requested.
    s_range : (float, float)
        Closed arclength interval on which the profile may be evaluated.
    """

    def __init__(self, kappas, s_range):
        kappas = tuple(kappas)
        if not kappas:
            raise InputError("need at least one curvature function (d >= 2)")
        lo, hi = float(s_range[0]), float(s_range[1])
        if not lo < hi:
            raise InputError("s_range must be a nondegenerate interval")
        self.kappas = kappas
        self.s_range = (lo, hi)

    @property
    def dimension(self):
        """Ambient dimension d."""
        return len(self.kappas) + 1

    def kappa(self, i, s, order=0):
        """i-th curvature (1-based) or one of its derivatives."""
        if not 1 <= i <= len(self.kappas):
            raise InputError(f"curvature index {i} out of range 1..{len(self.kappas)}")
        return self.kappas[i - 1](s, order)

    def _check_range(self, s):
        s = np.asarray(s, dtype=float)
        lo, hi = self.s_range
        if s.size and (s.min() < lo - 1e-12 or s.max() > hi + 1e-12):
            raise InputError("arclength outside declared s_range")
        return s

    def frenet_matrix(self, s, order=0):
        """Full d x d skew generator K(s); batched over the shape of s.

        Only the super/sub-diagonals are nonzero and K + K^T = 0 holds
        exactly by construction.
        """
        s = self._check_range(s)
        d = self.dimension
        out = np.zeros(s.shape + (d, d))
        for i in range(1, d):
            val = self.kappa(i, s, order)
            out[..., i - 1, i] = val
            out[..., i, i - 1] = -val
        return out

    def sub_block(self, s, order=0):
        """The (d-1) x (d-1) block of K over rows/columns 2..d, from kappa_2.. alone."""
        s = self._check_range(s)
        m = self.dimension - 1
        out = np.zeros(s.shape + (m, m))
        for i in range(1, m):
            val = self.kappa(i + 1, s, order)
            out[..., i - 1, i] = val
            out[..., i, i - 1] = -val
        return out

    def first_column(self, s, order=0):
        """Entries K_alpha^1 for alpha = 2..d, i.e. (-kappa_1, 0, ..., 0)."""
        s = self._check_range(s)
        out = np.zeros(s.shape + (self.dimension - 1,))
        out[..., 0] = -self.kappa(1, s, order)
        return out

    def kappa1_sup(self):
        """sup|kappa_1| over s_range.

        The supremum kappa_1 declares (``ScalarFunction.sup_abs``) when it
        has one: |kappa0| for gaussian bumps and power tails (an upper
        bound when s_range misses the peak at 0), |value| for constants,
        and for tables the largest |kappa_1| over the samples and the
        spline's critical points between them, where it may overshoot
        them.  Otherwise the maximum of |kappa_1| on the
        assumption gate's abscissae (``assumptions.sample_abscissae``),
        which can miss a peak narrower than their spacing there.
        """
        sup = self.kappas[0].sup_abs
        if sup is None:
            s = sample_abscissae(self.s_range)
            sup = float(np.max(np.abs(self.kappas[0](s))))
        return sup
