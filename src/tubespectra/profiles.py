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


def tabulated_function(s_samples, values, max_order=3, label="table"):
    """Build a ScalarFunction from equally spaced samples.

    Derivatives are obtained by repeated finite differencing of the sample
    arrays and each derivative is interpolated with a cubic spline, so the
    accuracy drops with the order; ``max_order`` caps what callers may ask
    for.
    """
    from scipy.interpolate import CubicSpline

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

    splines = [CubicSpline(s_samples, a, extrapolate=False) for a in arrays]
    lo, hi = s_samples[0], s_samples[-1]

    def make_eval(spline):
        def _eval(s):
            s = np.asarray(s, dtype=float)
            if np.any(s < lo) or np.any(s > hi):
                raise InputError("evaluation outside tabulated range")
            return spline(s)

        return _eval

    # the spline can overshoot its samples: its sup is over them and over
    # its critical points between them (nan follows a constant piece)
    critical = splines[0].derivative().roots()
    critical = critical[np.isfinite(critical)]
    sup = max(np.max(np.abs(values)), np.max(np.abs(splines[0](critical)), initial=0.0))
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
        """The (d-1) x (d-1) block of K over rows/columns 2..d."""
        return self.frenet_matrix(s, order)[..., 1:, 1:]

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
