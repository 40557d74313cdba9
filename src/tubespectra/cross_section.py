"""Dirichlet spectrum of the cross-section and the threshold set.

The eigenvalues nu_1 < nu_2 <= ... of the Dirichlet Laplacian on the
bounded cross-section omega are the energies where new transverse
channels open; nu_1 is the onset of the essential spectrum and the whole
list forms the threshold set.  The supported shapes, intervals,
rectangles and discs, are all solved analytically (disc via Bessel zeros
found by bracketed root refinement).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, InputError

__all__ = [
    "CrossSection",
    "ThresholdSet",
    "BelowLowestThreshold",
    "BELOW_LOWEST_THRESHOLD",
    "cross_section_spectrum",
    "rho_of_lambda",
]


class BelowLowestThreshold:
    """Tagged +infinity returned by rho below the first threshold.

    A dedicated type (never a float sentinel) so the piecewise definition
    of rho cannot be confused with a huge finite value.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance


BELOW_LOWEST_THRESHOLD = BelowLowestThreshold()


@dataclass(frozen=True)
class CrossSection:
    """Bounded open connected cross-section omega in R^(d-1).

    ``kind`` is one of interval | rectangle | disc.  ``a`` is
    sup_{u in omega} |u| with the centre of mass at the origin.
    """

    kind: str
    dim: int
    a: float
    params: tuple = ()

    @staticmethod
    def interval(a):
        if a <= 0:
            raise InputError("interval half-width must be positive")
        return CrossSection(kind="interval", dim=1, a=float(a), params=(float(a),))

    @staticmethod
    def rectangle(lx, ly):
        if lx <= 0 or ly <= 0:
            raise InputError("rectangle sides must be positive")
        a = 0.5 * float(np.hypot(lx, ly))
        return CrossSection(kind="rectangle", dim=2, a=a, params=(float(lx), float(ly)))

    @staticmethod
    def disc(radius):
        if radius <= 0:
            raise InputError("disc radius must be positive")
        return CrossSection(kind="disc", dim=2, a=float(radius), params=(float(radius),))


@dataclass(frozen=True)
class ThresholdSet:
    """Nondecreasing transverse eigenvalues with exactness tags."""

    nu: tuple
    exactness: tuple  # per entry: 'analytic' | 'discretized'

    def __post_init__(self):
        if len(self.nu) != len(self.exactness):
            raise InputError("nu and exactness must have equal length")
        if not self.nu:
            raise InputError("threshold set cannot be empty")
        arr = np.asarray(self.nu)
        if arr[0] <= 0:
            raise InputError("nu_1 must be positive")
        if np.any(np.diff(arr) < -1e-12):
            raise InputError("thresholds must be nondecreasing")

    @property
    def nu1(self):
        return self.nu[0]


def _interval_spectrum(a, n_max):
    nu = [(n * np.pi / (2.0 * a)) ** 2 for n in range(1, n_max + 1)]
    return ThresholdSet(tuple(nu), ("analytic",) * n_max)


def _rectangle_spectrum(lx, ly, n_max):
    # heap enumeration of pi^2 (m^2/lx^2 + n^2/ly^2) with multiplicity
    def val(m, n):
        return np.pi**2 * ((m / lx) ** 2 + (n / ly) ** 2)

    heap = [(val(1, 1), 1, 1)]
    seen = {(1, 1)}
    out = []
    while len(out) < n_max:
        v, m, n = heapq.heappop(heap)
        out.append(v)
        for m2, n2 in ((m + 1, n), (m, n + 1)):
            if (m2, n2) not in seen:
                seen.add((m2, n2))
                heapq.heappush(heap, (val(m2, n2), m2, n2))
    return ThresholdSet(tuple(out), ("analytic",) * n_max)


# scan steps per evaluation of J_order over an array
_SCAN = 32


def _bessel_zeros(order):
    """The positive zeros of J_order, in increasing order, by scan + bracketed root.

    Scanning step pi/8 cannot skip a zero (consecutive zeros of J_m are
    more than pi/2 apart); each bracket is polished to ~1e-13.  The scan
    abscissae are accumulated one step at a time, and J_order is taken
    on ``_SCAN`` steps of them at once.
    """
    from scipy.optimize import brentq
    from scipy.special import jv

    step = np.pi / 8.0
    x = max(order, 1e-3)
    while True:
        xs = np.cumsum(np.r_[x, np.full(_SCAN, step)])
        f = jv(order, xs)
        for j in np.flatnonzero((f[:-1] == 0.0) | (f[:-1] * f[1:] < 0.0)):
            if f[j] == 0.0:
                yield float(xs[j])
            else:
                yield brentq(lambda t: jv(order, t), xs[j], xs[j + 1], xtol=1e-13, rtol=1e-15)
        x = float(xs[-1])


def _disc_spectrum(radius, n_max):
    # nu = (j_{m,k}/R)^2, multiplicity 2 for m >= 1 (sin/cos branches).
    # Order m >= 1 is scanned only up to its first value past the current
    # n_max-th one: no larger value can enter the n_max lowest
    values = [(z / radius) ** 2 for _, z in zip(range(n_max), _bessel_zeros(0))]
    m = 1
    while True:
        cap = values[n_max - 1]
        vals = []
        for _, z in zip(range(n_max), _bessel_zeros(m)):
            vals.append((z / radius) ** 2)
            if vals[-1] > cap:
                break
        if vals[0] > cap:
            break
        values = sorted(values + [v for v in vals for _ in range(2)])[:n_max]
        m += 1
    return ThresholdSet(tuple(values), ("analytic",) * n_max)


def cross_section_spectrum(omega, n_max):
    """Lowest ``n_max`` Dirichlet eigenvalues of omega, with multiplicity."""
    if n_max < 1:
        raise InputError("n_max must be at least 1")
    if omega.kind == "interval":
        return _interval_spectrum(omega.params[0], n_max)
    if omega.kind == "rectangle":
        return _rectangle_spectrum(*omega.params, n_max)
    if omega.kind == "disc":
        return _disc_spectrum(omega.params[0], n_max)
    raise InputError(f"unknown cross-section kind {omega.kind!r}")


def rho_of_lambda(thresholds, lam):
    """Distance from lam down to the nearest threshold below it.

    rho(lam) = lam - sup{zeta in T : zeta <= lam}; below nu_1 the value is
    the tagged infinity.  Raises CoverageError when lam reaches the last
    known threshold, since an unknown larger one could then lie below lam.
    """
    lam = float(lam)
    nu = np.asarray(thresholds.nu)
    if lam < nu[0]:
        return BELOW_LOWEST_THRESHOLD
    if lam >= nu[-1]:
        raise CoverageError(
            f"lambda={lam:g} is not bracketed by the threshold list "
            f"(last known {nu[-1]:g}); extend n_max"
        )
    return lam - float(nu[nu <= lam].max())
