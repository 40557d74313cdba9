#!/usr/bin/env python3
"""Regenerate the LAPACK reference eigenvalue for the bent-strip case.

The acceptance suite pins the lowest eigenvalue of the reference bent
strip (kappa(s) = 0.5 exp(-s^2), half-width 1) against a value computed
by an independent solver.  This script reproduces that number: it
assembles the Hamiltonian on [-64, 64] x (-1, 1) at spacings 1/6 and 1/8,
takes the three lowest eigenvalues with LAPACK's banded symmetric
eigensolver (scipy.linalg.eig_banded: band-to-tridiagonal reduction and
bisection, no Lanczos, no shift-invert), and Richardson-extrapolates the
lowest one at second order with step ratio 4/3.

Runs in about half a minute on one core with about 70 MB peak memory:
the operator is banded, its half-bandwidth the transverse node count.
Result frozen in tests/test_acceptance.py:

    DENSE_REFERENCE_BENT_STRIP = 2.46616275
"""

import time

import scipy.linalg as la

from tubespectra import (
    CurvatureProfile,
    TruncatedGrid,
    assemble_hamiltonian,
    gaussian_bump,
    metric_from_profile,
)
from tubespectra.spectral import lower_band


def main():
    profile = CurvatureProfile([gaussian_bump(0.5, 1.0)], (-1e4, 1e4))
    metric = metric_from_profile(profile, 1.0)

    values = {}
    for inv in (6, 8):
        grid = TruncatedGrid.interval(64.0, 1.0 / inv, 1.0)
        op = assemble_hamiltonian(metric, grid)
        t0 = time.time()
        w = la.eig_banded(lower_band(op.matrix), lower=True, eigvals_only=True,
                          select="i", select_range=(0, 2))
        values[inv] = w
        print(f"spacing 1/{inv}: n={op.shape[0]} lowest={w[0]:.9f} "
              f"({time.time() - t0:.0f}s)", flush=True)

    r2 = (8.0 / 6.0) ** 2
    ext = values[8] + (values[8] - values[6]) / (r2 - 1.0)
    print("extrapolated lowest three:", ext)
    print(f"DENSE_REFERENCE_BENT_STRIP = {ext[0]:.8f}")


if __name__ == "__main__":
    main()
