import numpy as np
import pytest

from tubespectra import (
    BELOW_LOWEST_THRESHOLD,
    CoverageError,
    CrossSection,
    InputError,
    ThresholdSet,
    cross_section_spectrum,
    rho_of_lambda,
)


def test_interval_spectrum_analytic():
    th = cross_section_spectrum(CrossSection.interval(1.0), 3)
    assert np.allclose(th.nu, (np.pi**2 / 4, np.pi**2, 9 * np.pi**2 / 4), rtol=1e-14)
    assert th.exactness == ("analytic",) * 3
    # half width 1/2 quadruples everything
    th_half = cross_section_spectrum(CrossSection.interval(0.5), 1)
    assert th_half.nu1 == pytest.approx(np.pi**2, rel=1e-14)


def test_unit_square_spectrum_with_multiplicity():
    th = cross_section_spectrum(CrossSection.rectangle(1.0, 1.0), 4)
    assert th.nu1 == pytest.approx(2 * np.pi**2, rel=1e-14)
    # the (1,2)/(2,1) pair is doubly degenerate
    assert th.nu[1] == pytest.approx(5 * np.pi**2, rel=1e-14)
    assert th.nu[2] == pytest.approx(5 * np.pi**2, rel=1e-14)
    assert th.nu[3] == pytest.approx(8 * np.pi**2, rel=1e-14)


def test_disc_spectrum_against_scipy_bessel_zeros():
    from scipy.special import jn_zeros

    radius = 1.3
    th = cross_section_spectrum(CrossSection.disc(radius), 8)
    # reference list with multiplicity two for m >= 1
    ref = []
    for m in range(6):
        for z in jn_zeros(m, 4):
            ref.extend([(z / radius) ** 2] * (1 if m == 0 else 2))
    ref = sorted(ref)[:8]
    assert np.allclose(th.nu, ref, rtol=1e-12)


def test_scaling_law_for_thresholds():
    for factor in (0.5, 2.0, 3.0):
        th1 = cross_section_spectrum(CrossSection.interval(1.0), 5)
        thc = cross_section_spectrum(CrossSection.interval(factor), 5)
        assert np.allclose(np.array(thc.nu), np.array(th1.nu) / factor**2, rtol=1e-10)
        r1 = cross_section_spectrum(CrossSection.rectangle(1.0, 2.0), 5)
        rc = cross_section_spectrum(CrossSection.rectangle(factor, 2 * factor), 5)
        assert np.allclose(np.array(rc.nu), np.array(r1.nu) / factor**2, rtol=1e-10)


def test_threshold_set_invariants():
    with pytest.raises(InputError):
        ThresholdSet((-1.0, 2.0), ("analytic", "analytic"))
    with pytest.raises(InputError):
        ThresholdSet((2.0, 1.0), ("analytic", "analytic"))
    with pytest.raises(InputError):
        ThresholdSet((), ())


def test_rho_examples(interval_thresholds):
    th = interval_thresholds
    nu1, nu2 = th.nu[0], th.nu[1]
    assert rho_of_lambda(th, nu1) == pytest.approx(0.0, abs=1e-14)
    assert rho_of_lambda(th, 0.5 * (nu1 + nu2)) == pytest.approx(
        0.5 * (nu2 - nu1), rel=1e-14
    )
    assert rho_of_lambda(th, 0.5 * (nu1 + nu2)) == pytest.approx(3 * np.pi**2 / 8)
    marker = rho_of_lambda(th, nu1 - 1.0)
    assert marker is BELOW_LOWEST_THRESHOLD
    assert not isinstance(marker, float)


def test_rho_coverage_error(interval_thresholds):
    with pytest.raises(CoverageError):
        rho_of_lambda(interval_thresholds, interval_thresholds.nu[-1] + 1.0)


def test_rho_against_brute_force(interval_thresholds):
    th = interval_thresholds
    rng = np.random.default_rng(11)
    lams = rng.uniform(0.0, th.nu[-1] * 0.99, size=200)
    for lam in lams:
        got = rho_of_lambda(th, lam)
        below = [z for z in th.nu if z <= lam]
        if not below:
            assert got is BELOW_LOWEST_THRESHOLD
        else:
            assert got == pytest.approx(lam - max(below), abs=1e-12)
            assert got >= 0.0
    # rho vanishes exactly on the threshold set
    for z in th.nu[:-1]:
        assert rho_of_lambda(th, z) == pytest.approx(0.0, abs=1e-12)
