import numpy as np
import pytest

from tubespectra import (
    CurvatureProfile,
    EllipticityError,
    InputError,
    constant_function,
    gaussian_bump,
    metric_from_profile,
    power_tail,
    tabulated_function,
)


def fd_derivative(fn, s, order, step=1e-3):
    """High-order finite-difference oracle for small orders."""
    if order == 1:
        return (fn(s - 2 * step) - 8 * fn(s - step) + 8 * fn(s + step) - fn(s + 2 * step)) / (
            12 * step
        )
    if order == 2:
        return (
            -fn(s - 2 * step)
            + 16 * fn(s - step)
            - 30 * fn(s)
            + 16 * fn(s + step)
            - fn(s + 2 * step)
        ) / (12 * step**2)
    if order == 3:
        return (
            fn(s - 3 * step) / 8
            - fn(s - 2 * step)
            + 13 * fn(s - step) / 8
            - 13 * fn(s + step) / 8
            + fn(s + 2 * step)
            - fn(s + 3 * step) / 8
        ) / step**3
    raise ValueError(order)


@pytest.mark.parametrize(
    "fn",
    [
        gaussian_bump(0.5, 1.3),
        power_tail(0.7, 2.0, 1.5),
        power_tail(0.4, 1.0, 0.5),
    ],
    ids=["gaussian", "powertail-1.5", "powertail-0.5"],
)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_family_derivatives_match_finite_differences(fn, order):
    s = np.linspace(-4.0, 4.0, 41)
    # larger step for higher orders keeps the oracle's roundoff term small
    step = {1: 1e-3, 2: 1e-3, 3: 1e-2}[order]
    expected = fd_derivative(lambda x: fn(x), s, order, step=step)
    assert np.allclose(fn(s, order), expected, rtol=1e-5, atol=1e-6)


def test_constant_function_derivatives_vanish():
    fn = constant_function(0.3)
    s = np.linspace(-5, 5, 11)
    assert np.all(fn(s) == 0.3)
    for order in (1, 2, 3):
        assert np.all(fn(s, order) == 0.0)


def test_derivative_order_beyond_declared_is_an_error():
    fn = gaussian_bump(1.0)
    with pytest.raises(InputError):
        fn(0.0, 4)


def test_tabulated_profile_matches_analytic_derivatives():
    s = np.linspace(-8.0, 8.0, 1601)
    exact = gaussian_bump(0.5, 1.0)
    fn = tabulated_function(s, exact(s))
    probe = np.linspace(-4.0, 4.0, 57)
    assert np.allclose(fn(probe), exact(probe), atol=1e-9)
    assert np.allclose(fn(probe, 1), exact(probe, 1), atol=1e-5)
    assert np.allclose(fn(probe, 2), exact(probe, 2), atol=1e-3)
    # third derivative degrades but must still track the analytic one
    assert np.allclose(fn(probe, 3), exact(probe, 3), atol=2e-2)


def test_tabulated_profile_input_validation():
    s = np.linspace(0, 1, 64)
    with pytest.raises(InputError):
        tabulated_function(s, np.ones(63))
    with pytest.raises(InputError):
        tabulated_function(s[::-1], np.ones(64))
    fn = tabulated_function(s, np.ones(64))
    with pytest.raises(InputError):
        fn(2.0)


def test_kappa1_sup_combines_samples_and_declared_bound():
    from tubespectra.profiles import ScalarFunction

    bump = gaussian_bump(0.9, 0.25)
    assert CurvatureProfile([bump], (-1e4, 1e4)).kappa1_sup() == 0.9
    # no declared sup: sampled on the gate's abscissae, which resolve the
    # peak at s = 0 even at s_max = 1e4 (evenly spaced samples gave 0.2)
    undeclared = ScalarFunction([bump])
    prof = CurvatureProfile([undeclared], (-1e4, 1e4))
    assert prof.kappa1_sup() == pytest.approx(0.9, abs=1e-9)


@pytest.mark.parametrize(
    "fn, sup",
    [
        # evenly spaced samples over +-1e4 miss these peaks (0.82, 0.27)
        (gaussian_bump(0.9, 1.0), 0.9),
        (gaussian_bump(1.2, 0.25), 1.2),
        (power_tail(-0.7, 0.1, 3.0), 0.7),
        (constant_function(-0.4), 0.4),
    ],
)
def test_kappa1_sup_of_the_families_is_exact(fn, sup):
    assert CurvatureProfile([fn], (-1e4, 1e4)).kappa1_sup() == sup


def _fine_max_abs(fn, lo, hi):
    """max |fn| on a grid of step (hi - lo) 1e-5, refined as finely again at its argmax."""
    x = np.linspace(lo, hi, 100_001)
    at = x[np.argmax(np.abs(fn(x)))]
    x = np.linspace(max(lo, at - 2e-5 * (hi - lo)), min(hi, at + 2e-5 * (hi - lo)), 100_001)
    return np.max(np.abs(fn(x)))


def test_kappa1_sup_of_a_table_is_its_spline_maximum():
    # the peak at 0.05 lies between two samples, and so does the spline's
    s = np.linspace(-5.0, 5.0, 101)
    fn = tabulated_function(s, -0.6 * np.exp(-((s - 0.05) ** 2)))
    sup = CurvatureProfile([fn], (s[0], s[-1])).kappa1_sup()
    assert sup > np.max(np.abs(fn(s)))
    assert sup == pytest.approx(_fine_max_abs(fn, s[0], s[-1]), rel=1e-12, abs=0.0)


def test_a_table_whose_spline_overshoots_the_curvature_bound_is_refused():
    # every sample keeps a sup|kappa_1| = 0.95 < 1, but the spline through the
    # two samples at 0.95 rises above 1: h = 1 - kappa u falls below 0 there
    s = np.linspace(-2.0, 2.0, 41)
    fn = tabulated_function(s, np.where((s > -0.01) & (s < 0.11), 0.95, 0.0))
    assert np.max(np.abs(fn(s))) < 1.0 < _fine_max_abs(fn, s[0], s[-1])
    profile = CurvatureProfile([fn], (s[0], s[-1]))
    assert profile.kappa1_sup() == pytest.approx(_fine_max_abs(fn, s[0], s[-1]), rel=1e-12)
    with pytest.raises(EllipticityError, match="a \\* sup\\|kappa_1\\|"):
        metric_from_profile(profile, 1.0)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_the_spline_is_scipys_cubic_spline_bit_for_bit_on_the_rotation_grid():
    # the d = 3 metric's rotation: 2049 samples of 2 x 2 matrices over +-1e4
    from scipy.interpolate import CubicSpline

    from tubespectra import integrate_tang_rotation
    from tubespectra.profiles import NotAKnotSpline

    prof = CurvatureProfile([gaussian_bump(0.5), gaussian_bump(0.3)], (-1e4, 1e4))
    rot = integrate_tang_rotation(prof, np.linspace(-1e4, 1e4, 2049))
    ours, ref = NotAKnotSpline(rot.s_grid, rot.matrices), CubicSpline(rot.s_grid, rot.matrices)
    for k in range(4):
        assert np.array_equal(_bits(ours.c[k]), _bits(ref.c[k]))
    rng = np.random.default_rng(0)
    s = np.concatenate([rot.s_grid, rng.uniform(-1e4, 1e4, 4000), rng.uniform(-30.0, 30.0, 4000)])
    assert ours(s).shape == (s.size, 2, 2)
    assert np.array_equal(_bits(ours(s)), _bits(ref(s)))
    assert np.array_equal(_bits(ours(s[:7].reshape(7, 1))), _bits(ref(s[:7].reshape(7, 1))))


@pytest.mark.parametrize("values", [
    lambda s: 0.5 * np.exp(-s * s),
    lambda s: -0.6 * np.exp(-((s - 0.05) ** 2)),
    lambda s: np.where((s > -0.01) & (s < 0.11), 0.95, 0.0),
    lambda s: 0.1 * np.random.default_rng(142).normal(size=s.size),  # its sup needs the Newton step
], ids=["digest-table", "off-sample-peak", "overshoot", "noise"])
def test_a_table_is_scipys_cubic_spline_bit_for_bit_and_so_is_its_sup(values):
    from scipy.interpolate import CubicSpline

    from tubespectra.profiles import _differentiate_samples

    s = np.arange(-160, 161) * 0.25
    fn = tabulated_function(s, values(s))
    arrays = [values(s)]
    for _ in range(3):
        arrays.append(_differentiate_samples(arrays[-1], 0.25))
    refs = [CubicSpline(s, a, extrapolate=False) for a in arrays]
    x = np.concatenate([s, np.random.default_rng(1).uniform(-40.0, 40.0, 4000)])
    for order, ref in enumerate(refs):
        assert np.array_equal(_bits(fn(x, order)), _bits(ref(x)))
    critical = refs[0].derivative().roots()
    critical = critical[np.isfinite(critical)]
    sup = max(np.max(np.abs(arrays[0])), np.max(np.abs(refs[0](critical)), initial=0.0))
    assert _bits(fn.sup_abs) == _bits(sup)


def test_a_spline_needs_four_increasing_knots():
    from tubespectra.profiles import NotAKnotSpline

    with pytest.raises(InputError, match="4 knots"):
        NotAKnotSpline(np.arange(3.0), np.ones(3))
    with pytest.raises(InputError, match="strictly increasing"):
        NotAKnotSpline(np.array([0.0, 1.0, 1.0, 2.0]), np.ones(4))


def test_frenet_matrix_is_skew_and_bidiagonal():
    prof = CurvatureProfile(
        [gaussian_bump(0.5), constant_function(0.2), constant_function(0.1)],
        (-10, 10),
    )
    s = np.linspace(-3, 3, 7)
    K = prof.frenet_matrix(s)
    assert K.shape == (7, 4, 4)
    assert np.max(np.abs(K + np.swapaxes(K, -1, -2))) == 0.0
    off = np.abs(K).sum(axis=0)
    for i in range(4):
        for j in range(4):
            if abs(i - j) != 1:
                assert off[i, j] == 0.0
    # sub block drops the first row/column, first column holds -kappa_1
    assert np.allclose(prof.first_column(s)[:, 0], -prof.kappa(1, s))
    assert np.allclose(prof.sub_block(s)[:, 0, 1], prof.kappa(2, s))


def test_evaluation_outside_range_is_an_error():
    prof = CurvatureProfile([gaussian_bump(0.5)], (-5, 5))
    with pytest.raises(InputError):
        prof.frenet_matrix(np.array([6.0]))
    with pytest.raises(InputError):
        prof.kappa(3, 0.0)
