import numpy as np
import pytest

from tubespectra import (
    CheckerConfig,
    ConstantCurvatureStripMetric,
    CurvatureProfile,
    EllipticityError,
    EuclideanTubeMetric,
    InputError,
    SurfaceData,
    SurfaceStripMetric,
    constant_function,
    check_metric_hypotheses,
    ellipticity_bounds,
    gaussian_bump,
    integrate_tang_rotation,
    metric_from_frames,
    metric_from_jacobi,
    metric_from_profile,
)
from tubespectra.metric import export_metric_csv
from conftest import jet_field, random_smooth_profile


def test_planar_metric_is_one_minus_kappa_u(bump_profile, bump_metric):
    s = np.linspace(-3, 3, 17)
    u = np.linspace(-0.9, 0.9, 7)
    S, U = np.meshgrid(s, u, indexing="ij")
    kap = bump_profile.kappa(1, S)
    jet = bump_metric.jet(S, U)
    assert np.allclose(jet["h"], 1.0 - kap * U, atol=1e-15)
    for order, name in ((1, "h_s"), (2, "h_ss"), (3, "h_sss")):
        assert np.allclose(jet[name], -bump_profile.kappa(1, S, order) * U, atol=1e-15)
    assert np.allclose(jet["hu_sq"], kap**2, atol=1e-15)
    assert np.allclose(jet["lap_u"], 0.0)


def test_straight_tube_metric_is_identically_one(straight_profile):
    m = metric_from_profile(straight_profile, 1.0)
    s = np.linspace(-5, 5, 11)
    u = np.full_like(s, 0.3)
    assert np.all(jet_field(m, "h", s, u) == 1.0)
    for name in ("h_s", "h_ss", "h_sss", "hu_sq", "hu_sq_s", "lap_u", "lap_u_s"):
        assert np.all(jet_field(m, name, s, u) == 0.0)


@pytest.mark.parametrize("tau_kind", ["constant", "varying"])
def test_spatial_metric_matches_rotation_angle_formula(tau_kind):
    # alpha' = tau; h = 1 - kappa (u2 cos(alpha) + u3 sin(alpha))
    kappa0 = 0.4
    if tau_kind == "constant":
        tau = constant_function(0.2)
        alpha_of = lambda s: 0.2 * s
    else:
        from tubespectra.profiles import ScalarFunction

        tau = ScalarFunction(
            [
                lambda s: 0.3 * np.cos(s),
                lambda s: -0.3 * np.sin(s),
                lambda s: -0.3 * np.cos(s),
            ]
        )
        alpha_of = lambda s: 0.3 * np.sin(s)
    prof = CurvatureProfile([constant_function(kappa0), tau], (-20, 20))
    s_grid = np.linspace(-12, 12, 1537)
    rot = integrate_tang_rotation(prof, s_grid)
    metric = metric_from_frames(prof, rot, a=1.0)
    s = np.linspace(-8, 8, 33)
    u = np.array([0.35, -0.55])
    expected = 1.0 - kappa0 * (
        u[0] * np.cos(alpha_of(s)) + u[1] * np.sin(alpha_of(s))
    )
    got = jet_field(metric, "h", s, np.broadcast_to(u, s.shape + (2,)))
    assert np.allclose(got, expected, atol=1e-8)


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_s_derivatives_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    prof = random_smooth_profile(rng, dimension=d, max_kappa=0.4)
    if d == 2:
        metric = metric_from_profile(prof, 0.8)
    else:
        s_grid = np.linspace(-10, 10, 4001)
        metric = metric_from_frames(prof, integrate_tang_rotation(prof, s_grid), 0.8)
    s = np.linspace(-4.0, 4.0, 9)
    u = rng.uniform(-0.4, 0.4, size=(9, d - 1))
    delta = 1e-2

    def fd1(name):
        def f(s):
            return jet_field(metric, name, s, u)

        return (f(s - 2 * delta) - 8 * f(s - delta)
                + 8 * f(s + delta) - f(s + 2 * delta)) / (12 * delta)

    for name, of, tol in (("h_s", "h", 5e-8), ("h_ss", "h_s", 5e-8), ("h_sss", "h_ss", 5e-7),
                          ("hu_sq_s", "hu_sq", 5e-8)):
        assert np.allclose(jet_field(metric, name, s, u), fd1(of), atol=tol)


def test_affine_in_u_is_exact(bump_metric):
    s = np.linspace(-2, 2, 5)
    u = np.linspace(0.1, 0.9, 5)
    for lam in (0.0, 0.25, 0.5, 1.0):
        lhs = jet_field(bump_metric, "h", s, lam * u) - 1.0
        rhs = lam * (jet_field(bump_metric, "h", s, u) - 1.0)
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-15)


def test_ellipticity_violation_is_rejected_at_construction():
    prof = CurvatureProfile([constant_function(1.0)], (-5, 5))
    with pytest.raises(EllipticityError) as err:
        metric_from_profile(prof, 1.0)
    assert err.value.where == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# strips via the transverse Jacobi equation


def flat_surface(kappa_fn, a=1.0, s_range=(-1e4, 1e4)):
    return SurfaceData(
        gauss_curvature=lambda s, u: np.zeros(np.broadcast_shapes(np.shape(s), np.shape(u))),
        kappa=kappa_fn,
        a=a,
        s_range=s_range,
    )


def const_surface(value, kappa_fn=lambda s: np.zeros_like(np.asarray(s, float)),
                  a=1.0):
    return SurfaceData(
        gauss_curvature=lambda s, u: np.full(np.broadcast_shapes(np.shape(s), np.shape(u)), value),
        kappa=kappa_fn,
        a=a,
        s_range=(-20.0, 20.0),
    )


def test_flat_strip_reproduces_affine_metric():
    kap = gaussian_bump(0.5, 1.0)
    metric = metric_from_jacobi(flat_surface(lambda s: kap(s)))
    s = np.linspace(-4, 4, 23)
    u = np.linspace(-1, 1, 29)  # includes off-node values
    S, U = np.meshgrid(s, u, indexing="ij")
    assert np.max(np.abs(jet_field(metric, "h", S, U) - (1.0 - kap(S) * U))) < 1e-10


def test_positively_curved_strip_gives_cosine():
    metric = metric_from_jacobi(const_surface(1.0))
    s = np.zeros(17)
    u = np.linspace(-1, 1, 17)
    assert np.max(np.abs(jet_field(metric, "h", s, u) - np.cos(u))) < 1e-8


def test_negatively_curved_strip_gives_cosh():
    metric = metric_from_jacobi(const_surface(-1.0))
    s = np.zeros(17)
    u = np.linspace(-1, 1, 17)
    assert np.max(np.abs(jet_field(metric, "h", s, u) - np.cosh(u))) < 1e-8


def test_jacobi_superposition_in_the_initial_slope():
    kap = gaussian_bump(0.4, 1.5)
    k_of = lambda s: kap(s)
    minus_k = lambda s: -kap(s)
    zero_k = lambda s: np.zeros_like(np.asarray(s, float))
    surfs = [const_surface(0.5, kappa_fn=f) for f in (k_of, minus_k, zero_k)]
    metrics = [metric_from_jacobi(s_) for s_ in surfs]
    s = np.linspace(-3, 3, 9)
    u = np.linspace(-0.9, 0.9, 11)
    S, U = np.meshgrid(s, u, indexing="ij")
    h_plus = jet_field(metrics[0], "h", S, U)
    h_minus = jet_field(metrics[1], "h", S, U)
    h_zero = jet_field(metrics[2], "h", S, U)
    assert np.max(np.abs(h_plus + h_minus - 2.0 * h_zero)) < 1e-9


def test_flat_strip_s_derivatives_match_curvature_closed_form():
    kap = gaussian_bump(0.5, 1.0)
    metric = metric_from_jacobi(flat_surface(lambda s: kap(s)))
    s = np.linspace(-3, 3, 13)
    u = np.linspace(-0.8, 0.8, 7)
    S, U = np.meshgrid(s, u, indexing="ij")
    assert np.allclose(jet_field(metric, "h_s", S, U), -kap(S, 1) * U, atol=1e-8)
    assert np.allclose(jet_field(metric, "h_ss", S, U), -kap(S, 2) * U, atol=1e-7)
    assert np.allclose(jet_field(metric, "h_sss", S, U), -kap(S, 3) * U, atol=1e-6)
    assert np.allclose(jet_field(metric, "hu_sq", S, U), kap(S) ** 2, atol=1e-9)
    assert np.allclose(jet_field(metric, "lap_u", S, U), 0.0, atol=1e-12)


def test_focal_point_inside_strip_is_an_ellipticity_error():
    surf = const_surface(1.0, a=2.0)  # cos(u) vanishes at pi/2 < 2
    metric = metric_from_jacobi(surf)
    with pytest.raises(EllipticityError):
        jet_field(metric, "h", np.zeros(3), np.array([0.0, 1.0, 1.9]))


@pytest.mark.parametrize("K", [-1.0, 0.0, 0.5])
def test_constant_curvature_closed_form_matches_the_jacobi_sweep(K):
    kap = gaussian_bump(0.4, 1.0)
    closed = metric_from_jacobi(SurfaceData(K, kap, 1.0, (-20.0, 20.0)))
    swept = metric_from_jacobi(const_surface(K, kappa_fn=kap))
    assert isinstance(closed, ConstantCurvatureStripMetric)
    assert isinstance(swept, SurfaceStripMetric)  # a callable K still runs the sweep
    s = np.linspace(-3, 3, 13)
    u = np.linspace(-1, 1, 29)  # includes off-node values
    S, U = np.meshgrid(s, u, indexing="ij")
    # the sweep's s-derivatives are order-4 differences with step 1e-2,
    # off by O(step^4) = O(1e-8) times a derivative of kappa
    for name, tol in (("h", 1e-9), ("hu_sq", 1e-9), ("lap_u", 1e-9), ("h_s", 5e-8),
                      ("hu_sq_s", 5e-8), ("lap_u_s", 5e-8), ("h_ss", 5e-8),
                      ("h_sss", 1e-6)):
        err = np.max(np.abs(jet_field(closed, name, S, U) - jet_field(swept, name, S, U)))
        assert err <= tol, (name, err)


def test_constant_curvature_focal_point_is_located_exactly():
    metric = metric_from_jacobi(SurfaceData(3.0, gaussian_bump(-0.5, 1.0), 1.0, (-20.0, 20.0)))
    with pytest.raises(EllipticityError, match="focal point") as err:
        jet_field(metric, "h", np.linspace(-1, 1, 5), np.zeros(5))
    # kappa(0) = -0.5 < 0 puts the focal point on the u < 0 side
    w = np.sqrt(3.0)
    assert err.value.where == pytest.approx((0.0, -np.arctan2(w, 0.5) / w), abs=1e-15)


def test_constant_curvature_needs_kappa_derivatives():
    with pytest.raises(InputError):
        metric_from_jacobi(SurfaceData(0.0, lambda s: 0.0 * s, 1.0, (-5.0, 5.0)))


def varying_surface():
    """K = 0.3 e^(-s^2) (1 + u/2) under kappa = 0.5 e^(-s^2): the sweep, not a closed form."""
    def K(s, u):
        return 0.3 * np.exp(-np.asarray(s) ** 2) * (1.0 + np.asarray(u) / 2.0)

    return SurfaceData(K, gaussian_bump(0.5, 1.0), 1.0, (-300.0, 300.0))


def test_a_strip_jet_sweeps_once_per_stencil_offset(monkeypatch):
    metric = metric_from_jacobi(varying_surface())
    sweeps = []
    sweep = SurfaceStripMetric._sweep

    def counted(self, s_values):
        sweeps.append(s_values[0])
        return sweep(self, s_values)

    monkeypatch.setattr(SurfaceStripMetric, "_sweep", counted)
    s = np.linspace(-3.0, 3.0, 2048)[None, :]
    u = np.broadcast_to(np.linspace(-1.0, 1.0, 9)[:, None], (9, 2048))
    metric.jet(s, u)
    # the order-4 stencils reach s + k 1e-2 for k = -3 .. 3
    assert np.allclose(np.sort(sweeps), -3.0 + 1e-2 * np.arange(-3, 4), rtol=0, atol=1e-12)
    sweeps.clear()
    metric.jet(s, u, ("h",))
    assert sweeps == [-3.0]


def test_a_sweep_takes_the_gauss_curvature_once(monkeypatch):
    # on every stage abscissa at once: the u-nodes and the steps' midpoints
    surface = varying_surface()
    shapes = []

    def counted(s, u):
        shapes.append(np.broadcast_shapes(np.shape(s), np.shape(u)))
        return surface.gauss_curvature(s, u)

    metric = metric_from_jacobi(SurfaceData(counted, surface.kappa, surface.a, surface.s_range))
    sweep, calls = SurfaceStripMetric._sweep, []

    def counted_sweep(self, s_values):
        before = len(shapes)
        out = sweep(self, s_values)
        calls.append((len(shapes) - before, shapes[-1]))
        return out

    monkeypatch.setattr(SurfaceStripMetric, "_sweep", counted_sweep)
    metric.jet(np.linspace(-3.0, 3.0, 40)[:, None], np.linspace(-1.0, 1.0, 9)[None, :])
    # one sweep per stencil offset, each with one call on 2 x 256 steps' abscissae
    assert calls == [(1, (2 * metric.u_nodes.size - 1, 40))] * 7


def test_the_integrated_strip_keeps_no_sweep_after_the_gate():
    import tracemalloc

    metric = metric_from_jacobi(varying_surface())
    cfg = CheckerConfig(tail_samples=256, linear_samples=257)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        check_metric_hypotheses(metric, cfg)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # one block of 769 abscissae: each of its 7 sweeps holds 6.3 MB
    assert retained < 1e6


# ---------------------------------------------------------------------------
# ellipticity bounds


def test_bounds_straight_tube(straight_profile):
    m = metric_from_profile(straight_profile, 1.0)
    b = ellipticity_bounds(m)
    assert b.c_minus == pytest.approx(1.0, abs=1e-12)
    assert b.c_plus == pytest.approx(1.0, abs=1e-12)


def test_bounds_constant_curvature_analytic_window():
    prof = CurvatureProfile([constant_function(0.5)], (-10, 10))
    m = metric_from_profile(prof, 1.0)
    b = ellipticity_bounds(m)
    assert (b.c_minus, b.c_plus) == (0.5, 1.5)


@pytest.mark.parametrize("sigma", [1.0, 0.25])
def test_bounds_of_a_bump_at_the_default_s_max_are_exact(sigma):
    # sampled over +-1e4, these bumps gave c- = 1.0 (the truth is 0.1)
    prof = CurvatureProfile([gaussian_bump(0.9, sigma)], (-1e4, 1e4))
    assert tuple(ellipticity_bounds(metric_from_profile(prof, 1.0))) == (1 - 0.9, 1 + 0.9)


def test_bounds_positively_curved_strip():
    metric = metric_from_jacobi(const_surface(1.0))
    b = ellipticity_bounds(metric)
    assert b.c_minus == pytest.approx(np.cos(1.0), abs=1e-6)
    assert b.c_plus == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "K,kappa0",
    [(0.0, 0.5), (-1.0, 0.4), (0.5, 0.4), (2.0, 0.2), (-0.25, 0.3)],
    ids=["flat", "interior-min", "interior-max", "near-focal", "cosh"],
)
def test_constant_curvature_strip_bounds_are_exact(K, kappa0):
    metric = metric_from_jacobi(SurfaceData(K, gaussian_bump(kappa0, 1.0), 1.0, (-1e4, 1e4)))
    b = ellipticity_bounds(metric)
    # h(0, u) over |u| <= a runs through C_K -+ sup|kappa| |S_K| on both sides
    h = jet_field(metric, "h", np.zeros(1), np.linspace(-1.0, 1.0, 200001))
    assert (b.c_minus, b.c_plus) == pytest.approx((h.min(), h.max()), abs=1e-10)


def test_metric_csv_export(tmp_path, bump_metric):
    path = tmp_path / "metric.csv"
    export_metric_csv(bump_metric, path, np.linspace(-1, 1, 3), np.linspace(-0.5, 0.5, 3))
    lines = path.read_text().strip().split("\n")
    assert lines[0].split(",") == ["s", "u2", "h", "h_1", "h_11"]
    assert len(lines) == 1 + 9


def test_metric_csv_export_takes_one_jet_over_the_grid(tmp_path, bump_metric, monkeypatch):
    jets = []
    jet = EuclideanTubeMetric.jet

    def counted(self, s, u, fields):
        jets.append(fields)
        return jet(self, s, u, fields)

    monkeypatch.setattr(EuclideanTubeMetric, "jet", counted)
    s, u = np.linspace(-2.0, 2.0, 5), np.linspace(-0.5, 0.5, 3)
    path = tmp_path / "metric.csv"
    export_metric_csv(bump_metric, path, s, u)
    assert jets == [("h", "h_s", "h_ss")]
    # a jet at each point gives every cell, to the last digit
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert rows == [
        [repr(float(x)) for x in (a, b, *(jet_field(bump_metric, name, a, [b])
                                          for name in ("h", "h_s", "h_ss")))]
        for a in s for b in u
    ]
