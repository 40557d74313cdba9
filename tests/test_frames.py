import numpy as np
import pytest
from scipy.linalg import expm

import tubespectra.frames as frames_module
from tubespectra import (
    CurvatureProfile,
    InputError,
    IntegrationError,
    ResolutionError,
    SurfaceData,
    TruncatedGrid,
    constant_function,
    gaussian_bump,
    integrate_frenet,
    integrate_tang_rotation,
    build_frame_field,
    check_self_overlap,
    export_mesh,
    metric_from_jacobi,
    tube_embedding,
)
from conftest import assert_frame_invariants, random_smooth_profile


def profile_d2(fn, span=50.0):
    return CurvatureProfile([fn], (-span, span))


def test_straight_line_frame_is_constant():
    prof = profile_d2(constant_function(0.0))
    s = np.linspace(-5, 5, 41)
    ff = integrate_frenet(prof, s)
    assert np.allclose(ff.frames, np.eye(2), atol=1e-14)
    expected = np.stack([s, np.zeros_like(s)], axis=1)
    assert np.allclose(ff.points, expected, atol=1e-12)


def test_unit_circle_closes():
    prof = CurvatureProfile([constant_function(1.0)], (-1.0, 2 * np.pi + 1.0))
    s = np.linspace(0.0, 2 * np.pi, 513)
    ff = integrate_frenet(prof, s)
    assert np.linalg.norm(ff.points[-1] - ff.points[0]) < 1e-6
    assert_frame_invariants(ff)


def test_rk4_convergence_order_on_circle():
    prof = CurvatureProfile([constant_function(1.0)], (-1.0, 2 * np.pi + 1.0))
    errs = []
    for n in (65, 129):
        s = np.linspace(0.0, 2 * np.pi, n)
        ff = integrate_frenet(prof, s)
        errs.append(np.linalg.norm(ff.points[-1] - ff.points[0]))
    ratio = errs[0] / errs[1]
    assert 8.0 < ratio < 32.0  # quartic order: halving the step gains ~16x


def test_helix_against_matrix_exponential_oracle():
    kappa0, tau0 = 0.4, 0.25
    prof = CurvatureProfile(
        [constant_function(kappa0), constant_function(tau0)], (-30, 30)
    )
    s = np.linspace(0.0, 20.0, 1281)
    ff = integrate_frenet(prof, s)
    K = prof.frenet_matrix(np.array(0.0))
    for idx in (320, 640, 1280):
        exact = expm(s[idx] * K)  # rows evolve by the constant generator
        assert np.allclose(ff.frames[idx], exact, atol=1e-8)

    # unit speed and curvature of the numerical curve
    h = s[1] - s[0]
    p = ff.points
    dp = (p[:-4] - 8 * p[1:-3] + 8 * p[3:-1] - p[4:]) / (12 * h)
    speeds = np.linalg.norm(dp, axis=1)
    assert np.max(np.abs(speeds - 1.0)) < 1e-6
    d2p = (-p[:-4] + 16 * p[1:-3] - 30 * p[2:-2] + 16 * p[3:-1] - p[4:]) / (12 * h**2)
    assert np.max(np.abs(np.linalg.norm(d2p, axis=1) - kappa0)) < 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_frame_invariants_on_random_profiles(seed):
    rng = np.random.default_rng(seed)
    prof = random_smooth_profile(rng, dimension=rng.integers(2, 5))
    s = np.linspace(-8, 8, 257)
    ff = build_frame_field(prof, s)
    assert_frame_invariants(ff)


@pytest.mark.parametrize(
    "keyword", ["anchr", "anchor", "r0", "clearance", "u_grid", "t_spacing"]
)
def test_frame_field_rejects_unknown_keywords(keyword):
    # a misspelt keyword, then one removed keyword per geometry-layer entry point
    bump, s = profile_d2(gaussian_bump(0.5)), np.linspace(-4, 4, 65)
    flat = SurfaceData(lambda s, u: np.zeros_like(s), lambda s: 0.0 * s, 1.0, (-5.0, 5.0))
    calls = {
        "anchr": lambda kw: build_frame_field(bump, s, **kw),
        "anchor": lambda kw: integrate_frenet(bump, s, **kw),
        "r0": lambda kw: integrate_tang_rotation(bump, s, **kw),
        "clearance": lambda kw: check_self_overlap(
            tube_embedding(integrate_frenet(bump, s), np.zeros(1), radius=0.5), **kw
        ),
        "u_grid": lambda kw: metric_from_jacobi(flat, **kw),
        "t_spacing": lambda kw: TruncatedGrid.interval(4.0, 0.5, 1.0, **kw),
    }
    with pytest.raises(TypeError):
        calls[keyword]({keyword: 0.5})


def test_tang_frame_derivative_identities():
    rng = np.random.default_rng(3)
    prof = random_smooth_profile(rng, dimension=3)
    s = np.linspace(-6, 6, 769)
    ff = build_frame_field(prof, s)
    tang = ff.tang_frames
    h = s[1] - s[0]
    dt = (tang[2:] - tang[:-2]) / (2 * h)
    kap = prof.kappa(1, s[1:-1])
    # d(e~_1)/ds = kappa_1 e_2
    lhs = dt[:, 0, :]
    rhs = kap[:, None] * ff.frames[1:-1, 1, :]
    assert np.max(np.abs(lhs - rhs)) < 20 * h**2
    # d(e~_mu)/ds = -kappa_1 R_mu^2 e_1
    for mu in range(1, 3):
        lhs = dt[:, mu, :]
        rhs = -kap[:, None] * ff.rotations[1:-1, mu - 1, 0][:, None] * ff.frames[1:-1, 0, :]
        assert np.max(np.abs(lhs - rhs)) < 20 * h**2


def test_tang_rotation_d2_is_scalar_one():
    prof = profile_d2(gaussian_bump(0.8))
    s = np.linspace(-5, 5, 65)
    rot = integrate_tang_rotation(prof, s)
    assert np.allclose(rot.matrices, 1.0, atol=1e-14)


def test_tang_rotation_d3_integrates_torsion():
    tau0 = 0.2
    prof = CurvatureProfile(
        [constant_function(0.3), constant_function(tau0)], (-50, 50)
    )
    s = np.linspace(-40, 40, 5121)  # step 1/64
    rot = integrate_tang_rotation(prof, s)
    assert np.max(frames_module._orthogonality_defects(rot.matrices)) < 1e-10
    assert np.max(np.abs(np.linalg.det(rot.matrices) - 1.0)) < 1e-10
    alpha = np.unwrap(np.arctan2(rot.matrices[:, 1, 0], rot.matrices[:, 0, 0]))
    alpha -= alpha[s.size // 2]
    assert np.max(np.abs(alpha - tau0 * s)) < 1e-8


def test_tang_rotation_d4_zero_curvatures_keeps_r0():
    # R(0) is pinned to the identity; with no curvature it never moves
    prof = CurvatureProfile([constant_function(0.0)] * 3, (-10, 10))
    s = np.linspace(-5, 5, 33)
    rot = integrate_tang_rotation(prof, s)
    assert np.allclose(rot.matrices, np.eye(3), atol=1e-13)


def test_bad_initial_data_is_rejected():
    prof = profile_d2(constant_function(0.1))
    with pytest.raises(InputError):
        integrate_frenet(prof, np.array([0.0, 0.5, 0.5]))


def test_wild_generator_on_coarse_grid_raises_integration_error():
    prof = profile_d2(constant_function(500.0), span=10.0)
    with pytest.raises(IntegrationError):
        integrate_frenet(prof, np.linspace(0.0, 4.0, 3))


def test_wild_generator_on_the_backward_side_names_its_s():
    # only the interval (0, -4) over-drifts; the forward side is fine-stepped
    prof = profile_d2(constant_function(500.0), span=10.0)
    with pytest.raises(IntegrationError) as exc:
        integrate_frenet(prof, np.r_[-4.0, np.linspace(0.0, 0.05, 101)])
    assert exc.value.s == -4.0


def _sequential_rk4(rhs, s_grid, y0, block):
    """One RK4 step per grid interval, marched from arclength 0 outwards.

    An interval whose state drifts more than 1e-3 from orthogonality is
    redone with doubled substeps, up to 8; the leading ``block`` rows are
    then projected onto the nearest rotation.  Returns the states and
    ``{s: substeps}`` for every interval that needed more than one.
    """
    states, retried = np.empty((s_grid.size,) + y0.shape), {}
    states[s_grid == 0.0] = y0
    for side in (np.flatnonzero(s_grid > 0), np.flatnonzero(s_grid < 0)[::-1]):
        s0, y = 0.0, y0
        for idx in side:
            s1, sub = s_grid[idx], 1
            while True:
                h, z = (s1 - s0) / sub, y
                for m in range(sub):
                    s = s0 + m * h
                    k1 = rhs(s, z)
                    k2 = rhs(s + 0.5 * h, z + 0.5 * h * k1)
                    k3 = rhs(s + 0.5 * h, z + 0.5 * h * k2)
                    k4 = rhs(s + h, z + h * k3)
                    z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                b = z[:block]
                if np.max(np.abs(b @ b.T - np.eye(block))) <= 1e-3:
                    break
                sub *= 2
                if sub > 8:
                    raise IntegrationError("drift", s=s1)
            if sub > 1:
                retried[float(s1)] = sub
            u, _, vt = np.linalg.svd(b)
            z[:block] = u @ vt
            states[idx], s0, y = z, s1, z
    return states, retried


def _sequential_frenet(prof, s):
    d = prof.dimension

    def rhs(t, y):
        return np.vstack([prof.frenet_matrix(t) @ y[:d], y[:1]])
    return _sequential_rk4(rhs, s, np.vstack([np.eye(d), np.zeros((1, d))]), d)


def _sequential_rotation(prof, s):
    return _sequential_rk4(lambda t, y: -(y @ prof.sub_block(t)), s,
                           np.eye(prof.dimension - 1), prof.dimension - 1)


def _relative_gap(got, want):
    return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("dimension", [2, 3, 4])
def test_batched_march_matches_the_sequential_projected_march(dimension):
    prof = random_smooth_profile(np.random.default_rng(dimension), dimension=dimension)
    s = np.linspace(-8, 8, 257)
    ff = build_frame_field(prof, s)
    states, retried = _sequential_frenet(prof, s)
    rot, rot_retried = _sequential_rotation(prof, s)
    assert not retried and not rot_retried
    assert _relative_gap(ff.frames, states[:, :dimension]) < 1e-13
    assert _relative_gap(ff.points, states[:, dimension]) < 1e-13
    assert _relative_gap(ff.rotations, rot) < 1e-13


def test_metric_rotation_grid_retries_exactly_the_two_bump_intervals(monkeypatch):
    # the d=3 euclidean-tube rotation grid of cli.build_metric, on rect-tube's curvatures
    prof = CurvatureProfile([gaussian_bump(0.5), gaussian_bump(0.3)], (-1e4, 1e4))
    s = np.linspace(-1e4, 1e4, 2049)
    calls, propagate = [], frames_module._rk4_propagators

    def recording(generator, s0, s1, substeps):
        calls.append((substeps, tuple(s1)))
        return propagate(generator, s0, s1, substeps)

    monkeypatch.setattr(frames_module, "_rk4_propagators", recording)
    rot = integrate_tang_rotation(prof, s)
    expected, retried = _sequential_rotation(prof, s)
    edge = s[1025]  # 9.77, the first node past 0
    assert retried == {edge: 8, -edge: 8}
    assert calls[1:] == [(sub, (edge, -edge)) for sub in (2, 4, 8)]
    assert _relative_gap(rot.matrices, expected) < 1e-13
    # the Frenet march over-drifts there even at 8 substeps, first at +edge
    with pytest.raises(IntegrationError) as batched:
        integrate_frenet(prof, s)
    with pytest.raises(IntegrationError) as sequential:
        _sequential_frenet(prof, s)
    assert batched.value.s == sequential.value.s == edge


def test_straight_tube_embedding_gives_parallel_lines():
    prof = profile_d2(constant_function(0.0))
    s = np.linspace(-3, 3, 61)
    ff = integrate_frenet(prof, s)
    cloud = tube_embedding(ff, np.array([-0.5, 0.5]), radius=0.5)
    pts = cloud.reshaped_points()
    assert np.allclose(pts[:, 0, 1], -0.5)
    assert np.allclose(pts[:, 1, 1], 0.5)
    assert np.allclose(pts[:, 0, 0], s)
    # s-major ordering
    assert np.allclose(cloud.s[:2], s[0])


def test_circle_centreline_embeds_on_unit_circle():
    prof = CurvatureProfile([constant_function(1.0)], (-1, 2 * np.pi + 1))
    s = np.linspace(0, 2 * np.pi, 257)
    ff = integrate_frenet(prof, s)
    cloud = tube_embedding(ff, np.array([0.0]), radius=0.2)
    centre = np.array([0.0, 1.0])  # starts at origin heading +x, bending left
    radii = np.linalg.norm(cloud.points - centre, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-7


def test_embedding_isometry_in_transverse_directions():
    prof = CurvatureProfile(
        [constant_function(0.3), constant_function(0.2)], (-20, 20)
    )
    s = np.linspace(-10, 10, 101)
    ff = build_frame_field(prof, s)
    ang = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    u = 0.4 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    cloud = tube_embedding(ff, u, radius=0.4)
    pts = cloud.reshaped_points()
    for k in range(s.size):
        dist = np.linalg.norm(pts[k] - ff.points[k][None, :], axis=1)
        assert np.allclose(dist, 0.4, atol=1e-10)


def test_embedding_rejects_points_outside_radius():
    prof = profile_d2(constant_function(0.0))
    ff = integrate_frenet(prof, np.linspace(0, 1, 9))
    with pytest.raises(InputError):
        tube_embedding(ff, np.array([1.5]), radius=1.0)


def _circle_cloud(laps, a=0.2, n_per_lap=512):
    total = 2 * np.pi * laps
    prof = CurvatureProfile([constant_function(1.0)], (-1, total + 1))
    s = np.linspace(0, total, int(n_per_lap * laps) + 1)
    ff = integrate_frenet(prof, s)
    u = np.array([-a, 0.0, a])
    return tube_embedding(ff, u, radius=a)


def test_straight_tube_has_no_overlap():
    prof = profile_d2(constant_function(0.0))
    s = np.linspace(-6, 6, 241)
    ff = integrate_frenet(prof, s)
    cloud = tube_embedding(ff, np.array([-0.3, 0.0, 0.3]), radius=0.3)
    result = check_self_overlap(cloud)
    assert result.overlap_free
    assert result.pairs.shape == (0, 2)


def test_circle_traced_twice_is_detected_with_arc_separation_2pi():
    cloud = _circle_cloud(laps=2)
    result = check_self_overlap(cloud)
    assert not result.overlap_free
    assert result.pairs.shape[0] > 0
    # offending pairs cluster around whole laps (within the clearance halo)
    laps = result.arc_separations / (2 * np.pi)
    assert np.all(np.abs(laps - np.round(laps)) < 0.1)
    assert np.min(result.arc_separations) == pytest.approx(2 * np.pi, abs=0.5)


def test_gentle_bump_tube_is_overlap_free_and_matches_brute_force():
    prof = profile_d2(gaussian_bump(0.3), span=20.0)
    s = np.linspace(-8, 8, 321)
    ff = integrate_frenet(prof, s)
    a = 0.5
    cloud = tube_embedding(ff, np.array([-a, 0.0, a]), radius=a)
    result = check_self_overlap(cloud)
    assert result.overlap_free

    # brute-force all-pairs oracle on the same cloud
    pts = cloud.points
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    sep = np.abs(cloud.s[:, None] - cloud.s[None, :])
    far = sep > result.min_arc_separation
    assert np.sqrt(d2[far].min()) > result.clearance


def test_under_resolved_cloud_is_refused():
    cloud = _circle_cloud(laps=1, n_per_lap=16)
    with pytest.raises(ResolutionError):
        check_self_overlap(cloud)


def test_mesh_export_layout(tmp_path):
    prof = CurvatureProfile(
        [constant_function(0.3), constant_function(0.2)], (-20, 20)
    )
    s = np.linspace(-4, 4, 33)
    ff = build_frame_field(prof, s)
    ang = np.linspace(0, 2 * np.pi, 6, endpoint=False)
    u = 0.2 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    cloud = tube_embedding(ff, u, radius=0.2)
    path = tmp_path / "mesh.txt"
    export_mesh(path, cloud)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("#")
    assert "s" in lines[0] and "x1" in lines[0]
    assert len(lines) - 1 == 33 * 6
    assert len(lines[1].split()) == 1 + 2 + 3  # s, u2 u3, x1 x2 x3
