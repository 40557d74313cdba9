import numpy as np
import pytest

from tubespectra import (
    CrossSection,
    CurvatureProfile,
    constant_function,
    cross_section_spectrum,
    gaussian_bump,
    metric_from_profile,
)
from tubespectra.frames import _orthogonality_defects

NU1 = np.pi**2 / 4.0


def jet_field(metric, name, s, u):
    """One field of ``metric``'s jet at (s, u)."""
    return metric.jet(s, u, (name,))[name]


def assert_frame_invariants(field):
    """Orthonormal frames, and rotations orthonormal with determinant 1, within 1e-10."""
    assert np.max(_orthogonality_defects(field.frames)) < 1e-10
    assert np.max(_orthogonality_defects(field.rotations)) < 1e-10
    assert np.max(np.abs(np.linalg.det(field.rotations) - 1.0)) < 1e-10


def node_coordinates(grid):
    """(S, U) broadcast over the full node tensor; U has a trailing axis of length d-1."""
    S = grid.s_nodes.reshape((-1,) + (1,) * grid.transverse_dim)
    S = np.broadcast_to(S, grid.full_shape)
    U = np.broadcast_to(grid.transverse_nodes(), grid.full_shape + (grid.transverse_dim,))
    return S, U


def row_index(grid):
    """(row of each node, -1 off the unknowns; the unknowns mask) over the full tensor."""
    act = grid.active()
    idx = -np.ones(grid.full_shape, dtype=np.int64)
    idx[act] = np.arange(act.sum())
    return idx, act


def unknown_coordinates(grid):
    """(S, U) at the unknowns, in row order."""
    act = grid.active()
    return tuple(x[act] for x in node_coordinates(grid))


@pytest.fixture(scope="session")
def bump_profile():
    """The reference bent strip: kappa(s) = 0.5 exp(-s^2), d = 2."""
    return CurvatureProfile([gaussian_bump(0.5, 1.0)], (-1e4, 1e4))


@pytest.fixture(scope="session")
def bump_metric(bump_profile):
    return metric_from_profile(bump_profile, 1.0)


@pytest.fixture(scope="session")
def straight_profile():
    return CurvatureProfile([constant_function(0.0)], (-1e4, 1e4))


D3_TUBE = """
[problem]
kind = euclidean-tube
dimension = 3

[curvature]
family = gaussian-bump
kappa0 = 0.5
sigma = 1.0

[curvature2]
family = gaussian-bump
kappa0 = 0.3
sigma = 1.0

[cross_section]
{cross_section}

[numerics]
s_max = 100.0
"""

@pytest.fixture(scope="session")
def d3_tube():
    """The metric and cross-section of a d = 3 tube with two bumps, by cross-section text."""
    from tubespectra.cli import build_metric
    from tubespectra.config import load_config_text

    def tube(cross_section):
        cfg = load_config_text(D3_TUBE.format(cross_section=cross_section))
        omega = cfg.cross_section()
        return build_metric(cfg, cfg.profile(), omega), omega

    return tube


@pytest.fixture(scope="session")
def d3_recipe(d3_tube):
    """The (L, spacing) -> Hamiltonian recipe of :func:`d3_tube`."""
    from tubespectra.cli import hamiltonian_recipe

    return lambda cross_section: hamiltonian_recipe(*d3_tube(cross_section))


@pytest.fixture(scope="session")
def interval_omega():
    return CrossSection.interval(1.0)


@pytest.fixture(scope="session")
def interval_thresholds(interval_omega):
    return cross_section_spectrum(interval_omega, 30)


def random_smooth_profile(rng, dimension=2, max_kappa=0.6):
    """Random bounded smooth curvature profile: a few gaussian bumps."""
    from tubespectra.profiles import ScalarFunction

    def bump_mixture():
        n = rng.integers(1, 4)
        cs = rng.uniform(-max_kappa, max_kappa, size=n) / n
        mus = rng.uniform(-3.0, 3.0, size=n)
        sigmas = rng.uniform(0.6, 2.0, size=n)

        def deriv(order):
            def f(s):
                s = np.asarray(s, dtype=float)
                total = np.zeros_like(s)
                for c, mu, sig in zip(cs, mus, sigmas):
                    t = (s - mu) / sig
                    e = np.exp(-(t**2))
                    if order == 0:
                        total += c * e
                    elif order == 1:
                        total += c * e * (-2 * t) / sig
                    elif order == 2:
                        total += c * e * (4 * t**2 - 2) / sig**2
                    elif order == 3:
                        total += c * e * (-8 * t**3 + 12 * t) / sig**3
                return total

            return f

        return ScalarFunction([deriv(k) for k in range(4)], label="bump-mix")

    kappas = [bump_mixture() for _ in range(dimension - 1)]
    return CurvatureProfile(kappas, (-50.0, 50.0))
