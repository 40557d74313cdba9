"""Workload definitions: problem files and seeded inputs.

Each workload is a list of pipeline calls into ``tubespectra.cli``.  The
problem files are generated here as INI text and written to the run's
scratch directory, so the program only ever sees ordinary input files.
``bent-strip`` and ``rect-tube`` are fixed reference problems; the seed
drives the ``screen`` geometry only.  ``scale="smoke"`` shrinks every
ladder for the self-test; reference values are then not checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Independent dense-LAPACK value for the acceptance bent strip
# (tools/dense_reference.py, also pinned in tests/test_acceptance.py).
DENSE_REFERENCE_LAMBDA0 = 2.46616275

NAMES = ("bent-strip", "rect-tube", "screen")


@dataclass
class Call:
    """One pipeline call: ``kind`` is spectrum, check or mourre."""

    label: str
    kind: str
    ini: str


@dataclass
class Workload:
    name: str
    calls: list
    min_iterations: int = 1      # measured passes
    warmup: int = 0              # leading passes run but not measured


def _ini(problem, curvatures, cross_section, numerics, surface=None):
    out = [f"[problem]\n{problem}\n"]
    for i, curv in enumerate(curvatures):
        out.append(f"[{'curvature' if i == 0 else f'curvature{i + 1}'}]\n{curv}\n")
    out.append(f"[cross_section]\n{cross_section}\n")
    if surface is not None:
        out.append(f"[surface]\n{surface}\n")
    out.append(f"[numerics]\n{numerics}\n")
    return "\n".join(out)


def _gauss(kappa0, sigma):
    return f"family = gaussian-bump\nkappa0 = {kappa0!r}\nsigma = {sigma!r}"


def _ladder(scale, full, smoke):
    return full if scale == "full" else smoke


def bent_strip_ini(scale="full", kappa0=0.5, sigma=1.0, mourre=True):
    length, spacings = _ladder(
        scale, (64.0, "0.125, 0.0625, 0.03125"), (16.0, "0.125, 0.0625")
    )
    numerics = (
        f"domain_length = {length!r}\nspacings = {spacings}\nn_eigs = 4\n"
        f"include_mourre = {'true' if mourre else 'false'}"
    )
    if scale != "full":
        numerics += "\nmourre_domain_length = 32.0\nmourre_spacing = 0.125\nmourre_windows = 4.7"
    return _ini(
        "kind = euclidean-tube\ndimension = 2",
        [_gauss(kappa0, sigma)],
        "shape = interval\nhalf_width = 1.0",
        numerics,
    )


def rect_tube_ini(scale="full", kappa0=0.5, sigma=1.0):
    length, spacings = _ladder(scale, (16.0, "0.125, 0.0625"), (8.0, "0.25, 0.125"))
    return _ini(
        "kind = euclidean-tube\ndimension = 3",
        [_gauss(kappa0, sigma), _gauss(0.6 * kappa0, sigma)],
        "shape = rectangle\nside_x = 1.0\nside_y = 1.0",
        f"domain_length = {length!r}\nspacings = {spacings}\nn_eigs = 4\n"
        "include_mourre = false",
    )


def _screen_problems(seed, scale):
    """Five gate problems; seed 0 gives the nominal parameters."""
    if seed == 0:
        k = [0.5] * 5
        s = [1.0] * 5
        p = 2.5
    else:
        rng = random.Random(seed)
        k = [round(rng.uniform(0.3, 0.6), 6) for _ in range(5)]
        s = [round(rng.uniform(0.75, 1.5), 6) for _ in range(5)]
        p = round(rng.uniform(2.0, 3.0), 6)
    numerics = "include_mourre = false"
    return [
        ("bent-strip", bent_strip_ini(scale, k[0], s[0], mourre=False)),
        ("flat-surface-strip", _ini(
            "kind = surface-strip\ndimension = 2",
            [_gauss(k[1], s[1])],
            "shape = interval\nhalf_width = 1.0",
            numerics,
            surface="curvature = 0.0",
        )),
        ("rectangle-d3", rect_tube_ini(scale, k[2], s[2])),
        ("power-tail-strip", _ini(
            "kind = euclidean-tube\ndimension = 2",
            [f"family = power-tail\nkappa0 = {k[3]!r}\nsigma = {s[3]!r}\np = {p!r}"],
            "shape = interval\nhalf_width = 1.0",
            numerics,
        )),
        ("disc-d3", _ini(
            "kind = euclidean-tube\ndimension = 3",
            [_gauss(k[4], s[4]), _gauss(0.6 * k[4], s[4])],
            "shape = disc\nradius = 1.0",
            numerics,
        )),
    ]


def build(name, seed, scale="full"):
    if name == "bent-strip":
        return Workload(name, [Call("bent-strip", "spectrum", bent_strip_ini(scale))])
    if name == "rect-tube":
        return Workload(name, [Call("rect-tube", "spectrum", rect_tube_ini(scale))])
    if name == "screen":
        calls = [Call(label, "check", ini) for label, ini in _screen_problems(seed, scale)]
        # the Mourre table depends only on the interval cross-section
        calls.append(Call("interval-mourre", "mourre", bent_strip_ini(scale)))
        # The first pass pays one-time lazy imports (scipy.stats, about
        # 0.5 s); with several short passes it is a warm-up, not a sample.
        # Report determinism is compared across all passes.
        return Workload(name, calls, min_iterations=2, warmup=1)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
