"""Waveguide problem definitions as INI files.

One file describes one problem.  The grammar is plain configparser INI
with typed values documented in the README: floats, integers, booleans
and comma-separated float lists.  Sections:

    [problem]        kind (euclidean-tube | surface-strip), dimension
    [curvature]      first curvature family; [curvature2].. for higher ones
    [cross_section]  interval | rectangle | disc geometry
    [surface]        Gauss curvature for strips (constant or table file)
    [numerics]       grids, ladders, solver and Mourre controls
    [outputs]        file names and mesh sampling

Curvature families: constant (value), gaussian-bump (kappa0, sigma),
power-tail (kappa0, sigma, p) and table (file with two columns s kappa).
"""

from __future__ import annotations

import configparser
import io
import os
from dataclasses import dataclass

import numpy as np

from .cross_section import CrossSection, cross_section_spectrum
from .errors import ConfigError, CoverageError, InputError, WindowError
from .profiles import (
    CurvatureProfile,
    constant_function,
    gaussian_bump,
    power_tail,
    tabulated_function,
)
from .spectral import validate_mourre_windows

_KINDS = ("euclidean-tube", "surface-strip")
# the `mourre` command takes at least this many thresholds, `spectrum` n_thresholds
MOURRE_MIN_THRESHOLDS = 4


@dataclass(frozen=True)
class CurvatureSpec:
    family: str
    params: dict

    def build(self, base_dir="."):
        fam = self.family
        if fam == "constant":
            return constant_function(self.params["value"])
        if fam == "gaussian-bump":
            return gaussian_bump(self.params["kappa0"], self.params.get("sigma", 1.0))
        if fam == "power-tail":
            return power_tail(
                self.params["kappa0"], self.params.get("sigma", 1.0), self.params["p"]
            )
        if fam == "table":
            path = self.params["file"]
            if not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            data = np.loadtxt(path)
            if data.ndim != 2 or data.shape[1] < 2:
                raise ConfigError(f"curvature table {path!r} needs two columns (s kappa)")
            return tabulated_function(data[:, 0], data[:, 1], label=f"table({path})")
        raise ConfigError(f"unknown curvature family {fam!r}")


@dataclass(frozen=True)
class WaveguideConfig:
    kind: str
    dimension: int
    curvatures: tuple
    cross_section_shape: str
    cross_section_params: dict
    surface_curvature: object          # float or ('table', path); strips only
    s_max: float
    domain_length: float               # None: doubling rule
    spacings: tuple
    n_eigs: int
    n_thresholds: int
    truncation_tol: float
    include_mourre: bool
    mourre_windows: tuple              # absolute energies; () = defaults
    mourre_domain_length: float
    mourre_spacing: float
    mourre_epsilon_factor: float
    mourre_tolerance_factor: float
    outputs: dict
    mesh_s_points: int
    mesh_u_points: int
    base_dir: str = "."

    # -- builders ----------------------------------------------------------
    def profile(self):
        kappas = [spec.build(self.base_dir) for spec in self.curvatures]
        if self.kind == "euclidean-tube":
            need = self.dimension - 1
        else:
            need = 1
        if len(kappas) != need:
            raise ConfigError(
                f"problem needs {need} curvature function(s), got {len(kappas)}"
            )
        lo, hi = -self.s_max, self.s_max
        grid = getattr(kappas[0], "sample_grid", None)
        if grid is not None:
            lo, hi = float(grid[0]), float(grid[-1])
        return CurvatureProfile(kappas, (lo, hi))

    def cross_section(self):
        shape = self.cross_section_shape
        p = self.cross_section_params
        if shape == "interval":
            return CrossSection.interval(p["half_width"])
        if shape == "rectangle":
            return CrossSection.rectangle(p["side_x"], p["side_y"])
        if shape == "disc":
            return CrossSection.disc(p["radius"])
        raise ConfigError(f"cross-section shape {shape!r} not supported in configs")

    def gauss_curvature_fn(self):
        """K(s, u) interpolated from the ``[surface] file`` table; InputError off it."""
        path = self.surface_curvature[1]
        if not os.path.isabs(path):
            path = os.path.join(self.base_dir, path)
        data = np.loadtxt(path)
        if data.ndim != 2 or data.shape[1] < 3:
            raise ConfigError(f"surface table {path!r} needs columns s u K")
        from scipy.interpolate import LinearNDInterpolator

        interp = LinearNDInterpolator(data[:, :2], data[:, 2], fill_value=np.nan)

        def fn(s, u):
            s, u = np.broadcast_arrays(np.asarray(s, float), np.asarray(u, float))
            K = interp(np.stack([s.ravel(), u.ravel()], axis=-1))
            if np.isnan(K).any():
                i = int(np.argmax(np.isnan(K)))
                raise InputError(f"surface table {path!r} does not cover "
                                 f"(s={s.ravel()[i]:g}, u={u.ravel()[i]:g})")
            return K.reshape(s.shape)

        return fn

    def render(self):
        """Canonical INI text reproducing this configuration."""
        cp = configparser.ConfigParser()
        cp["problem"] = {"kind": self.kind, "dimension": str(self.dimension)}
        for i, spec in enumerate(self.curvatures):
            name = "curvature" if i == 0 else f"curvature{i + 1}"
            sect = {"family": spec.family}
            sect.update({k: repr(v) if isinstance(v, float) else str(v)
                         for k, v in spec.params.items()})
            cp[name] = sect
        cs = {"shape": self.cross_section_shape}
        cs.update({k: repr(float(v)) for k, v in self.cross_section_params.items()})
        cp["cross_section"] = cs
        if self.kind == "surface-strip":
            if isinstance(self.surface_curvature, tuple):
                cp["surface"] = {"file": self.surface_curvature[1]}
            else:
                cp["surface"] = {"curvature": repr(float(self.surface_curvature))}
        num = {
            "s_max": repr(self.s_max),
            "spacings": ", ".join(repr(h) for h in self.spacings),
            "n_eigs": str(self.n_eigs),
            "n_thresholds": str(self.n_thresholds),
            "include_mourre": str(self.include_mourre).lower(),
            "mourre_domain_length": repr(self.mourre_domain_length),
            "mourre_spacing": repr(self.mourre_spacing),
            "mourre_epsilon_factor": repr(self.mourre_epsilon_factor),
            "mourre_tolerance_factor": repr(self.mourre_tolerance_factor),
        }
        if self.domain_length is not None:
            num["domain_length"] = repr(self.domain_length)
        if self.truncation_tol is not None:
            num["truncation_tol"] = repr(self.truncation_tol)
        if self.mourre_windows:
            num["mourre_windows"] = ", ".join(repr(w) for w in self.mourre_windows)
        cp["numerics"] = num
        out = dict(self.outputs)
        out["mesh_s_points"] = str(self.mesh_s_points)
        out["mesh_u_points"] = str(self.mesh_u_points)
        cp["outputs"] = out
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()


def _get(parser, section, option, conv, default=...):
    try:
        raw = parser.get(section, option)
    except (configparser.NoSectionError, configparser.NoOptionError):
        if default is ...:
            raise ConfigError(f"[{section}] missing required field {option!r}") from None
        return default
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {option} = {raw!r}: {exc}") from None


def _floats(raw):
    vals = tuple(float(x) for x in raw.replace(",", " ").split())
    if not vals:
        raise ValueError("empty list")
    return vals


def _bool(raw):
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def load_config(path):
    """Parse and validate a problem file; raises ConfigError with the
    offending section/field (or parser line) in the message."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")

    return parse_config(parser, base_dir=os.path.dirname(os.path.abspath(path)))


def load_config_text(text, base_dir="."):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    return parse_config(parser, base_dir=base_dir)


def parse_config(parser, base_dir="."):
    kind = _get(parser, "problem", "kind", str)
    if kind not in _KINDS:
        raise ConfigError(f"[problem] kind must be one of {_KINDS}, got {kind!r}")
    dimension = _get(parser, "problem", "dimension", int, 2)
    if kind == "surface-strip" and dimension != 2:
        raise ConfigError("[problem] surface strips are two-dimensional")
    if dimension < 2:
        raise ConfigError("[problem] dimension must be >= 2")

    n_curv = dimension - 1 if kind == "euclidean-tube" else 1
    curvatures = []
    for i in range(n_curv):
        sect = "curvature" if i == 0 else f"curvature{i + 1}"
        if not parser.has_section(sect):
            raise ConfigError(f"missing [{sect}] section")
        family = _get(parser, sect, "family", str)
        params = {}
        if family == "constant":
            params["value"] = _get(parser, sect, "value", float)
        elif family == "gaussian-bump":
            params["kappa0"] = _get(parser, sect, "kappa0", float)
            params["sigma"] = _get(parser, sect, "sigma", float, 1.0)
        elif family == "power-tail":
            params["kappa0"] = _get(parser, sect, "kappa0", float)
            params["sigma"] = _get(parser, sect, "sigma", float, 1.0)
            params["p"] = _get(parser, sect, "p", float)
        elif family == "table":
            params["file"] = _get(parser, sect, "file", str)
            fpath = params["file"]
            if not os.path.isabs(fpath):
                fpath = os.path.join(base_dir, fpath)
            if not os.path.exists(fpath):
                raise ConfigError(f"[{sect}] file {params['file']!r} does not exist")
        else:
            raise ConfigError(f"[{sect}] unknown family {family!r}")
        curvatures.append(CurvatureSpec(family, params))

    shape = _get(parser, "cross_section", "shape", str)
    cs_params = {}
    if shape == "interval":
        cs_params["half_width"] = _get(parser, "cross_section", "half_width", float)
    elif shape == "rectangle":
        cs_params["side_x"] = _get(parser, "cross_section", "side_x", float)
        cs_params["side_y"] = _get(parser, "cross_section", "side_y", float)
    elif shape == "disc":
        cs_params["radius"] = _get(parser, "cross_section", "radius", float)
    else:
        raise ConfigError(f"[cross_section] unknown shape {shape!r}")
    for key, val in cs_params.items():
        if val <= 0:
            raise ConfigError(f"[cross_section] {key} must be positive")

    surface_curvature = 0.0
    if kind == "surface-strip":
        if parser.has_option("surface", "file"):
            surface_curvature = ("table", _get(parser, "surface", "file", str))
        else:
            surface_curvature = _get(parser, "surface", "curvature", float, 0.0)

    spacings = _get(parser, "numerics", "spacings", _floats, (0.125, 0.0625, 0.03125))
    if any(h <= 0 for h in spacings) or any(
        b >= a for a, b in zip(spacings, spacings[1:])
    ):
        raise ConfigError("[numerics] spacings must be positive and strictly decreasing")

    windows = _get(parser, "numerics", "mourre_windows", _floats, ())
    if parser.has_option("numerics", "mourre_wall_mass_tol"):
        raise ConfigError("[numerics] mourre_wall_mass_tol is no longer a key: the Mourre "
                          "check keeps every state of a window; remove it")

    cfg = WaveguideConfig(
        kind=kind,
        dimension=dimension,
        curvatures=tuple(curvatures),
        cross_section_shape=shape,
        cross_section_params=cs_params,
        surface_curvature=surface_curvature,
        s_max=_get(parser, "numerics", "s_max", float, 1e4),
        domain_length=_get(parser, "numerics", "domain_length", float, None),
        spacings=tuple(spacings),
        n_eigs=_get(parser, "numerics", "n_eigs", int, 6),
        n_thresholds=_get(parser, "numerics", "n_thresholds", int, 30),
        truncation_tol=_get(parser, "numerics", "truncation_tol", float, None),
        include_mourre=_get(parser, "numerics", "include_mourre", _bool, False),
        mourre_windows=tuple(windows),
        mourre_domain_length=_get(parser, "numerics", "mourre_domain_length", float, 32.0),
        mourre_spacing=_get(parser, "numerics", "mourre_spacing", float, 1.0 / 16.0),
        mourre_epsilon_factor=_get(parser, "numerics", "mourre_epsilon_factor", float, 0.05),
        mourre_tolerance_factor=_get(
            parser, "numerics", "mourre_tolerance_factor", float, 0.05
        ),
        outputs={
            "report": _get(parser, "outputs", "report", str, "report.txt"),
            "spectrum": _get(parser, "outputs", "spectrum", str, "spectrum.csv"),
            "mesh": _get(parser, "outputs", "mesh", str, "mesh.txt"),
            "mourre": _get(parser, "outputs", "mourre", str, "mourre.csv"),
        },
        mesh_s_points=_get(parser, "outputs", "mesh_s_points", int, 201),
        mesh_u_points=_get(parser, "outputs", "mesh_u_points", int, 9),
        base_dir=base_dir,
    )
    omega_dim = cfg.cross_section().dim
    if omega_dim != dimension - 1:
        raise ConfigError(
            f"[cross_section] shape = {shape} is {omega_dim}-dimensional, but dimension = "
            f"{dimension} needs a {dimension - 1}-dimensional cross-section"
        )
    if cfg.s_max <= 0:
        raise ConfigError("[numerics] s_max must be positive")
    if cfg.domain_length is not None and cfg.domain_length <= 0:
        raise ConfigError("[numerics] domain_length must be positive")
    for name in ("n_eigs", "n_thresholds"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"[numerics] {name} must be at least 1")
    for name in ("mourre_domain_length", "mourre_spacing", "mourre_epsilon_factor"):
        if not getattr(cfg, name) > 0:
            raise ConfigError(f"[numerics] {name} must be positive")
    if not cfg.mourre_tolerance_factor >= 0:
        raise ConfigError("[numerics] mourre_tolerance_factor must not be negative")
    if cfg.include_mourre and not cfg.mourre_windows:
        # the default windows sit between the first three distinct thresholds
        nu = cross_section_spectrum(cfg.cross_section(), cfg.n_thresholds).nu
        if len(set(nu)) < 3:
            raise ConfigError(
                f"[numerics] n_thresholds = {cfg.n_thresholds} gives {len(set(nu))} distinct "
                "thresholds; include_mourre with the default mourre_windows needs 3"
            )
    if cfg.mourre_windows:
        # refuse a bad explicit window now, not after the ladder, against the
        # thresholds of each command that checks it
        omega = cfg.cross_section()
        counts = {max(cfg.n_thresholds, MOURRE_MIN_THRESHOLDS)}
        if cfg.include_mourre:
            counts.add(cfg.n_thresholds)
        for count in sorted(counts):
            thresholds = cross_section_spectrum(omega, count)
            try:
                validate_mourre_windows(thresholds, cfg.mourre_windows,
                                        cfg.mourre_epsilon_factor)
            except (WindowError, CoverageError) as exc:
                raise ConfigError(f"[numerics] mourre_windows: {exc}") from None
    return cfg

