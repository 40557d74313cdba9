"""Waveguide problem definitions as INI files.

One file describes one problem.  The grammar is plain configparser INI
with typed values documented in the README: floats, integers, booleans
and comma-separated float lists; every number must be finite.  Sections:

    [problem]        kind (euclidean-tube | surface-strip), dimension
    [curvature]      first curvature family; [curvature2].. for higher ones
    [cross_section]  interval | rectangle | disc geometry
    [surface]        Gauss curvature for strips (constant or table file)
    [numerics]       grids, ladders, solver and Mourre controls
    [outputs]        file names and mesh sampling

The grammar is stated once, in tables that parsing, building and
rendering all read: ``_FAMILIES`` (each curvature family's builder and
keys: constant, gaussian-bump, power-tail, and table, a file of s kappa
rows), ``_SHAPES`` (each cross-section's constructor and keys), and
``_NUMERICS`` and ``_OUTPUTS`` (key, converter, default).  One converter
refuses nan and inf for every float key; a key's range check sits in its
converter.  A key or section the grammar does not read is refused, but
``[surface]`` is allowed on a tube, which ignores it.  A file the grammar names is relative to the problem file's
directory, and must exist when the problem file is loaded.
"""

from __future__ import annotations

import configparser
import io
import os
from dataclasses import dataclass

import numpy as np

from .cross_section import CrossSection, cross_section_spectrum
from .errors import ConfigError, CoverageError, InputError, WindowError
from .profiles import (CurvatureProfile, constant_function, gaussian_bump, power_tail,
                       tabulated_function)
from .spectral import validate_mourre_windows

_KINDS = ("euclidean-tube", "surface-strip")
# the `mourre` command takes at least this many thresholds, `spectrum` n_thresholds
MOURRE_MIN_THRESHOLDS = 4


class _OutOfRange(Exception):
    """A value its key refuses; reads ``[section] key <message>``."""


def _finite(raw):
    if not np.isfinite(value := float(raw)):
        raise ValueError("not a finite number")
    return value


def _floats(raw):
    vals = tuple(_finite(x) for x in raw.replace(",", " ").split())
    if not vals:
        raise ValueError("empty list")
    return vals


def _bool(raw):
    lowered = raw.strip().lower()
    if lowered not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"not a boolean: {raw!r}")
    return lowered in ("1", "true", "yes", "on")


def _checked(convert, holds, rule):
    """``convert``, refusing a value that fails ``holds`` with ``rule.format(value)``."""
    def checked(raw):
        if not holds(value := convert(raw)):
            raise _OutOfRange(rule.format(value))
        return value
    return checked


def _load_table(base_dir, name, columns, need):
    """The samples of table file ``name`` and its path; ``need`` says what it lacks.

    A file numpy cannot read as numbers, or that holds nan or inf, is a
    ConfigError naming it.
    """
    path = os.path.join(base_dir, name)   # as parse_config resolves it
    try:
        data = np.loadtxt(path)
    except ValueError as exc:
        raise ConfigError(f"table {path!r} is not a table of numbers: {exc}") from None
    if data.ndim != 2 or data.shape[1] < columns:
        raise ConfigError(need.format(path))
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"table {path!r} holds a value that is not a finite number")
    return data, path


_positive = _checked(_finite, lambda x: x > 0, "must be positive")
_count = _checked(int, lambda n: n >= 1, "must be at least 1")
_spacings = _checked(_floats, lambda hs: min(hs) > 0 and all(a > b for a, b in zip(hs, hs[1:])),
                     "must be positive and strictly decreasing")

# curvature family: its builder (None: a table file) and its keys with their
# defaults, ... marking a required key
_BUMP = {"kappa0": ..., "sigma": 1.0}
_FAMILIES = {
    "constant": (constant_function, {"value": ...}),
    "gaussian-bump": (gaussian_bump, _BUMP),
    "power-tail": (power_tail, {**_BUMP, "p": ...}),
    "table": (None, {"file": ...}),
}
# cross-section shape: its constructor and its keys, positive lengths all required
_SHAPES = {
    "interval": (CrossSection.interval, ("half_width",)),
    "rectangle": (CrossSection.rectangle, ("side_x", "side_y")),
    "disc": (CrossSection.disc, ("radius",)),
}
# (key, converter, default) in the order `render` writes them; a key whose
# default is None or () is written only when set
_NUMERICS = (
    ("s_max", _positive, 1e4),
    ("spacings", _spacings, (0.125, 0.0625, 0.03125)),
    ("n_eigs", _count, 6),
    ("n_thresholds", _count, 30),
    ("include_mourre", _bool, False),
    ("mourre_domain_length", _positive, 32.0),
    ("mourre_spacing", _positive, 1.0 / 16.0),
    ("mourre_epsilon_factor", _positive, 0.05),
    ("mourre_tolerance_factor", _checked(_finite, lambda x: x >= 0, "must not be negative"), 0.05),
    ("domain_length", _positive, None),
    ("truncation_tol", _positive, None),
    ("mourre_windows", _floats, ()),
)
# the output file names (WaveguideConfig.outputs), then the mesh sample counts
_FILES = (("report", str, "report.txt"), ("spectrum", str, "spectrum.csv"),
          ("mesh", str, "mesh.txt"), ("mourre", str, "mourre.csv"))
_OUTPUTS = _FILES + (("mesh_s_points", _checked(int, lambda n: n >= 2, "must be at least 2"), 201),
                     ("mesh_u_points", _count, 9))


def _curvature_section(i):
    return "curvature" if i == 0 else f"curvature{i + 1}"


def _format(value):
    """A value as a problem file writes it."""
    if isinstance(value, tuple):
        return ", ".join(map(_format, value))
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class CurvatureSpec:
    family: str
    params: dict

    def build(self, base_dir="."):
        builder = _FAMILIES[self.family][0]
        if builder is not None:
            return builder(**self.params)
        data, path = _load_table(base_dir, self.params["file"], 2,
                                 "curvature table {!r} needs two columns (s kappa)")
        return tabulated_function(data[:, 0], data[:, 1], label=f"table({path})")


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
        lo, hi = -self.s_max, self.s_max
        grid = getattr(kappas[0], "sample_grid", None)
        if grid is not None:
            lo, hi = float(grid[0]), float(grid[-1])
        return CurvatureProfile(kappas, (lo, hi))

    def cross_section(self):
        build, keys = _SHAPES[self.cross_section_shape]
        return build(*(self.cross_section_params[key] for key in keys))

    def gauss_curvature_fn(self):
        """K(s, u) interpolated from the ``[surface] file`` table; InputError off it."""
        data, path = _load_table(self.base_dir, self.surface_curvature[1], 3,
                                 "surface table {!r} needs columns s u K")
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
        sections = {"problem": {"kind": self.kind, "dimension": self.dimension}}
        for i, spec in enumerate(self.curvatures):
            sections[_curvature_section(i)] = {"family": spec.family, **spec.params}
        sections["cross_section"] = {"shape": self.cross_section_shape, **self.cross_section_params}
        if self.kind == "surface-strip":
            K = self.surface_curvature
            sections["surface"] = {"file": K[1]} if isinstance(K, tuple) else {"curvature": K}
        values = {**vars(self), **self.outputs}
        for name, table in (("numerics", _NUMERICS), ("outputs", _OUTPUTS)):
            sections[name] = {key: values[key] for key, _, _ in table
                              if values[key] not in (None, ())}
        cp = configparser.ConfigParser()
        cp.read_dict({name: {key: _format(value) for key, value in section.items()}
                      for name, section in sections.items()})
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
    except _OutOfRange as exc:
        raise ConfigError(f"[{section}] {option} {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {option} = {raw!r}: {exc}") from None


def _only(parser, section, keys):
    """Refuse a key of ``section`` that the grammar does not read there."""
    if parser.has_section(section):
        for key in parser.options(section):
            if key not in keys:
                raise ConfigError(f"[{section}] unknown key {key!r}")


def _section(parser, section, table):
    _only(parser, section, [key for key, _, _ in table])
    return {key: _get(parser, section, key, conv, default) for key, conv, default in table}


def load_config(path):
    """Parse and validate a problem file; raises ConfigError with the
    offending section/field (or parser line) in the message."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError):
        raise ConfigError(f"config file {path!r} not found or unreadable") from None
    return _parse_text(text, os.path.dirname(os.path.abspath(path)), path)


def load_config_text(text, base_dir="."):
    return _parse_text(text, base_dir)


def _parse_text(text, base_dir, path=None):
    """``parse_config`` of INI text; a parser error names ``path``, if given."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text, path or "<string>")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from None
    return parse_config(parser, base_dir=base_dir)


def parse_config(parser, base_dir="."):
    # a file the grammar names: os.path.join keeps an absolute name
    exists = _checked(str, lambda name: os.path.exists(os.path.join(base_dir, name)),
                      "{!r} does not exist")
    kind = _get(parser, "problem", "kind", str)
    if kind not in _KINDS:
        raise ConfigError(f"[problem] kind must be one of {_KINDS}, got {kind!r}")
    dimension = _get(parser, "problem", "dimension", int, 2)
    if kind == "surface-strip" and dimension != 2:
        raise ConfigError("[problem] surface strips are two-dimensional")
    if dimension < 2:
        raise ConfigError("[problem] dimension must be >= 2")
    _only(parser, "problem", ("kind", "dimension"))

    curved = [_curvature_section(i)
              for i in range(dimension - 1 if kind == "euclidean-tube" else 1)]
    curvatures = []
    for sect in curved:
        if not parser.has_section(sect):
            raise ConfigError(f"missing [{sect}] section")
        family = _get(parser, sect, "family", str)
        if family not in _FAMILIES:
            raise ConfigError(f"[{sect}] unknown family {family!r}")
        builder, keys = _FAMILIES[family]
        _only(parser, sect, ("family", *keys))
        conv = _finite if builder else exists
        curvatures.append(CurvatureSpec(family, {
            key: _get(parser, sect, key, conv, default) for key, default in keys.items()}))

    shape = _get(parser, "cross_section", "shape", str)
    if shape not in _SHAPES:
        raise ConfigError(f"[cross_section] unknown shape {shape!r}")
    _only(parser, "cross_section", ("shape", *_SHAPES[shape][1]))
    cs_params = {key: _get(parser, "cross_section", key, _positive) for key in _SHAPES[shape][1]}

    surface_curvature = 0.0
    _only(parser, "surface", ("file", "curvature"))
    if kind == "surface-strip":
        if parser.has_option("surface", "file"):
            surface_curvature = ("table", _get(parser, "surface", "file", exists))
        else:
            surface_curvature = _get(parser, "surface", "curvature", _finite, 0.0)

    if parser.has_option("numerics", "mourre_wall_mass_tol"):
        raise ConfigError("[numerics] mourre_wall_mass_tol is no longer a key: the Mourre "
                          "check keeps every state of a window; remove it")
    numerics = _section(parser, "numerics", _NUMERICS)
    mesh = _section(parser, "outputs", _OUTPUTS)
    files = {key: mesh.pop(key) for key, _, _ in _FILES}
    # [surface] is read for strips only, and allowed on a tube
    for sect in parser.sections():
        if sect not in ("problem", *curved, "cross_section", "surface", "numerics", "outputs"):
            raise ConfigError(f"unknown section [{sect}]")
    cfg = WaveguideConfig(kind=kind, dimension=dimension, curvatures=tuple(curvatures),
                          cross_section_shape=shape, cross_section_params=cs_params,
                          surface_curvature=surface_curvature, outputs=files,
                          base_dir=base_dir, **numerics, **mesh)
    omega = cfg.cross_section()
    if omega.dim != dimension - 1:
        raise ConfigError(f"[cross_section] shape = {shape} is {omega.dim}-dimensional, but "
                          f"dimension = {dimension} needs a {dimension - 1}-dimensional "
                          "cross-section")
    if cfg.include_mourre and not cfg.mourre_windows:
        # the default windows sit between the first three distinct thresholds
        nu = cross_section_spectrum(omega, cfg.n_thresholds).nu
        if len(set(nu)) < 3:
            raise ConfigError(f"[numerics] n_thresholds = {cfg.n_thresholds} gives "
                              f"{len(set(nu))} distinct thresholds; include_mourre with the "
                              "default mourre_windows needs 3")
    if cfg.mourre_windows:
        # refuse a bad explicit window now, not after the ladder, against the
        # thresholds of each command that checks it
        counts = {max(cfg.n_thresholds, MOURRE_MIN_THRESHOLDS)}
        if cfg.include_mourre:
            counts.add(cfg.n_thresholds)
        for count in sorted(counts):
            try:
                validate_mourre_windows(cross_section_spectrum(omega, count),
                                        cfg.mourre_windows, cfg.mourre_epsilon_factor)
            except (WindowError, CoverageError) as exc:
                raise ConfigError(f"[numerics] mourre_windows: {exc}") from None
    return cfg
